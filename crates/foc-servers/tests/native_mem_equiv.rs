//! The memory-spanning block executor's invisibility contract: a
//! `LocalsBlock` that crosses the memory boundary — checked guest
//! loads and stores resolved in-block through the placement probe
//! (`GLoad`/`GStore`/`GIdxLoad`/`GIdxStore`) — must be observationally
//! byte-identical to one-dispatch-at-a-time interpretation on every
//! surface: call results, crash faults, `RunStats` (so in particular
//! the `charge − spent` refund taken at a mid-block deopt), the full
//! `SpaceStats` counters, and the full memory-error log with its fault
//! pcs and sequence numbers.
//!
//! `native_equiv.rs` proves the server-layer contract; this battery
//! aims straight at the heap seams with direct-machine sources built
//! to fault *inside* a block (earlier block ops already retired, the
//! probe misses, the access deopts at its pre-baked `FaultAt` seam),
//! crossed with both page-lookup layers, alloc/free churn that
//! reshapes the object table under the probe, manufactured-value
//! strategies, and a fuel sweep that probes the whole-region
//! pre-charge gate around the faulting block — plus the server-layer
//! attack battery re-run under the paged lookup layer, which the
//! in-block probe shares with the interpreter.

use proptest::prelude::*;

use foc_compiler::{compile_image_tier, ExecTier};
use foc_memory::{LookupLayer, MemoryErrorRecord, Mode, SpaceStats, ValueSequence};
use foc_servers::conn::Edge;
use foc_servers::sweep::{drive_input, INPUT_LIBRARY};
use foc_servers::BootSpec;
use foc_vm::{Machine, MachineConfig, RunStats, VmFault};

/// An in-bounds copy loop: the inner `dst[i] = src[i]` lowers to a
/// pointer-arithmetic + checked-access pair that the native tier
/// groups into memory-spanning blocks and fuses into
/// `GIdxLoad`/`GIdxStore`, every access resolving on the probe's fast
/// path (no deopt anywhere).
const COPY_SOURCE: &str = "long spin(long n) {\n\
     long src[32];\n\
     long dst[32];\n\
     long i;\n\
     long j;\n\
     long t = 0;\n\
     for (i = 0; i < 32; i++) src[i] = i * 7;\n\
     for (j = 0; j < n; j++) {\n\
         for (i = 0; i < 32; i++) dst[i] = src[i];\n\
         t = t + dst[31];\n\
     }\n\
     return t;\n\
 }";

/// A copy loop that walks past both 8-element arrays when `n > 8`: the
/// first out-of-bounds iteration faults *mid-block* — the block's
/// pointer arithmetic has already retired in registers when the access
/// probe misses — so the native tier must deopt at the access's seam,
/// refund the unexecuted remainder of the region's pre-charge, and
/// produce the identical log record (address, width, fault pc,
/// sequence number) or crash fault as the baseline interpreter.
const OVERRUN_SOURCE: &str = "long smash(long n) {\n\
     long src[8];\n\
     long dst[8];\n\
     long i;\n\
     long t = 0;\n\
     for (i = 0; i < 8; i++) src[i] = i + 1;\n\
     for (i = 0; i < n; i++) {\n\
         dst[i] = src[i] + 1;\n\
         t = t + dst[i];\n\
     }\n\
     return t;\n\
 }";

/// Every observable surface of one machine run.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Observed {
    result: Result<i64, VmFault>,
    stats: RunStats,
    space: SpaceStats,
    log_total: u64,
    log_dropped: u64,
    records: Vec<MemoryErrorRecord>,
}

/// Boots `source` at `tier`, applies `churn` rounds of host-side
/// allocate/free traffic (reshaping the object table and page map the
/// in-block probe resolves against), calls `entry(arg)` once, and
/// snapshots everything observable.
fn observe(
    source: &str,
    entry: &str,
    arg: i64,
    tier: ExecTier,
    config: MachineConfig,
    churn: u32,
) -> Observed {
    let image = compile_image_tier(source, tier).expect("source builds");
    let mut m = Machine::load(image, config).expect("load");
    let mut held = Vec::new();
    for round in 0..churn {
        let addr = m.alloc_cstring(&[b'x'; 11]).expect("churn allocation fits");
        // Free every other allocation immediately so the table sees
        // interleaved insert/remove traffic, not just growth.
        if round % 2 == 0 {
            m.free_guest(addr).expect("churn free");
        } else {
            held.push(addr);
        }
    }
    let result = m.call(entry, &[arg]);
    let log = m.space().error_log();
    Observed {
        result,
        stats: m.stats(),
        space: *m.space().stats(),
        log_total: log.total(),
        log_dropped: log.dropped(),
        records: log.records().to_vec(),
    }
}

/// Asserts all three tiers of (`source`, `config`) agree on every
/// observable surface, returning the shared observation.
fn assert_mem_blind(
    source: &str,
    entry: &str,
    arg: i64,
    config: &MachineConfig,
    churn: u32,
) -> Observed {
    let baseline = observe(
        source,
        entry,
        arg,
        ExecTier::Baseline,
        config.clone(),
        churn,
    );
    for tier in [ExecTier::Super, ExecTier::Native] {
        let tiered = observe(source, entry, arg, tier, config.clone(), churn);
        assert_eq!(
            baseline, tiered,
            "{entry}({arg}) under {tier:?} must match baseline ({config:?}, churn {churn})"
        );
    }
    baseline
}

/// The in-bounds copy loop is byte-identical across tiers, modes, and
/// both lookup layers — and the two layers agree with *each other*,
/// pinning that the in-block probe drives the substrate counters
/// exactly as interpreted accesses do on the pure fast path.
#[test]
fn in_bounds_copy_loop_is_tier_and_lookup_blind() {
    for mode in Mode::ALL {
        let mut per_layer = Vec::new();
        for lookup in LookupLayer::ALL {
            let config = MachineConfig::with_mode(mode)
                .with_lookup(lookup)
                .with_fuel(1_000_000);
            let seen = assert_mem_blind(COPY_SOURCE, "spin", 6, &config, 0);
            assert_eq!(
                seen.result,
                Ok(31 * 7 * 6),
                "the copy loop is violation-free and must complete under {mode:?}/{lookup:?}"
            );
            assert_eq!(seen.log_total, 0, "no violations on the in-bounds loop");
            per_layer.push(seen);
        }
        assert_eq!(
            per_layer[0], per_layer[1],
            "lookup layers must be mutually invisible under {mode:?}"
        );
    }
}

/// Mid-block access faults: the overrun loop crosses its arrays' ends,
/// so the fused in-block access deopts. Every mode's full observable
/// surface — including the fault pc inside the log records and the
/// refunded `RunStats` — must match the baseline interpreter, under
/// both lookup layers.
#[test]
fn mid_block_access_faults_are_tier_blind() {
    for mode in Mode::ALL {
        for lookup in LookupLayer::ALL {
            let config = MachineConfig::with_mode(mode)
                .with_lookup(lookup)
                .with_fuel(1_000_000);
            let seen = assert_mem_blind(OVERRUN_SOURCE, "smash", 12, &config, 0);
            if mode == Mode::FailureOblivious {
                assert!(
                    seen.result.is_ok(),
                    "failure-oblivious execution must ride through the overrun"
                );
                assert!(
                    seen.log_total > 0,
                    "the overrun must be observable in the error log"
                );
                let record = &seen.records[0];
                assert!(
                    record.pc > 0,
                    "log records must carry the interpreter's fault pc"
                );
            }
        }
    }
}

/// Manufactured-value strategies decide what a deopted out-of-bounds
/// read returns — and therefore which branches the guest takes after
/// the fault. The in-block miss path draws from the same sequence at
/// the same point as the interpreter, so every strategy must agree.
#[test]
fn manufactured_values_at_deopt_seams_are_tier_blind() {
    let sequences = [
        ValueSequence::Zero,
        ValueSequence::Constant(0x41),
        ValueSequence::Cycling { wrap: 3 },
        ValueSequence::Cycling { wrap: 257 },
    ];
    for sequence in sequences {
        let config = MachineConfig::with_mode(Mode::FailureOblivious)
            .with_sequence(sequence)
            .with_fuel(1_000_000);
        assert_mem_blind(OVERRUN_SOURCE, "smash", 20, &config, 0);
    }
}

/// The server-layer attack battery under the *paged* lookup layer:
/// all five servers × all five modes × the full input library, native
/// vs baseline. `native_equiv.rs` covers the table layer; this leg
/// pins that heap-spanning blocks inside real server images resolve
/// through the page map identically too.
#[test]
fn all_servers_all_modes_attack_library_under_paged_lookup() {
    let mut attacks = 0;
    for input in INPUT_LIBRARY {
        for mode in Mode::ALL {
            let spec = BootSpec::new(input.kind, mode).with_lookup(LookupLayer::Paged);
            let baseline =
                drive_input(input, &spec.with_tier(ExecTier::Baseline), &Edge::default());
            let native = drive_input(input, &spec.with_tier(ExecTier::Native), &Edge::default());
            assert_eq!(
                baseline,
                native,
                "{}/{} under paged lookup: native must match baseline",
                input.kind.name(),
                input.name
            );
            if input.attack && mode == Mode::FailureOblivious {
                attacks += 1;
                assert!(
                    baseline.violations > 0 || baseline.fault.is_some(),
                    "{}/{}: an attack input must be observable",
                    input.kind.name(),
                    input.name
                );
            }
        }
    }
    assert!(attacks >= 5, "the library must cover every server's attack");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Fuel sweep over the faulting copy loop: a native region is only
    /// entered when remaining fuel covers its whole pre-charge, and a
    /// mid-block deopt refunds `charge − spent` — so a drifted refund
    /// (or a drifted entry decision) moves *where* tight budgets fuel
    /// out. Every fuel point from boot-time exhaustion through full
    /// completion must agree with baseline on the entire observable
    /// surface.
    #[test]
    fn fuel_sweep_pins_identical_faults_and_refunds(
        fuel in 0u64..6_000,
        n in 0i64..24,
        mode_index in 0usize..Mode::ALL.len(),
    ) {
        let config = MachineConfig::with_mode(Mode::ALL[mode_index]).with_fuel(fuel);
        let baseline = observe(OVERRUN_SOURCE, "smash", n, ExecTier::Baseline, config.clone(), 0);
        let native = observe(OVERRUN_SOURCE, "smash", n, ExecTier::Native, config, 0);
        prop_assert_eq!(baseline, native);
    }

    /// Alloc/free churn reshapes the object table and page map the
    /// in-block probe resolves against (splay rotations, page-hint
    /// shifts, freed-unit tombstones). Random churn volumes crossed
    /// with random overrun depths and manufactured-value seeds must
    /// leave the native tier observationally invisible.
    #[test]
    fn alloc_free_churn_is_probe_blind(
        churn in 0u32..96,
        n in 0i64..24,
        wrap in 2u64..600,
        lookup_index in 0usize..LookupLayer::ALL.len(),
    ) {
        let config = MachineConfig::with_mode(Mode::FailureOblivious)
            .with_lookup(LookupLayer::ALL[lookup_index])
            .with_sequence(ValueSequence::Cycling { wrap })
            .with_fuel(1_000_000);
        let baseline = observe(OVERRUN_SOURCE, "smash", n, ExecTier::Baseline, config.clone(), churn);
        let native = observe(OVERRUN_SOURCE, "smash", n, ExecTier::Native, config, churn);
        prop_assert_eq!(baseline, native);
    }
}
