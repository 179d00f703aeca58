//! Farm benchmark reporting: runs the cross-mode, cross-server farm
//! suite plus a thread-scaling sweep and a boot-cost measurement, and
//! renders `BENCH_farm.json` — the repository's perf trajectory record
//! for the farm harness.
//!
//! Wall-time rows are measured over repeated runs and summarised with
//! IQR outlier rejection plus a 95% confidence interval
//! ([`criterion::stats::robust_summary`]), so the trajectory points are
//! defensible rather than single noisy observations.
//!
//! JSON is rendered by hand: the build environment is offline and the
//! schema is flat, so a serde dependency would buy nothing.

use std::hint::black_box;
use std::time::Instant;

use criterion::stats::robust_summary;
use foc_memory::{
    AccessCtx, AccessSize, LookupLayer, MemConfig, MemorySpace, Mode, TableKind, UnitKind,
    UnitStore,
};
use foc_servers::conn::{slo_within_basis_points, Edge, Scenario, SocketEdge};
use foc_servers::farm::{run_farm, FarmConfig, FarmReport, ServerKind};
use foc_servers::latency::LatencyHist;
use foc_servers::{BootSpec, ExecTier, Process};

/// Shape of the recorded suite: every server kind under every mode.
pub fn suite_config(kind: ServerKind, mode: Mode, requests: usize) -> FarmConfig {
    let mut config = FarmConfig::new(kind, mode);
    config.requests_per_server = requests;
    config
}

/// Runs the full kind × mode matrix on execution tier `tier` and lookup
/// layer `lookup`, over request edge `edge`.
pub fn farm_suite(
    requests: usize,
    tier: ExecTier,
    lookup: LookupLayer,
    edge: &Edge,
) -> Vec<FarmReport> {
    let mut reports = Vec::new();
    for kind in ServerKind::ALL {
        for mode in Mode::ALL {
            let config = suite_config(kind, mode, requests)
                .with_tier(tier)
                .with_lookup(lookup)
                .with_edge(edge.clone());
            reports.push(run_farm(&config));
        }
    }
    reports
}

/// One thread count's wall-time measurement in the scaling sweep.
#[derive(Debug, Clone, Copy)]
pub struct ScalingRow {
    /// Worker threads driving the farm.
    pub threads: usize,
    /// Robust mean host wall time per run, milliseconds.
    pub wall_ms: f64,
    /// Half-width of the 95% confidence interval on `wall_ms`.
    pub wall_ms_ci95: f64,
    /// Completed requests per host second at the mean wall time.
    pub host_rps: f64,
    /// Repetitions measured.
    pub reps: usize,
}

/// Runs the same Pine failure-oblivious farm at increasing thread
/// counts, `reps` times each. Pine is the most compute-heavy per
/// request of the fast servers, so the sweep actually exposes parallel
/// speedup. The deterministic stats are identical across every run
/// (asserted), so the wall-time statistics isolate parallelism alone.
/// The farm runs on `tier` and `lookup`, over `edge`.
pub fn thread_scaling(
    requests: usize,
    thread_counts: &[usize],
    reps: usize,
    tier: ExecTier,
    lookup: LookupLayer,
    edge: &Edge,
) -> Result<Vec<ScalingRow>, String> {
    let reps = reps.max(1);
    let base = {
        let mut c = suite_config(ServerKind::Pine, Mode::FailureOblivious, requests)
            .with_tier(tier)
            .with_lookup(lookup)
            .with_edge(edge.clone());
        c.servers = thread_counts.iter().copied().max().unwrap_or(4).max(4);
        c
    };
    let mut reference: Option<FarmReport> = None;
    let mut rows = Vec::new();
    for &threads in thread_counts {
        let mut walls = Vec::with_capacity(reps);
        let mut completed = 0u64;
        for _ in 0..reps {
            let report = run_farm(&base.clone().with_threads(threads));
            match &reference {
                Some(r) if *r != report => {
                    return Err(format!(
                        "thread scaling changed results at {threads} threads \
                         (completed {} vs {})",
                        report.stats.completed, r.stats.completed
                    ));
                }
                Some(_) => {}
                None => reference = Some(report.clone()),
            }
            completed = report.stats.completed;
            walls.push(report.host_wall_ms);
        }
        let s = robust_summary(&walls);
        let host_rps = if s.mean > 0.0 {
            completed as f64 / (s.mean / 1e3)
        } else {
            0.0
        };
        rows.push(ScalingRow {
            threads,
            wall_ms: s.mean,
            wall_ms_ci95: s.ci95,
            host_rps,
            reps,
        });
    }
    Ok(rows)
}

/// The measured cost split the shared-image layer exists to win: what a
/// server boot costs when the compiler runs (cold) versus when the
/// interned image is reused (cached).
#[derive(Debug, Clone, Copy)]
pub struct BootCost {
    /// Robust mean nanoseconds for compile-from-source + boot + init.
    pub cold_ns: f64,
    /// 95% CI half-width on `cold_ns`.
    pub cold_ci95_ns: f64,
    /// Robust mean nanoseconds for cached-image boot + init.
    pub cached_ns: f64,
    /// 95% CI half-width on `cached_ns`.
    pub cached_ci95_ns: f64,
    /// Repetitions measured per flavour.
    pub reps: usize,
}

impl BootCost {
    /// How many cached boots fit in one cold boot.
    pub fn speedup(&self) -> f64 {
        if self.cached_ns <= 0.0 {
            return 0.0;
        }
        self.cold_ns / self.cached_ns
    }
}

/// Measures [`BootCost`] on the Apache server process (the server whose
/// pool architecture §4.3.2 charges for process-management overhead),
/// `reps` boots per flavour. "Boot" here is the process boot the image
/// layer changed — compile (cold only) plus loading the image into a
/// fresh machine; the driver-side environment replay (documents, rewrite
/// rules, mailboxes) is the same work in both flavours and is measured
/// separately by the `boot_cost` criterion bench's worker lines. Both
/// arms boot the same spec (execution tier `tier`, lookup layer
/// `lookup`, table backend `table`), so the cold arm compiles that tier,
/// fusion and native lowering included.
pub fn measure_boot_cost(
    reps: usize,
    tier: ExecTier,
    lookup: LookupLayer,
    table: TableKind,
) -> BootCost {
    let reps = reps.max(1);
    let kind = ServerKind::Apache;
    let spec = BootSpec::new(kind, Mode::FailureOblivious)
        .with_tier(tier)
        .with_lookup(lookup)
        .with_table(table);
    // Populate the cache first so "cached" measures the steady state
    // every farm boot and restart after the very first one sees.
    black_box(kind.image_tier(spec.tier));

    let mut cold = Vec::with_capacity(reps);
    let mut cached = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        let image = foc_compiler::compile_image_tier(kind.source(), spec.tier)
            .expect("Apache source compiles");
        black_box(Process::boot_spec(&image, &spec));
        cold.push(t.elapsed().as_nanos() as f64);

        let t = Instant::now();
        black_box(Process::boot_spec(&kind.image_tier(spec.tier), &spec));
        cached.push(t.elapsed().as_nanos() as f64);
    }
    let c = robust_summary(&cold);
    let h = robust_summary(&cached);
    BootCost {
        cold_ns: c.mean,
        cold_ci95_ns: c.ci95,
        cached_ns: h.mean,
        cached_ci95_ns: h.ci95,
        reps,
    }
}

// ----------------------------------------------------------------------
// Restart cost: checkpoint restore versus cold boot + environment replay.
// ----------------------------------------------------------------------

/// The measured cost split the boot-checkpoint layer exists to win:
/// what a supervised restart costs when it re-runs boot plus the
/// standard environment replay (cold) versus when it restores the
/// frozen boot snapshot (checkpoint).
#[derive(Debug, Clone, Copy)]
pub struct RestartCost {
    /// Robust mean nanoseconds for a cold boot + environment replay.
    pub cold_ns: f64,
    /// 95% CI half-width on `cold_ns`.
    pub cold_ci95_ns: f64,
    /// Robust mean nanoseconds for a checkpoint restore.
    pub restore_ns: f64,
    /// 95% CI half-width on `restore_ns`.
    pub restore_ci95_ns: f64,
    /// Repetitions measured per flavour.
    pub reps: usize,
}

impl RestartCost {
    /// How many checkpoint restores fit in one cold boot + replay.
    pub fn speedup(&self) -> f64 {
        if self.restore_ns <= 0.0 {
            return 0.0;
        }
        self.cold_ns / self.restore_ns
    }
}

/// Measures [`RestartCost`] on Pine — the server with the heaviest
/// per-restart environment replay (mail-file load plus index build),
/// i.e. exactly the §4.7 cost the checkpoint layer removes. "Cold" is
/// the uncached full boot (interned image, `pine_init`, standard
/// mailbox adds, index build); "restore" is what every farm restart now
/// executes: a snapshot restore from the per-spec checkpoint cache.
/// Both run on execution tier `tier`, lookup layer `lookup` and table
/// backend `table`.
pub fn measure_restart_cost(
    reps: usize,
    tier: ExecTier,
    lookup: LookupLayer,
    table: TableKind,
) -> RestartCost {
    use foc_servers::image::standard_pine_mailbox;

    let reps = reps.max(1);
    let spec = BootSpec::new(ServerKind::Pine, Mode::FailureOblivious)
        .with_tier(tier)
        .with_lookup(lookup)
        .with_table(table);
    let image = ServerKind::Pine.image_tier(spec.tier);
    // Warm both layers so the measurement sees the steady state.
    black_box(foc_servers::pine::Pine::boot_spec(
        &spec,
        standard_pine_mailbox().clone(),
    ));

    let mut cold = Vec::with_capacity(reps);
    let mut restore = Vec::with_capacity(reps);
    for _ in 0..reps {
        let mailbox = standard_pine_mailbox().clone();
        let t = Instant::now();
        black_box(foc_servers::pine::Pine::boot_image_spec(
            &image, &spec, mailbox,
        ));
        cold.push(t.elapsed().as_nanos() as f64);

        let mailbox = standard_pine_mailbox().clone();
        let t = Instant::now();
        black_box(foc_servers::pine::Pine::boot_spec(&spec, mailbox));
        restore.push(t.elapsed().as_nanos() as f64);
    }
    let c = robust_summary(&cold);
    let r = robust_summary(&restore);
    RestartCost {
        cold_ns: c.mean,
        cold_ci95_ns: c.ci95,
        restore_ns: r.mean,
        restore_ci95_ns: r.ci95,
        reps,
    }
}

// ----------------------------------------------------------------------
// Violation throughput: the batched continuation path under a storm.
// ----------------------------------------------------------------------

/// Manufactured-loop interpretation rate: how many guest instructions
/// per host second a loop that violates on every iteration sustains.
/// The PR 4 sweep measured ~3M instr/s on the eager violation path
/// (each iteration paid an O(capacity) eviction memmove once the log
/// filled); this row tracks the batched path.
#[derive(Debug, Clone, Copy)]
pub struct ViolationThroughput {
    /// Robust mean million guest instructions per host second.
    pub minstr_per_s: f64,
    /// 95% CI half-width on `minstr_per_s`.
    pub minstr_ci95: f64,
    /// Guest instructions interpreted per measured run.
    pub instrs: u64,
    /// Repetitions measured.
    pub reps: usize,
}

/// The manufactured-value storm: every iteration reads past the end of
/// a 2-element array, paying the full violation path (table miss via an
/// out-of-bounds descriptor, log append, manufactured value).
const VIOLATION_LOOP_SOURCE: &str = "long spin(long n) {\n\
     int xs[2];\n\
     long i;\n\
     long acc = 0;\n\
     for (i = 0; i < n; i++) acc += xs[5];\n\
     return acc;\n\
 }";

/// Iterations per measured run (about a million guest instructions).
const VIOLATION_LOOP_ITERS: i64 = 100_000;

/// Measures [`ViolationThroughput`], `reps` runs on fresh machines, at
/// the baseline execution tier.
pub fn measure_violation_throughput(reps: usize) -> ViolationThroughput {
    measure_loop_throughput(
        VIOLATION_LOOP_SOURCE,
        VIOLATION_LOOP_ITERS,
        reps,
        foc_compiler::ExecTier::Baseline,
    )
}

/// Measures a manufactured-value spin loop's interpretation rate at the
/// given execution tier. Same source, same guest instruction stream
/// semantics under both tiers; the superinstruction tier retires the
/// same instr count per run (fused ops account for their whole
/// pattern), so rates across tiers are directly comparable.
fn measure_loop_throughput(
    source: &str,
    iters: i64,
    reps: usize,
    tier: foc_compiler::ExecTier,
) -> ViolationThroughput {
    use foc_vm::{Machine, MachineConfig};

    let reps = reps.max(1);
    let image = foc_compiler::compile_image_tier(source, tier).expect("spin loop builds");
    let mut rates = Vec::with_capacity(reps);
    let mut instrs = 0;
    for _ in 0..reps {
        // A fresh machine per run keeps the error log in its steady
        // retention regime from a deterministic start.
        let config = MachineConfig::with_mode(Mode::FailureOblivious);
        let mut m = Machine::load(image.clone(), config).expect("load");
        let before = m.stats().instrs;
        let t = Instant::now();
        black_box(m.call("spin", &[iters]).expect("spin"));
        let secs = t.elapsed().as_secs_f64();
        instrs = m.stats().instrs - before;
        rates.push(instrs as f64 / secs / 1e6);
    }
    let r = robust_summary(&rates);
    ViolationThroughput {
        minstr_per_s: r.mean,
        minstr_ci95: r.ci95,
        instrs,
        reps,
    }
}

// ----------------------------------------------------------------------
// Tier rates: one guest loop's interpretation rate under every tier.
// ----------------------------------------------------------------------

/// A headline ratio of a [`TierLoop`] row: its key and the rate ratio
/// it reports.
type Headline = (&'static str, fn(&TierRates) -> f64);

/// A guest `spin(n)` loop measured under every execution tier, plus the
/// trajectory section and fingerprint schema tag its rows go under.
#[derive(Debug, Clone, Copy)]
pub struct TierLoop {
    /// Trajectory section the loop's rows are recorded in.
    pub section: &'static str,
    /// Fingerprint schema tag.
    schema: &'static str,
    /// MiniC source defining `long spin(long n)`.
    source: &'static str,
    /// `n` per measured run.
    iters: i64,
    /// The row's two headline ratios, each under its historical key.
    headlines: [Headline; 2],
    /// The tier whose retired instruction count the row reports.
    instrs_tier: ExecTier,
}

/// The dispatch-cost loop: seven direct-local increment statements,
/// one in-bounds accumulate, and one past-the-end accumulate per
/// iteration. Every iteration manufactures a value, but the loop's
/// wall time is owned by plain interpretation — local arithmetic and
/// loop control — the regime the superinstruction tier targets. (The
/// pure storm of `VIOLATION_LOOP_SOURCE` would not do here: the
/// violation machinery — interning, logging, sequence draw — and the
/// per-access memory checks are tier-invariant constant work that
/// swamps dispatch, which is the quantity this benchmark exists to
/// isolate; that loop's trajectory lives in `restart_cost_runs`.)
/// 29k iterations is about two million guest instructions, matching
/// the violation loop's run length.
pub const DISPATCH_LOOP: TierLoop = TierLoop {
    section: "dispatch_cost",
    schema: "dispatch_cost/v2",
    source: "long spin(long n) {\n\
     int xs[2];\n\
     long i;\n\
     long t = 0;\n\
     long acc = 0;\n\
     for (i = 0; i < n; i++) {\n\
         t = t + 3; t = t + 5; t = t + 7; t = t + 9;\n\
         t = t + 11; t = t + 13; t = t + 15;\n\
         acc += xs[1];\n\
         acc += xs[5];\n\
     }\n\
     return acc + t;\n\
 }",
    iters: 29_000,
    // The headline predates the native tier: super over baseline.
    headlines: [
        ("speedup", TierRates::super_over_baseline),
        ("native_speedup", TierRates::native_over_baseline),
    ],
    instrs_tier: ExecTier::Super,
};

/// The headline of the loops that gate the native tier: native over
/// super, then native over baseline.
const NATIVE_HEADLINES: [Headline; 2] = [
    ("speedup_over_super", TierRates::native_over_super),
    ("speedup_over_baseline", TierRates::native_over_baseline),
];

/// The native-cost loop: a dispatch-bound body with *no* memory
/// violations and no guest heap traffic. The dispatch loop above
/// deliberately manufactures a value per iteration — tier-invariant
/// violation work that swamps the quantity this benchmark isolates:
/// what a dispatch round itself costs. The body is multi-operand local
/// expression arithmetic, the shape the superinstruction vocabulary
/// cannot compress (only constant-operand fragments fuse): the super
/// tier pays one fetch/decode/match round plus fuel, stats, and pc
/// bookkeeping for nearly every instruction, while a lowered region
/// pre-charges its whole straight-line run once, groups the body into
/// one pure-local block, and executes pre-resolved operands back to
/// back against a single borrow of the frame window. This loop is
/// where the interpreter's remaining ceiling lives, so it is the gate
/// for the native tier. 30k iterations is about three million guest
/// instructions.
pub const NATIVE_LOOP: TierLoop = TierLoop {
    section: "native_cost",
    schema: "native_cost/v1",
    source: "long spin(long n) {\n\
     long i;\n\
     long t = 0;\n\
     long u = 1;\n\
     for (i = 0; i < n; i++) {\n\
         t = t + u + i + 3;\n\
         u = u + t + i + 5;\n\
         t = t + u + u + 7;\n\
         u = u + t + t + 9;\n\
         t = t + u + i + 11;\n\
         u = u + t + i + 13;\n\
         t = t + u + u + 15;\n\
         u = u + t + t + 17;\n\
     }\n\
     return t + u;\n\
 }",
    iters: 30_000,
    headlines: NATIVE_HEADLINES,
    instrs_tier: ExecTier::Native,
};

/// The memory-block cost loop: the guest-level twin of the access-cost
/// copy traffic. The inner loop's `dst[i] = src[i]` lowers to a
/// pointer-arithmetic + checked-access pair per element, exactly the
/// shape the native tier admits into `LocalsBlock`s and fuses into
/// per-site pre-resolved `GIdxLoad`/`GIdxStore` ops: every access
/// resolves in-block through the placement probe against the live
/// register file, no operand-stack round trip, no deopt (all accesses
/// are in bounds). The super tier interprets the same stream one
/// checked access at a time, so the ratio isolates what in-block
/// resolution saves on memory-bound code. Each of the 2k outer
/// iterations copies the 64-element buffer once, about three million
/// guest instructions in all.
pub const MEM_LOOP: TierLoop = TierLoop {
    section: "mem_cost",
    schema: "mem_cost/v1",
    source: "long spin(long n) {\n\
     long src[64];\n\
     long dst[64];\n\
     long i;\n\
     long j;\n\
     long t = 0;\n\
     for (i = 0; i < 64; i++) src[i] = i * 3;\n\
     for (j = 0; j < n; j++) {\n\
         for (i = 0; i < 64; i++) dst[i] = src[i];\n\
         t = t + dst[63];\n\
     }\n\
     return t;\n\
 }",
    iters: 2_000,
    headlines: NATIVE_HEADLINES,
    instrs_tier: ExecTier::Native,
};

/// One [`TierLoop`]'s interpretation rate under every execution tier.
/// All tiers retire the same guest instruction count (fused opcodes
/// account for every component of the pattern they replace, and a
/// native region pre-charges its exact baseline count), so the rate
/// ratios isolate execution machinery: fewer fetch/decode/match rounds
/// per loop iteration, down to none inside a lowered region.
#[derive(Debug, Clone, Copy)]
pub struct TierRates {
    /// Baseline (unfused) tier measurement.
    pub baseline: ViolationThroughput,
    /// Superinstruction tier measurement.
    pub fused: ViolationThroughput,
    /// Native (AOT region) tier measurement.
    pub native: ViolationThroughput,
    /// Repetitions per tier.
    pub reps: usize,
}

impl TierRates {
    /// Superinstruction-over-baseline rate ratio.
    pub fn super_over_baseline(&self) -> f64 {
        self.fused.minstr_per_s / self.baseline.minstr_per_s
    }

    /// Native-over-superinstruction rate ratio: how far past the fused
    /// dispatch ceiling region execution reaches.
    pub fn native_over_super(&self) -> f64 {
        self.native.minstr_per_s / self.fused.minstr_per_s
    }

    /// Native-over-baseline rate ratio.
    pub fn native_over_baseline(&self) -> f64 {
        self.native.minstr_per_s / self.baseline.minstr_per_s
    }

    /// The measurement under `tier`.
    fn at(&self, tier: ExecTier) -> &ViolationThroughput {
        match tier {
            ExecTier::Baseline => &self.baseline,
            ExecTier::Super => &self.fused,
            ExecTier::Native => &self.native,
        }
    }
}

/// Measures [`TierRates`]: `reps` runs of `bench` per tier, each on a
/// fresh machine (the robust summary rejects outliers, so interleaving
/// the tiers is unnecessary).
pub fn measure_tier_rates(bench: &TierLoop, reps: usize) -> TierRates {
    let [baseline, fused, native] = foc_compiler::ExecTier::ALL
        .map(|tier| measure_loop_throughput(bench.source, bench.iters, reps, tier));
    TierRates {
        baseline,
        fused,
        native,
        reps: reps.max(1),
    }
}

// ----------------------------------------------------------------------
// Access cost: the in-bounds fast path, page map vs object table.
// ----------------------------------------------------------------------

/// Depth of the object table behind the measured buffers: this many
/// small heap allocations precede them, so a table search pays a
/// realistic log₂(~400) probe while the page map still answers in one
/// shift+mask.
const ACCESS_DEPTH_ALLOCS: usize = 384;

/// Bytes per copied buffer: 12 pages each, so nearly every access lands
/// on an exclusively-covered page (the page map's `One` fast path).
const ACCESS_BUF_BYTES: u64 = 48 * 1024;

/// Full src→dst copy passes per measured run. Each pass alternates a
/// load from one multi-page buffer with a store to the other, which is
/// exactly the traffic that defeats the flat table's one-entry last-hit
/// memo and the splay tree's locality rotation: every single access
/// pays the structural search under [`LookupLayer::Table`].
const ACCESS_COPY_PASSES: usize = 6;

/// One lookup layer's in-bounds access rate.
#[derive(Debug, Clone, Copy)]
pub struct AccessRate {
    /// Robust mean million in-bounds accesses per host second.
    pub maccess_per_s: f64,
    /// 95% CI half-width on `maccess_per_s`.
    pub maccess_ci95: f64,
}

/// Paired in-bounds load/store rate measurement: the same memory-copy
/// traffic driven through [`LookupLayer::Table`] and
/// [`LookupLayer::Paged`] on otherwise identical spaces.
#[derive(Debug, Clone, Copy)]
pub struct AccessCost {
    /// Direct object-table search ([`TableKind::Flat`], memo defeated).
    pub table: AccessRate,
    /// Page-map shift+mask probe over the same flat table.
    pub paged: AccessRate,
    /// In-bounds accesses per measured run.
    pub accesses: u64,
    /// Repetitions per layer.
    pub reps: usize,
}

impl AccessCost {
    /// Paged-over-table access rate ratio.
    pub fn speedup(&self) -> f64 {
        self.paged.maccess_per_s / self.table.maccess_per_s
    }
}

/// Builds one measurement space: `ACCESS_DEPTH_ALLOCS` small heap
/// units for table depth, then the two multi-page copy buffers.
/// Returns the space and the `(src, dst)` buffer bases.
fn access_cost_space(lookup: LookupLayer) -> (MemorySpace, u64, u64) {
    let config = MemConfig::with_mode(Mode::FailureOblivious)
        .with_table(TableKind::Flat)
        .with_lookup(lookup);
    let mut space = MemorySpace::new(config);
    for _ in 0..ACCESS_DEPTH_ALLOCS {
        space.malloc(48).expect("depth alloc fits");
    }
    let src = space.malloc(ACCESS_BUF_BYTES).expect("src buffer fits");
    let dst = space.malloc(ACCESS_BUF_BYTES).expect("dst buffer fits");
    (space, src, dst)
}

/// One timed copy pass: word loads from `src` interleaved with word
/// stores to `dst`, every access in bounds. Returns a checksum so the
/// loop cannot be optimised away.
#[inline(never)]
fn access_cost_pass(space: &mut MemorySpace, src: u64, dst: u64) -> u64 {
    let ctx = AccessCtx::default();
    let mut sum = 0u64;
    let mut off = 0;
    while off < ACCESS_BUF_BYTES {
        let r = space
            .load(src + off, AccessSize::B8, ctx)
            .expect("in bounds");
        debug_assert!(!r.violation);
        let w = space
            .store(dst + off, AccessSize::B8, r.value, ctx)
            .expect("in bounds");
        debug_assert!(!w.violation);
        sum = sum.wrapping_add(r.value);
        off += 8;
    }
    sum
}

/// Measures [`AccessCost`]: `reps` timed runs of the copy traffic per
/// lookup layer, on spaces whose unit placement is identical by
/// construction. The two layers' [`foc_memory::SpaceStats`] are
/// asserted equal afterwards — the microbench doubles as a
/// host-side equivalence check on the exact traffic it times.
pub fn measure_access_cost(reps: usize) -> AccessCost {
    let reps = reps.max(1);
    let (mut table_space, t_src, t_dst) = access_cost_space(LookupLayer::Table);
    let (mut paged_space, p_src, p_dst) = access_cost_space(LookupLayer::Paged);
    assert_eq!(
        (t_src, t_dst),
        (p_src, p_dst),
        "the page map must not change placement"
    );
    let accesses = (ACCESS_BUF_BYTES / 8) * 2 * ACCESS_COPY_PASSES as u64;
    let measure = |space: &mut MemorySpace, src: u64, dst: u64| {
        let mut rates = Vec::with_capacity(reps);
        for _ in 0..reps {
            let t = Instant::now();
            let mut sum = 0u64;
            for _ in 0..ACCESS_COPY_PASSES {
                sum = sum.wrapping_add(access_cost_pass(space, src, dst));
            }
            let secs = t.elapsed().as_secs_f64();
            black_box(sum);
            rates.push(accesses as f64 / secs / 1e6);
        }
        let r = robust_summary(&rates);
        AccessRate {
            maccess_per_s: r.mean,
            maccess_ci95: r.ci95,
        }
    };
    let table = measure(&mut table_space, t_src, t_dst);
    let paged = measure(&mut paged_space, p_src, p_dst);
    assert_eq!(
        table_space.stats(),
        paged_space.stats(),
        "lookup layers must drive the substrate identically"
    );
    AccessCost {
        table,
        paged,
        accesses,
        reps,
    }
}

// ----------------------------------------------------------------------
// The farm_stress scale-out point: thousands of servers, per-backend.
// ----------------------------------------------------------------------

/// One object-table backend's measurement at the scale-out stress point.
#[derive(Debug, Clone)]
pub struct StressRow {
    /// Which backend ran.
    pub backend: TableKind,
    /// Which in-bounds lookup layer ran (page map vs direct table).
    pub lookup: LookupLayer,
    /// Robust mean host wall time per run, milliseconds.
    pub wall_ms: f64,
    /// Half-width of the 95% confidence interval on `wall_ms`.
    pub wall_ms_ci95: f64,
    /// Completed requests per host second at the mean wall time.
    pub host_rps: f64,
    /// Repetitions measured.
    pub reps: usize,
    /// The (backend-invariant) deterministic report of the run.
    pub report: FarmReport,
}

/// Shape of the scale-out stress farm: `servers` Apache processes under
/// the failure-oblivious policy, each serving a short stream with the
/// standard 1-in-8 attack mix.
pub fn stress_config(servers: usize, requests: usize) -> FarmConfig {
    let mut config = FarmConfig::new(ServerKind::Apache, Mode::FailureOblivious);
    config.servers = servers;
    config.requests_per_server = requests;
    config.threads = 4;
    config
}

/// Runs the stress farm once per requested object-table backend ×
/// lookup layer, `reps` times each, verifying the determinism contract
/// across the whole grid: every cell must produce the *same*
/// [`FarmReport`], so the wall-time spread between rows is attributable
/// to lookup cost alone. (The cross-*layer* half of that check is the
/// farm-scale equivalence proof of the page-map overlay.) A contract
/// violation is returned as a one-line diagnostic (the `--check` bins
/// exit nonzero with it instead of dumping a panic backtrace into CI
/// logs). Pass [`TableKind::ALL`] × [`LookupLayer::ALL`] for the
/// recorded sweep or a single cell for a CI matrix job. Every cell runs
/// on execution tier `tier`, over request edge `edge`.
pub fn stress_sweep(
    servers: usize,
    requests: usize,
    reps: usize,
    backends: &[TableKind],
    layers: &[LookupLayer],
    tier: ExecTier,
    edge: &Edge,
) -> Result<Vec<StressRow>, String> {
    let reps = reps.max(1);
    let base = stress_config(servers, requests)
        .with_tier(tier)
        .with_edge(edge.clone());
    let mut reference: Option<FarmReport> = None;
    let mut rows = Vec::new();
    for &backend in backends {
        for &lookup in layers {
            let config = base.clone().with_table(backend).with_lookup(lookup);
            let mut walls = Vec::with_capacity(reps);
            let mut last: Option<FarmReport> = None;
            for _ in 0..reps {
                let report = run_farm(&config);
                match &reference {
                    Some(r) if *r != report => {
                        return Err(format!(
                            "table backend {backend} under {lookup} lookup broke the \
                             determinism contract (completed {} vs {})",
                            report.stats.completed, r.stats.completed
                        ));
                    }
                    Some(_) => {}
                    None => reference = Some(report.clone()),
                }
                walls.push(report.host_wall_ms);
                last = Some(report);
            }
            let report = last.expect("reps >= 1");
            let s = robust_summary(&walls);
            let host_rps = if s.mean > 0.0 {
                report.stats.completed as f64 / (s.mean / 1e3)
            } else {
                0.0
            };
            rows.push(StressRow {
                backend,
                lookup,
                wall_ms: s.mean,
                wall_ms_ci95: s.ci95,
                host_rps,
                reps,
                report,
            });
        }
    }
    Ok(rows)
}

// ----------------------------------------------------------------------
// Unit-store churn: the arena against the seed's boxed representation.
// ----------------------------------------------------------------------

/// What one simulated machine does to its unit store over a boot plus a
/// short serving window, mirroring the stress farm's shape: labelled
/// globals and string literals at image load, then the heap alloc/free
/// pairs a short request stream drives through `guest_str`.
const CHURN_GLOBALS: usize = 24;
const CHURN_HEAP_PAIRS: usize = 32;

/// The seed tree's per-unit representation, kept here as the measured
/// baseline: units in a growable `Vec` beside a separate free-slot list,
/// with a heap-allocated `String` label per global — the per-machine
/// allocator overhead the arena store removes.
#[allow(dead_code)] // fields mirror the seed layout; only writes are timed
struct SeedUnit {
    base: u64,
    size: u64,
    live: bool,
    label: Option<String>,
}

#[derive(Default)]
struct SeedBoxedStore {
    units: Vec<SeedUnit>,
    free: Vec<u32>,
}

impl SeedBoxedStore {
    fn alloc(&mut self, base: u64, size: u64, label: Option<&str>) -> u32 {
        let unit = SeedUnit {
            base,
            size,
            live: true,
            label: label.map(|l| l.to_string()),
        };
        if let Some(slot) = self.free.pop() {
            self.units[slot as usize] = unit;
            slot
        } else {
            self.units.push(unit);
            (self.units.len() - 1) as u32
        }
    }

    fn kill(&mut self, slot: u32) {
        self.units[slot as usize].live = false;
        self.free.push(slot);
    }
}

/// Arena-vs-seed unit-store cost at farm scale.
#[derive(Debug, Clone, Copy)]
pub struct UnitChurn {
    /// Machines simulated per measured run.
    pub machines: usize,
    /// Robust mean nanoseconds per run for the arena [`UnitStore`].
    pub arena_ns: f64,
    /// 95% CI half-width on `arena_ns`.
    pub arena_ci95_ns: f64,
    /// Robust mean nanoseconds per run for the seed boxed baseline.
    pub boxed_ns: f64,
    /// 95% CI half-width on `boxed_ns`.
    pub boxed_ci95_ns: f64,
    /// Repetitions measured per flavour.
    pub reps: usize,
}

impl UnitChurn {
    /// How much faster the arena store is than the seed representation.
    pub fn speedup(&self) -> f64 {
        if self.arena_ns <= 0.0 {
            return 0.0;
        }
        self.boxed_ns / self.arena_ns
    }
}

/// Measures [`UnitChurn`]: `machines` fresh stores each performing the
/// standard boot-plus-serving unit traffic, arena versus the seed's
/// boxed representation, `reps` runs per flavour.
pub fn measure_unit_churn(machines: usize, reps: usize) -> UnitChurn {
    let reps = reps.max(1);
    let mut arena = Vec::with_capacity(reps);
    let mut boxed = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        for m in 0..machines {
            let mut store = UnitStore::new();
            for g in 0..CHURN_GLOBALS {
                store.alloc(
                    (g as u64) << 8,
                    64,
                    UnitKind::Global,
                    Some("server_global_symbol"),
                );
            }
            for h in 0..CHURN_HEAP_PAIRS {
                let id = store.alloc((h as u64) << 16, 128, UnitKind::Heap, None);
                store.kill(id);
            }
            black_box((m, &store));
        }
        arena.push(t.elapsed().as_nanos() as f64);

        let t = Instant::now();
        for m in 0..machines {
            let mut store = SeedBoxedStore::default();
            for g in 0..CHURN_GLOBALS {
                store.alloc((g as u64) << 8, 64, Some("server_global_symbol"));
            }
            for h in 0..CHURN_HEAP_PAIRS {
                let slot = store.alloc((h as u64) << 16, 128, None);
                store.kill(slot);
            }
            black_box((m, &store.units, &store.free));
        }
        boxed.push(t.elapsed().as_nanos() as f64);
    }
    let a = robust_summary(&arena);
    let b = robust_summary(&boxed);
    UnitChurn {
        machines,
        arena_ns: a.mean,
        arena_ci95_ns: a.ci95,
        boxed_ns: b.mean,
        boxed_ci95_ns: b.ci95,
        reps,
    }
}

// ----------------------------------------------------------------------
// The whole record, in one place.
// ----------------------------------------------------------------------

/// Shape of a full `BENCH_farm.json` regeneration. Both recording
/// binaries (`farm_scaling`, `farm_stress`) build the complete record
/// through this, so whichever one ran last leaves a consistent file.
#[derive(Debug, Clone)]
pub struct RecordShape {
    /// Requests per server in the kind × mode suite.
    pub requests: usize,
    /// Thread counts for the scaling sweep.
    pub scaling_threads: Vec<usize>,
    /// Repetitions per scaling row.
    pub scaling_reps: usize,
    /// Boot-cost repetitions.
    pub boot_reps: usize,
    /// Server processes at the scale-out stress point.
    pub stress_servers: usize,
    /// Requests per server at the stress point (short streams).
    pub stress_requests: usize,
    /// Repetitions per stress row.
    pub stress_reps: usize,
    /// Unit-churn repetitions (machine count follows `stress_servers`).
    pub churn_reps: usize,
    /// Restart-cost repetitions (violation throughput runs a capped
    /// share of them).
    pub restart_reps: usize,
}

impl Default for RecordShape {
    fn default() -> RecordShape {
        RecordShape {
            requests: 100,
            scaling_threads: vec![1, 2, 4, 8],
            scaling_reps: 3,
            boot_reps: 24,
            stress_servers: 4096,
            stress_requests: 4,
            stress_reps: 3,
            churn_reps: 5,
            restart_reps: 24,
        }
    }
}

/// The measured sections of one full record.
pub struct FarmRecord {
    /// Kind × mode suite reports.
    pub reports: Vec<FarmReport>,
    /// Thread-scaling rows.
    pub scaling: Vec<ScalingRow>,
    /// Cold-vs-cached boot cost.
    pub boot: BootCost,
    /// Per-backend stress rows.
    pub stress: Vec<StressRow>,
    /// Arena-vs-seed unit-store churn.
    pub churn: UnitChurn,
    /// Every trajectory section, carried forward from the previous
    /// record so regeneration never loses history.
    pub trajectories: Trajectories,
}

/// Runs every measurement of the record at the given shape, carrying
/// forward every trajectory section of `previous_json` (the old
/// record's contents, when the caller has one) and upserting a fresh
/// `restart_cost` row, so regeneration never drops trajectory history.
/// `spec` names the execution tier, lookup layer and table backend the
/// measurements run on (farms keep their own table backend, as the
/// stress sweep varies it); `edge` carries the farms' requests.
pub fn measure_record(
    shape: &RecordShape,
    previous_json: Option<&str>,
    spec: &BootSpec,
    edge: &Edge,
) -> Result<FarmRecord, String> {
    let (tier, lookup, table) = (spec.tier, spec.lookup, spec.table);
    eprintln!(
        "running farm suite: 5 servers x 5 modes, {} requests/server ...",
        shape.requests
    );
    let reports = farm_suite(shape.requests, tier, lookup, edge);
    eprintln!("running thread-scaling sweep (Pine, failure-oblivious) ...");
    let scaling = thread_scaling(
        shape.requests,
        &shape.scaling_threads,
        shape.scaling_reps,
        tier,
        lookup,
        edge,
    )?;
    eprintln!("measuring boot cost (cold compile vs cached image) ...");
    let boot = measure_boot_cost(shape.boot_reps, tier, lookup, table);
    eprintln!("measuring restart cost (checkpoint restore vs cold boot+replay) ...");
    let restart = measure_restart_cost(shape.restart_reps, tier, lookup, table);
    let violation = measure_violation_throughput(shape.restart_reps.clamp(3, 8));
    // The recorded sweep covers the three structural backends plus the
    // adaptive wrapper, each under both lookup layers.
    let stress_backends = [
        TableKind::Splay,
        TableKind::BTree,
        TableKind::Flat,
        TableKind::Auto,
    ];
    eprintln!(
        "running farm_stress: {} Apache servers x {} requests, {} backends x {} layers ...",
        shape.stress_servers,
        shape.stress_requests,
        stress_backends.len(),
        LookupLayer::ALL.len()
    );
    let stress = stress_sweep(
        shape.stress_servers,
        shape.stress_requests,
        shape.stress_reps,
        &stress_backends,
        &LookupLayer::ALL,
        tier,
        edge,
    )?;
    eprintln!("measuring unit-store churn (arena vs seed boxed baseline) ...");
    let churn = measure_unit_churn(shape.stress_servers, shape.churn_reps);
    let mut trajectories = Trajectories::carried_from(previous_json.unwrap_or_default());
    trajectories.upsert(&restart_cost_row(&restart, &violation, spec));
    Ok(FarmRecord {
        reports,
        scaling,
        boot,
        stress,
        churn,
        trajectories,
    })
}

// ----------------------------------------------------------------------
// Trajectory rows: one schema, fingerprint-keyed upserts.
// ----------------------------------------------------------------------

/// The trajectory sections of `BENCH_farm.json`, in file order. Section
/// `s` is the `"{s}_runs"` array; each measuring bin upserts its rows
/// into one of them, and every regeneration carries all of them forward.
pub const TRAJECTORY_SECTIONS: [&str; 7] = [
    "restart_cost",
    "dispatch_cost",
    "access_cost",
    "native_cost",
    "mem_cost",
    "conn_cost",
    "mode_sweep",
];

/// The trajectory record, relative to the working directory.
pub const RECORD_PATH: &str = "BENCH_farm.json";

/// One measured value: its key and its JSON number, rendered once at
/// the row's fixed precision.
pub type Metric = (String, String);

/// A fractional metric rendered with `decimals` digits.
fn metric(key: &str, value: f64, decimals: usize) -> Metric {
    (key.to_string(), format!("{value:.decimals$}"))
}

/// An integer metric.
fn count(key: &str, value: impl std::fmt::Display) -> Metric {
    (key.to_string(), value.to_string())
}

/// One trajectory row: what a bin measured, the configuration it
/// measured under, and the fingerprint that keys the row for upserts.
#[derive(Debug, Clone, PartialEq)]
pub struct TrajectoryRow {
    /// The section ([`TRAJECTORY_SECTIONS`]) the row belongs to.
    pub section: &'static str,
    /// Measured values, in the row's key order.
    pub metrics: Vec<Metric>,
    /// Every configuration axis the measurement read (`tier`, `lookup`,
    /// ...); empty for bins that measure every tier or layer themselves.
    pub config: Vec<(&'static str, String)>,
    /// Hash of what was measured (see [`TrajectoryRow::new`]).
    pub fingerprint: String,
}

impl TrajectoryRow {
    /// Builds a row whose fingerprint hashes `identity` (schema tag,
    /// measured guest image identities, measurement shape) followed by
    /// each config axis as `key=value`. The measured values are left
    /// out, so re-running an unchanged bin on an unchanged tree and
    /// configuration replaces its own row, while a change to the tree,
    /// the shape or any axis records a fresh one.
    pub fn new(
        section: &'static str,
        metrics: Vec<Metric>,
        config: Vec<(&'static str, String)>,
        mut identity: Vec<String>,
    ) -> TrajectoryRow {
        identity.extend(config.iter().map(|(k, v)| format!("{k}={v}")));
        TrajectoryRow {
            section,
            metrics,
            config,
            fingerprint: fingerprint_of(&identity),
        }
    }

    /// Renders the row as one JSON object: metrics, config, fingerprint.
    pub fn render(&self) -> String {
        let mut fields: Vec<String> = self
            .metrics
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        fields.extend(
            self.config
                .iter()
                .map(|(k, v)| format!("\"{k}\": \"{}\"", json_escape(v))),
        );
        fields.push(format!("\"fingerprint\": \"{}\"", self.fingerprint));
        format!("{{{}}}", fields.join(", "))
    }
}

/// Hashes an ordered list of identity parts into a 64-bit hex
/// fingerprint.
fn fingerprint_of<S: AsRef<str>>(parts: &[S]) -> String {
    use std::hash::Hasher;
    let mut h = foc_compiler::Fnv1a::new();
    for p in parts {
        h.write(p.as_ref().as_bytes());
        // Separator byte so ["ab","c"] and ["a","bc"] differ.
        h.write(&[0x1f]);
    }
    format!("{:016x}", h.finish())
}

/// Extracts the `"fingerprint"` value of a rendered row, if it has one.
/// Rows recorded before fingerprinting existed have none and are never
/// matched (so they are always preserved).
fn row_fingerprint(row: &str) -> Option<&str> {
    let marker = "\"fingerprint\": \"";
    let at = row.find(marker)? + marker.len();
    let rest = &row[at..];
    let end = rest.find('"')?;
    Some(&rest[..end])
}

/// Replaces the row sharing `row`'s fingerprint in place, or appends
/// when no row matches (including when `row` carries no fingerprint).
fn upsert_row(rows: &mut Vec<String>, row: String) {
    if let Some(fp) = row_fingerprint(&row) {
        if let Some(slot) = rows.iter().position(|r| row_fingerprint(r) == Some(fp)) {
            rows[slot] = row;
            return;
        }
    }
    rows.push(row);
}

/// Byte span of section `section`'s `[...]` array in `json`.
fn rows_span(json: &str, section: &str) -> Option<(usize, usize)> {
    let marker = format!("\"{section}_runs\": [");
    let open = json.find(&marker)? + marker.len() - 1;
    let close = open + json[open..].find(']')?;
    Some((open, close + 1))
}

/// Renders a section's array, one row per line.
fn render_rows(rows: &[String]) -> String {
    if rows.is_empty() {
        return "[]".to_string();
    }
    format!("[\n    {}\n  ]", rows.join(",\n    "))
}

/// The rows of trajectory section `section` in a `BENCH_farm.json`
/// document, each exactly as recorded (empty when the document lacks
/// the section).
pub fn trajectory_rows(json: &str, section: &str) -> Vec<String> {
    let Some((open, close)) = rows_span(json, section) else {
        return Vec::new();
    };
    json[open + 1..close - 1]
        .lines()
        .map(|l| l.trim().trim_end_matches(',').to_string())
        .filter(|l| l.starts_with('{'))
        .collect()
}

/// Returns `json` with the rendered `row` upserted into trajectory
/// section `section`: the row sharing its fingerprint is replaced in
/// place (so an unchanged rerun is idempotent), otherwise `row` is
/// appended. Every other byte is kept. A document that predates the
/// section gains it just before `mode_sweep_runs`; one without that
/// anchor is refused.
pub fn upsert_trajectory_row(json: &str, section: &str, row: &str) -> Result<String, String> {
    let mut rows = trajectory_rows(json, section);
    upsert_row(&mut rows, row.to_string());
    let array = render_rows(&rows);
    if let Some((open, close)) = rows_span(json, section) {
        return Ok(format!("{}{array}{}", &json[..open], &json[close..]));
    }
    let at = json.find("  \"mode_sweep_runs\": [").ok_or_else(|| {
        format!(
            "BENCH_farm.json has no {section}_runs section and no mode_sweep_runs section \
             to anchor one; regenerate it with farm_scaling"
        )
    })?;
    Ok(format!(
        "{}  \"{section}_runs\": {array},\n{}",
        &json[..at],
        &json[at..]
    ))
}

/// Checks that `rendered`, a regeneration of the record `previous`,
/// carried every trajectory section `previous` has byte for byte, and
/// that `previous` holds them in [`TRAJECTORY_SECTIONS`] order (so the
/// regeneration moved none). Returns the number of rows carried.
pub fn check_carried(previous: &str, rendered: &str) -> Result<usize, String> {
    let (mut carried, mut last) = (0, 0);
    for section in TRAJECTORY_SECTIONS {
        let Some((open, close)) = rows_span(previous, section) else {
            continue;
        };
        if open < last {
            return Err(format!(
                "{section}_runs is out of the declared section order"
            ));
        }
        last = open;
        if rows_span(rendered, section).map(|(o, c)| &rendered[o..c])
            != Some(&previous[open..close])
        {
            return Err(format!("regeneration changed the {section}_runs section"));
        }
        carried += trajectory_rows(previous, section).len();
    }
    Ok(carried)
}

/// Every trajectory section of one record, in [`TRAJECTORY_SECTIONS`]
/// order, each row exactly as recorded.
#[derive(Debug, Clone, PartialEq)]
pub struct Trajectories(Vec<(&'static str, Vec<String>)>);

impl Trajectories {
    /// Carries every section of the `BENCH_farm.json` document `json`
    /// forward (a section it lacks starts empty).
    pub fn carried_from(json: &str) -> Trajectories {
        Trajectories(
            TRAJECTORY_SECTIONS
                .iter()
                .map(|&s| (s, trajectory_rows(json, s)))
                .collect(),
        )
    }

    /// The rows of `section`.
    pub fn rows(&self, section: &str) -> &[String] {
        self.0
            .iter()
            .find(|(s, _)| *s == section)
            .map_or(&[], |(_, rows)| rows)
    }

    /// Upserts `row` into its section by fingerprint.
    fn upsert(&mut self, row: &TrajectoryRow) {
        let (_, rows) = self
            .0
            .iter_mut()
            .find(|(s, _)| *s == row.section)
            .expect("rows name a trajectory section");
        upsert_row(rows, row.render());
    }

    /// Renders every section, one `"{section}_runs"` member each.
    fn render(&self) -> String {
        self.0
            .iter()
            .map(|(s, rows)| format!("  \"{s}_runs\": {},\n", render_rows(rows)))
            .collect()
    }
}

/// The config of a row measured on `spec`'s execution tier and lookup
/// layer.
fn tier_lookup_config(spec: &BootSpec) -> Vec<(&'static str, String)> {
    vec![
        ("tier", spec.tier.label().to_string()),
        ("lookup", spec.lookup.name().to_string()),
    ]
}

/// Identities of the five standard server images at `tier`: any
/// guest-source or lowering change reshapes them.
fn server_image_ids(tier: ExecTier) -> impl Iterator<Item = String> {
    ServerKind::ALL
        .into_iter()
        .map(move |kind| kind.image_tier(tier).id().to_string())
}

/// The `restart_cost` row: checkpoint restore versus cold boot+replay,
/// plus the manufactured-loop violation throughput measured alongside.
/// Keyed by the server images and the violation loop's baseline image,
/// the rep count, and `spec`'s tier, lookup layer and table backend.
pub fn restart_cost_row(
    restart: &RestartCost,
    violation: &ViolationThroughput,
    spec: &BootSpec,
) -> TrajectoryRow {
    let mut identity = vec!["restart_cost/v3".to_string()];
    identity.extend(server_image_ids(spec.tier));
    let violation_image =
        foc_compiler::compile_image(VIOLATION_LOOP_SOURCE).expect("violation loop builds");
    identity.push(violation_image.id().to_string());
    identity.push(restart.reps.to_string());
    let mut config = tier_lookup_config(spec);
    config.push(("table", spec.table.name().to_string()));
    TrajectoryRow::new(
        "restart_cost",
        vec![
            metric("cold_boot_replay_ns", restart.cold_ns, 0),
            metric("cold_ci95_ns", restart.cold_ci95_ns, 0),
            metric("checkpoint_restore_ns", restart.restore_ns, 0),
            metric("restore_ci95_ns", restart.restore_ci95_ns, 0),
            metric("speedup", restart.speedup(), 1),
            count("reps", restart.reps),
            metric("violation_minstr_per_s", violation.minstr_per_s, 1),
            metric("violation_minstr_ci95", violation.minstr_ci95, 1),
            count("violation_instrs", violation.instrs),
        ],
        config,
        identity,
    )
}

/// A [`TierLoop`]'s row in its section: the rate under every tier, the
/// loop's two headline ratios and its reported instruction count. Keyed
/// by the loop's image under every tier (a lowering change that
/// reshapes fusion or region extraction re-measures), loop length and
/// rep count; the config is empty, as every tier is measured.
pub fn tier_rates_row(bench: &TierLoop, rates: &TierRates) -> TrajectoryRow {
    let mut metrics = Vec::new();
    for tier in ExecTier::ALL {
        let (m, tier) = (rates.at(tier), tier.label());
        metrics.push(metric(&format!("{tier}_minstr_per_s"), m.minstr_per_s, 1));
        metrics.push(metric(&format!("{tier}_minstr_ci95"), m.minstr_ci95, 1));
    }
    for (key, ratio) in bench.headlines {
        metrics.push(metric(key, ratio(rates), 2));
    }
    metrics.push(count("instrs", rates.at(bench.instrs_tier).instrs));
    metrics.push(count("reps", rates.reps));
    let mut identity = vec![bench.schema.to_string()];
    for tier in ExecTier::ALL {
        let image = foc_compiler::compile_image_tier(bench.source, tier).expect("tier loop builds");
        identity.push(image.id().to_string());
    }
    identity.push(bench.iters.to_string());
    identity.push(rates.reps.to_string());
    TrajectoryRow::new(bench.section, metrics, Vec::new(), identity)
}

/// The `access_cost` row: the in-bounds access rate under both lookup
/// layers and their ratio. Keyed by the measurement shape (table depth,
/// buffer size, passes, rep count) alone: no guest images are involved,
/// and both layers are measured.
pub fn access_cost_row(cost: &AccessCost) -> TrajectoryRow {
    TrajectoryRow::new(
        "access_cost",
        vec![
            metric("table_maccess_per_s", cost.table.maccess_per_s, 1),
            metric("table_maccess_ci95", cost.table.maccess_ci95, 1),
            metric("paged_maccess_per_s", cost.paged.maccess_per_s, 1),
            metric("paged_maccess_ci95", cost.paged.maccess_ci95, 1),
            metric("speedup", cost.speedup(), 2),
            count("accesses", cost.accesses),
            count("reps", cost.reps),
        ],
        Vec::new(),
        vec![
            "access_cost/v1".to_string(),
            ACCESS_DEPTH_ALLOCS.to_string(),
            ACCESS_BUF_BYTES.to_string(),
            ACCESS_COPY_PASSES.to_string(),
            cost.reps.to_string(),
        ],
    )
}

/// The `mode_sweep` row: how much one full-grid sweep cost, so the
/// sweep's price is tracked next to the measurements it gates. Keyed by
/// the sweep shape (resumed cells included: a resumed sweep times far
/// less work), the server images at `spec`'s tier, and `spec`'s tier
/// and lookup layer plus the request `edge`.
pub fn mode_sweep_row(
    cells: usize,
    resumed: usize,
    inputs: usize,
    threads: usize,
    wall_ms: f64,
    spec: &BootSpec,
    edge: &Edge,
) -> TrajectoryRow {
    let mut identity = vec![
        "mode_sweep/v3".to_string(),
        cells.to_string(),
        resumed.to_string(),
        inputs.to_string(),
        threads.to_string(),
    ];
    identity.extend(server_image_ids(spec.tier));
    let mut config = tier_lookup_config(spec);
    config.push(("edge", edge.label().to_string()));
    TrajectoryRow::new(
        "mode_sweep",
        vec![
            count("cells", cells),
            count("resumed_cells", resumed),
            count("inputs", inputs),
            count("threads", threads),
            metric("wall_ms", wall_ms, 1),
        ],
        config,
        identity,
    )
}

// ----------------------------------------------------------------------
// Connection cost: the socket edge's transport overhead and SLO.
// ----------------------------------------------------------------------

/// Servers in the conn_cost measured farm.
const CONN_COST_SERVERS: usize = 32;

/// Requests per server in the conn_cost measured farm.
const CONN_COST_REQUESTS: usize = 50;

/// The SLO multiplier: a request is "within SLO" when its service
/// latency bucket tops out at ≤ this many times the median bucket.
pub const CONN_SLO_K: u64 = 4;

/// Shape of the `--check` connection smoke: pooled plus flood
/// connections per server sized so one farm run opens 100k+ simulated
/// connections (the flood overflow past the backlog is refused, which
/// the smoke also asserts).
pub const CONN_SMOKE_SERVERS: usize = 256;
/// Pooled connections per smoke server.
pub const CONN_SMOKE_POOL: usize = 392;
/// Flood connections per smoke server (past the backlog → refused).
pub const CONN_SMOKE_FLOOD: usize = 12;
/// Listener backlog per smoke server.
pub const CONN_SMOKE_BACKLOG: usize = 8;
/// Requests per smoke server (the smoke gates connection scale, not
/// request volume).
pub const CONN_SMOKE_REQUESTS: usize = 6;

/// One edge's wall-time measurement on the conn_cost farm.
#[derive(Debug, Clone, Copy)]
pub struct ConnEdgeRate {
    /// Robust mean host wall time per run, milliseconds.
    pub wall_ms: f64,
    /// Half-width of the 95% confidence interval on `wall_ms`.
    pub wall_ms_ci95: f64,
    /// Completed requests per host second at the mean wall time.
    pub host_rps: f64,
}

/// The connection edge's cost surface: the same farm timed over the
/// in-process path, the clean socket edge, and the two adversarial
/// transports, plus the run's connection-level SLO. All four runs are
/// asserted to produce the *same* [`FarmReport`], so the wall-time
/// spread is attributable to transport alone.
#[derive(Debug, Clone)]
pub struct ConnCost {
    /// The historical direct-application path.
    pub in_process: ConnEdgeRate,
    /// Clean whole-frame socket transport.
    pub socket: ConnEdgeRate,
    /// 3-byte slow-loris drip.
    pub slow_loris: ConnEdgeRate,
    /// Mid-frame disconnect + retransmit every 3rd request.
    pub disconnect: ConnEdgeRate,
    /// Basis points of completed requests within [`CONN_SLO_K`]× the
    /// median service latency (edge-invariant, like everything else in
    /// the report).
    pub slo_within_bp: u64,
    /// Servers in the measured farm.
    pub servers: usize,
    /// Requests per server.
    pub requests: usize,
    /// Repetitions per edge.
    pub reps: usize,
}

impl ConnCost {
    /// Clean-socket-over-in-process wall-time ratio: what framing,
    /// buffer state machines, and the readiness loop cost end to end.
    pub fn socket_overhead(&self) -> f64 {
        self.socket.wall_ms / self.in_process.wall_ms
    }
}

/// The conn_cost farm: Apache under the failure-oblivious policy with
/// the standard attack mix — the highest-request-rate server, so the
/// per-request transport overhead is the dominant term being measured.
fn conn_cost_config(edge: Edge, tier: ExecTier, lookup: LookupLayer) -> FarmConfig {
    let mut config = FarmConfig::new(ServerKind::Apache, Mode::FailureOblivious)
        .with_edge(edge)
        .with_tier(tier)
        .with_lookup(lookup);
    config.servers = CONN_COST_SERVERS;
    config.requests_per_server = CONN_COST_REQUESTS;
    config
}

/// The four measured edges, label order fixed by the row schema.
fn conn_cost_edges() -> [Edge; 4] {
    [
        Edge::InProcess,
        Edge::Socket(SocketEdge::default()),
        Edge::Socket(SocketEdge {
            scenario: Scenario::SlowLoris { chunk: 3 },
            ..SocketEdge::default()
        }),
        Edge::Socket(SocketEdge {
            scenario: Scenario::Disconnect { every: 3 },
            ..SocketEdge::default()
        }),
    ]
}

/// Measures [`ConnCost`]: `reps` timed farm runs per edge, asserting
/// every edge's report equal to the in-process reference — the bench
/// doubles as an equivalence check on the exact traffic it times. The
/// farm runs on execution tier `tier` and lookup layer `lookup`.
pub fn measure_conn_cost(reps: usize, tier: ExecTier, lookup: LookupLayer) -> ConnCost {
    let reps = reps.max(1);
    let requests_total = (CONN_COST_SERVERS * CONN_COST_REQUESTS) as f64;
    let mut reference: Option<FarmReport> = None;
    let mut rates = Vec::with_capacity(4);
    for edge in conn_cost_edges() {
        let config = conn_cost_config(edge.clone(), tier, lookup);
        let mut walls = Vec::with_capacity(reps);
        for _ in 0..reps {
            let report = run_farm(&config);
            walls.push(report.host_wall_ms);
            match &reference {
                None => reference = Some(report),
                Some(reference) => assert_eq!(
                    *reference,
                    report,
                    "{} must reproduce the in-process report",
                    edge.label()
                ),
            }
        }
        let r = robust_summary(&walls);
        rates.push(ConnEdgeRate {
            wall_ms: r.mean,
            wall_ms_ci95: r.ci95,
            host_rps: requests_total / (r.mean / 1e3),
        });
    }
    let reference = reference.expect("at least one run");
    ConnCost {
        in_process: rates[0],
        socket: rates[1],
        slow_loris: rates[2],
        disconnect: rates[3],
        slo_within_bp: slo_within_basis_points(&reference.stats.service_hist, CONN_SLO_K),
        servers: CONN_COST_SERVERS,
        requests: CONN_COST_REQUESTS,
        reps,
    }
}

/// Runs the 100k-connection smoke farm once over the flooded socket
/// edge and returns its report plus the number of simulated connection
/// attempts the run opened (pool + flood, per server). The farm runs on
/// execution tier `tier` and lookup layer `lookup`.
pub fn conn_cost_smoke(tier: ExecTier, lookup: LookupLayer) -> (FarmReport, u64) {
    let edge = Edge::Socket(SocketEdge {
        connections: CONN_SMOKE_POOL,
        backlog: CONN_SMOKE_BACKLOG,
        flood: CONN_SMOKE_FLOOD,
        scenario: Scenario::Clean,
    });
    let mut config = conn_cost_config(edge, tier, lookup);
    config.servers = CONN_SMOKE_SERVERS;
    config.requests_per_server = CONN_SMOKE_REQUESTS;
    let connections = (CONN_SMOKE_SERVERS * (CONN_SMOKE_POOL + CONN_SMOKE_FLOOD)) as u64;
    (run_farm(&config), connections)
}

/// The `conn_cost` row: wall time per edge, the socket-over-in-process
/// overhead ratio, and the connection-level SLO. Keyed by the Apache
/// image (the measured guest) at `spec`'s tier, the farm and
/// connection-pool shape, the SLO multiplier, the rep count, and
/// `spec`'s tier and lookup layer (the bin names its own edges).
pub fn conn_cost_row(cost: &ConnCost, spec: &BootSpec) -> TrajectoryRow {
    let mut metrics = Vec::new();
    for (edge, rate) in [
        ("in_process", &cost.in_process),
        ("socket", &cost.socket),
        ("slow_loris", &cost.slow_loris),
        ("disconnect", &cost.disconnect),
    ] {
        metrics.push(metric(&format!("{edge}_wall_ms"), rate.wall_ms, 2));
        metrics.push(metric(&format!("{edge}_ci95"), rate.wall_ms_ci95, 2));
    }
    metrics.extend([
        metric("socket_overhead", cost.socket_overhead(), 2),
        count(
            &format!("slo_within_{CONN_SLO_K}x_median_bp"),
            cost.slo_within_bp,
        ),
        count("servers", cost.servers),
        count("requests_per_server", cost.requests),
        count("reps", cost.reps),
    ]);
    let pool = SocketEdge::default();
    let identity = vec![
        "conn_cost/v2".to_string(),
        ServerKind::Apache.image_tier(spec.tier).id().to_string(),
        CONN_COST_SERVERS.to_string(),
        CONN_COST_REQUESTS.to_string(),
        pool.connections.to_string(),
        pool.backlog.to_string(),
        CONN_SLO_K.to_string(),
        cost.reps.to_string(),
    ];
    TrajectoryRow::new("conn_cost", metrics, tier_lookup_config(spec), identity)
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn hist_json(h: &LatencyHist) -> String {
    let pairs: Vec<String> = h
        .nonzero_buckets()
        .iter()
        .map(|&(top, n)| format!("[{top}, {n}]"))
        .collect();
    format!("[{}]", pairs.join(", "))
}

fn report_json(r: &FarmReport) -> String {
    let s = &r.stats;
    format!(
        concat!(
            "    {{\"server\": \"{}\", \"mode\": \"{}\", \"servers\": {}, ",
            "\"requests\": {}, \"completed\": {}, \"dropped\": {}, \"attacks\": {}, ",
            "\"deaths\": {}, \"restarts\": {}, \"servers_down\": {}, ",
            "\"total_cycles\": {}, \"service_cycles\": {}, \"restart_cycles\": {}, ",
            "\"survival_rate\": {:.4}, ",
            "\"throughput_per_mcycle\": {:.4}, \"latency_p50\": {}, ",
            "\"latency_p90\": {}, \"latency_p99\": {}, \"latency_p999\": {}, ",
            "\"latency_max\": {}, ",
            "\"tail_service_cycles\": {}, \"tail_restart_cycles\": {}, ",
            "\"host_wall_ms\": {:.2}}}"
        ),
        json_escape(r.config.kind.name()),
        json_escape(r.config.mode.name()),
        r.config.servers,
        s.requests,
        s.completed,
        s.dropped,
        s.attacks,
        s.deaths,
        s.restarts,
        s.servers_down,
        s.total_cycles,
        s.service_cycles(),
        s.restart_cycles,
        s.survival_rate(),
        s.throughput_per_mcycle(),
        s.latency_p50,
        s.latency_p90,
        s.latency_p99,
        s.latency_p999,
        s.latency_max,
        s.tail_service_cycles,
        s.tail_restart_cycles,
        r.host_wall_ms,
    )
}

fn stress_row_json(row: &StressRow) -> String {
    let s = &row.report.stats;
    format!(
        concat!(
            "      {{\"backend\": \"{}\", \"lookup\": \"{}\", \"wall_ms\": {:.2}, ",
            "\"wall_ms_ci95\": {:.2}, \"host_rps\": {:.1}, \"reps\": {}, ",
            "\"completed\": {}, \"total_cycles\": {}, ",
            "\"latency_p50\": {}, \"latency_p99\": {}, \"latency_p999\": {}, ",
            "\"tail_service_cycles\": {}, \"tail_restart_cycles\": {}, ",
            "\"service_hist\": {}, \"restart_hist\": {}}}"
        ),
        row.backend.name(),
        row.lookup.name(),
        row.wall_ms,
        row.wall_ms_ci95,
        row.host_rps,
        row.reps,
        s.completed,
        s.total_cycles,
        s.latency_p50,
        s.latency_p99,
        s.latency_p999,
        s.tail_service_cycles,
        s.tail_restart_cycles,
        hist_json(&s.service_hist),
        hist_json(&s.restart_hist),
    )
}

/// Renders the whole benchmark record.
pub fn render_farm_json(record: &FarmRecord) -> String {
    let mut out = String::from("{\n  \"benchmark\": \"farm\",\n  \"reports\": [\n");
    for (i, r) in record.reports.iter().enumerate() {
        out.push_str(&report_json(r));
        if i + 1 < record.reports.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ],\n  \"thread_scaling\": [\n");
    for (i, row) in record.scaling.iter().enumerate() {
        out.push_str(&format!(
            concat!(
                "    {{\"threads\": {}, \"host_wall_ms\": {:.2}, ",
                "\"host_wall_ms_ci95\": {:.2}, \"host_rps\": {:.1}, \"reps\": {}}}"
            ),
            row.threads, row.wall_ms, row.wall_ms_ci95, row.host_rps, row.reps
        ));
        if i + 1 < record.scaling.len() {
            out.push(',');
        }
        out.push('\n');
    }
    let boot = &record.boot;
    out.push_str(&format!(
        concat!(
            "  ],\n  \"boot_cost\": {{\"cold_compile_boot_ns\": {:.0}, ",
            "\"cold_ci95_ns\": {:.0}, \"cached_image_boot_ns\": {:.0}, ",
            "\"cached_ci95_ns\": {:.0}, \"speedup\": {:.1}, \"reps\": {}}},\n"
        ),
        boot.cold_ns,
        boot.cold_ci95_ns,
        boot.cached_ns,
        boot.cached_ci95_ns,
        boot.speedup(),
        boot.reps,
    ));
    out.push_str(&record.trajectories.render());
    // The scale-out stress point: per-backend rows plus the arena-vs-seed
    // unit-store churn measurement.
    let stress = &record.stress;
    if let Some(first) = stress.first() {
        let c = &first.report.config;
        out.push_str(&format!(
            concat!(
                "  \"farm_stress\": {{\"server\": \"{}\", \"mode\": \"{}\", ",
                "\"servers\": {}, \"requests_per_server\": {},\n    \"rows\": [\n"
            ),
            json_escape(c.kind.name()),
            json_escape(c.mode.name()),
            c.servers,
            c.requests_per_server,
        ));
        for (i, row) in stress.iter().enumerate() {
            out.push_str(&stress_row_json(row));
            if i + 1 < stress.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("    ],\n");
    } else {
        out.push_str("  \"farm_stress\": {\n    \"rows\": [],\n");
    }
    let churn = &record.churn;
    out.push_str(&format!(
        concat!(
            "    \"unit_churn\": {{\"machines\": {}, \"arena_ns\": {:.0}, ",
            "\"arena_ci95_ns\": {:.0}, \"boxed_seed_ns\": {:.0}, ",
            "\"boxed_ci95_ns\": {:.0}, \"arena_speedup\": {:.2}, \"reps\": {}}}\n  }}\n"
        ),
        churn.machines,
        churn.arena_ns,
        churn.arena_ci95_ns,
        churn.boxed_ns,
        churn.boxed_ci95_ns,
        churn.speedup(),
        churn.reps,
    ));
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rate(minstr_per_s: f64, minstr_ci95: f64, instrs: u64) -> ViolationThroughput {
        ViolationThroughput {
            minstr_per_s,
            minstr_ci95,
            instrs,
            reps: 24,
        }
    }

    fn sample_restart() -> RestartCost {
        RestartCost {
            cold_ns: 608620.4,
            cold_ci95_ns: 11604.6,
            restore_ns: 160841.25,
            restore_ci95_ns: 5969.5,
            reps: 24,
        }
    }

    fn sample_violation() -> ViolationThroughput {
        ViolationThroughput {
            reps: 3,
            ..rate(136.66, 3.04, 2100015)
        }
    }

    fn sample_conn() -> ConnCost {
        let edge = |wall_ms, wall_ms_ci95| ConnEdgeRate {
            wall_ms,
            wall_ms_ci95,
            host_rps: 30_000.0,
        };
        ConnCost {
            in_process: edge(48.664, 6.137),
            socket: edge(61.409, 3.881),
            slow_loris: edge(50.1, 2.51),
            disconnect: edge(47.2, 2.26),
            slo_within_bp: 9062,
            servers: 32,
            requests: 50,
            reps: 12,
        }
    }

    /// One row per trajectory section, in [`TRAJECTORY_SECTIONS`] order,
    /// from fixed inputs on the default configuration.
    fn sample_rows() -> Vec<TrajectoryRow> {
        let spec = BootSpec::new(ServerKind::Apache, Mode::FailureOblivious);
        // Distinct per-tier instruction counts pin which tier each row's
        // `instrs` reports.
        let rates = TierRates {
            baseline: rate(131.24, 7.06, 2088021),
            fused: rate(230.45, 7.81, 2088020),
            native: rate(526.61, 8.24, 2088022),
            reps: 24,
        };
        let access = AccessCost {
            table: AccessRate {
                maccess_per_s: 34.31,
                maccess_ci95: 0.64,
            },
            paged: AccessRate {
                maccess_per_s: 85.02,
                maccess_ci95: 2.18,
            },
            accesses: 73728,
            reps: 24,
        };
        vec![
            restart_cost_row(&sample_restart(), &sample_violation(), &spec),
            tier_rates_row(&DISPATCH_LOOP, &rates),
            access_cost_row(&access),
            tier_rates_row(&NATIVE_LOOP, &rates),
            tier_rates_row(&MEM_LOOP, &rates),
            conn_cost_row(&sample_conn(), &spec),
            mode_sweep_row(150, 0, 17, 4, 438298.64, &spec, &Edge::default()),
        ]
    }

    #[test]
    fn rows_render_the_historical_bytes() {
        // The literals are what the per-section renderers this schema
        // replaced produced for the same inputs; the config members
        // before "fingerprint" are the only addition.
        let golden = [
            r#"{"cold_boot_replay_ns": 608620, "cold_ci95_ns": 11605, "checkpoint_restore_ns": 160841, "restore_ci95_ns": 5970, "speedup": 3.8, "reps": 24, "violation_minstr_per_s": 136.7, "violation_minstr_ci95": 3.0, "violation_instrs": 2100015, "tier": "native", "lookup": "paged", "table": "splay", "fingerprint": "fp-golden"}"#,
            r#"{"baseline_minstr_per_s": 131.2, "baseline_minstr_ci95": 7.1, "super_minstr_per_s": 230.4, "super_minstr_ci95": 7.8, "native_minstr_per_s": 526.6, "native_minstr_ci95": 8.2, "speedup": 1.76, "native_speedup": 4.01, "instrs": 2088020, "reps": 24, "fingerprint": "fp-golden"}"#,
            r#"{"table_maccess_per_s": 34.3, "table_maccess_ci95": 0.6, "paged_maccess_per_s": 85.0, "paged_maccess_ci95": 2.2, "speedup": 2.48, "accesses": 73728, "reps": 24, "fingerprint": "fp-golden"}"#,
            r#"{"baseline_minstr_per_s": 131.2, "baseline_minstr_ci95": 7.1, "super_minstr_per_s": 230.4, "super_minstr_ci95": 7.8, "native_minstr_per_s": 526.6, "native_minstr_ci95": 8.2, "speedup_over_super": 2.29, "speedup_over_baseline": 4.01, "instrs": 2088022, "reps": 24, "fingerprint": "fp-golden"}"#,
            r#"{"baseline_minstr_per_s": 131.2, "baseline_minstr_ci95": 7.1, "super_minstr_per_s": 230.4, "super_minstr_ci95": 7.8, "native_minstr_per_s": 526.6, "native_minstr_ci95": 8.2, "speedup_over_super": 2.29, "speedup_over_baseline": 4.01, "instrs": 2088022, "reps": 24, "fingerprint": "fp-golden"}"#,
            r#"{"in_process_wall_ms": 48.66, "in_process_ci95": 6.14, "socket_wall_ms": 61.41, "socket_ci95": 3.88, "slow_loris_wall_ms": 50.10, "slow_loris_ci95": 2.51, "disconnect_wall_ms": 47.20, "disconnect_ci95": 2.26, "socket_overhead": 1.26, "slo_within_4x_median_bp": 9062, "servers": 32, "requests_per_server": 50, "reps": 12, "tier": "native", "lookup": "paged", "fingerprint": "fp-golden"}"#,
            r#"{"cells": 150, "resumed_cells": 0, "inputs": 17, "threads": 4, "wall_ms": 438298.6, "tier": "native", "lookup": "paged", "edge": "in-process", "fingerprint": "fp-golden"}"#,
        ];
        let rows = sample_rows();
        assert_eq!(rows.len(), golden.len());
        for ((row, want), section) in rows.into_iter().zip(golden).zip(TRAJECTORY_SECTIONS) {
            assert_eq!(row.section, section, "sample rows follow section order");
            let row = TrajectoryRow {
                fingerprint: "fp-golden".to_string(),
                ..row
            };
            assert_eq!(row.render(), want, "{section} row bytes changed");
        }
    }

    /// The trajectory block of a record in the committed file's shape:
    /// fingerprint-less legacy rows, an empty section, multi-row
    /// sections.
    const RECORDED_TRAJECTORIES: &str = concat!(
        "  \"restart_cost_runs\": [\n",
        "    {\"cold_boot_replay_ns\": 936113, \"speedup\": 6.0, \"reps\": 24},\n",
        "    {\"cold_boot_replay_ns\": 608620, \"speedup\": 3.8, \"reps\": 24, \"fingerprint\": \"d18f9f8cc0878cab\"}\n",
        "  ],\n",
        "  \"dispatch_cost_runs\": [\n",
        "    {\"baseline_minstr_per_s\": 138.7, \"speedup\": 1.68, \"fingerprint\": \"524549b67a7ae861\"},\n",
        "    {\"baseline_minstr_per_s\": 131.2, \"speedup\": 1.76, \"fingerprint\": \"1277b8e158d0a397\"}\n",
        "  ],\n",
        "  \"access_cost_runs\": [\n",
        "    {\"table_maccess_per_s\": 34.3, \"speedup\": 2.47, \"fingerprint\": \"e9398117a0625b7e\"}\n",
        "  ],\n",
        "  \"native_cost_runs\": [],\n",
        "  \"mem_cost_runs\": [\n",
        "    {\"baseline_minstr_per_s\": 114.4, \"fingerprint\": \"9ff90b59f560924a\"}\n",
        "  ],\n",
        "  \"conn_cost_runs\": [\n",
        "    {\"in_process_wall_ms\": 48.66, \"socket_overhead\": 1.26, \"fingerprint\": \"779fa506622dded8\"}\n",
        "  ],\n",
        "  \"mode_sweep_runs\": [\n",
        "    {\"cells\": 150, \"resumed_cells\": 0, \"inputs\": 17, \"threads\": 4, \"wall_ms\": 438298.6}\n",
        "  ],\n",
    );

    #[test]
    fn recorded_trajectories_round_trip_byte_for_byte() {
        let record = format!(
            "{{\n  \"benchmark\": \"farm\",\n  \"boot_cost\": {{\"reps\": 24}},\n{RECORDED_TRAJECTORIES}  \"farm_stress\": {{}}\n}}\n"
        );
        let carried = Trajectories::carried_from(&record);
        assert_eq!(carried.render(), RECORDED_TRAJECTORIES);
        assert_eq!(check_carried(&record, &record), Ok(8));
        // The regeneration gate catches a section moved out of the
        // declared order or re-laid-out.
        let access = "  \"access_cost_runs\": [\n    {\"table_maccess_per_s\": 34.3, \"speedup\": 2.47, \"fingerprint\": \"e9398117a0625b7e\"}\n  ],\n";
        let native = "  \"native_cost_runs\": [],\n";
        let swapped = record.replace(&format!("{access}{native}"), &format!("{native}{access}"));
        assert_ne!(swapped, record);
        assert!(check_carried(&swapped, &record).is_err());
        let relaid = record.replace("    {\"table_maccess", "  {\"table_maccess");
        assert!(check_carried(&relaid, &record).is_err());
        assert_eq!(carried.rows("restart_cost").len(), 2);
        assert!(carried.rows("native_cost").is_empty());
        // Upserting an existing fingerprint replaces that row in place
        // and leaves every other byte alone.
        let fresh = r#"{"baseline_minstr_per_s": 140.0, "fingerprint": "524549b67a7ae861"}"#;
        let replaced = upsert_trajectory_row(&record, "dispatch_cost", fresh).expect("upsert");
        assert_eq!(
            replaced,
            record.replace(
                r#"{"baseline_minstr_per_s": 138.7, "speedup": 1.68, "fingerprint": "524549b67a7ae861"}"#,
                fresh
            )
        );
        // A new fingerprint appends; a fingerprint-less legacy row is
        // never matched.
        for section in TRAJECTORY_SECTIONS {
            let before = trajectory_rows(&record, section);
            let row = format!("{{\"reps\": 1, \"fingerprint\": \"fp-new-{section}\"}}");
            let grown = upsert_trajectory_row(&record, section, &row).expect("append");
            let mut want = before.clone();
            want.push(row);
            assert_eq!(trajectory_rows(&grown, section), want, "{section}");
            for other in TRAJECTORY_SECTIONS.iter().filter(|s| **s != section) {
                assert_eq!(
                    trajectory_rows(&grown, other),
                    trajectory_rows(&record, other),
                    "growing {section} must not disturb {other}"
                );
            }
        }
        // A record missing a section gains it just before
        // mode_sweep_runs; a record without that anchor is refused.
        let old = record.replace(
            "  \"conn_cost_runs\": [\n    {\"in_process_wall_ms\": 48.66, \"socket_overhead\": 1.26, \"fingerprint\": \"779fa506622dded8\"}\n  ],\n",
            "",
        );
        assert!(trajectory_rows(&old, "conn_cost").is_empty());
        let row = r#"{"reps": 12, "fingerprint": "fp-conn"}"#;
        let created = upsert_trajectory_row(&old, "conn_cost", row).expect("create section");
        assert!(created.contains(&format!(
            "  \"conn_cost_runs\": [\n    {row}\n  ],\n  \"mode_sweep_runs\": ["
        )));
        assert_eq!(
            Trajectories::carried_from(&created).rows("mode_sweep"),
            carried.rows("mode_sweep")
        );
        assert!(upsert_trajectory_row("{\n}\n", "conn_cost", row).is_err());
    }

    #[test]
    fn json_renders_and_balances() {
        let mut config = suite_config(ServerKind::Apache, Mode::FailureOblivious, 5);
        config.servers = 2;
        config.threads = 2;
        let reports = vec![run_farm(&config)];
        let scaling = vec![
            ScalingRow {
                threads: 1,
                wall_ms: 10.0,
                wall_ms_ci95: 0.5,
                host_rps: 100.0,
                reps: 3,
            },
            ScalingRow {
                threads: 2,
                wall_ms: 5.0,
                wall_ms_ci95: 0.25,
                host_rps: 200.0,
                reps: 3,
            },
        ];
        let boot = BootCost {
            cold_ns: 1_000_000.0,
            cold_ci95_ns: 1000.0,
            cached_ns: 50_000.0,
            cached_ci95_ns: 500.0,
            reps: 10,
        };
        let stress = stress_sweep(
            3,
            3,
            1,
            &TableKind::ALL,
            &LookupLayer::ALL,
            ExecTier::default(),
            &Edge::default(),
        )
        .expect("contract");
        let churn = measure_unit_churn(4, 2);
        let rows = sample_rows();
        let mut trajectories = Trajectories::carried_from("");
        for row in &rows {
            trajectories.upsert(row);
        }
        let record = FarmRecord {
            reports,
            scaling,
            boot,
            stress,
            churn,
            trajectories,
        };
        let json = render_farm_json(&record);
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces:\n{json}"
        );
        assert!(json.contains("\"server\": \"Apache\""));
        assert!(json.contains("\"mode\": \"Failure Oblivious\""));
        assert!(json.contains("\"service_cycles\""));
        assert!(json.contains("\"restart_cycles\""));
        assert!(json.contains("\"latency_p999\""));
        assert!(json.contains("\"tail_service_cycles\""));
        assert!(json.contains("\"tail_restart_cycles\""));
        assert!(json.contains("\"thread_scaling\""));
        assert!(json.contains("\"host_wall_ms_ci95\""));
        assert!(json.contains("\"boot_cost\""));
        assert!(json.contains("\"speedup\": 20.0"));
        assert!(json.contains("\"farm_stress\""));
        assert!(json.contains("\"lookup\": \"table\""));
        assert!(json.contains("\"lookup\": \"paged\""));
        for backend in foc_memory::TableKind::ALL {
            assert!(
                json.contains(&format!("\"backend\": \"{}\"", backend.name())),
                "missing stress row for {backend}"
            );
        }
        assert!(json.contains("\"service_hist\": [["));
        assert!(json.contains("\"unit_churn\""));
        assert!(json.contains("\"arena_speedup\""));
        // Sections render in the one declared order, each holding its
        // row; a re-render of the carried record is byte-identical.
        let mut at = 0;
        for row in &rows {
            let marker = format!("\"{}_runs\": [", row.section);
            let pos = json.find(&marker).expect("every section renders");
            assert!(pos > at, "{} out of order", row.section);
            at = pos;
            assert_eq!(trajectory_rows(&json, row.section), vec![row.render()]);
        }
        assert_eq!(Trajectories::carried_from(&json), record.trajectories);
        // Per section: a fresh fingerprint grows the array, the same
        // fingerprint replaces in place with the fresh value, and no
        // other section moves.
        for row in &rows {
            let section = row.section;
            let fresh = TrajectoryRow {
                fingerprint: format!("{}-2", row.fingerprint),
                ..row.clone()
            };
            let grown = upsert_trajectory_row(&json, section, &fresh.render()).expect("append");
            assert_eq!(trajectory_rows(&grown, section).len(), 2, "{section}");
            let mut remeasured = fresh.clone();
            remeasured.metrics[0].1 = "0.5".to_string();
            let replaced =
                upsert_trajectory_row(&grown, section, &remeasured.render()).expect("upsert");
            assert_eq!(
                trajectory_rows(&replaced, section),
                vec![row.render(), remeasured.render()],
                "same fingerprint must replace in place: {section}"
            );
            for other in rows.iter().filter(|o| o.section != section) {
                assert_eq!(
                    trajectory_rows(&replaced, other.section),
                    vec![other.render()],
                    "growing {section} must not disturb {}",
                    other.section
                );
            }
            assert_eq!(
                replaced.matches('{').count(),
                replaced.matches('}').count(),
                "upserted record must stay balanced"
            );
        }
    }

    #[test]
    fn stress_sweep_rows_agree_across_backends_and_layers() {
        let rows = stress_sweep(
            4,
            5,
            2,
            &TableKind::ALL,
            &LookupLayer::ALL,
            ExecTier::default(),
            &Edge::default(),
        )
        .expect("contract");
        assert_eq!(rows.len(), TableKind::ALL.len() * LookupLayer::ALL.len());
        for pair in rows.windows(2) {
            assert_eq!(
                pair[0].report, pair[1].report,
                "{}/{} and {}/{} must compute identical farms",
                pair[0].backend, pair[0].lookup, pair[1].backend, pair[1].lookup
            );
        }
        for row in &rows {
            assert_eq!(row.report.config.table, row.backend);
            assert_eq!(row.report.config.lookup, row.lookup);
            assert!(row.wall_ms > 0.0);
            assert!(row.host_rps > 0.0);
        }
    }

    #[test]
    fn paged_access_rate_beats_the_direct_table_search() {
        // The acceptance bar of the page-map layer, mirroring the
        // dispatch-cost gate: on memo-defeating in-bounds traffic the
        // shift+mask probe must beat the flat table's binary search by
        // 1.5x with room to spare even on noisy CI hosts. (The
        // measurement itself asserts both layers drove the substrate
        // identically.)
        let cost = measure_access_cost(3);
        assert!(
            cost.speedup() >= 1.5,
            "paged lookup must be ≥1.5× the table search: table {:.1} vs paged {:.1} Maccess/s ({:.2}×)",
            cost.table.maccess_per_s,
            cost.paged.maccess_per_s,
            cost.speedup()
        );
    }

    #[test]
    fn unit_churn_measures_both_flavours() {
        let churn = measure_unit_churn(32, 4);
        assert_eq!(churn.machines, 32);
        assert!(churn.arena_ns > 0.0);
        assert!(churn.boxed_ns > 0.0);
        assert!(churn.speedup() > 0.0);
    }

    #[test]
    fn cached_image_boot_is_at_least_5x_faster_than_cold_compile() {
        // The acceptance bar of the shared-image layer. The real margin
        // is far larger (compilation runs the whole front end + lowering
        // while a cached boot only loads globals), so 5× holds with room
        // even on noisy CI hosts.
        let boot = measure_boot_cost(
            12,
            ExecTier::default(),
            LookupLayer::default(),
            TableKind::default(),
        );
        assert!(
            boot.speedup() >= 5.0,
            "cached-image boot must be ≥5× faster: cold {:.0}ns vs cached {:.0}ns ({:.1}×)",
            boot.cold_ns,
            boot.cached_ns,
            boot.speedup()
        );
    }

    #[test]
    fn checkpoint_restore_is_at_least_5x_faster_than_cold_boot_replay() {
        // The acceptance bar of the boot-checkpoint layer, mirroring
        // the PR 2 boot-cost gate: restoring the frozen Pine snapshot
        // must beat re-running boot plus mailbox replay by 5x with
        // room to spare even on noisy CI hosts.
        let cost = measure_restart_cost(
            12,
            ExecTier::default(),
            LookupLayer::default(),
            TableKind::default(),
        );
        assert!(
            cost.speedup() >= 5.0,
            "checkpoint restore must be ≥5× faster: cold {:.0}ns vs restore {:.0}ns ({:.1}×)",
            cost.cold_ns,
            cost.restore_ns,
            cost.speedup()
        );
    }

    #[test]
    fn violation_throughput_measures_a_manufactured_storm() {
        let v = measure_violation_throughput(2);
        assert!(v.minstr_per_s > 0.0);
        // Every loop iteration must actually violate: the fuel-side
        // instruction count confirms the loop ran end to end.
        assert!(v.instrs > VIOLATION_LOOP_ITERS as u64);
    }

    #[test]
    fn restart_cost_section_is_created_in_old_records() {
        // A record rendered before any trajectory section existed gains
        // each one on upsert, in front of mode_sweep_runs.
        let mut json = concat!(
            "{\n  \"benchmark\": \"farm\",\n",
            "  \"mode_sweep_runs\": [\n",
            "    {\"cells\": 150}\n",
            "  ],\n}\n"
        )
        .to_string();
        let rows = sample_rows();
        for row in &rows[..rows.len() - 1] {
            json = upsert_trajectory_row(&json, row.section, &row.render())
                .unwrap_or_else(|e| panic!("create {}: {e}", row.section));
            assert_eq!(trajectory_rows(&json, row.section), vec![row.render()]);
            assert_eq!(trajectory_rows(&json, "mode_sweep").len(), 1);
            // Re-upserting the same fingerprint leaves one row.
            json = upsert_trajectory_row(&json, row.section, &row.render()).expect("upsert");
            assert_eq!(trajectory_rows(&json, row.section).len(), 1);
        }
        // The created sections keep their creation order, all of them
        // ahead of the anchor.
        let anchor = json.find("\"mode_sweep_runs\"").expect("anchor kept");
        let mut at = 0;
        for row in &rows[..rows.len() - 1] {
            let pos = json.find(&format!("\"{}_runs\"", row.section)).unwrap();
            assert!(at < pos && pos < anchor, "{} misplaced", row.section);
            at = pos;
        }
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn fingerprints_are_stable_and_shape_sensitive() {
        // Identical inputs reproduce the fingerprint (idempotent
        // reruns); any shape change reshapes it (fresh trajectory row).
        let rows = sample_rows();
        assert_eq!(rows, sample_rows());
        let fps: std::collections::BTreeSet<_> = rows.iter().map(|r| &r.fingerprint).collect();
        assert_eq!(fps.len(), rows.len(), "no two sections collide");
        let spec = BootSpec::new(ServerKind::Apache, Mode::FailureOblivious);
        let rates = |reps| TierRates {
            baseline: rate(1.0, 0.0, 1),
            fused: rate(1.0, 0.0, 1),
            native: rate(1.0, 0.0, 1),
            reps,
        };
        for bench in [DISPATCH_LOOP, NATIVE_LOOP, MEM_LOOP] {
            assert_ne!(
                tier_rates_row(&bench, &rates(8)).fingerprint,
                tier_rates_row(&bench, &rates(24)).fingerprint
            );
        }
        let (restart, violation) = (sample_restart(), sample_violation());
        assert_ne!(
            restart_cost_row(&RestartCost { reps: 8, ..restart }, &violation, &spec).fingerprint,
            restart_cost_row(
                &RestartCost {
                    reps: 24,
                    ..restart
                },
                &violation,
                &spec
            )
            .fingerprint
        );
        assert_ne!(
            conn_cost_row(
                &ConnCost {
                    reps: 24,
                    ..sample_conn()
                },
                &spec
            )
            .fingerprint,
            conn_cost_row(
                &ConnCost {
                    reps: 12,
                    ..sample_conn()
                },
                &spec
            )
            .fingerprint
        );
        let sweep = mode_sweep_row(150, 0, 17, 4, 1.0, &spec, &Edge::default()).fingerprint;
        assert_ne!(
            sweep,
            mode_sweep_row(150, 0, 17, 8, 1.0, &spec, &Edge::default()).fingerprint
        );
        assert_ne!(
            sweep,
            mode_sweep_row(150, 150, 17, 4, 1.0, &spec, &Edge::default()).fingerprint,
            "a fully resumed sweep must not replace a full sweep's row"
        );
        // Concatenation ambiguity is broken by the separator.
        assert_ne!(fingerprint_of(&["ab", "c"]), fingerprint_of(&["a", "bc"]));
    }

    #[test]
    fn empty_config_fingerprints_keep_their_historical_formula() {
        // Bins that measure every tier or layer carry no config, so
        // their fingerprints still hash exactly the historical parts
        // and their recorded rows stay upsert targets.
        let rates = TierRates {
            baseline: rate(1.0, 0.0, 1),
            fused: rate(1.0, 0.0, 1),
            native: rate(1.0, 0.0, 1),
            reps: 24,
        };
        for bench in [DISPATCH_LOOP, NATIVE_LOOP, MEM_LOOP] {
            let mut parts = vec![bench.schema.to_string()];
            for tier in foc_compiler::ExecTier::ALL {
                let image = foc_compiler::compile_image_tier(bench.source, tier).unwrap();
                parts.push(image.id().to_string());
            }
            parts.push(bench.iters.to_string());
            parts.push("24".to_string());
            assert_eq!(
                tier_rates_row(&bench, &rates).fingerprint,
                fingerprint_of(&parts),
                "{}",
                bench.section
            );
        }
        let access = AccessCost {
            table: AccessRate {
                maccess_per_s: 1.0,
                maccess_ci95: 0.0,
            },
            paged: AccessRate {
                maccess_per_s: 1.0,
                maccess_ci95: 0.0,
            },
            accesses: 1,
            reps: 24,
        };
        assert_eq!(
            access_cost_row(&access).fingerprint,
            fingerprint_of(&["access_cost/v1", "384", "49152", "6", "24"])
        );
    }

    #[test]
    fn fingerprints_name_every_configuration_axis() {
        // Rows measured under configurations that differ in a single
        // axis must never replace each other.
        let rows = sample_rows();
        let (restart, conn, sweep) = (&rows[0], &rows[5], &rows[6]);
        let base = BootSpec::new(ServerKind::Apache, Mode::FailureOblivious);
        let table_lookup = base.with_lookup(LookupLayer::Table);
        let flat = base.with_table(TableKind::Flat);
        let (restart_cost, violation) = (sample_restart(), sample_violation());
        for spec in [&table_lookup, &flat] {
            assert_ne!(
                restart_cost_row(&restart_cost, &violation, spec).fingerprint,
                restart.fingerprint
            );
        }
        // Measured values stay out of the fingerprint.
        let conn_cost = ConnCost {
            slo_within_bp: 1,
            ..sample_conn()
        };
        assert_eq!(
            conn_cost_row(&conn_cost, &base).fingerprint,
            conn.fingerprint
        );
        assert_ne!(
            conn_cost_row(&conn_cost, &table_lookup).fingerprint,
            conn.fingerprint
        );
        let socket: Edge = "socket".parse().unwrap();
        assert_ne!(
            mode_sweep_row(150, 0, 17, 4, 1.0, &table_lookup, &Edge::default()).fingerprint,
            sweep.fingerprint
        );
        assert_ne!(
            mode_sweep_row(150, 0, 17, 4, 1.0, &base, &socket).fingerprint,
            sweep.fingerprint
        );
    }

    #[test]
    fn thread_scaling_rows_carry_confidence_intervals() {
        let rows = thread_scaling(
            4,
            &[1, 2],
            3,
            ExecTier::default(),
            LookupLayer::default(),
            &Edge::default(),
        )
        .expect("determinism");
        assert_eq!(rows.len(), 2);
        for row in rows {
            assert_eq!(row.reps, 3);
            assert!(row.wall_ms > 0.0);
            assert!(row.host_rps > 0.0);
            assert!(row.wall_ms_ci95 >= 0.0);
        }
    }
}
