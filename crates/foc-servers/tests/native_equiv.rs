//! The native tier's end-to-end invisibility contract, at the server
//! layer: for every observable surface a client or operator has — step
//! transcripts, intercepted-violation counts, crash faults,
//! post-supervision usability, the full space counters, and the full
//! memory-error log — driving a server under AOT-lowered region
//! execution must be byte-identical to driving it under the baseline
//! interpreter *and* the superinstruction tier.
//!
//! The VM layer already proves instruction-level parity (fuel, instr,
//! cycle accounting per opcode; `foc-vm`'s tier-parity battery and the
//! independent-referee accounting audit). This battery closes the
//! remaining gap: real boot images, boot-checkpoint restore (every
//! `drive_input` boot restores a frozen per-spec snapshot, so the
//! native artifact must ride through `Checkpoint` capture/restore),
//! and the §4/§5.1 attack library, across all five servers × all five
//! modes, plus a property sweep over manufactured-value seeds and fuel
//! limits that pins identical fuel-out points.

use proptest::prelude::*;

use foc_compiler::{compile_image_tier, ExecTier};
use foc_memory::{Mode, ValueSequence};
use foc_servers::conn::Edge;
use foc_servers::sweep::{drive_input, Driven, SweepInput, INPUT_LIBRARY, TIGHT_FUEL};
use foc_servers::BootSpec;
use foc_vm::{Checkpoint, Machine, MachineConfig};

/// Drives `input` under all three execution tiers of the same spec and
/// asserts every observable surface agrees, returning the (shared)
/// observation for callers that want to assert more.
fn assert_native_blind(input: &SweepInput, spec: BootSpec) -> Driven {
    let baseline = drive_input(input, &spec.with_tier(ExecTier::Baseline), &Edge::default());
    for tier in [ExecTier::Super, ExecTier::Native] {
        let tiered = drive_input(input, &spec.with_tier(tier), &Edge::default());
        assert_eq!(
            baseline,
            tiered,
            "{}/{} under {:?}: {:?} must be observationally identical to baseline",
            input.kind.name(),
            input.name,
            spec,
            tier
        );
    }
    baseline
}

/// The headline battery: all five servers × all five modes × the full
/// input library (benign sessions and the attack inputs), at each
/// server's standard fuel budget. The attack inputs are the ones that
/// exercise the native regions' cold fault seams — a violation inside a
/// lowered memory access must refund the unexecuted components and
/// produce the same log record, at the same sequence number, with the
/// same manufactured value, as one-dispatch-at-a-time interpretation.
#[test]
fn all_servers_all_modes_attack_library() {
    let mut attacks = 0;
    for input in INPUT_LIBRARY {
        for mode in Mode::ALL {
            let driven = assert_native_blind(input, BootSpec::new(input.kind, mode));
            if input.attack && mode == Mode::FailureOblivious {
                attacks += 1;
                assert!(
                    driven.violations > 0 || driven.fault.is_some(),
                    "{}/{}: an attack input must be observable",
                    input.kind.name(),
                    input.name
                );
            }
        }
    }
    assert!(attacks >= 5, "the library must cover every server's attack");
}

/// Manufactured-value strategies change *which* values flow out of
/// invalid reads — and therefore which branches the guest takes after a
/// violation. The native tier must be blind to all of them under the
/// tight budget, where its whole-region pre-charge gate is constantly
/// probed by impending fuel exhaustion.
#[test]
fn manufactured_value_strategies_are_native_blind() {
    let sequences = [
        ValueSequence::Zero,
        ValueSequence::Constant(0x41),
        ValueSequence::Cycling { wrap: 3 },
        ValueSequence::Cycling { wrap: 257 },
    ];
    for input in INPUT_LIBRARY.iter().filter(|i| i.attack) {
        for sequence in sequences {
            assert_native_blind(
                input,
                BootSpec::new(input.kind, Mode::FailureOblivious)
                    .with_sequence(sequence)
                    .with_fuel(TIGHT_FUEL),
            );
        }
    }
}

/// A mid-run VM checkpoint of a native-tier machine must restore with
/// the AOT artifact intact, and the interrupted run must finish exactly
/// as an uninterrupted baseline run does — stats, space counters, and
/// results alike. (Server boots restore frozen snapshots on every
/// `drive_input`, so the batteries above already soak boot-time
/// restore; this pins the artifact's survival explicitly.)
#[test]
fn native_artifact_survives_checkpoint_restore() {
    let src = "long spin(long n) { int xs[2]; long i; long acc = 0; \
               for (i = 0; i < n; i++) acc += xs[5]; return acc; }";
    let config = MachineConfig::with_mode(Mode::FailureOblivious).with_fuel(1_000_000);

    let image = compile_image_tier(src, ExecTier::Native).expect("compile");
    let mut native = Machine::load(image, config.clone()).expect("load");
    native.call("spin", &[4]).expect("warm-up call");
    let ckpt = Checkpoint::capture(&native);

    let mut restored = ckpt.restore();
    assert!(
        restored.image().native().is_some(),
        "the AOT artifact must ride through capture/restore"
    );

    let mut reference = Machine::load(
        compile_image_tier(src, ExecTier::Baseline).expect("compile"),
        config,
    )
    .expect("load");
    reference.call("spin", &[4]).expect("warm-up call");
    assert_eq!(
        restored.call("spin", &[6]).expect("restored call"),
        reference.call("spin", &[6]).expect("reference call"),
    );
    assert_eq!(restored.stats(), reference.stats());
    assert_eq!(restored.space().stats(), reference.space().stats());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random (input, mode, manufactured-value seed, fuel limit) points:
    /// all three tiers must agree on everything — in particular on
    /// *where* tight budgets fuel out. A native region is only entered
    /// when remaining fuel covers its whole charge, so a drifted
    /// fuel-out point (a script step completing under one tier and
    /// `FuelExhausted`-crashing under another) is exactly the bug class
    /// this property hunts. Fuel spans boot-time exhaustion (well under
    /// any server's boot cost) through budgets that let most scripts
    /// finish.
    #[test]
    fn random_seed_and_fuel_points_are_native_blind(
        index in 0usize..INPUT_LIBRARY.len(),
        mode_index in 0usize..Mode::ALL.len(),
        wrap in 2u64..600,
        fuel in 0u64..400_000,
    ) {
        let input = &INPUT_LIBRARY[index];
        let spec = BootSpec::new(input.kind, Mode::ALL[mode_index])
            .with_sequence(ValueSequence::Cycling { wrap })
            .with_fuel(fuel);
        let baseline = drive_input(input, &spec.with_tier(ExecTier::Baseline), &Edge::default());
        let native = drive_input(input, &spec.with_tier(ExecTier::Native), &Edge::default());
        prop_assert_eq!(baseline, native);
    }
}
