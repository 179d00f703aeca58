//! The superinstruction tier's end-to-end invisibility contract, at the
//! server layer: for every observable surface a client or operator has —
//! step transcripts, intercepted-violation counts, crash faults,
//! post-supervision usability, the full space counters, and the full
//! memory-error log — driving a server under the fused tier must be
//! byte-identical to driving it under the baseline tier.
//!
//! The VM layer already proves instruction-level parity (fuel, instr,
//! cycle accounting per opcode; `foc-vm`'s tier-parity battery). This
//! battery closes the remaining gap: real boot images, checkpoint
//! restore, supervision restarts, and the §4/§5.1 attack library, across
//! all five servers × all five modes, plus a property sweep over
//! manufactured-value seeds and fuel limits that pins identical
//! fuel-out points.

use proptest::prelude::*;

use foc_compiler::ExecTier;
use foc_memory::{Mode, ValueSequence};
use foc_servers::conn::Edge;
use foc_servers::sweep::{drive_input, Driven, SweepInput, INPUT_LIBRARY, TIGHT_FUEL};
use foc_servers::BootSpec;

/// Drives `input` under both execution tiers of the same spec and
/// asserts every observable surface agrees, returning the (shared)
/// observation for callers that want to assert more.
fn assert_tier_blind(input: &SweepInput, spec: BootSpec) -> Driven {
    let baseline = drive_input(input, &spec.with_tier(ExecTier::Baseline), &Edge::default());
    let fused = drive_input(input, &spec.with_tier(ExecTier::Super), &Edge::default());
    assert_eq!(
        baseline,
        fused,
        "{}/{} under {:?}: tiers must be observationally identical",
        input.kind.name(),
        input.name,
        spec
    );
    baseline
}

/// The headline battery: all five servers × all five modes × the full
/// input library (benign sessions and the attack inputs), at each
/// server's standard fuel budget. The attack inputs are the ones that
/// exercise the fused opcodes' cold deopt seams — a violation inside a
/// fused memory access must produce the same log record, at the same
/// sequence number, with the same manufactured value, as the unfused
/// interpretation.
#[test]
fn all_servers_all_modes_attack_library() {
    let mut attacks = 0;
    for input in INPUT_LIBRARY {
        for mode in Mode::ALL {
            let driven = assert_tier_blind(input, BootSpec::new(input.kind, mode));
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
/// violation. The tier must be blind to all of them, including the
/// degenerate constant that keeps `strlen`-style loops running (the
/// tight budget bounds those non-terminating scans; the interesting
/// observable is then *where* they fuel out, which must also agree).
#[test]
fn manufactured_value_strategies_are_tier_blind() {
    let sequences = [
        ValueSequence::Zero,
        ValueSequence::Constant(0x41),
        ValueSequence::Cycling { wrap: 3 },
        ValueSequence::Cycling { wrap: 257 },
    ];
    for input in INPUT_LIBRARY.iter().filter(|i| i.attack) {
        for sequence in sequences {
            assert_tier_blind(
                input,
                BootSpec::new(input.kind, Mode::FailureOblivious)
                    .with_sequence(sequence)
                    .with_fuel(TIGHT_FUEL),
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random (input, mode, manufactured-value seed, fuel limit) points:
    /// both tiers must agree on everything — in particular on *where*
    /// tight budgets fuel out. The fused opcodes charge their whole
    /// pattern's fuel through a deopt seam when the budget cannot cover
    /// it, so a drifted fuel-out point (a script step completing under
    /// one tier and `FuelExhausted`-crashing under the other) is exactly
    /// the bug class this property hunts. Fuel spans boot-time
    /// exhaustion (well under any server's boot cost) through budgets
    /// that let most scripts finish.
    #[test]
    fn random_seed_and_fuel_points_are_tier_blind(
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
        let fused = drive_input(input, &spec.with_tier(ExecTier::Super), &Edge::default());
        prop_assert_eq!(baseline, fused);
    }
}
