//! The page-map lookup layer's end-to-end invisibility contract, at
//! the server layer: for every observable surface a client or operator
//! has — step transcripts, intercepted-violation counts, crash faults,
//! post-supervision usability, the full space counters, and the full
//! memory-error log — driving a server under [`LookupLayer::Paged`]
//! must be byte-identical to driving it under [`LookupLayer::Table`].
//!
//! The space layer already proves observational identity on mixed
//! direct traffic (`foc-memory`'s differential tests). This battery
//! closes the remaining gap: real boot images, the per-spec checkpoint
//! cache (whose frozen snapshots carry a page map), supervision
//! restarts, and the §4/§5.1 attack library, across all five servers ×
//! all five modes — the attack inputs are the ones whose wild accesses
//! land on guard pages, so log equality proves guard-page hits classify
//! exactly like table misses. A property sweep over manufactured-value
//! seeds, fuel limits, and alloc/free churn scripts pins the page map
//! against stale entries across slot reuse.

use proptest::prelude::*;

use foc_memory::{AccessCtx, AccessSize, LookupLayer, MemConfig, MemorySpace, Mode, ValueSequence};
use foc_servers::conn::Edge;
use foc_servers::sweep::{drive_input, Driven, SweepInput, INPUT_LIBRARY, TIGHT_FUEL};
use foc_servers::BootSpec;

/// Drives `input` under both lookup layers of the same spec and
/// asserts every observable surface agrees, returning the (shared)
/// observation for callers that want to assert more.
fn assert_layer_blind(input: &SweepInput, spec: BootSpec) -> Driven {
    let table = drive_input(
        input,
        &spec.with_lookup(LookupLayer::Table),
        &Edge::default(),
    );
    let paged = drive_input(
        input,
        &spec.with_lookup(LookupLayer::Paged),
        &Edge::default(),
    );
    assert_eq!(
        table,
        paged,
        "{}/{}: lookup layers must be observationally identical",
        input.kind.name(),
        input.name,
    );
    table
}

/// The headline battery: all five servers × all five modes × the full
/// input library (benign sessions and the attack inputs), at each
/// server's standard fuel budget. The attack accesses are exactly the
/// ones that miss every unit — under the paged layer they hit guard
/// pages (or shared-page fallbacks), and the byte-identical error log
/// proves each one classified and manufactured identically to the
/// table search.
#[test]
fn all_servers_all_modes_attack_library() {
    let mut attacks = 0;
    for input in INPUT_LIBRARY {
        for mode in Mode::ALL {
            let driven = assert_layer_blind(input, BootSpec::new(input.kind, mode));
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
/// invalid reads — and therefore which branches the guest takes after
/// a violation. The lookup layer must be blind to all of them,
/// including the degenerate constant that keeps `strlen`-style loops
/// running (the tight budget bounds those non-terminating scans; the
/// interesting observable is then *where* they fuel out, which must
/// also agree).
#[test]
fn manufactured_value_strategies_are_layer_blind() {
    let sequences = [
        ValueSequence::Zero,
        ValueSequence::Constant(0x41),
        ValueSequence::Cycling { wrap: 3 },
        ValueSequence::Cycling { wrap: 257 },
    ];
    for input in INPUT_LIBRARY.iter().filter(|i| i.attack) {
        for sequence in sequences {
            assert_layer_blind(
                input,
                BootSpec::new(input.kind, Mode::FailureOblivious)
                    .with_sequence(sequence)
                    .with_fuel(TIGHT_FUEL),
            );
        }
    }
}

/// A paged spec's *second* boot restores the frozen checkpoint its
/// first boot populated the per-spec cache with — so driving the same
/// attack input twice proves the checkpoint round-trips the page map:
/// a snapshot restored with a stale or missing map would misclassify
/// the attack's accesses and diverge from both the first run and the
/// table layer.
#[test]
fn checkpoint_restore_round_trips_the_page_map() {
    for input in INPUT_LIBRARY.iter().filter(|i| i.attack) {
        let spec =
            BootSpec::new(input.kind, Mode::FailureOblivious).with_lookup(LookupLayer::Paged);
        let first = drive_input(input, &spec, &Edge::default());
        let restored = drive_input(input, &spec, &Edge::default());
        assert_eq!(
            first,
            restored,
            "{}/{}: a checkpoint-restored boot must replay identically",
            input.kind.name(),
            input.name,
        );
        let table = drive_input(
            input,
            &spec.with_lookup(LookupLayer::Table),
            &Edge::default(),
        );
        assert_eq!(
            restored,
            table,
            "{}/{}: the restored page map must still match the table layer",
            input.kind.name(),
            input.name,
        );
    }
}

/// One deterministic step of the churn script: a linear-congruential
/// step is all the randomness the differential needs (both layers see
/// the same script; proptest varies the seed).
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

/// Runs a seeded alloc/free/access churn script on one space and
/// returns every observable it produced, encoded as plain words so a
/// divergence points at the exact step.
fn run_churn_script(space: &mut MemorySpace, seed: u64, steps: usize) -> Vec<u64> {
    let ctx = AccessCtx::default();
    let mut state = seed;
    let mut live: Vec<(u64, u64)> = Vec::new();
    let mut freed: Vec<u64> = Vec::new();
    let mut out = Vec::new();
    for _ in 0..steps {
        match lcg(&mut state) % 5 {
            // Allocate: small sizes mixed with multi-page buffers, so
            // slot reuse crosses page-exclusivity classes.
            0 => {
                let size = if lcg(&mut state).is_multiple_of(4) {
                    4096 + lcg(&mut state) % 12288
                } else {
                    8 + lcg(&mut state) % 120
                };
                match space.malloc(size) {
                    Ok(p) => {
                        live.push((p, size));
                        out.push(p);
                    }
                    Err(_) => out.push(u64::MAX),
                }
            }
            // Free a random live unit: its pages must uncover, and any
            // later access through the dangling pointer must classify
            // as a violation, never resolve via a stale map entry.
            1 if !live.is_empty() => {
                let at = (lcg(&mut state) as usize) % live.len();
                let (p, _) = live.swap_remove(at);
                let ok = space.free(p, ctx).is_ok();
                freed.push(p);
                out.push(ok as u64);
            }
            // In-bounds and straddling loads on a live unit.
            2 if !live.is_empty() => {
                let at = (lcg(&mut state) as usize) % live.len();
                let (p, size) = live[at];
                let off = lcg(&mut state) % (size + 16);
                match space.load(p + off, AccessSize::B1, ctx) {
                    Ok(r) => {
                        out.push(r.value);
                        out.push(r.violation as u64);
                    }
                    Err(_) => out.push(u64::MAX - 1),
                }
            }
            // Stores through live and dangling pointers alike.
            3 => {
                let target = if !freed.is_empty() && lcg(&mut state).is_multiple_of(2) {
                    let at = (lcg(&mut state) as usize) % freed.len();
                    freed[at] + lcg(&mut state) % 64
                } else if !live.is_empty() {
                    let at = (lcg(&mut state) as usize) % live.len();
                    let (p, size) = live[at];
                    p + lcg(&mut state) % (size + 8)
                } else {
                    0x4000_0000
                };
                match space.store(target, AccessSize::B8, lcg(&mut state), ctx) {
                    Ok(w) => out.push(w.violation as u64),
                    Err(_) => out.push(u64::MAX - 2),
                }
            }
            // Dangling reads: the slot-reuse trap. After enough churn a
            // freed pointer's slot (and often its very page) belongs to
            // a newer unit; a stale page-map entry would resolve the
            // old address silently.
            _ if !freed.is_empty() => {
                let at = (lcg(&mut state) as usize) % freed.len();
                match space.load(freed[at], AccessSize::B4, ctx) {
                    Ok(r) => {
                        out.push(r.value);
                        out.push(r.violation as u64);
                    }
                    Err(_) => out.push(u64::MAX - 3),
                }
            }
            _ => out.push(0),
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random (input, mode, manufactured-value seed, fuel limit)
    /// points: both layers must agree on everything — in particular on
    /// *where* tight budgets fuel out, since a lookup layer that
    /// changed any access's outcome would shift every later
    /// manufactured value and fuel charge. The fuel floor sits just
    /// above `pine_init`'s cost (Pine's boot asserts init survival);
    /// heavier servers still exhaust at boot under the low end.
    #[test]
    fn random_seed_and_fuel_points_are_layer_blind(
        index in 0usize..INPUT_LIBRARY.len(),
        mode_index in 0usize..Mode::ALL.len(),
        wrap in 2u64..600,
        fuel in 5_000u64..400_000,
    ) {
        let input = &INPUT_LIBRARY[index];
        let spec = BootSpec::new(input.kind, Mode::ALL[mode_index])
            .with_sequence(ValueSequence::Cycling { wrap })
            .with_fuel(fuel);
        let table = drive_input(input, &spec.with_lookup(LookupLayer::Table), &Edge::default());
        let paged = drive_input(input, &spec.with_lookup(LookupLayer::Paged), &Edge::default());
        prop_assert_eq!(table, paged);
    }

    /// Seeded alloc/free churn scripts — heavy slot and page reuse with
    /// dangling accesses interleaved — must be observably identical
    /// under both layers, step by step and in the final counters and
    /// error log. This is the stale-entry hunt: a page-map entry
    /// surviving its unit's death would resolve a dangling access the
    /// table layer rejects.
    #[test]
    fn alloc_free_churn_leaves_no_stale_page_entries(
        seed in 0u64..u64::MAX,
        mode_index in 0usize..Mode::ALL.len(),
    ) {
        let mode = Mode::ALL[mode_index];
        let mut table_space = MemorySpace::new(
            MemConfig::with_mode(mode).with_lookup(LookupLayer::Table),
        );
        let mut paged_space = MemorySpace::new(
            MemConfig::with_mode(mode).with_lookup(LookupLayer::Paged),
        );
        let table = run_churn_script(&mut table_space, seed, 300);
        let paged = run_churn_script(&mut paged_space, seed, 300);
        prop_assert_eq!(table, paged, "seed {} under {:?}", seed, mode);
        prop_assert_eq!(table_space.stats(), paged_space.stats());
        prop_assert_eq!(
            table_space.error_log().records(),
            paged_space.error_log().records()
        );
    }
}
