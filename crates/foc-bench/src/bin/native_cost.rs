//! The native-cost bench: interpretation rate of a violation-free
//! dispatch-bound loop (fusible local arithmetic plus loop control,
//! nothing else) under the superinstruction tier versus the native
//! AOT-region tier. Every tier retires the same guest instruction count
//! — a lowered region pre-charges exactly the baseline accounting of
//! the run it replaces — so the ratio isolates what remains of the
//! dispatch ceiling after fusion: one fetch/decode/match round plus
//! fuel, stats, and pc bookkeeping per fused pattern, all of which
//! region execution folds into a single per-region entry.
//!
//! Usage:
//!
//! * `cargo run --release -p foc-bench --bin native_cost [reps]` —
//!   full measurement (default 24 reps per tier); upserts one row into
//!   `BENCH_farm.json`'s `native_cost_runs` trajectory (creating the
//!   section in records that predate it). Rows are keyed by a
//!   fingerprint of the loop's compiled image under every tier + shape,
//!   so re-running the bin on an unchanged tree replaces its row
//!   instead of duplicating it.
//! * `cargo run --release -p foc-bench --bin native_cost -- --check` —
//!   CI gate: asserts region execution interprets the loop at ≥2× the
//!   superinstruction tier's rate. Exits nonzero with a one-line
//!   diagnostic otherwise.

use foc_bench::check::{check_fail, check_gate, parse_reps, record_farm_row};
use foc_bench::farm_report::{measure_tier_rates, tier_rates_row, TierRates, NATIVE_LOOP};

/// The CI bar: native region execution must beat the superinstruction
/// tier by this factor on the violation-free loop. A region entry
/// replaces every per-pattern dispatch round of its straight-line run,
/// so the measured margin is well above this floor on the development
/// host; 2× holds with room on noisy CI hosts.
const GATE: f64 = 2.0;

fn print_measurement(cost: &TierRates) {
    eprintln!(
        "  baseline tier {:>8.1} Minstr/s ± {:.1} ({} instrs/run, {} reps)",
        cost.baseline.minstr_per_s, cost.baseline.minstr_ci95, cost.baseline.instrs, cost.reps
    );
    eprintln!(
        "  super tier    {:>8.1} Minstr/s ± {:.1}",
        cost.fused.minstr_per_s, cost.fused.minstr_ci95
    );
    eprintln!(
        "  native tier   {:>8.1} Minstr/s ± {:.1}  ({:.2}x super, {:.2}x baseline)",
        cost.native.minstr_per_s,
        cost.native.minstr_ci95,
        cost.native_over_super(),
        cost.native_over_baseline()
    );
}

fn run_check() -> Result<(), String> {
    eprintln!("native_cost --check: superinstruction tier vs native region execution ...");
    let cost = measure_tier_rates(&NATIVE_LOOP, 8);
    print_measurement(&cost);
    if cost.native.instrs != cost.fused.instrs || cost.native.instrs != cost.baseline.instrs {
        return Err(format!(
            "tiers must retire identical instruction counts: \
             baseline {} vs super {} vs native {}",
            cost.baseline.instrs, cost.fused.instrs, cost.native.instrs
        ));
    }
    check_gate(
        "native region execution over the superinstruction tier",
        cost.native_over_super(),
        GATE,
        &format!(
            "{:.1} vs {:.1} Minstr/s",
            cost.native.minstr_per_s, cost.fused.minstr_per_s
        ),
    )?;
    println!(
        "native_cost --check OK ({:.2}x native over super, {:.1} Minstr/s native loop)",
        cost.native_over_super(),
        cost.native.minstr_per_s
    );
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--check") {
        if let Err(msg) = run_check() {
            check_fail("native_cost --check", &msg);
        }
        return;
    }
    let reps = parse_reps("native_cost", &args, 24);
    let cost = measure_tier_rates(&NATIVE_LOOP, reps);
    print_measurement(&cost);
    record_farm_row("native_cost", &tier_rates_row(&NATIVE_LOOP, &cost));
}
