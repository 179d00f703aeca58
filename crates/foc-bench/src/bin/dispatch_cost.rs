//! The dispatch-cost bench: interpretation rate of a manufactured-value
//! loop (one past-the-end accumulate per iteration amid fusible local
//! arithmetic) under the baseline tier versus the superinstruction
//! tier. Both tiers retire the same guest instruction count (fused
//! opcodes account for every component of the pattern they replace), so
//! the ratio isolates dispatch overhead — fetch/decode/match rounds per
//! loop iteration — which is exactly what superinstruction lowering
//! exists to cut.
//!
//! Usage:
//!
//! * `cargo run --release -p foc-bench --bin dispatch_cost [reps]` —
//!   full measurement (default 24 reps per tier); upserts one row into
//!   `BENCH_farm.json`'s `dispatch_cost_runs` trajectory (creating the
//!   section in records that predate it). Rows are keyed by a
//!   fingerprint of both tiers' compiled loop images + shape, so
//!   re-running the bin on an unchanged tree replaces its row instead
//!   of duplicating it.
//! * `cargo run --release -p foc-bench --bin dispatch_cost -- --check`
//!   — CI gate: asserts the fused tier interprets the manufactured loop
//!   at ≥1.5× the baseline rate. Exits nonzero with a one-line
//!   diagnostic otherwise.

use foc_bench::check::{check_fail, check_gate, parse_reps, record_farm_row};
use foc_bench::farm_report::{measure_tier_rates, tier_rates_row, TierRates, DISPATCH_LOOP};

/// The CI bar: fused must beat baseline by this factor on the
/// manufactured-value loop. The fused loop body dispatches 11 opcodes
/// per iteration against 72 unfused (measured ~1.7× on the development
/// host), so 1.5× holds with room on noisy CI hosts. (The native tier
/// is recorded in the same row for the trajectory but gated separately,
/// on the violation-free loop, by `native_cost`.)
const GATE: f64 = 1.5;

fn print_measurement(cost: &TierRates) {
    eprintln!(
        "  baseline tier {:>8.1} Minstr/s ± {:.1} ({} instrs/run, {} reps)",
        cost.baseline.minstr_per_s, cost.baseline.minstr_ci95, cost.baseline.instrs, cost.reps
    );
    eprintln!(
        "  super tier    {:>8.1} Minstr/s ± {:.1}  ({:.2}x baseline)",
        cost.fused.minstr_per_s,
        cost.fused.minstr_ci95,
        cost.super_over_baseline()
    );
    eprintln!(
        "  native tier   {:>8.1} Minstr/s ± {:.1}  ({:.2}x baseline)",
        cost.native.minstr_per_s,
        cost.native.minstr_ci95,
        cost.native_over_baseline()
    );
}

fn run_check() -> Result<(), String> {
    eprintln!("dispatch_cost --check: baseline vs superinstruction tier ...");
    let cost = measure_tier_rates(&DISPATCH_LOOP, 8);
    print_measurement(&cost);
    if cost.fused.instrs != cost.baseline.instrs || cost.native.instrs != cost.baseline.instrs {
        return Err(format!(
            "tiers must retire identical instruction counts: \
             baseline {} vs super {} vs native {}",
            cost.baseline.instrs, cost.fused.instrs, cost.native.instrs
        ));
    }
    check_gate(
        "superinstruction tier over baseline interpretation rate",
        cost.super_over_baseline(),
        GATE,
        &format!(
            "{:.1} vs {:.1} Minstr/s",
            cost.fused.minstr_per_s, cost.baseline.minstr_per_s
        ),
    )?;
    println!(
        "dispatch_cost --check OK ({:.2}x fused speedup, {:.1} Minstr/s fused loop)",
        cost.super_over_baseline(),
        cost.fused.minstr_per_s
    );
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--check") {
        if let Err(msg) = run_check() {
            check_fail("dispatch_cost --check", &msg);
        }
        return;
    }
    let reps = parse_reps("dispatch_cost", &args, 24);
    let cost = measure_tier_rates(&DISPATCH_LOOP, reps);
    print_measurement(&cost);
    record_farm_row("dispatch_cost", &tier_rates_row(&DISPATCH_LOOP, &cost));
}
