//! The restart-cost bench: checkpoint restore versus cold boot +
//! environment replay, plus the manufactured-loop violation throughput
//! the batched fast path governs.
//!
//! Usage:
//!
//! * `cargo run --release -p foc-bench --bin restart_cost [reps]` —
//!   full measurement (default 24 reps per flavour); upserts one row
//!   into `BENCH_farm.json`'s `restart_cost_runs` trajectory (creating
//!   the section in records that predate it). Rows are keyed by a
//!   fingerprint of the measured images, shape and configuration, so
//!   re-running the bin on an unchanged tree and configuration replaces
//!   its row instead of duplicating it.
//! * `cargo run --release -p foc-bench --bin restart_cost -- --check` —
//!   CI smoke gate (mirroring the PR 2 boot-cost gate): asserts that a
//!   checkpoint restore beats a cold boot + replay by at least 5×, and
//!   that the manufactured-loop measurement runs at all. Exits nonzero
//!   with a one-line diagnostic otherwise.
//!
//! `FOC_EXEC_TIER`, `FOC_LOOKUP` and `FOC_TABLE` pick the configuration
//! Pine boots under; they are read once, at the top of `main`, and an
//! unknown value exits 2.

use foc_bench::check::{check_fail, check_gate, env_config, parse_reps, record_farm_row};
use foc_bench::farm_report::{
    measure_restart_cost, measure_violation_throughput, restart_cost_row, RestartCost,
    ViolationThroughput,
};
use foc_memory::Mode;
use foc_servers::{BootSpec, ServerKind};

fn print_measurement(cost: &RestartCost, violation: &ViolationThroughput) {
    eprintln!(
        "  cold boot+replay   {:>10.0} ns ± {:.0} ({} reps)",
        cost.cold_ns, cost.cold_ci95_ns, cost.reps
    );
    eprintln!(
        "  checkpoint restore {:>10.0} ns ± {:.0}  ({:.1}x faster)",
        cost.restore_ns,
        cost.restore_ci95_ns,
        cost.speedup()
    );
    eprintln!(
        "  manufactured loop  {:>10.1} Minstr/s ± {:.1} ({} instrs/run)",
        violation.minstr_per_s, violation.minstr_ci95, violation.instrs
    );
}

fn run_check(spec: &BootSpec) -> Result<(), String> {
    eprintln!("restart_cost --check: checkpoint restore vs cold boot+replay ...");
    let cost = measure_restart_cost(8, spec.tier, spec.lookup, spec.table);
    let violation = measure_violation_throughput(2);
    print_measurement(&cost, &violation);
    check_gate(
        "checkpoint restore over cold boot+replay",
        cost.speedup(),
        5.0,
        &format!(
            "cold {:.0}ns vs restore {:.0}ns",
            cost.cold_ns, cost.restore_ns
        ),
    )?;
    if violation.minstr_per_s <= 0.0 {
        return Err("violation-throughput measurement produced no rate".to_string());
    }
    println!(
        "restart_cost --check OK ({:.1}x restore speedup, {:.1} Minstr/s manufactured loop)",
        cost.speedup(),
        violation.minstr_per_s
    );
    Ok(())
}

fn main() {
    let spec = env_config(
        "restart_cost",
        BootSpec::from_env(ServerKind::Pine, Mode::FailureOblivious),
    );
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--check") {
        if let Err(msg) = run_check(&spec) {
            check_fail("restart_cost --check", &msg);
        }
        return;
    }
    let reps = parse_reps("restart_cost", &args, 24);
    let cost = measure_restart_cost(reps, spec.tier, spec.lookup, spec.table);
    let violation = measure_violation_throughput(reps.clamp(3, 8));
    print_measurement(&cost, &violation);
    record_farm_row("restart_cost", &restart_cost_row(&cost, &violation, &spec));
}
