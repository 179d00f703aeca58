//! Runs the server-farm benchmark suite — every server kind under every
//! mode, a Pine failure-oblivious thread-scaling sweep, the
//! cold-vs-cached boot-cost split, and the per-backend `farm_stress`
//! scale-out point — and writes the result to `BENCH_farm.json` (the
//! repository's farm perf trajectory record).
//!
//! Usage:
//!
//! * `cargo run --release -p foc-bench --bin farm_scaling [requests]` —
//!   full run; `requests` is the per-server request count (default 100).
//! * `cargo run --release -p foc-bench --bin farm_scaling -- --check` —
//!   CI smoke mode: a miniature suite that exercises every code path
//!   (suite, scaling sweep with its determinism assertion, boot-cost
//!   measurement, JSON rendering) without writing the record, so bench
//!   bitrot fails CI instead of being discovered at measurement time.
//!   It reads the committed `BENCH_farm.json`, carries every trajectory
//!   section into the rendered record and fails unless each carried
//!   section keeps its bytes. (The stress point has its own smoke bin:
//!   `farm_stress --check`.)
//!
//! `FOC_EXEC_TIER`, `FOC_LOOKUP`, `FOC_TABLE` and `FOC_EDGE` pick the
//! configuration the measurements run on (farms keep the default table
//! backend; the boot and restart costs use `FOC_TABLE`). They are read
//! once, at the top of `main`, and an unknown value exits 2.

use foc_bench::check::{check_fail, env_config};
use foc_bench::farm_report::{
    check_carried, farm_suite, measure_boot_cost, measure_record, measure_restart_cost,
    measure_unit_churn, measure_violation_throughput, render_farm_json, stress_sweep,
    thread_scaling, BootCost, FarmRecord, RecordShape, RestartCost, ScalingRow, StressRow,
    Trajectories, UnitChurn, ViolationThroughput, RECORD_PATH,
};
use foc_memory::Mode;
use foc_servers::conn::{Edge, EDGE_ENV};
use foc_servers::{env_axis, BootSpec, ServerKind};

fn print_summary(record: &FarmRecord) {
    print_reports(&record.reports);
    print_scaling(&record.scaling);
    print_boot(&record.boot);
    if let Some(row) = record.trajectories.rows("restart_cost").last() {
        eprintln!("  restart cost (latest row): {row}");
    }
    print_stress(&record.stress, &record.churn);
}

fn print_restart(cost: &RestartCost, violation: &ViolationThroughput) {
    eprintln!(
        "  restart cost: cold boot+replay {:.0} ns, checkpoint restore {:.0} ns ({:.1}x); manufactured loop {:.1} Minstr/s",
        cost.cold_ns,
        cost.restore_ns,
        cost.speedup(),
        violation.minstr_per_s,
    );
}

fn print_reports(reports: &[foc_servers::farm::FarmReport]) {
    for r in reports {
        eprintln!(
            "  {:<9} {:<18} completed {:>5}/{:<5}  deaths {:>4}  restarts {:>4}  {:>8.1} req/Mcycle  {:>8.1} ms",
            r.config.kind.name(),
            r.config.mode.name(),
            r.stats.completed,
            r.stats.requests,
            r.stats.deaths,
            r.stats.restarts,
            r.stats.throughput_per_mcycle(),
            r.host_wall_ms,
        );
    }
}

fn print_scaling(scaling: &[ScalingRow]) {
    for row in scaling {
        eprintln!(
            "  threads {}: {:.1} ms ± {:.1} (95% CI, {} reps)  ({:.0} req/s host)",
            row.threads, row.wall_ms, row.wall_ms_ci95, row.reps, row.host_rps
        );
    }
}

fn print_boot(boot: &BootCost) {
    eprintln!(
        "  boot cost: cold compile+boot {:.0} ns, cached-image boot {:.0} ns ({:.1}x)",
        boot.cold_ns,
        boot.cached_ns,
        boot.speedup()
    );
}

fn print_stress(stress: &[StressRow], churn: &UnitChurn) {
    for row in stress {
        eprintln!(
            "  stress {:<6}/{:<5} {} servers: {:.1} ms ± {:.1}  ({:.0} req/s host, p99.9 {} cycles)",
            row.backend.name(),
            row.lookup.name(),
            row.report.config.servers,
            row.wall_ms,
            row.wall_ms_ci95,
            row.host_rps,
            row.report.stats.latency_p999,
        );
    }
    eprintln!(
        "  unit churn ({} machines): arena {:.0} ns vs seed boxed {:.0} ns ({:.2}x)",
        churn.machines,
        churn.arena_ns,
        churn.boxed_ns,
        churn.speedup()
    );
}

fn run_check(spec: &BootSpec, edge: &Edge) -> Result<(), String> {
    let (tier, lookup, table) = (spec.tier, spec.lookup, spec.table);
    eprintln!("farm_scaling --check: miniature suite ...");
    let reports = farm_suite(4, tier, lookup, edge);
    if reports.len() != 5 * foc_memory::Mode::ALL.len() {
        return Err(format!(
            "suite covered {} cells, want every server x mode",
            reports.len()
        ));
    }
    // The sweep verifies report determinism across threads internally.
    let scaling = thread_scaling(4, &[1, 2], 2, tier, lookup, edge)?;
    let boot = measure_boot_cost(4, tier, lookup, table);
    if boot.speedup() < 2.0 {
        return Err(format!(
            "interned images must beat cold compiles even on noisy hosts: {:.1}x",
            boot.speedup()
        ));
    }
    let restart = measure_restart_cost(6, tier, lookup, table);
    if restart.speedup() < 2.0 {
        return Err(format!(
            "checkpoint restores must beat cold boot+replay even on noisy hosts: {:.1}x",
            restart.speedup()
        ));
    }
    let violation = measure_violation_throughput(2);
    let stress = stress_sweep(
        4,
        3,
        1,
        &foc_memory::TableKind::ALL,
        &foc_memory::LookupLayer::ALL,
        tier,
        edge,
    )?;
    let churn = measure_unit_churn(16, 2);
    print_reports(&reports);
    print_scaling(&scaling);
    print_boot(&boot);
    print_restart(&restart, &violation);
    print_stress(&stress, &churn);
    // Carry the committed trajectory record through a regeneration: every
    // section must come out byte for byte, in the declared order.
    let committed = std::fs::read_to_string(RECORD_PATH)
        .map_err(|e| format!("cannot read committed {RECORD_PATH}: {e}"))?;
    let record = FarmRecord {
        reports,
        scaling,
        boot,
        stress,
        churn,
        trajectories: Trajectories::carried_from(&committed),
    };
    let json = render_farm_json(&record);
    let carried = check_carried(&committed, &json)?;
    if json.matches('{').count() != json.matches('}').count() {
        return Err("rendered record does not balance".to_string());
    }
    println!(
        "farm_scaling --check OK ({} reports, {carried} committed trajectory rows carried)",
        record.reports.len()
    );
    Ok(())
}

fn main() {
    let spec = env_config(
        "farm_scaling",
        BootSpec::from_env(ServerKind::Apache, Mode::FailureOblivious),
    );
    let edge: Edge = env_config("farm_scaling", env_axis(EDGE_ENV));
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--check") {
        if let Err(msg) = run_check(&spec, &edge) {
            check_fail("farm_scaling --check", &msg);
        }
        return;
    }
    let mut shape = RecordShape::default();
    if let Some(arg) = args.first() {
        match arg.parse() {
            Ok(n) if n > 0 => shape.requests = n,
            _ => {
                eprintln!("farm_scaling: invalid request count {arg:?} (want a positive integer)");
                std::process::exit(2);
            }
        }
    }

    let previous = std::fs::read_to_string(RECORD_PATH).ok();
    let record = match measure_record(&shape, previous.as_deref(), &spec, &edge) {
        Ok(record) => record,
        Err(msg) => check_fail("farm_scaling", &msg),
    };
    print_summary(&record);

    std::fs::write(RECORD_PATH, render_farm_json(&record)).expect("write BENCH_farm.json");
    println!("wrote {RECORD_PATH} ({} reports)", record.reports.len());
}
