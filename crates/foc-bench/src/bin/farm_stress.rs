//! The scale-out stress point: a thousands-of-servers farm, run once per
//! object-table backend, plus the arena-vs-seed unit-store churn
//! measurement — the standing bench row the ROADMAP asks for.
//!
//! With cached boots at microseconds, a 4096-process Apache farm is an
//! interactive measurement; this bin finds the next hot path by
//! attributing the wall-time spread between backends to bounds-lookup
//! cost (the deterministic farm results are asserted identical across
//! backends, so nothing else can differ) and by comparing the arena
//! [`foc_memory::UnitStore`] against the seed tree's boxed per-unit
//! representation at the same machine count.
//!
//! Usage:
//!
//! * `cargo run --release -p foc-bench --bin farm_stress [servers] [requests]`
//!   — full run (defaults: 4096 servers × 4 requests, 3 reps per
//!   backend); regenerates the complete `BENCH_farm.json` so the record
//!   stays consistent with the suite sections.
//! * `cargo run --release -p foc-bench --bin farm_stress -- --check` —
//!   CI smoke mode: a miniature stress sweep (every backend under both
//!   lookup layers, the cross-cell equality check, churn measurement,
//!   JSON rendering) without writing the record. A contract violation
//!   exits nonzero with a one-line diagnostic.
//! * `... --check --table <splay|btree|flat|auto>` — same smoke
//!   restricted to one backend (the CI `TableKind` job matrix runs one
//!   backend per job; both lookup layers still run, so every matrix job
//!   keeps a cross-cell equality check).
//!
//! `FOC_EXEC_TIER`, `FOC_LOOKUP`, `FOC_TABLE` and `FOC_EDGE` pick the
//! configuration the measurements run on (the stress rows name their
//! own backend and lookup layer). They are read once, at the top of
//! `main`, and an unknown value exits 2.

use foc_bench::check::{check_fail, env_config};
use foc_bench::farm_report::{
    measure_record, measure_unit_churn, render_farm_json, stress_sweep, RecordShape, RECORD_PATH,
};
use foc_memory::{LookupLayer, Mode, TableKind};
use foc_servers::conn::{Edge, EDGE_ENV};
use foc_servers::{env_axis, BootSpec, ServerKind};

fn run_check(backends: &[TableKind], spec: &BootSpec, edge: &Edge) -> Result<(), String> {
    eprintln!(
        "farm_stress --check: miniature stress sweep ({} backend(s) x {} layers) ...",
        backends.len(),
        LookupLayer::ALL.len()
    );
    let rows = stress_sweep(96, 3, 2, backends, &LookupLayer::ALL, spec.tier, edge)?;
    if rows.len() != backends.len() * LookupLayer::ALL.len() {
        return Err(format!(
            "{} rows for {} backends x {} layers",
            rows.len(),
            backends.len(),
            LookupLayer::ALL.len()
        ));
    }
    for row in &rows {
        if row.wall_ms <= 0.0 {
            return Err(format!("{}: no wall time measured", row.backend));
        }
        if row.report.stats.completed == 0 {
            return Err(format!("{}: stress farm served nothing", row.backend));
        }
        // The serialized histogram must bound the exact percentiles it
        // summarizes (bucket tops round up, never down).
        let stats = &row.report.stats;
        if stats.service_hist.quantile(999, 1000) < stats.latency_p999 {
            return Err(format!(
                "{}: histogram p99.9 fell below the exact value",
                row.backend
            ));
        }
        if stats.service_hist.quantile(1, 2) < stats.latency_p50 {
            return Err(format!(
                "{}: histogram p50 fell below the exact value",
                row.backend
            ));
        }
        eprintln!(
            "  {:<6}/{:<5} {:.1} ms ± {:.1} ({:.0} req/s host)",
            row.backend.name(),
            row.lookup.name(),
            row.wall_ms,
            row.wall_ms_ci95,
            row.host_rps
        );
    }
    let churn = measure_unit_churn(96, 3);
    if churn.arena_ns <= 0.0 || churn.boxed_ns <= 0.0 {
        return Err("unit churn measured nothing".to_string());
    }
    eprintln!(
        "  unit churn: arena {:.0} ns vs seed boxed {:.0} ns ({:.2}x)",
        churn.arena_ns,
        churn.boxed_ns,
        churn.speedup()
    );
    println!("farm_stress --check OK ({} rows)", rows.len());
    Ok(())
}

fn main() {
    let spec = env_config(
        "farm_stress",
        BootSpec::from_env(ServerKind::Apache, Mode::FailureOblivious),
    );
    let edge: Edge = env_config("farm_stress", env_axis(EDGE_ENV));
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // `--table <kind>` restricts the check to one backend (CI matrix).
    let mut backends: Vec<TableKind> = TableKind::ALL.to_vec();
    if let Some(at) = args.iter().position(|a| a == "--table") {
        if at + 1 >= args.len() {
            eprintln!("farm_stress: --table needs a backend name (splay|btree|flat|auto)");
            std::process::exit(2);
        }
        match args[at + 1].parse() {
            Ok(kind) => backends = vec![kind],
            Err(e) => {
                eprintln!("farm_stress: {e}");
                std::process::exit(2);
            }
        }
        args.drain(at..at + 2);
    }
    if args.iter().any(|a| a == "--check") {
        if let Err(msg) = run_check(&backends, &spec, &edge) {
            check_fail("farm_stress --check", &msg);
        }
        return;
    }
    if backends.len() != TableKind::ALL.len() {
        // The full measurement always records every backend; a lone
        // --table must not be silently ignored.
        eprintln!(
            "farm_stress: --table only applies to --check (the full run records all backends)"
        );
        std::process::exit(2);
    }
    if let Some(flag) = args.iter().find(|a| a.starts_with("--")) {
        // An unrecognized flag must not silently fall through to the
        // full (file-writing) measurement — `--chek` meant `--check`.
        eprintln!("farm_stress: unknown flag {flag:?} (only --check/--table are supported)");
        std::process::exit(2);
    }
    let mut shape = RecordShape::default();
    let positional: Vec<&String> = args.iter().collect();
    if let Some(arg) = positional.first() {
        match arg.parse() {
            Ok(n) if n > 0 => shape.stress_servers = n,
            _ => {
                eprintln!("farm_stress: invalid server count {arg:?} (want a positive integer)");
                std::process::exit(2);
            }
        }
    }
    if let Some(arg) = positional.get(1) {
        match arg.parse() {
            Ok(n) if n > 0 => shape.stress_requests = n,
            _ => {
                eprintln!("farm_stress: invalid request count {arg:?} (want a positive integer)");
                std::process::exit(2);
            }
        }
    }

    let previous = std::fs::read_to_string(RECORD_PATH).ok();
    let record = match measure_record(&shape, previous.as_deref(), &spec, &edge) {
        Ok(record) => record,
        Err(msg) => check_fail("farm_stress", &msg),
    };
    for row in &record.stress {
        let s = &row.report.stats;
        println!(
            "{:<6}/{:<5} {} servers x {} requests: {:.1} ms ± {:.1}  ({:.0} req/s host, \
             hist p50/p99/p99.9 ≤ {}/{}/{} cycles)",
            row.backend.name(),
            row.lookup.name(),
            row.report.config.servers,
            row.report.config.requests_per_server,
            row.wall_ms,
            row.wall_ms_ci95,
            row.host_rps,
            s.service_hist.quantile(1, 2),
            s.service_hist.quantile(99, 100),
            s.service_hist.quantile(999, 1000),
        );
    }
    println!(
        "unit churn ({} machines): arena {:.0} ns vs seed boxed {:.0} ns ({:.2}x)",
        record.churn.machines,
        record.churn.arena_ns,
        record.churn.boxed_ns,
        record.churn.speedup()
    );

    std::fs::write(RECORD_PATH, render_farm_json(&record)).expect("write BENCH_farm.json");
    println!("wrote {RECORD_PATH}");
}
