//! The mode search-space sweep driver: runs the full recovery-mode ×
//! value-sequence × fuel × table-backend grid over all five servers and
//! the benign + §4/§5.1 attack input library, classifies every run into
//! the stable outcome taxonomy, and maintains the committed matrix
//! record (`SWEEP_matrix.json` + rendered `SWEEP_matrix.md`).
//!
//! Usage:
//!
//! * `cargo run --release -p foc-bench --bin mode_sweep` — full grid.
//!   Writes the matrix after every chunk of cells, so an interrupted
//!   run leaves a valid partial file; on completion renders the
//!   markdown matrix and upserts a wall-time row into `BENCH_farm.json`'s
//!   `mode_sweep_runs` trajectory (exiting 1, matrix files already
//!   written, when that record is missing or has no such section).
//! * `... -- --resume` — reuses every cell of the existing
//!   `SWEEP_matrix.json` whose fingerprint matches the current sweep
//!   contract (and whose file-level reference transcripts match a fresh
//!   computation), runs only the missing cells, and produces a file
//!   byte-identical to a from-scratch run.
//! * `... -- --check` — CI gate: runs the pinned sub-grid fresh and
//!   diffs outcome classes and transcripts against the committed
//!   matrix. Any semantic drift in the substrate exits nonzero with a
//!   one-line diagnostic.
//! * `... -- --threads N` — worker threads (default 4).
//!
//! `FOC_EXEC_TIER`, `FOC_LOOKUP` and `FOC_EDGE` pick the execution tier,
//! lookup layer and request edge every run uses (`FOC_TABLE` is
//! validated too, but each cell names its own backend). They are read
//! once, at the top of `main`; an unknown value exits 2.

use std::time::Instant;

use foc_bench::check::{check_fail, env_config, record_farm_row};
use foc_bench::farm_report::mode_sweep_row;
use foc_bench::sweep_report::{
    diff_against_committed, merge_cells, parse_matrix_json, render_matrix_json,
    render_matrix_markdown, split_resume, MATRIX_MD_PATH, MATRIX_PATH,
};
use foc_memory::Mode;
use foc_servers::conn::{Edge, EDGE_ENV};
use foc_servers::sweep::{reference_transcripts, run_cells, SweepGrid, SweepMatrix, INPUT_LIBRARY};
use foc_servers::{env_axis, BootSpec, ServerKind};

/// Cells per incremental chunk: small enough that an interrupt loses
/// little work, large enough that the work-stealing pool stays busy.
const CHUNK_CELLS: usize = 12;

/// Inputs a sweep worker runs before yielding its cell back.
const SLICE_INPUTS: usize = 4;

fn run_check(threads: usize, spec: &BootSpec, edge: &Edge) -> Result<(), String> {
    let committed = std::fs::read_to_string(MATRIX_PATH)
        .map_err(|e| format!("cannot read committed {MATRIX_PATH}: {e}"))?;
    let committed = parse_matrix_json(&committed)?;
    let grid = SweepGrid::pinned();
    let mut cells = grid.cells();
    // Plus the pinned manufactured-loop fuel-out cell: a constant-1
    // sequence MC scan exercises the batched violation path at full
    // storm intensity, and its transcript must still match the
    // committed matrix byte for byte.
    cells.extend(SweepGrid::pinned_extra_cells());
    eprintln!(
        "mode_sweep --check: pinned sub-grid, {} cells x {} inputs ...",
        cells.len(),
        INPUT_LIBRARY.len()
    );
    let reference = reference_transcripts(spec.tier, spec.lookup, edge);
    let fresh = run_cells(
        &cells,
        &reference,
        threads,
        SLICE_INPUTS,
        spec.tier,
        spec.lookup,
        edge,
    );
    let compared = diff_against_committed(&committed, &reference, &fresh)?;
    println!(
        "mode_sweep --check OK ({} cells, {compared} runs match the committed matrix)",
        cells.len()
    );
    Ok(())
}

fn run_full(threads: usize, resume: bool, spec: &BootSpec, edge: &Edge) {
    let grid = SweepGrid::full();
    let all = grid.cells();
    let started = Instant::now();
    let reference = reference_transcripts(spec.tier, spec.lookup, edge);

    let parsed = if resume {
        match std::fs::read_to_string(MATRIX_PATH) {
            Ok(text) => match parse_matrix_json(&text) {
                Ok(parsed) => Some(parsed),
                Err(e) => {
                    eprintln!("mode_sweep: ignoring unreadable {MATRIX_PATH}: {e}");
                    None
                }
            },
            Err(_) => None,
        }
    } else {
        None
    };
    let (reused, missing) = split_resume(&all, parsed.as_ref(), &reference);
    eprintln!(
        "mode_sweep: {} cells x {} inputs ({} reused, {} to run, {} threads)",
        all.len(),
        INPUT_LIBRARY.len(),
        reused.len(),
        missing.len(),
        threads
    );

    // Run the missing cells chunk by chunk, writing the partial matrix
    // after each chunk so an interrupted sweep can resume.
    let mut done = reused;
    for (i, chunk) in missing.chunks(CHUNK_CELLS).enumerate() {
        let fresh = run_cells(
            chunk,
            &reference,
            threads,
            SLICE_INPUTS,
            spec.tier,
            spec.lookup,
            edge,
        );
        done.extend(fresh);
        // Partial file: completed cells only, canonical grid order.
        let completed: Vec<_> = all
            .iter()
            .filter(|spec| done.iter().any(|c| c.cell == **spec))
            .copied()
            .collect();
        let partial = SweepMatrix {
            grid: grid.clone(),
            reference: reference.clone(),
            cells: merge_cells(&completed, vec![done.clone()]),
        };
        std::fs::write(MATRIX_PATH, render_matrix_json(&partial)).expect("write matrix");
        eprintln!(
            "  chunk {}/{}: {} / {} cells done ({:.0?})",
            i + 1,
            missing.len().div_ceil(CHUNK_CELLS),
            partial.cells.len(),
            all.len(),
            started.elapsed()
        );
    }

    let resumed_cells = all.len() - missing.len();
    let matrix = SweepMatrix {
        grid,
        reference,
        cells: merge_cells(&all, vec![done]),
    };
    std::fs::write(MATRIX_PATH, render_matrix_json(&matrix)).expect("write matrix");
    std::fs::write(MATRIX_MD_PATH, render_matrix_markdown(&matrix)).expect("write markdown");
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;

    // Class histogram, for the console.
    let mut counts = std::collections::BTreeMap::new();
    for cell in &matrix.cells {
        for run in &cell.runs {
            *counts.entry(run.class.name()).or_insert(0usize) += 1;
        }
    }
    for (class, n) in &counts {
        println!("  {class:<22} {n:>5}");
    }

    println!(
        "wrote {MATRIX_PATH} + {MATRIX_MD_PATH} ({} cells, {:.1}s)",
        matrix.cells.len(),
        wall_ms / 1e3
    );
    // Record the sweep's own cost in the farm trajectory. The
    // fingerprint keys the row to the sweep shape, compiled images and
    // configuration, so re-running unchanged upserts instead of
    // duplicating.
    let row = mode_sweep_row(
        matrix.cells.len(),
        resumed_cells,
        INPUT_LIBRARY.len(),
        threads,
        wall_ms,
        spec,
        edge,
    );
    record_farm_row("mode_sweep", &row);
}

fn main() {
    let spec = env_config(
        "mode_sweep",
        BootSpec::from_env(ServerKind::Apache, Mode::FailureOblivious),
    );
    let edge: Edge = env_config("mode_sweep", env_axis(EDGE_ENV));
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut threads = 4usize;
    let mut check = false;
    let mut resume = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--check" => check = true,
            "--resume" => resume = true,
            "--threads" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => threads = n,
                _ => {
                    eprintln!("mode_sweep: --threads needs a positive integer");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!(
                    "mode_sweep: unknown argument {other:?} (--check, --resume, --threads N)"
                );
                std::process::exit(2);
            }
        }
    }
    if check {
        if let Err(msg) = run_check(threads, &spec, &edge) {
            check_fail("mode_sweep --check", &msg);
        }
        return;
    }
    run_full(threads, resume, &spec, &edge);
}
