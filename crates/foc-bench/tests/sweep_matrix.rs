//! The sweep's determinism contract, end to end through the report
//! layer:
//!
//! 1. **Byte-identical matrices.** Running the same grid twice — at
//!    different thread counts and scheduling grains — renders exactly
//!    the same `SWEEP_matrix.json` bytes. This is what lets CI diff the
//!    committed matrix and what makes resume sound.
//! 2. **Resume completes to the identical file.** Interrupting a sweep
//!    (simulated by truncating the rendered matrix at a chunk boundary)
//!    and resuming from the partial file produces the same bytes as the
//!    uninterrupted run.
//! 3. **Outcome classes are scheduling-invariant** (property test over
//!    thread count and slice grain): classification is a pure function
//!    of the cell coordinates.

use proptest::prelude::*;

use foc_bench::sweep_report::{
    merge_cells, parse_matrix_json, render_matrix_json, render_matrix_markdown, split_resume,
};
use foc_memory::{LookupLayer, Mode, TableKind, ValueSequence};
use foc_servers::conn::Edge;
use foc_servers::sweep::{
    reference_transcripts, run_cell, run_cells, CellSpec, FuelBudget, SweepGrid, SweepMatrix,
    INPUT_LIBRARY,
};
use foc_servers::ExecTier;

/// A grid small enough for tests but wide enough to hit every class:
/// Standard (policy kills), Bounds Check (restart exhaustion),
/// Failure Oblivious (continuation), two sequences (divergence), tight
/// fuel (fuel-outs), two backends (collapse/agreement).
fn test_grid() -> SweepGrid {
    SweepGrid {
        modes: vec![Mode::Standard, Mode::BoundsCheck, Mode::FailureOblivious],
        sequences: vec![ValueSequence::Zero, ValueSequence::Cycling { wrap: 256 }],
        fuels: vec![FuelBudget::Tight],
        tables: vec![TableKind::Splay, TableKind::Flat],
    }
}

fn matrix_for(grid: &SweepGrid, threads: usize, slice: usize) -> SweepMatrix {
    let reference = reference_transcripts(
        ExecTier::default(),
        LookupLayer::default(),
        &Edge::default(),
    );
    let cells = run_cells(
        &grid.cells(),
        &reference,
        threads,
        slice,
        ExecTier::default(),
        LookupLayer::default(),
        &Edge::default(),
    );
    SweepMatrix {
        grid: grid.clone(),
        reference,
        cells,
    }
}

#[test]
fn same_grid_twice_renders_byte_identical_json() {
    let grid = test_grid();
    let a = render_matrix_json(&matrix_for(&grid, 1, usize::MAX));
    let b = render_matrix_json(&matrix_for(&grid, 4, 2));
    assert_eq!(a, b, "two sweeps of one substrate must render identically");
    // The markdown rendering is deterministic too.
    assert_eq!(
        render_matrix_markdown(&matrix_for(&grid, 1, 3)),
        render_matrix_markdown(&matrix_for(&grid, 3, 1)),
    );
}

#[test]
fn resume_after_interrupt_completes_to_identical_bytes() {
    let grid = test_grid();
    let full = matrix_for(&grid, 2, 4);
    let full_json = render_matrix_json(&full);

    // Simulate an interrupt: keep only the first 5 completed cells, as
    // the chunked writer would have left them.
    let partial = SweepMatrix {
        grid: grid.clone(),
        reference: full.reference.clone(),
        cells: full.cells[..5].to_vec(),
    };
    let partial_json = render_matrix_json(&partial);

    // Resume: parse the partial file, reuse what matches, run the rest.
    let parsed = parse_matrix_json(&partial_json).expect("parse partial");
    let reference = reference_transcripts(
        ExecTier::default(),
        LookupLayer::default(),
        &Edge::default(),
    );
    let all = grid.cells();
    let (reused, missing) = split_resume(&all, Some(&parsed), &reference);
    assert_eq!(reused.len(), 5, "the partial cells must be reusable");
    assert_eq!(missing.len(), all.len() - 5);
    let fresh = run_cells(
        &missing,
        &reference,
        2,
        4,
        ExecTier::default(),
        LookupLayer::default(),
        &Edge::default(),
    );
    let resumed = SweepMatrix {
        grid,
        reference,
        cells: merge_cells(&all, vec![reused, fresh]),
    };
    assert_eq!(
        render_matrix_json(&resumed),
        full_json,
        "a resumed sweep must be byte-identical to an uninterrupted one"
    );
}

#[test]
fn backend_axis_never_changes_outcome_classes() {
    // The object-table backend is a pure performance knob end to end:
    // for every (mode, sequence, fuel) group of the test grid, the
    // per-input classes and transcripts must agree across backends.
    let matrix = matrix_for(&test_grid(), 2, 8);
    for a in &matrix.cells {
        for b in &matrix.cells {
            if a.cell.mode == b.cell.mode
                && a.cell.sequence == b.cell.sequence
                && a.cell.fuel == b.cell.fuel
            {
                assert_eq!(
                    a.runs,
                    b.runs,
                    "{} vs {}: backends disagree",
                    a.cell.label(),
                    b.cell.label()
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Outcome classes (and transcripts) are invariant under the
    /// executor's thread count and slice grain, for a random scheduling
    /// shape and a random slice of the grid.
    #[test]
    fn outcome_classes_are_scheduling_invariant(
        threads in 1usize..6,
        slice in 1usize..(INPUT_LIBRARY.len() + 4),
        skip in 0usize..6,
    ) {
        let reference = reference_transcripts(ExecTier::default(), LookupLayer::default(), &Edge::default());
        let all = test_grid().cells();
        let cells: Vec<CellSpec> = all.into_iter().skip(skip).take(3).collect();
        let scheduled = run_cells(&cells, &reference, threads, slice, ExecTier::default(), LookupLayer::default(), &Edge::default());
        let sequential: Vec<_> = cells.iter().map(|c| run_cell(c, &reference, ExecTier::default(), LookupLayer::default(), &Edge::default())).collect();
        prop_assert_eq!(scheduled, sequential);
    }
}
