//! The shared `--check` contract of the benchmark bins.
//!
//! Every measuring bin exposes the same CI surface: a `--check` flag
//! that re-measures at smoke scale and gates a ratio against a floor, a
//! one-line `FAIL:` diagnostic on stderr with a nonzero exit (CI logs
//! get a readable reason, not a panic backtrace), an optional positive
//! rep-count argument for full runs, and a fingerprint-keyed row upsert
//! into `BENCH_farm.json`. The helpers here are that surface, written
//! once; the bins contribute only their measurement and its wording.

use foc_servers::EnvError;

use crate::farm_report::{upsert_trajectory_row, TrajectoryRow, RECORD_PATH};

/// Gates `ratio` against the `min` floor. `name` describes the measured
/// quantity ("superinstruction tier over baseline interpretation
/// rate"); `detail` carries the raw readings for the diagnostic ("412.0
/// vs 233.1 Minstr/s"). Returns the `Err` line the caller hands to
/// [`check_fail`].
pub fn check_gate(name: &str, ratio: f64, min: f64, detail: &str) -> Result<(), String> {
    if ratio >= min {
        Ok(())
    } else {
        Err(format!(
            "{name} must hold a ≥{min}× ratio: {detail} ({ratio:.2}x)"
        ))
    }
}

/// Prints the one-line diagnostic and exits nonzero — the `--check`
/// contract shared by every bench bin.
pub fn check_fail(bin: &str, msg: &str) -> ! {
    eprintln!("{bin}: FAIL: {msg}");
    std::process::exit(1);
}

/// Parses the optional leading rep-count argument of a full measurement
/// run, exiting with usage code 2 on anything but a positive integer.
pub fn parse_reps(bin: &str, args: &[String], default: usize) -> usize {
    match args.first() {
        None => default,
        Some(arg) => match arg.parse() {
            Ok(n) if n > 0 => n,
            _ => {
                eprintln!("{bin}: invalid rep count {arg:?} (want a positive integer)");
                std::process::exit(2);
            }
        },
    }
}

/// Unwraps a configuration value a bin parsed from the environment at
/// the top of its `main` ([`foc_servers::BootSpec::from_env`],
/// [`foc_servers::env_axis`]), exiting with usage code 2 and the
/// one-line [`EnvError`] diagnostic on an unknown value, so a typo never
/// silently measures or gates a different configuration.
pub fn env_config<T>(bin: &str, parsed: Result<T, EnvError>) -> T {
    parsed.unwrap_or_else(|e| {
        eprintln!("{bin}: {e}");
        std::process::exit(2);
    })
}

/// Upserts `row` into its section of `BENCH_farm.json`, with the shared
/// read/write and failure wording (`bin` names the failing binary).
pub fn record_farm_row(bin: &str, row: &TrajectoryRow) {
    match std::fs::read_to_string(RECORD_PATH) {
        Ok(json) => match upsert_trajectory_row(&json, row.section, &row.render()) {
            Ok(updated) => {
                std::fs::write(RECORD_PATH, updated).expect("write BENCH_farm.json");
                println!("recorded {} row in {RECORD_PATH}", row.section);
            }
            Err(e) => check_fail(bin, &e),
        },
        Err(e) => check_fail(bin, &format!("cannot read {RECORD_PATH}: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_passes_at_and_above_the_floor() {
        assert!(check_gate("rate", 1.5, 1.5, "3.0 vs 2.0").is_ok());
        assert!(check_gate("rate", 2.31, 1.5, "detail").is_ok());
    }

    #[test]
    fn gate_diagnostic_names_the_quantity_floor_and_readings() {
        let msg = check_gate(
            "paged lookup over table search",
            1.31,
            1.5,
            "13.1 vs 10.0 Maccess/s",
        )
        .expect_err("below the floor");
        assert!(msg.contains("paged lookup over table search"), "{msg}");
        assert!(msg.contains("1.5×"), "{msg}");
        assert!(msg.contains("13.1 vs 10.0 Maccess/s"), "{msg}");
        assert!(msg.contains("(1.31x)"), "{msg}");
    }
}
