//! Cross-backend equivalence: the object table is a swappable backend
//! layer, and backend choice must be *invisible* to everything but the
//! wall clock.
//!
//! The contract under test, for all three [`TableKind`] backends:
//!
//! 1. identical workload traces produce **byte-identical transcripts**
//!    (return codes, output bytes, violation flags, virtual cycles) on
//!    every server driver, in every mode;
//! 2. the substrate is driven identically — [`SpaceStats`] compare equal
//!    across backends after the same trace;
//! 3. whole farm runs produce equal [`FarmReport`]s across backends, for
//!    every server kind × mode cell (the farm's determinism contract
//!    extended to the table layer).

use proptest::prelude::*;

use failure_oblivious::memory::{Mode, SpaceStats, TableKind};
use failure_oblivious::servers::farm::{run_farm, FarmConfig, ServerKind};
use failure_oblivious::servers::BootSpec;
use failure_oblivious::servers::{apache, mc, mutt, pine, sendmail, workload, Measured};

/// One request's observable result, compared byte-for-byte across
/// backends.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Step {
    ret: Option<i64>,
    output: Vec<u8>,
    cycles: u64,
}

impl From<Measured> for Step {
    fn from(m: Measured) -> Step {
        Step {
            ret: m.outcome.ret(),
            output: m.outcome.output().to_vec(),
            cycles: m.cycles,
        }
    }
}

/// Drives one server of `kind` under `mode` on `table` through a fixed
/// seeded trace (legitimate traffic with attacks interleaved) and
/// returns the transcript plus the final substrate counters.
fn transcript(
    kind: ServerKind,
    mode: Mode,
    table: TableKind,
    seed: u64,
) -> (Vec<Step>, SpaceStats) {
    match kind {
        ServerKind::Apache => {
            let mut w = apache::ApacheWorker::boot_spec(
                &BootSpec::new(ServerKind::Apache, mode).with_table(table),
            );
            let mut steps = Vec::new();
            for i in 0..10u64 {
                let r = match i % 5 {
                    0 => w.get(b"/index.html"),
                    1 => w.get(&workload::apache_url(3 + (seed % 4) as usize)),
                    2 => w.get(&apache::attack_url()),
                    3 => w.get(b"/big.bin"),
                    _ => w.get(b"/nosuchpage.html"),
                };
                steps.push(Step::from(r));
                if w.is_dead() {
                    break;
                }
            }
            (steps, *w.process().machine().space().stats())
        }
        ServerKind::Sendmail => {
            let mut s = sendmail::Sendmail::boot_spec(
                &BootSpec::new(ServerKind::Sendmail, mode).with_table(table),
            );
            let mut steps = Vec::new();
            for i in 0..8u64 {
                if !s.usable() {
                    break;
                }
                let r = match i % 4 {
                    0 => s.receive(
                        &workload::sendmail_address(seed + i),
                        &workload::sendmail_address(seed + 100 + i),
                        &workload::lorem(120, seed + i),
                    ),
                    1 => s.send(
                        &workload::sendmail_address(seed + 200 + i),
                        &workload::lorem(80, seed + 300 + i),
                    ),
                    2 => s.mail_from(&sendmail::attack_address(40)),
                    _ => s.wakeup(),
                };
                steps.push(Step::from(r));
            }
            (steps, *s.process().machine().space().stats())
        }
        ServerKind::Pine => {
            let mut p = pine::Pine::boot_spec(
                &BootSpec::new(ServerKind::Pine, mode).with_table(table),
                pine::Pine::standard_mailbox(3),
            );
            let mut steps = Vec::new();
            for i in 0..8i64 {
                if !p.usable() {
                    break;
                }
                let r = match i % 4 {
                    0 => p.read(i % 3),
                    1 => p.compose(),
                    2 => p.deliver(&pine::attack_from(40), b"pwn", b"payload"),
                    _ => p.move_message(i % 3),
                };
                steps.push(Step::from(r));
            }
            (steps, *p.process().machine().space().stats())
        }
        ServerKind::Mutt => {
            let mut m =
                mutt::Mutt::boot_spec(&BootSpec::new(ServerKind::Mutt, mode).with_table(table), 2);
            let mut steps = Vec::new();
            for i in 0..8i64 {
                if m.process().is_dead() {
                    break;
                }
                let r = match i % 4 {
                    0 => m.open_folder(b"INBOX"),
                    1 => m.read_message(i % 2),
                    2 => m.open_folder(&mutt::attack_folder_name(40)),
                    _ => m.open_folder(b"work"),
                };
                steps.push(Step::from(r));
            }
            (steps, *m.process().machine().space().stats())
        }
        ServerKind::Mc => {
            let mut m = mc::Mc::boot_spec(
                &BootSpec::new(ServerKind::Mc, mode).with_table(table),
                &mc::clean_config(),
            );
            let mut steps = Vec::new();
            for i in 0..8u64 {
                if !m.usable() {
                    break;
                }
                let r = match i % 4 {
                    0 => m.copy(b"/home/user/data.bin", format!("/tmp/c{i}").as_bytes()),
                    1 => m.mkdir(format!("/tmp/d{i}").as_bytes()),
                    2 => m.open_archive(&mc::attack_links()),
                    _ => m.component_end(b"usr/share/component/lib"),
                };
                steps.push(Step::from(r));
            }
            (steps, *m.process().machine().space().stats())
        }
    }
}

/// The headline contract: 5 servers × 5 modes × 3 backends, transcripts
/// and substrate counters byte-identical across backends.
#[test]
fn transcripts_identical_across_backends_all_servers_all_modes() {
    for kind in ServerKind::ALL {
        for mode in Mode::ALL {
            let (reference, ref_stats) = transcript(kind, mode, TableKind::Splay, 7);
            assert!(
                !reference.is_empty() || !matches!(mode, Mode::FailureOblivious),
                "{} under {mode:?} produced no steps",
                kind.name()
            );
            for table in [TableKind::BTree, TableKind::Flat] {
                let (steps, stats) = transcript(kind, mode, table, 7);
                assert_eq!(
                    reference,
                    steps,
                    "{} under {mode:?}: transcript diverged on {table}",
                    kind.name()
                );
                assert_eq!(
                    ref_stats,
                    stats,
                    "{} under {mode:?}: SpaceStats diverged on {table}",
                    kind.name()
                );
            }
        }
    }
}

/// Whole farms agree across backends for every server × mode cell.
#[test]
fn farm_reports_equal_across_backends_all_cells() {
    for kind in ServerKind::ALL {
        for mode in Mode::ALL {
            let mut config = FarmConfig::new(kind, mode);
            config.servers = 2;
            config.threads = 2;
            config.requests_per_server = 8;
            config.attack_ratio = (1, 4);
            let reference = run_farm(&config.clone().with_table(TableKind::Splay));
            for table in [TableKind::BTree, TableKind::Flat] {
                let report = run_farm(&config.clone().with_table(table));
                assert_eq!(
                    reference,
                    report,
                    "{} under {mode:?}: farm diverged on {table}",
                    kind.name()
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Arbitrary workload seeds cannot tell the backends apart: the
    /// Apache driver trace (the stress-point server) stays
    /// byte-identical in every mode.
    #[test]
    fn apache_transcripts_backend_invariant_over_seeds(seed in 0u64..1_000_000) {
        for mode in Mode::ALL {
            let (reference, ref_stats) = transcript(ServerKind::Apache, mode, TableKind::Splay, seed);
            for table in [TableKind::BTree, TableKind::Flat] {
                let (steps, stats) = transcript(ServerKind::Apache, mode, table, seed);
                prop_assert_eq!(&reference, &steps, "mode {:?} table {}", mode, table);
                prop_assert_eq!(ref_stats, stats, "mode {:?} table {}", mode, table);
            }
        }
    }

    /// Arbitrary farm seeds cannot tell the backends apart either — the
    /// end-to-end version of the same property, restarts included.
    #[test]
    fn farm_reports_backend_invariant_over_seeds(seed in 0u64..1_000_000) {
        let mut config = FarmConfig::new(ServerKind::Apache, Mode::BoundsCheck);
        config.servers = 2;
        config.threads = 2;
        config.requests_per_server = 6;
        config.attack_ratio = (1, 3);
        config.seed = seed;
        let reference = run_farm(&config.clone().with_table(TableKind::Splay));
        for table in [TableKind::BTree, TableKind::Flat] {
            let report = run_farm(&config.clone().with_table(table));
            prop_assert_eq!(&reference, &report, "table {}", table);
        }
    }
}
