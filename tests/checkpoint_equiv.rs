//! Checkpoint-restore equivalence: a server restored from its boot
//! checkpoint must be **byte-identical** to one that booted from
//! scratch — transcripts (return codes, output bytes, virtual cycles),
//! [`SpaceStats`], and the full `MemoryErrorLog` contents included.
//!
//! Boots are pure functions of `(image, spec, environment)`, so the
//! checkpoint layer is sound exactly when nothing observable can tell a
//! restored process from a freshly booted one. The battery drives both
//! flavours through the §4/§5.1 attack library for all five servers ×
//! all five modes, then stresses the stateful case — Pine's
//! spec-preserving restart, which restores a pre-index base and replays
//! only the mailbox delta — against a full-replay reference, including
//! poisoned-mailbox restart chains and proptests over workload seeds
//! and restart counts.

use proptest::prelude::*;

use failure_oblivious::memory::{Mode, SpaceStats};
use failure_oblivious::servers::image::ServerKind;
use failure_oblivious::servers::{
    apache, mc, mutt, pine, sendmail, workload, BootSpec, Measured, Process,
};

/// One request's observable result plus the substrate state after it.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Step {
    ret: Option<i64>,
    output: Vec<u8>,
    cycles: u64,
}

impl Step {
    fn of(m: &Measured) -> Step {
        Step {
            ret: m.outcome.ret(),
            output: m.outcome.output().to_vec(),
            cycles: m.cycles,
        }
    }
}

/// Everything the substrate exposes after a trace: the per-space
/// counters and the complete retained error log (records compared
/// field-by-field, totals included).
#[derive(Debug, Clone, PartialEq, Eq)]
struct SubstrateState {
    stats: SpaceStats,
    log_total: u64,
    log_reads: u64,
    log_writes: u64,
    log_dropped: u64,
    records: Vec<failure_oblivious::memory::MemoryErrorRecord>,
}

fn substrate(proc: &Process) -> SubstrateState {
    let space = proc.machine().space();
    let log = space.error_log();
    SubstrateState {
        stats: *space.stats(),
        log_total: log.total(),
        log_reads: log.total_reads(),
        log_writes: log.total_writes(),
        log_dropped: log.dropped(),
        records: log.records().to_vec(),
    }
}

/// Drives one server's benign + attack script twice — once on the
/// cached (checkpoint-restored) boot, once on a from-scratch boot of
/// the same interned image — and asserts byte identity.
fn assert_kind_equivalent(kind: ServerKind, mode: Mode) {
    let spec = BootSpec::new(kind, mode);
    let tag = format!("{}/{mode:?}", kind.name());
    match kind {
        ServerKind::Apache => {
            let cached = apache::ApacheWorker::boot_spec(&spec);
            let fresh = apache::ApacheWorker::boot_image_spec(&kind.image_tier(spec.tier), &spec);
            let drive = |mut w: apache::ApacheWorker| {
                let steps: Vec<Step> = [
                    w.get(b"/index.html"),
                    w.get(&apache::attack_url()),
                    w.get(b"/rw/index.html"),
                    w.get(b"/big.bin"),
                ]
                .iter()
                .map(Step::of)
                .collect();
                (steps, substrate(w.process()))
            };
            assert_eq!(drive(cached), drive(fresh), "{tag}");
        }
        ServerKind::Sendmail => {
            let cached = sendmail::Sendmail::boot_spec(&spec);
            let fresh = sendmail::Sendmail::boot_image_spec(&kind.image_tier(spec.tier), &spec);
            assert_eq!(
                cached.init_outcome(),
                fresh.init_outcome(),
                "{tag}: init outcome"
            );
            let drive = |mut s: sendmail::Sendmail| {
                let steps: Vec<Step> = [
                    s.receive(
                        &workload::sendmail_address(1),
                        &workload::sendmail_address(2),
                        b"body one",
                    ),
                    s.receive(
                        &sendmail::attack_address(40),
                        &workload::sendmail_address(3),
                        b"attack payload",
                    ),
                    s.wakeup(),
                    s.send(&workload::sendmail_address(4), b"outbound"),
                ]
                .iter()
                .map(Step::of)
                .collect();
                (steps, substrate(s.process()))
            };
            assert_eq!(drive(cached), drive(fresh), "{tag}");
        }
        ServerKind::Pine => {
            let mailbox = failure_oblivious::servers::image::standard_pine_mailbox().clone();
            let cached = pine::Pine::boot_spec(&spec, mailbox.clone());
            let fresh = pine::Pine::boot_image_spec(&kind.image_tier(spec.tier), &spec, mailbox);
            assert_eq!(
                cached.init_outcome(),
                fresh.init_outcome(),
                "{tag}: init outcome"
            );
            let drive = |mut p: pine::Pine| {
                let steps: Vec<Step> = [
                    p.read(0),
                    p.deliver(&pine::attack_from(40), b"pwn", b"payload"),
                    p.compose(),
                    p.read(2),
                    p.move_message(1),
                ]
                .iter()
                .map(Step::of)
                .collect();
                (steps, substrate(p.process()))
            };
            assert_eq!(drive(cached), drive(fresh), "{tag}");
        }
        ServerKind::Mutt => {
            const SEED: usize = failure_oblivious::servers::image::MUTT_SEED_MESSAGES;
            let cached = mutt::Mutt::boot_spec(&spec, SEED);
            let fresh = mutt::Mutt::boot_image_spec(&kind.image_tier(spec.tier), &spec, SEED);
            let drive = |mut m: mutt::Mutt| {
                let steps: Vec<Step> = [
                    m.open_folder(b"INBOX"),
                    m.open_folder(&mutt::attack_folder_name(40)),
                    m.read_message(0),
                    m.open_folder(b"work"),
                ]
                .iter()
                .map(Step::of)
                .collect();
                (steps, substrate(m.process()))
            };
            assert_eq!(drive(cached), drive(fresh), "{tag}");
        }
        ServerKind::Mc => {
            let config = failure_oblivious::servers::image::standard_mc_config().clone();
            let cached = mc::Mc::boot_spec(&spec, &config);
            let fresh = mc::Mc::boot_image_spec(&kind.image_tier(spec.tier), &spec, &config);
            assert_eq!(
                cached.init_outcome(),
                fresh.init_outcome(),
                "{tag}: init outcome"
            );
            let drive = |mut m: mc::Mc| {
                let steps: Vec<Step> = [
                    m.copy(b"/home/user/data.bin", b"/tmp/c1"),
                    m.open_archive(&mc::attack_links()),
                    m.component_end(b"usr/share/component/lib"),
                    m.mkdir(b"/tmp/d"),
                    m.delete(b"/tmp/c1"),
                ]
                .iter()
                .map(Step::of)
                .collect();
                (steps, substrate(m.process()))
            };
            assert_eq!(drive(cached), drive(fresh), "{tag}");
        }
    }
}

#[test]
fn restored_boots_match_fresh_boots_everywhere() {
    // 5 servers × 5 modes × the benign + §4/§5.1 attack library.
    for kind in ServerKind::ALL {
        for mode in Mode::ALL {
            assert_kind_equivalent(kind, mode);
        }
    }
}

// ---------------------------------------------------------------------
// Pine restart chains: restore + delta replay vs full-replay reference.
// ---------------------------------------------------------------------

/// A full-replay Pine reference restart: boot a fresh process over the
/// current mail file (the seed behaviour, kept as the semantic ground
/// truth the O(delta) restart is compared against).
fn full_replay_reference(spec: &BootSpec, mailbox: Vec<(Vec<u8>, Vec<u8>, Vec<u8>)>) -> pine::Pine {
    pine::Pine::boot_image_spec(&ServerKind::Pine.image_tier(spec.tier), spec, mailbox)
}

/// Observable identity of a Pine reader: usability, init outcome shape,
/// substrate state, and a read transcript over every message.
fn pine_fingerprint(p: &mut pine::Pine, messages: i64) -> (bool, Vec<Step>, SubstrateState) {
    let usable = p.usable();
    let steps: Vec<Step> = (0..messages).map(|i| Step::of(&p.read(i))).collect();
    (usable, steps, substrate(p.process()))
}

/// Drives a poisoned-mailbox restart chain in both implementations and
/// compares after every restart.
fn assert_restart_chain_equivalent(
    mode: Mode,
    extra_deliveries: usize,
    restarts: usize,
    seed: u64,
) {
    let spec = BootSpec::new(ServerKind::Pine, mode);
    let mut mailbox = pine::Pine::standard_mailbox(4);
    mailbox.insert(2, (pine::attack_from(40), b"pwn".to_vec(), b"x".to_vec()));

    let mut fast = pine::Pine::boot_spec(&spec, mailbox.clone());
    let mut reference = full_replay_reference(&spec, mailbox.clone());
    assert_eq!(
        fast.init_outcome(),
        reference.init_outcome(),
        "{mode:?}: poisoned boot"
    );

    // New mail (benign and poisoned) arrives live; both readers see the
    // same stream and their mail files grow identically.
    for i in 0..extra_deliveries {
        let from = workload::from_field(seed.wrapping_add(i as u64));
        let body = workload::lorem(120, seed ^ i as u64);
        let a = fast.deliver(&from, b"live", &body);
        let b = reference.deliver(&from, b"live", &body);
        assert_eq!(Step::of(&a), Step::of(&b), "{mode:?}: delivery {i}");
    }

    let messages = (5 + extra_deliveries) as i64;
    for round in 0..restarts {
        // Fast path: restore the pre-index base, replay the delta.
        fast.restart();
        // Reference: full boot over the same (grown) mail file.
        let current_mailbox = {
            // The reference's mailbox grew the same way; rebuild it from
            // the original plus deliveries by re-deriving the stream.
            let mut mb = mailbox.clone();
            for i in 0..extra_deliveries {
                mb.push((
                    workload::from_field(seed.wrapping_add(i as u64)),
                    b"live".to_vec(),
                    workload::lorem(120, seed ^ i as u64),
                ));
            }
            mb
        };
        reference = full_replay_reference(&spec, current_mailbox);
        assert_eq!(
            pine_fingerprint(&mut fast, messages),
            pine_fingerprint(&mut reference, messages),
            "{mode:?}: after restart {round}"
        );
    }
}

#[test]
fn poisoned_mailbox_restart_chains_match_full_replay() {
    // Bounds Check and Standard die at init and every restart dies the
    // same way (§4.7); the continuing modes restart into a serving
    // reader. All must be byte-identical to full replay.
    for mode in Mode::ALL {
        assert_restart_chain_equivalent(mode, 2, 3, 0xF0C5);
    }
}

#[test]
fn farm_restart_equivalence_survives_live_attack_deliveries() {
    // The farm's actual failure shape: a clean boot, then the attack
    // arrives live (entering the mail file), the process dies, and the
    // supervisor restarts into the now-poisoned environment.
    for mode in [Mode::Standard, Mode::BoundsCheck] {
        let spec = BootSpec::new(ServerKind::Pine, mode);
        let mailbox = failure_oblivious::servers::image::standard_pine_mailbox().clone();
        let mut fast = pine::Pine::boot_spec(&spec, mailbox.clone());
        let mut reference = full_replay_reference(&spec, mailbox.clone());
        let a = fast.deliver(&pine::attack_from(40), b"pwn", b"payload");
        let b = reference.deliver(&pine::attack_from(40), b"pwn", b"payload");
        assert_eq!(Step::of(&a), Step::of(&b), "{mode:?}: attack delivery");
        assert!(fast.process().is_dead(), "{mode:?}: attack must kill");

        fast.restart();
        let mut grown = mailbox.clone();
        grown.push((pine::attack_from(40), b"pwn".to_vec(), b"payload".to_vec()));
        reference = full_replay_reference(&spec, grown);
        assert_eq!(
            pine_fingerprint(&mut fast, 4),
            pine_fingerprint(&mut reference, 4),
            "{mode:?}: restart into poisoned mail file"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn prop_restart_chains_equivalent_over_seeds_and_depths(
        seed in 0u64..1u64 << 40,
        extra in 0usize..4,
        restarts in 1usize..4,
        mode_pick in 0u8..5,
    ) {
        let mode = Mode::ALL[mode_pick as usize % Mode::ALL.len()];
        assert_restart_chain_equivalent(mode, extra, restarts, seed);
    }

    #[test]
    fn prop_restored_boots_replay_seeded_workloads_identically(
        seed in 0u64..1u64 << 40,
        requests in 1usize..6,
    ) {
        // A cached Apache worker and a fresh one serve the same seeded
        // request mix identically (the per-request content derives from
        // the seed, as in the farm's streams).
        let spec = BootSpec::new(ServerKind::Apache, Mode::FailureOblivious);
        let mut cached = apache::ApacheWorker::boot_spec(&spec);
        let mut fresh =
            apache::ApacheWorker::boot_image_spec(&ServerKind::Apache.image_tier(spec.tier), &spec);
        for i in 0..requests {
            let x = seed.wrapping_add(i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let url: Vec<u8> = match x % 4 {
                0 => b"/index.html".to_vec(),
                1 => apache::rewrite_url((x >> 8) as usize % 16),
                2 => b"/big.bin".to_vec(),
                _ => apache::attack_url(),
            };
            prop_assert_eq!(
                Step::of(&cached.get(&url)),
                Step::of(&fresh.get(&url)),
                "request {}", i
            );
        }
        prop_assert_eq!(substrate(cached.process()), substrate(fresh.process()));
    }
}
