//! The seeded request scripts. Each is a pure function of the seed and
//! the client index; the counts of each request type are fixed and only
//! their order and content vary with the seed, so every seed exercises
//! the same mix. Return values the client can know in advance come from
//! a small model of the server's state (MC's file table).

use foc_memory::Mode;
use foc_servers::{workload, ServerKind};

use crate::client::{Script, Step};
use crate::rng::Rng;
use crate::server::{expect, Op, OpKind, MC_BOOT_FILES, MC_TABLE};

fn step(mode: Mode, op: Op, ret: Option<i64>) -> Step {
    let expect = expect(mode, op.kind(), ret);
    Step { op, expect }
}

/// MC copy sizes: 4 KiB up to the 3.2 MB file MC boots with.
const COPY_MIN: f64 = 4096.0;
const COPY_MAX: f64 = 3_276_800.0;
/// Source files per MC session, each copied once.
const MC_SOURCES: usize = 35;

/// Host model of MC's file table: entries used so far (deleted entries
/// keep their slot) and the live names the client created.
struct McModel {
    entries: i64,
    live: Vec<Vec<u8>>,
}

impl McModel {
    fn booted() -> McModel {
        McModel {
            entries: MC_BOOT_FILES,
            live: Vec::new(),
        }
    }

    fn create(&mut self) -> i64 {
        let idx = self.entries;
        self.entries += 1;
        assert!(self.entries < MC_TABLE, "script overflows MC's file table");
        idx
    }

    fn delete(&mut self, rng: &mut Rng, mode: Mode, missing: Vec<u8>) -> Step {
        if self.live.is_empty() {
            return step(mode, Op::McDelete(missing), Some(-1));
        }
        let victim = self
            .live
            .swap_remove(rng.below(self.live.len() as u64) as usize);
        step(mode, Op::McDelete(victim), Some(0))
    }
}

/// A path whose first `/` sits `1..=20` bytes in: MC's component scan
/// returns that offset.
fn component_name(rng: &mut Rng, mode: Mode) -> Step {
    let at = 1 + rng.below(20) as usize;
    let mut name: Vec<u8> = (0..at).map(|_| b'a' + rng.below(26) as u8).collect();
    name.extend_from_slice(b"/share/lib");
    step(mode, Op::McComponentEnd(name), Some(at as i64))
}

/// `mc_copy`: one MC session per round under Failure Oblivious. The
/// session boots from the checkpoint and seeds 35 source files whose
/// sizes are log-spaced from 4 KiB to 3.2 MB (±0.5% seeded jitter);
/// then 50 requests: a copy of every source, 4 mkdir, 3 delete, 3
/// component scans and 5 attack archives (1 in 10), in seeded order.
pub fn mc_copy(seed: u64, client: u64) -> Script {
    let mode = Mode::FailureOblivious;
    let mut rng = Rng::stream(seed, 0x4D43_0000 + client);
    let tag = rng.below(1_000_000);
    let mut model = McModel::booted();
    let mut sources = Vec::new();
    let mut mc_seed = Vec::new();
    for k in 0..MC_SOURCES {
        let t = k as f64 / (MC_SOURCES - 1) as f64;
        let base = COPY_MIN * (COPY_MAX / COPY_MIN).powf(t);
        let size = (base * (1.0 + (rng.unit() - 0.5) * 0.01)).round() as i64;
        let name = format!("/home/user/src{k:02}-{tag}.dat").into_bytes();
        let idx = model.create();
        mc_seed.push(step(
            mode,
            Op::McCreate {
                name: name.clone(),
                size,
            },
            Some(idx),
        ));
        sources.push((name, size));
    }
    rng.shuffle(&mut sources);
    let mut kinds: Vec<OpKind> = std::iter::repeat_n(OpKind::McCopy, MC_SOURCES)
        .chain(std::iter::repeat_n(OpKind::McMkdir, 4))
        .chain(std::iter::repeat_n(OpKind::McDelete, 3))
        .chain(std::iter::repeat_n(OpKind::McComponentEnd, 3))
        .chain(std::iter::repeat_n(OpKind::McAttack, 5))
        .collect();
    rng.shuffle(&mut kinds);
    let mut steps = Vec::new();
    for (i, kind) in kinds.into_iter().enumerate() {
        steps.push(match kind {
            OpKind::McCopy => {
                let (src, size) = sources.pop().expect("one copy per source");
                let dst = format!("/home/user/copy{i}-{tag}.dat").into_bytes();
                model.create();
                model.live.push(dst.clone());
                step(mode, Op::McCopy { src, dst }, Some(size))
            }
            OpKind::McMkdir => {
                let idx = model.create();
                step(
                    mode,
                    Op::McMkdir(format!("/home/user/dir{i}-{tag}").into_bytes()),
                    Some(idx),
                )
            }
            OpKind::McDelete => {
                let missing = format!("/home/user/gone{i}-{tag}").into_bytes();
                model.delete(&mut rng, mode, missing)
            }
            OpKind::McComponentEnd => component_name(&mut rng, mode),
            _ => step(mode, Op::McAttack, None),
        });
    }
    Script {
        mode,
        kinds: vec![ServerKind::Mc],
        mc_seed,
        steps,
        replace_dead: false,
    }
}

/// Interleaves per-kind request lists in a seeded order.
fn interleave(rng: &mut Rng, per_kind: Vec<Vec<Step>>) -> Vec<Step> {
    let mut order: Vec<usize> = per_kind
        .iter()
        .enumerate()
        .flat_map(|(k, steps)| std::iter::repeat_n(k, steps.len()))
        .collect();
    rng.shuffle(&mut order);
    let mut queues: Vec<std::vec::IntoIter<Step>> =
        per_kind.into_iter().map(|v| v.into_iter()).collect();
    order
        .into_iter()
        .map(|k| queues[k].next().expect("one slot per step"))
        .collect()
}

/// Exactly `attacks` of `n` positions are attacks, at seeded positions.
fn attack_slots(rng: &mut Rng, n: usize, attacks: usize) -> Vec<bool> {
    let mut slots: Vec<bool> = (0..n).map(|i| i < attacks).collect();
    rng.shuffle(&mut slots);
    slots
}

fn apache_get(rng: &mut Rng, mode: Mode) -> Step {
    let (path, status): (&'static [u8], i64) = match rng.below(10) {
        0..=5 => (b"/index.html", 200),
        6..=7 => (b"/rw/index.html", 200),
        8 => (b"/big.bin", 200),
        _ => (b"/nosuchpage.html", 404),
    };
    step(mode, Op::ApacheGet(path), Some(status))
}

/// Requests per server kind in one `restart_storm` round; a third are
/// attacks.
const STORM_PER_KIND: usize = 90;

/// `restart_storm`: Apache, Mutt and MC under Bounds Check with exactly
/// one request in three an attack. Every attack kills its process; the
/// client replaces it through `boot_spec` before that kind's next
/// request and charges the replacement to that request. MC serves
/// metadata requests only, Mutt only folder opens, so the restore path
/// stays a large share of the time.
pub fn restart_storm(seed: u64, client: u64) -> Script {
    let mode = Mode::BoundsCheck;
    let mut rng = Rng::stream(seed, 0x5354_0000 + client);
    let attacks = STORM_PER_KIND / 3;

    let apache = attack_slots(&mut rng, STORM_PER_KIND, attacks)
        .into_iter()
        .map(|attack| {
            if attack {
                step(mode, Op::ApacheAttack, None)
            } else {
                apache_get(&mut rng, mode)
            }
        })
        .collect();

    let mutt = attack_slots(&mut rng, STORM_PER_KIND, attacks)
        .into_iter()
        .map(|attack| {
            if attack {
                step(mode, Op::MuttAttack, None)
            } else {
                let folder: &'static [u8] = if rng.below(10) < 7 { b"INBOX" } else { b"work" };
                step(mode, Op::MuttOpenFolder(folder), Some(0))
            }
        })
        .collect();

    let mut model = McModel::booted();
    let mut mc = Vec::new();
    for (i, attack) in attack_slots(&mut rng, STORM_PER_KIND, attacks)
        .into_iter()
        .enumerate()
    {
        if attack {
            mc.push(step(mode, Op::McAttack, None));
            // The attack kills MC; its replacement boots a fresh table.
            model = McModel::booted();
            continue;
        }
        mc.push(match rng.below(10) {
            0..=3 => {
                let name = format!("/tmp/storm{i}").into_bytes();
                let idx = model.create();
                model.live.push(name.clone());
                step(mode, Op::McMkdir(name), Some(idx))
            }
            4..=6 => model.delete(&mut rng, mode, format!("/tmp/gone{i}").into_bytes()),
            _ => component_name(&mut rng, mode),
        });
    }

    Script {
        mode,
        kinds: vec![ServerKind::Apache, ServerKind::Mutt, ServerKind::Mc],
        mc_seed: Vec::new(),
        steps: interleave(&mut rng, vec![apache, mutt, mc]),
        replace_dead: true,
    }
}

/// Requests per kind in one direct replay of the `mail_socket` mix.
const MAIL_PER_KIND: usize = 40;

/// The `mail_socket` traffic mix replayed through the drivers directly,
/// for the traced run's per-layer counts (`run_farm` exposes no guest
/// counters): Apache, Sendmail, Pine and Mutt under Failure Oblivious,
/// 1 request in 8 an attack, legitimate requests in the proportions the
/// farm's generator uses.
pub fn mail_replay(seed: u64) -> Script {
    let mode = Mode::FailureOblivious;
    let mut rng = Rng::stream(seed, 0x4D41_494C);
    let attacks = MAIL_PER_KIND / 8;

    let apache = attack_slots(&mut rng, MAIL_PER_KIND, attacks)
        .into_iter()
        .map(|attack| {
            if attack {
                step(mode, Op::ApacheAttack, None)
            } else {
                apache_get(&mut rng, mode)
            }
        })
        .collect();

    let sendmail = attack_slots(&mut rng, MAIL_PER_KIND, attacks)
        .into_iter()
        .map(|attack| {
            if attack {
                let to = workload::sendmail_address(rng.next());
                return step(mode, Op::SendmailAttack { to }, None);
            }
            match rng.below(10) {
                0..=6 => {
                    let from = workload::sendmail_address(rng.next());
                    let to = workload::sendmail_address(rng.next());
                    let body = workload::lorem(160, rng.next());
                    step(mode, Op::SendmailReceive { from, to, body }, Some(250))
                }
                7..=8 => {
                    let to = workload::sendmail_address(rng.next());
                    let body = workload::lorem(200, rng.next());
                    step(mode, Op::SendmailSend { to, body }, Some(250))
                }
                _ => step(mode, Op::SendmailWakeup, None),
            }
        })
        .collect();

    let mut messages = crate::server::PINE_SEED as u64;
    let pine = attack_slots(&mut rng, MAIL_PER_KIND, attacks)
        .into_iter()
        .map(|attack| {
            if attack {
                messages += 1;
                return step(mode, Op::PineAttack, None);
            }
            match rng.below(10) {
                0..=2 => {
                    messages += 1;
                    let from = workload::from_field(rng.next());
                    let body = workload::lorem(300, rng.next());
                    step(mode, Op::PineDeliver { from, body }, None)
                }
                3..=6 => step(mode, Op::PineRead(rng.below(messages) as i64), None),
                7..=8 => step(mode, Op::PineCompose, None),
                _ => step(mode, Op::PineMove(rng.below(messages) as i64), None),
            }
        })
        .collect();

    // Mutt reads fail with -3 until some folder has been opened.
    let mut folder_open = false;
    let mutt = attack_slots(&mut rng, MAIL_PER_KIND, attacks)
        .into_iter()
        .map(|attack| {
            if attack {
                return step(mode, Op::MuttAttack, None);
            }
            match rng.below(10) {
                0..=3 => {
                    folder_open = true;
                    step(mode, Op::MuttOpenFolder(b"INBOX"), Some(0))
                }
                4..=8 => step(
                    mode,
                    Op::MuttRead(rng.below(crate::server::MUTT_SEED as u64) as i64),
                    Some(if folder_open { 0 } else { -3 }),
                ),
                _ => {
                    folder_open = true;
                    step(mode, Op::MuttOpenFolder(b"work"), Some(0))
                }
            }
        })
        .collect();

    Script {
        mode,
        kinds: vec![
            ServerKind::Apache,
            ServerKind::Sendmail,
            ServerKind::Pine,
            ServerKind::Mutt,
        ],
        mc_seed: Vec::new(),
        steps: interleave(&mut rng, vec![apache, sendmail, pine, mutt]),
        replace_dead: false,
    }
}
