//! One guest server process behind its public driver, the request
//! vocabulary the clients issue, and the hand-written expectation each
//! request's outcome is checked against.

use foc_memory::Mode;
use foc_servers::{
    apache::ApacheWorker, mc::Mc, mutt::Mutt, pine::Pine, sendmail::Sendmail, BootSpec, Measured,
    Outcome, Process, ServerKind,
};

/// Every request type the workloads issue. The index is the row of the
/// per-request-type table (`driver.<kind>.<op>.*`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum OpKind {
    ApacheGet,
    ApacheAttack,
    SendmailReceive,
    SendmailSend,
    SendmailWakeup,
    SendmailAttack,
    PineDeliver,
    PineRead,
    PineCompose,
    PineMove,
    PineAttack,
    MuttOpenFolder,
    MuttRead,
    MuttAttack,
    McCreate,
    McCopy,
    McMkdir,
    McDelete,
    McComponentEnd,
    McAttack,
}

impl OpKind {
    pub const ALL: [OpKind; 20] = [
        OpKind::ApacheGet,
        OpKind::ApacheAttack,
        OpKind::SendmailReceive,
        OpKind::SendmailSend,
        OpKind::SendmailWakeup,
        OpKind::SendmailAttack,
        OpKind::PineDeliver,
        OpKind::PineRead,
        OpKind::PineCompose,
        OpKind::PineMove,
        OpKind::PineAttack,
        OpKind::MuttOpenFolder,
        OpKind::MuttRead,
        OpKind::MuttAttack,
        OpKind::McCreate,
        OpKind::McCopy,
        OpKind::McMkdir,
        OpKind::McDelete,
        OpKind::McComponentEnd,
        OpKind::McAttack,
    ];

    /// The driver span name, `driver.<kind>.<op>`.
    pub fn span(self) -> &'static str {
        match self {
            OpKind::ApacheGet => "driver.apache.get",
            OpKind::ApacheAttack => "driver.apache.attack",
            OpKind::SendmailReceive => "driver.sendmail.receive",
            OpKind::SendmailSend => "driver.sendmail.send",
            OpKind::SendmailWakeup => "driver.sendmail.wakeup",
            OpKind::SendmailAttack => "driver.sendmail.attack",
            OpKind::PineDeliver => "driver.pine.deliver",
            OpKind::PineRead => "driver.pine.read",
            OpKind::PineCompose => "driver.pine.compose",
            OpKind::PineMove => "driver.pine.move",
            OpKind::PineAttack => "driver.pine.attack",
            OpKind::MuttOpenFolder => "driver.mutt.open_folder",
            OpKind::MuttRead => "driver.mutt.read",
            OpKind::MuttAttack => "driver.mutt.attack",
            OpKind::McCreate => "driver.mc.create",
            OpKind::McCopy => "driver.mc.copy",
            OpKind::McMkdir => "driver.mc.mkdir",
            OpKind::McDelete => "driver.mc.delete",
            OpKind::McComponentEnd => "driver.mc.component_end",
            OpKind::McAttack => "driver.mc.attack",
        }
    }

    /// `<kind>.<op>`, the metric name stem.
    pub fn label(self) -> &'static str {
        &self.span()["driver.".len()..]
    }

    pub fn index(self) -> usize {
        self as usize
    }

    pub fn is_attack(self) -> bool {
        matches!(
            self,
            OpKind::ApacheAttack
                | OpKind::SendmailAttack
                | OpKind::PineAttack
                | OpKind::MuttAttack
                | OpKind::McAttack
        )
    }
}

/// One request with its content.
#[derive(Clone, Debug)]
pub enum Op {
    ApacheGet(&'static [u8]),
    ApacheAttack,
    SendmailReceive {
        from: Vec<u8>,
        to: Vec<u8>,
        body: Vec<u8>,
    },
    SendmailSend {
        to: Vec<u8>,
        body: Vec<u8>,
    },
    SendmailWakeup,
    SendmailAttack {
        to: Vec<u8>,
    },
    PineDeliver {
        from: Vec<u8>,
        body: Vec<u8>,
    },
    PineRead(i64),
    PineCompose,
    PineMove(i64),
    PineAttack,
    MuttOpenFolder(&'static [u8]),
    MuttRead(i64),
    MuttAttack,
    McCreate {
        name: Vec<u8>,
        size: i64,
    },
    McCopy {
        src: Vec<u8>,
        dst: Vec<u8>,
    },
    McMkdir(Vec<u8>),
    McDelete(Vec<u8>),
    McComponentEnd(Vec<u8>),
    McAttack,
}

impl Op {
    pub fn kind(&self) -> OpKind {
        match self {
            Op::ApacheGet(_) => OpKind::ApacheGet,
            Op::ApacheAttack => OpKind::ApacheAttack,
            Op::SendmailReceive { .. } => OpKind::SendmailReceive,
            Op::SendmailSend { .. } => OpKind::SendmailSend,
            Op::SendmailWakeup => OpKind::SendmailWakeup,
            Op::SendmailAttack { .. } => OpKind::SendmailAttack,
            Op::PineDeliver { .. } => OpKind::PineDeliver,
            Op::PineRead(_) => OpKind::PineRead,
            Op::PineCompose => OpKind::PineCompose,
            Op::PineMove(_) => OpKind::PineMove,
            Op::PineAttack => OpKind::PineAttack,
            Op::MuttOpenFolder(_) => OpKind::MuttOpenFolder,
            Op::MuttRead(_) => OpKind::MuttRead,
            Op::MuttAttack => OpKind::MuttAttack,
            Op::McCreate { .. } => OpKind::McCreate,
            Op::McCopy { .. } => OpKind::McCopy,
            Op::McMkdir(_) => OpKind::McMkdir,
            Op::McDelete(_) => OpKind::McDelete,
            Op::McComponentEnd(_) => OpKind::McComponentEnd,
            Op::McAttack => OpKind::McAttack,
        }
    }

    pub fn server(&self) -> ServerKind {
        match self.kind() {
            OpKind::ApacheGet | OpKind::ApacheAttack => ServerKind::Apache,
            OpKind::SendmailReceive
            | OpKind::SendmailSend
            | OpKind::SendmailWakeup
            | OpKind::SendmailAttack => ServerKind::Sendmail,
            OpKind::PineDeliver
            | OpKind::PineRead
            | OpKind::PineCompose
            | OpKind::PineMove
            | OpKind::PineAttack => ServerKind::Pine,
            OpKind::MuttOpenFolder | OpKind::MuttRead | OpKind::MuttAttack => ServerKind::Mutt,
            _ => ServerKind::Mc,
        }
    }
}

/// What a request's outcome must be.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expect {
    /// Completes with exactly this return value.
    Ret(i64),
    /// Completes with any return value.
    Survive,
    /// Kills the process (an attack under Bounds Check).
    Crash,
}

impl Expect {
    pub fn holds(self, outcome: &Outcome) -> bool {
        match (self, outcome) {
            (Expect::Ret(want), Outcome::Done { ret, .. }) => *ret == want,
            (Expect::Survive, Outcome::Done { .. }) => true,
            (Expect::Crash, Outcome::Crashed(_)) => true,
            _ => false,
        }
    }
}

/// A booted server process of one kind.
pub enum Server {
    Apache(ApacheWorker),
    Sendmail(Sendmail),
    Pine(Pine),
    Mutt(Mutt),
    Mc(Mc),
}

/// Messages in a standard Pine boot (its seed mailbox).
pub const PINE_SEED: usize = foc_servers::image::PINE_SEED_MESSAGES;
/// Messages in a standard Mutt boot.
pub const MUTT_SEED: usize = foc_servers::image::MUTT_SEED_MESSAGES;
/// Entries in MC's file table right after a standard boot.
pub const MC_BOOT_FILES: i64 = 3;
/// MC's file-table capacity (`struct fentry fs[128]`).
pub const MC_TABLE: i64 = 128;

impl Server {
    /// Boots through the driver's public `boot_spec` over the standard
    /// environment (a checkpoint restore once the kind has booted once).
    pub fn boot(kind: ServerKind, spec: &BootSpec) -> Server {
        match kind {
            ServerKind::Apache => Server::Apache(ApacheWorker::boot_spec(spec)),
            ServerKind::Sendmail => Server::Sendmail(Sendmail::boot_spec(spec)),
            ServerKind::Pine => {
                Server::Pine(Pine::boot_spec(spec, Pine::standard_mailbox(PINE_SEED)))
            }
            ServerKind::Mutt => Server::Mutt(Mutt::boot_spec(spec, MUTT_SEED)),
            ServerKind::Mc => Server::Mc(Mc::boot_spec(spec, &foc_servers::mc::clean_config())),
        }
    }

    /// The same standard boot without the caches: boot the given image,
    /// freeze it and restore it, which is the work the first
    /// `boot_spec` of a kind does after compiling.
    pub fn boot_uncached(
        kind: ServerKind,
        image: &foc_compiler::ProgramImage,
        spec: &BootSpec,
    ) -> Server {
        match kind {
            ServerKind::Apache => Server::Apache(ApacheWorker::restore(
                &ApacheWorker::boot_image_spec(image, spec).checkpoint(),
            )),
            ServerKind::Sendmail => Server::Sendmail(Sendmail::restore(
                &Sendmail::boot_image_spec(image, spec).checkpoint(),
            )),
            ServerKind::Pine => Server::Pine(Pine::restore(
                &Pine::boot_image_spec(image, spec, Pine::standard_mailbox(PINE_SEED)).checkpoint(),
            )),
            ServerKind::Mutt => Server::Mutt(Mutt::restore(
                &Mutt::boot_image_spec(image, spec, MUTT_SEED).checkpoint(),
            )),
            ServerKind::Mc => Server::Mc(Mc::restore(
                &Mc::boot_image_spec(image, spec, &foc_servers::mc::clean_config()).checkpoint(),
            )),
        }
    }

    pub fn process(&self) -> &Process {
        match self {
            Server::Apache(s) => s.process(),
            Server::Sendmail(s) => s.process(),
            Server::Pine(s) => s.process(),
            Server::Mutt(s) => s.process(),
            Server::Mc(s) => s.process(),
        }
    }

    pub fn is_dead(&self) -> bool {
        self.process().is_dead()
    }

    /// Issues `op` through the driver.
    ///
    /// # Panics
    ///
    /// Panics when the op addresses another kind of server (a workload
    /// generator bug).
    pub fn apply(&mut self, op: &Op) -> Measured {
        match (op, self) {
            (Op::ApacheGet(path), Server::Apache(s)) => s.get(path),
            (Op::ApacheAttack, Server::Apache(s)) => s.get(attacks().apache.as_slice()),
            (Op::SendmailReceive { from, to, body }, Server::Sendmail(s)) => {
                s.receive(from, to, body)
            }
            (Op::SendmailSend { to, body }, Server::Sendmail(s)) => s.send(to, body),
            (Op::SendmailWakeup, Server::Sendmail(s)) => s.wakeup(),
            (Op::SendmailAttack { to }, Server::Sendmail(s)) => {
                s.receive(&attacks().sendmail, to, b"attack payload")
            }
            (Op::PineDeliver { from, body }, Server::Pine(s)) => s.deliver(from, b"new mail", body),
            (Op::PineRead(i), Server::Pine(s)) => s.read(*i),
            (Op::PineCompose, Server::Pine(s)) => s.compose(),
            (Op::PineMove(i), Server::Pine(s)) => s.move_message(*i),
            (Op::PineAttack, Server::Pine(s)) => s.deliver(&attacks().pine, b"pwn", b"payload"),
            (Op::MuttOpenFolder(name), Server::Mutt(s)) => s.open_folder(name),
            (Op::MuttRead(i), Server::Mutt(s)) => s.read_message(*i),
            (Op::MuttAttack, Server::Mutt(s)) => s.open_folder(&attacks().mutt),
            (Op::McCreate { name, size }, Server::Mc(s)) => {
                let before = s.process().machine().stats().cycles;
                let ret = s.create(name, *size, false);
                let cycles = s.process().machine().stats().cycles - before;
                let outcome = match ret {
                    Some(ret) => Outcome::Done {
                        ret,
                        output: Vec::new(),
                    },
                    None => Outcome::Crashed(foc_vm::VmFault::MachineDead),
                };
                Measured { outcome, cycles }
            }
            (Op::McCopy { src, dst }, Server::Mc(s)) => s.copy(src, dst),
            (Op::McMkdir(name), Server::Mc(s)) => s.mkdir(name),
            (Op::McDelete(name), Server::Mc(s)) => s.delete(name),
            (Op::McComponentEnd(name), Server::Mc(s)) => s.component_end(name),
            (Op::McAttack, Server::Mc(s)) => s.open_archive(&attacks().mc),
            (op, _) => panic!("{} sent to the wrong server kind", op.kind().label()),
        }
    }
}

/// The paper's attack payloads, built once.
pub struct Attacks {
    pub apache: Vec<u8>,
    pub sendmail: Vec<u8>,
    pub pine: Vec<u8>,
    pub mutt: Vec<u8>,
    pub mc: Vec<Vec<u8>>,
}

pub fn attacks() -> &'static Attacks {
    static A: std::sync::OnceLock<Attacks> = std::sync::OnceLock::new();
    A.get_or_init(|| Attacks {
        apache: foc_servers::apache::attack_url(),
        sendmail: foc_servers::sendmail::attack_address(40),
        pine: foc_servers::pine::attack_from(40),
        mutt: foc_servers::mutt::attack_folder_name(40),
        mc: foc_servers::mc::attack_links(),
    })
}

/// The expectation for a request under `mode`: attacks crash under
/// Bounds Check and complete under Failure Oblivious; legitimate
/// requests always complete, with the exact return value where the
/// client can know it (`ret` from the workload's own model).
pub fn expect(mode: Mode, op: OpKind, ret: Option<i64>) -> Expect {
    if op.is_attack() && mode == Mode::BoundsCheck {
        return Expect::Crash;
    }
    match ret {
        Some(r) => Expect::Ret(r),
        None => Expect::Survive,
    }
}
