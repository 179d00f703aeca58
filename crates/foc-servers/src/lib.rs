//! The five servers of the paper's evaluation (§4), re-implemented in
//! MiniC with their documented memory errors, plus request drivers.
//!
//! Each module contains:
//!
//! * the MiniC source of the server, written so the vulnerable code path
//!   matches the paper's description (Mutt's `utf8_to_utf7` is
//!   transliterated from Figure 1);
//! * a Rust driver that boots the server under a chosen [`Mode`], feeds it
//!   legitimate and attack requests, and classifies outcomes;
//! * unit tests asserting the paper's qualitative results per mode.
//!
//! The drivers model one OS process per [`foc_vm::Machine`]: a fault kills
//! the process and all its state; `restart` builds a fresh machine and
//! replays initialisation (which may itself fault — the Pine/Mutt/MC
//! situation where the Bounds Check version dies during startup, §4.7).

pub mod apache;
pub mod conn;
pub mod farm;
pub mod image;
pub mod latency;
pub mod mc;
pub mod mutt;
pub mod pine;
pub mod sendmail;
pub mod steal;
pub mod supervisor;
pub mod sweep;
pub mod workload;

pub use image::ServerKind;

pub use foc_compiler::ExecTier;

use foc_compiler::ProgramImage;
use foc_memory::{LookupLayer, Mode, TableKind, ValueSequence};
use foc_vm::{Machine, MachineConfig, VmFault};

/// How one request ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// The server processed the request; `ret` is its status code and
    /// `output` what it wrote.
    Done {
        /// Guest return value.
        ret: i64,
        /// Bytes the guest emitted while serving the request.
        output: Vec<u8>,
    },
    /// The server process died (segfault, memory-error exit, abort...).
    Crashed(VmFault),
}

impl Outcome {
    /// Whether the request completed without killing the process.
    pub fn survived(&self) -> bool {
        matches!(self, Outcome::Done { .. })
    }

    /// Return code, when the process survived.
    pub fn ret(&self) -> Option<i64> {
        match self {
            Outcome::Done { ret, .. } => Some(*ret),
            Outcome::Crashed(_) => None,
        }
    }

    /// Output bytes, when the process survived.
    pub fn output(&self) -> &[u8] {
        match self {
            Outcome::Done { output, .. } => output,
            Outcome::Crashed(_) => &[],
        }
    }
}

/// A measured request: outcome plus virtual time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Measured {
    /// What happened.
    pub outcome: Outcome,
    /// Virtual cycles charged to this request.
    pub cycles: u64,
}

/// A guest address handed out by the driver-side allocator
/// ([`Process::guest_str`]), typed so the alloc/arg/free round-trip
/// can't silently mix addresses with ordinary guest integers or lose
/// bits in unchecked casts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GuestAddr(u64);

impl GuestAddr {
    /// Wraps a raw guest address.
    ///
    /// # Panics
    ///
    /// Panics when the address does not fit the guest calling
    /// convention's `i64` argument slot (the memory map never hands out
    /// such addresses; one here is a harness bug).
    pub fn new(raw: u64) -> GuestAddr {
        assert!(
            i64::try_from(raw).is_ok(),
            "guest address {raw:#x} overflows the i64 argument slot"
        );
        GuestAddr(raw)
    }

    /// The raw address (for direct [`Machine`] APIs).
    pub fn raw(self) -> u64 {
        self.0
    }

    /// The address as a guest call argument. Infallible by the
    /// [`GuestAddr::new`] invariant.
    pub fn arg(self) -> i64 {
        self.0 as i64
    }
}

/// Everything that decides how one guest server process is built: the
/// axes of the mode search-space sweep in one place. Every driver boots
/// through a `boot_spec` (cached) or `boot_image_spec` (explicit image)
/// constructor taking one. `Hash` because the spec is half of the
/// boot-checkpoint cache key (see [`image::boot_checkpoint`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BootSpec {
    /// Access policy.
    pub mode: Mode,
    /// Object-table backend.
    pub table: TableKind,
    /// Manufactured-value strategy for invalid reads.
    pub sequence: ValueSequence,
    /// Per-call instruction budget.
    pub fuel: u64,
    /// Execution tier of the booted image (baseline vs fused
    /// superinstructions). Part of the cache key: fused and unfused
    /// boots never alias in the checkpoint cache, matching their
    /// distinct [`foc_compiler::ProgramId`]s.
    pub tier: ExecTier,
    /// In-bounds lookup layer of the booted space (page map vs direct
    /// table search). Part of the cache key: a cached checkpoint carries
    /// its page map, so paged and table boots never alias.
    pub lookup: LookupLayer,
}

impl BootSpec {
    /// A spec for `kind` under `mode` with every other axis at its
    /// default: the paper's cycling sequence, the kind's standard fuel
    /// budget, and each type's `#[default]` variant — splay table,
    /// native tier, paged lookup. A pure function of its arguments: it
    /// never reads the environment. Bench binaries that let the
    /// operator pick the axes call [`BootSpec::from_env`] once in
    /// `main` instead.
    pub fn new(kind: ServerKind, mode: Mode) -> BootSpec {
        BootSpec {
            mode,
            table: TableKind::default(),
            sequence: ValueSequence::default(),
            fuel: kind.fuel(),
            tier: ExecTier::default(),
            lookup: LookupLayer::default(),
        }
    }

    /// [`BootSpec::new`] with the table backend, execution tier and
    /// lookup layer read from `FOC_TABLE`, `FOC_EXEC_TIER` and
    /// `FOC_LOOKUP` (each unset variable keeps its default). The first
    /// unknown value comes back as a typed [`EnvError`]. Only binaries'
    /// `main` functions call this; library code takes its
    /// configuration as arguments.
    pub fn from_env(kind: ServerKind, mode: Mode) -> Result<BootSpec, EnvError> {
        BootSpec::from_env_with(kind, mode, |var| std::env::var(var).ok())
    }

    /// [`BootSpec::from_env`] over an arbitrary variable source, so the
    /// unknown-value matrix is unit-testable without mutating the
    /// process environment.
    fn from_env_with(
        kind: ServerKind,
        mode: Mode,
        get: impl Fn(&str) -> Option<String>,
    ) -> Result<BootSpec, EnvError> {
        Ok(BootSpec {
            table: parse_axis(foc_memory::TABLE_ENV, get(foc_memory::TABLE_ENV))?,
            tier: parse_axis(
                foc_compiler::EXEC_TIER_ENV,
                get(foc_compiler::EXEC_TIER_ENV),
            )?,
            lookup: parse_axis(foc_memory::LOOKUP_ENV, get(foc_memory::LOOKUP_ENV))?,
            ..BootSpec::new(kind, mode)
        })
    }

    /// Same spec on a different object-table backend.
    pub fn with_table(mut self, table: TableKind) -> BootSpec {
        self.table = table;
        self
    }

    /// Same spec with a different manufactured-value strategy.
    pub fn with_sequence(mut self, sequence: ValueSequence) -> BootSpec {
        self.sequence = sequence;
        self
    }

    /// Same spec with a different per-call instruction budget.
    pub fn with_fuel(mut self, fuel: u64) -> BootSpec {
        self.fuel = fuel;
        self
    }

    /// Same spec on a different execution tier.
    pub fn with_tier(mut self, tier: ExecTier) -> BootSpec {
        self.tier = tier;
        self
    }

    /// Same spec on a different in-bounds lookup layer.
    pub fn with_lookup(mut self, lookup: LookupLayer) -> BootSpec {
        self.lookup = lookup;
        self
    }
}

/// A rejected environment value from [`BootSpec::from_env`]: which
/// variable, what it held, and the parser's diagnostic (which lists the
/// accepted spellings). One error type for every configuration axis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvError {
    /// The environment variable that failed to parse.
    pub var: &'static str,
    /// The rejected value.
    pub value: String,
    /// Why it was rejected, with the valid spellings.
    pub detail: String,
}

impl std::fmt::Display for EnvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}={:?}: {}", self.var, self.value, self.detail)
    }
}

impl std::error::Error for EnvError {}

/// Reads one configuration axis from environment variable `var`: its
/// parsed value, or `T`'s default when unset. The one environment
/// parser of the workspace, shared by [`BootSpec::from_env`] and the
/// bench binaries (which read `FOC_EDGE` through it); like
/// [`BootSpec::from_env`], only binaries' `main` functions call it.
pub fn env_axis<T>(var: &'static str) -> Result<T, EnvError>
where
    T: Default + std::str::FromStr<Err = String>,
{
    parse_axis(var, std::env::var(var).ok())
}

/// Parses `value` of variable `var`, defaulting when absent.
fn parse_axis<T>(var: &'static str, value: Option<String>) -> Result<T, EnvError>
where
    T: Default + std::str::FromStr<Err = String>,
{
    match value {
        Some(value) => value
            .parse()
            .map_err(|detail| EnvError { var, value, detail }),
        None => Ok(T::default()),
    }
}

/// Cap on pooled scratch buffers per process (a driver never has more
/// than a handful of request strings in flight at once).
const SCRATCH_POOL: usize = 4;

/// A frozen [`Process`]: a machine checkpoint plus the boot spec it was
/// built from. Restoring one yields a process byte-identical to the one
/// captured — the unit the per-server boot-checkpoint cache stores and
/// the restart paths restore from.
#[derive(Clone)]
pub struct ProcessCheckpoint {
    machine: foc_vm::Checkpoint,
    spec: BootSpec,
}

impl ProcessCheckpoint {
    /// The boot spec of the captured process.
    pub fn spec(&self) -> &BootSpec {
        &self.spec
    }
}

/// Shared plumbing: one guest process running a compiled server.
pub struct Process {
    machine: Machine,
    spec: BootSpec,
    /// Reusable host-side byte buffers for building request content;
    /// taken with [`Process::scratch`], returned with
    /// [`Process::recycle`] so per-request `Vec` churn stays off the
    /// host allocator at farm scale.
    scratch: Vec<Vec<u8>>,
}

impl Process {
    /// Boots a shared compiled image from a full [`BootSpec`] — every
    /// sweep axis (mode, table backend, value sequence, fuel budget,
    /// execution tier, lookup layer) decided by the caller. This is the
    /// one construction path: every driver constructor boots through
    /// it. The farm's hot path too: no compilation, just
    /// globals/strings allocation — restarts and pool respawns reuse the
    /// interned image.
    ///
    /// # Panics
    ///
    /// Panics when the image fails to load (global region exhaustion —
    /// a harness bug, since the server images are fixed).
    pub fn boot_spec(image: &ProgramImage, spec: &BootSpec) -> Process {
        let config = MachineConfig {
            mem: foc_memory::MemConfig::with_mode(spec.mode)
                .with_table(spec.table)
                .with_sequence(spec.sequence)
                .with_lookup(spec.lookup),
            fuel_per_call: spec.fuel,
        };
        let machine = match Machine::load(image.clone(), config) {
            Ok(m) => m,
            Err(e) => panic!("server image failed to load: {e}"),
        };
        Process {
            machine,
            spec: *spec,
            scratch: Vec::new(),
        }
    }

    /// Freezes this process's current state (machine plus spec) for
    /// later restoration. Captured once after a standard boot, a
    /// checkpoint turns every subsequent supervised restart into a
    /// memcpy instead of a boot-plus-environment replay.
    pub fn checkpoint(&self) -> ProcessCheckpoint {
        ProcessCheckpoint {
            machine: self.machine.checkpoint(),
            spec: self.spec,
        }
    }

    /// Materialises a fresh process in exactly the captured state (the
    /// host-side scratch pool starts empty — it never affects guest
    /// state).
    pub fn restore(ckpt: &ProcessCheckpoint) -> Process {
        Process {
            machine: ckpt.machine.restore(),
            spec: ckpt.spec,
            scratch: Vec::new(),
        }
    }

    /// The policy this process runs under.
    pub fn mode(&self) -> Mode {
        self.spec.mode
    }

    /// The full boot spec this process was built from.
    pub fn spec(&self) -> &BootSpec {
        &self.spec
    }

    /// Takes a cleared reusable byte buffer from the process's scratch
    /// pool (allocating only when the pool is dry). Pair with
    /// [`Process::recycle`]; the take/return shape sidesteps borrow
    /// conflicts with the `&mut self` request methods.
    pub fn scratch(&mut self) -> Vec<u8> {
        self.scratch.pop().unwrap_or_default()
    }

    /// Returns a scratch buffer to the pool, keeping its capacity for
    /// the next request.
    pub fn recycle(&mut self, mut buf: Vec<u8>) {
        if self.scratch.len() < SCRATCH_POOL {
            buf.clear();
            self.scratch.push(buf);
        }
    }

    /// The fuel budget per call.
    pub fn fuel(&self) -> u64 {
        self.spec.fuel
    }

    /// The underlying machine.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Mutable access to the machine (drivers push inputs, read state).
    pub fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// Whether the process has died.
    pub fn is_dead(&self) -> bool {
        self.machine.is_dead()
    }

    /// Calls a guest entry point, measuring the cycles it consumed.
    pub fn request(&mut self, func: &str, args: &[i64]) -> Measured {
        let before = self.machine.stats().cycles;
        let result = self.machine.call(func, args);
        let cycles = self.machine.stats().cycles - before;
        let outcome = match result {
            Ok(ret) => Outcome::Done {
                ret,
                output: self.machine.take_output(),
            },
            Err(fault) => Outcome::Crashed(fault),
        };
        Measured { outcome, cycles }
    }

    /// Copies a byte string into the guest heap, NUL-terminated,
    /// returning the typed address for the call/free round-trip.
    ///
    /// # Panics
    ///
    /// Panics when the guest heap is exhausted (drivers allocate tiny
    /// request strings; exhaustion indicates a harness bug).
    pub fn guest_str(&mut self, bytes: &[u8]) -> GuestAddr {
        GuestAddr::new(
            self.machine
                .alloc_cstring(bytes)
                .expect("guest heap exhausted"),
        )
    }

    /// Frees a driver-allocated guest string.
    pub fn free_guest_str(&mut self, addr: GuestAddr) {
        // Tolerate failure: freeing after a fault is pointless anyway.
        let _ = self.machine.free_guest(addr.raw());
    }
}

/// Mean and sample standard deviation of a series.
pub fn mean_stddev(xs: &[f64]) -> (f64, f64) {
    if xs.is_empty() {
        return (0.0, 0.0);
    }
    let mean = xs.iter().sum::<f64>() / xs.len() as f64;
    if xs.len() < 2 {
        return (mean, 0.0);
    }
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
    (mean, var.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_stddev_basics() {
        let (m, s) = mean_stddev(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((m - 5.0).abs() < 1e-12);
        assert!((s - 2.138089935299395).abs() < 1e-9);
        assert_eq!(mean_stddev(&[]), (0.0, 0.0));
        assert_eq!(mean_stddev(&[3.0]), (3.0, 0.0));
    }

    #[test]
    fn boot_spec_from_env_defaults_when_unset() {
        let spec =
            BootSpec::from_env_with(ServerKind::Pine, Mode::FailureOblivious, |_| None).unwrap();
        assert_eq!(spec.tier, ExecTier::Native);
        assert_eq!(spec.lookup, LookupLayer::Paged);
        assert_eq!(spec.table, TableKind::Splay);
        assert_eq!(spec.mode, Mode::FailureOblivious);
        assert_eq!(spec.fuel, ServerKind::Pine.fuel());
        assert_eq!(spec.sequence, ValueSequence::default());
    }

    #[test]
    fn boot_spec_from_env_parses_every_valid_spelling() {
        for tier in ExecTier::ALL {
            for lookup in LookupLayer::ALL {
                for table in [
                    TableKind::Splay,
                    TableKind::BTree,
                    TableKind::Flat,
                    TableKind::Auto,
                ] {
                    // Upper-case to pin case-insensitivity on all axes.
                    let vals = [
                        (foc_compiler::EXEC_TIER_ENV, tier.label().to_uppercase()),
                        (foc_memory::LOOKUP_ENV, lookup.name().to_uppercase()),
                        (foc_memory::TABLE_ENV, table.name().to_uppercase()),
                    ];
                    let spec = BootSpec::from_env_with(ServerKind::Mutt, Mode::Standard, |var| {
                        vals.iter().find(|(v, _)| *v == var).map(|(_, s)| s.clone())
                    })
                    .unwrap();
                    assert_eq!((spec.tier, spec.lookup, spec.table), (tier, lookup, table));
                }
            }
        }
    }

    #[test]
    fn boot_spec_from_env_rejects_unknown_values_on_every_axis() {
        for (var, value) in [
            (foc_compiler::EXEC_TIER_ENV, "turbo"),
            (foc_compiler::EXEC_TIER_ENV, ""),
            (foc_memory::LOOKUP_ENV, "hashed"),
            (foc_memory::LOOKUP_ENV, "paged "),
            (foc_memory::TABLE_ENV, "rbtree"),
            (foc_memory::TABLE_ENV, "splay,btree"),
        ] {
            let err = BootSpec::from_env_with(ServerKind::Sendmail, Mode::BoundsCheck, |v| {
                (v == var).then(|| value.to_string())
            })
            .expect_err("unknown value must be rejected");
            assert_eq!(err.var, var);
            assert_eq!(err.value, value);
            assert!(
                err.detail.contains("unknown"),
                "diagnostic names the problem: {}",
                err.detail
            );
            let shown = err.to_string();
            assert!(
                shown.contains(var) && shown.contains(&format!("{value:?}")),
                "display carries variable and value: {shown}"
            );
        }
    }

    #[test]
    fn boot_spec_from_env_reports_the_axis_that_failed_first() {
        // Two bad axes: the error must be attributed to one of them
        // (the table axis is read first), never mixed.
        let err = BootSpec::from_env_with(ServerKind::Mc, Mode::Standard, |var| {
            Some(match var {
                v if v == foc_memory::TABLE_ENV => "cuckoo".to_string(),
                _ => "bogus".to_string(),
            })
        })
        .expect_err("bad config must be rejected");
        assert_eq!(err.var, foc_memory::TABLE_ENV);
        assert_eq!(err.value, "cuckoo");
    }

    #[test]
    fn process_boot_and_request() {
        let image = foc_compiler::compile_image("int n = 0; int bump() { n++; return n; }")
            .expect("compiles");
        let spec = BootSpec::new(ServerKind::Apache, Mode::FailureOblivious).with_fuel(1_000_000);
        let mut p = Process::boot_spec(&image, &spec);
        let r1 = p.request("bump", &[]);
        assert_eq!(r1.outcome.ret(), Some(1));
        assert!(r1.cycles > 0);
        let r2 = p.request("bump", &[]);
        assert_eq!(r2.outcome.ret(), Some(2));
    }
}
