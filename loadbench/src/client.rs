//! The direct closed-loop client: each client thread owns its server
//! processes and replays one seeded round of requests over and over,
//! waiting for every reply before sending the next request. A round
//! starts from freshly booted processes, so every replay must retire
//! exactly the same guest work (the drift guard) and produce the same
//! transcript digest.

use std::time::{Duration, Instant};

use foc_memory::Mode;
use foc_servers::{BootSpec, Outcome, ServerKind};

use crate::server::{Expect, Op, OpKind, Server};
use crate::stats::{Digest, Hist};
use crate::trace::Tracer;

/// One request and what its outcome must be.
#[derive(Clone, Debug)]
pub struct Step {
    pub op: Op,
    pub expect: Expect,
}

/// A client's round: the server kinds it runs, the requests it sends,
/// and the MC files every MC boot is seeded with before serving.
#[derive(Clone, Debug)]
pub struct Script {
    pub mode: Mode,
    pub kinds: Vec<ServerKind>,
    pub mc_seed: Vec<Step>,
    pub steps: Vec<Step>,
    /// Replace a dead process before its next request (the supervisor).
    /// Without it a death is a check failure.
    pub replace_dead: bool,
}

/// Per request type, over traced rounds.
#[derive(Default, Clone)]
pub struct OpAgg {
    pub durations: Hist,
    pub instrs: u64,
    pub checked: u64,
}

/// Layer counters summed over the driver calls of traced rounds; `ops`
/// is indexed by [`OpKind::index`] and empty until a traced call.
#[derive(Default, Clone)]
pub struct Layers {
    pub requests: u64,
    pub driver_ns: u64,
    pub instrs: u64,
    pub calls: u64,
    pub checked: u64,
    pub violations: u64,
    pub mallocs: u64,
    pub replace: Hist,
    pub ops: Vec<OpAgg>,
}

impl Layers {
    pub fn merge(&mut self, other: &Layers) {
        if self.ops.is_empty() {
            self.ops = other.ops.clone();
        } else {
            for (a, b) in self.ops.iter_mut().zip(&other.ops) {
                a.durations.merge(&b.durations);
                a.instrs += b.instrs;
                a.checked += b.checked;
            }
        }
        self.requests += other.requests;
        self.driver_ns += other.driver_ns;
        self.instrs += other.instrs;
        self.calls += other.calls;
        self.checked += other.checked;
        self.violations += other.violations;
        self.mallocs += other.mallocs;
        self.replace.merge(&other.replace);
    }
}

/// Where one replay's measurements go.
#[derive(Default)]
pub struct Sink {
    /// Latency of every request of untraced rounds.
    pub latency: Hist,
    /// Summed latency of the requests of traced rounds.
    pub traced_latency_ns: u64,
    pub layers: Layers,
}

/// What one replay of the round did.
pub struct Round {
    pub traced: bool,
    pub requests: u64,
    pub completed: u64,
    pub host_ns: u64,
    /// Guest instructions and virtual cycles retired (drift guard).
    pub instrs: u64,
    pub cycles: u64,
    pub replacements: u64,
    pub digest: Digest,
}

/// Everything a client thread measured.
pub struct ClientRun {
    /// Completed requests per host second, per round.
    pub untraced_rates: Vec<f64>,
    pub traced_rates: Vec<f64>,
    pub requests: u64,
    pub completed: u64,
    pub replacements_per_round: u64,
    pub sink: Sink,
    pub reference: (Digest, u64, u64),
    /// Requests whose outcome broke its expectation, plus drifted rounds.
    pub failed: u64,
    pub failures: Vec<String>,
    pub tracer: Tracer,
}

/// Bound on recorded check failures per client (the first few explain
/// the problem; the count is what fails the run).
const MAX_FAILURES: usize = 8;

/// Records a failed check, keeping the first few descriptions.
pub fn fail(failures: &mut Vec<String>, failed: &mut u64, what: String) {
    *failed += 1;
    if failures.len() < MAX_FAILURES {
        failures.push(what);
    }
}

struct Counters {
    instrs: u64,
    calls: u64,
    checked: u64,
    violations: u64,
    mallocs: u64,
}

fn counters(server: &Server) -> Counters {
    let m = server.process().machine();
    let run = m.stats();
    let mem = m.space().stats();
    Counters {
        instrs: run.instrs,
        calls: run.calls,
        checked: mem.checked_accesses,
        violations: mem.invalid_reads + mem.invalid_writes,
        mallocs: mem.mallocs,
    }
}

struct Replay<'a> {
    script: &'a Script,
    specs: &'a [BootSpec],
    tracer: &'a mut Tracer,
    sink: &'a mut Sink,
    failures: &'a mut Vec<String>,
    failed: &'a mut u64,
    round: Round,
}

impl Replay<'_> {
    /// One driver call: span, counters, expectation, digest.
    fn call(&mut self, server: &mut Server, step: &Step, request: u32) -> bool {
        let kind = step.op.kind();
        let before = counters(server);
        let a = Instant::now();
        self.tracer.open_at(kind.span(), request, a);
        let measured = server.apply(&step.op);
        let b = Instant::now();
        self.tracer.close_at(b);
        let after = counters(server);
        let instrs = after.instrs - before.instrs;
        self.round.instrs += instrs;
        self.round.cycles += measured.cycles;
        if self.round.traced {
            let l = &mut self.sink.layers;
            let ns = b.duration_since(a).as_nanos() as u64;
            l.driver_ns += ns;
            l.instrs += instrs;
            l.calls += after.calls - before.calls;
            l.checked += after.checked - before.checked;
            l.violations += after.violations - before.violations;
            l.mallocs += after.mallocs - before.mallocs;
            if l.ops.is_empty() {
                l.ops = vec![OpAgg::default(); OpKind::ALL.len()];
            }
            let agg = &mut l.ops[kind.index()];
            agg.durations.record(ns);
            agg.instrs += instrs;
            agg.checked += after.checked - before.checked;
        }
        let d = &mut self.round.digest;
        d.u64(kind.index() as u64);
        match &measured.outcome {
            Outcome::Done { ret, output } => {
                d.u64(*ret as u64);
                d.u64(output.len() as u64);
                d.bytes(output);
            }
            Outcome::Crashed(fault) => d.bytes(format!("crash {fault:?}").as_bytes()),
        }
        d.u64(measured.cycles);
        if !step.expect.holds(&measured.outcome) {
            let got = match &measured.outcome {
                Outcome::Done { ret, .. } => format!("ret {ret}"),
                Outcome::Crashed(fault) => format!("crash {fault:?}"),
            };
            fail(
                self.failures,
                self.failed,
                format!("{}: expected {:?}, got {got}", kind.label(), step.expect),
            );
        }
        measured.outcome.survived()
    }

    /// Boots (or replaces) the process of `slot` inside the current
    /// request, seeding MC's files.
    fn boot(&mut self, procs: &mut [Option<Server>], slot: usize, request: u32) {
        let kind = self.script.kinds[slot];
        let replacing = procs[slot].is_some();
        let started = Instant::now();
        let span = if replacing {
            "supervisor.replace"
        } else {
            "session.start"
        };
        self.tracer.open_at(span, request, started);
        drop(procs[slot].take());
        let mut server = Server::boot(kind, &self.specs[slot]);
        if kind == ServerKind::Mc {
            for step in &self.script.mc_seed {
                self.call(&mut server, step, request);
            }
        }
        procs[slot] = Some(server);
        let done = Instant::now();
        self.tracer.close_at(done);
        if replacing {
            self.round.replacements += 1;
            if self.round.traced {
                let ns = done.duration_since(started).as_nanos() as u64;
                self.sink.layers.replace.record(ns);
            }
        }
    }

    fn run(&mut self) {
        let started = Instant::now();
        let mut procs: Vec<Option<Server>> = self.script.kinds.iter().map(|_| None).collect();
        for step in &self.script.steps {
            let slot = self
                .script
                .kinds
                .iter()
                .position(|&k| k == step.op.server())
                .expect("step addresses a server kind the script does not run");
            let request = self.tracer.new_request();
            let t0 = Instant::now();
            self.tracer.open_at("request", request, t0);
            let needs_boot = procs[slot].as_ref().is_none_or(Server::is_dead);
            if needs_boot {
                if procs[slot].is_some() && !self.script.replace_dead {
                    let what = format!(
                        "{} died under {:?}",
                        step.op.server().name(),
                        self.script.mode
                    );
                    fail(self.failures, self.failed, what);
                }
                self.boot(&mut procs, slot, request);
            }
            let server = procs[slot].as_mut().expect("booted above");
            let survived = self.call(server, step, request);
            let t1 = Instant::now();
            self.tracer.close_at(t1);
            self.round.requests += 1;
            self.round.completed += u64::from(survived);
            let ns = t1.duration_since(t0).as_nanos() as u64;
            if self.round.traced {
                self.sink.traced_latency_ns += ns;
                self.sink.layers.requests += 1;
            } else {
                self.sink.latency.record(ns);
            }
        }
        drop(procs);
        self.round.host_ns = started.elapsed().as_nanos() as u64;
    }
}

/// Boot specs of a script's kinds: the shipped defaults for its mode.
pub fn specs(script: &Script) -> Vec<BootSpec> {
    script
        .kinds
        .iter()
        .map(|&k| BootSpec::new(k, script.mode))
        .collect()
}

/// Runs one replay of `script` from freshly booted processes.
pub fn run_round(
    script: &Script,
    specs: &[BootSpec],
    tracer: &mut Tracer,
    traced: bool,
    sink: &mut Sink,
    failures: &mut Vec<String>,
    failed: &mut u64,
) -> Round {
    tracer.set_on(traced);
    let mut replay = Replay {
        script,
        specs,
        tracer,
        sink,
        failures,
        failed,
        round: Round {
            traced,
            requests: 0,
            completed: 0,
            host_ns: 0,
            instrs: 0,
            cycles: 0,
            replacements: 0,
            digest: Digest::default(),
        },
    };
    replay.run();
    let round = replay.round;
    tracer.end_round();
    tracer.set_on(false);
    round
}

/// Checks a replay against the first one: same transcript digest, same
/// guest instructions and virtual cycles.
pub fn check_drift(
    reference: (Digest, u64, u64),
    round: &Round,
    failures: &mut Vec<String>,
    failed: &mut u64,
) {
    let totals = (round.digest, round.instrs, round.cycles);
    if totals != reference {
        fail(
            failures,
            failed,
            format!("round drifted: digest/instrs/cycles {totals:?}, first round {reference:?}"),
        );
    }
}

/// Replays `script` once untimed (warm-up and the reference transcript),
/// then for `seconds`, tracing every other round when `trace` is set.
pub fn run_client(
    script: &Script,
    seconds: Duration,
    trace: bool,
    mut tracer: Tracer,
) -> ClientRun {
    let specs = specs(script);
    let mut failures = Vec::new();
    let mut failed = 0u64;
    let mut sink = Sink::default();
    let warm = run_round(
        script,
        &specs,
        &mut tracer,
        false,
        &mut Sink::default(),
        &mut failures,
        &mut failed,
    );
    let reference = (warm.digest, warm.instrs, warm.cycles);
    let (mut untraced_rates, mut traced_rates) = (Vec::new(), Vec::new());
    let (mut requests, mut completed) = (0, 0);
    let deadline = Instant::now() + seconds;
    // At least one round of each kind, however short the run.
    let min_rounds = if trace { 2 } else { 1 };
    let mut rounds = 0usize;
    while Instant::now() < deadline || rounds < min_rounds {
        let traced = trace && rounds % 2 == 1;
        let round = run_round(
            script,
            &specs,
            &mut tracer,
            traced,
            &mut sink,
            &mut failures,
            &mut failed,
        );
        check_drift(reference, &round, &mut failures, &mut failed);
        let rate = round.completed as f64 / (round.host_ns as f64 / 1e9);
        if traced {
            traced_rates.push(rate);
        } else {
            untraced_rates.push(rate);
        }
        requests += round.requests;
        completed += round.completed;
        rounds += 1;
    }
    ClientRun {
        untraced_rates,
        traced_rates,
        requests,
        completed,
        replacements_per_round: warm.replacements,
        sink,
        reference,
        failed,
        failures,
        tracer,
    }
}
