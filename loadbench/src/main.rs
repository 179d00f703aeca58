//! End-to-end benchmark of the failure-oblivious servers.
//!
//! ```text
//! cargo run --release --offline --manifest-path loadbench/Cargo.toml -- \
//!     --workload <mc_copy|mail_socket|restart_storm> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Closed-loop clients drive the servers through their public entry
//! points (driver `boot_spec` and request methods, `run_farm`) in the
//! shipped default configuration, for `--seconds`, checking every
//! outcome. With `--trace 0` the last stdout line is a JSON object with
//! the end-to-end metrics; with `--trace 1` tracing alternates with
//! untraced rounds and the object carries the per-layer metrics.
//! `loadbench/README.md` documents the workloads and metrics.

mod client;
mod farmrun;
mod rng;
mod server;
mod setup;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use foc_memory::Mode;
use foc_servers::conn::Edge;
use foc_servers::ServerKind;

use std::collections::BTreeMap;

use client::{ClientRun, Layers, OpAgg, Sink};
use server::OpKind;
use stats::{median, percentile_sorted, Digest, Hist};
use trace::Tracer;

/// Client threads of the direct workloads: one per core of the 2-core
/// host the benchmark was sized on.
const CLIENTS: u64 = 2;

/// Environment variables that would change the measured configuration.
const PINNED_ENV: [&str; 4] = [
    foc_compiler::EXEC_TIER_ENV,
    foc_memory::LOOKUP_ENV,
    foc_memory::TABLE_ENV,
    foc_servers::conn::EDGE_ENV,
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Workload {
    McCopy,
    MailSocket,
    RestartStorm,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "mc_copy" => Some(Workload::McCopy),
            "mail_socket" => Some(Workload::MailSocket),
            "restart_storm" => Some(Workload::RestartStorm),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::McCopy => "mc_copy",
            Workload::MailSocket => "mail_socket",
            Workload::RestartStorm => "restart_storm",
        }
    }

    /// The server kinds the workload boots, with their modes.
    fn servers(self) -> Vec<(ServerKind, Mode)> {
        match self {
            Workload::McCopy => vec![(ServerKind::Mc, Mode::FailureOblivious)],
            Workload::MailSocket => farmrun::KINDS
                .iter()
                .map(|&k| (k, Mode::FailureOblivious))
                .collect(),
            Workload::RestartStorm => [ServerKind::Apache, ServerKind::Mutt, ServerKind::Mc]
                .iter()
                .map(|&k| (k, Mode::BoundsCheck))
                .collect(),
        }
    }

    /// The tail percentile. Fixed per workload so the metric means the
    /// same thing on every commit; each is the highest percentile that
    /// leaves at least 10 samples beyond it at the run length the
    /// benchmark uses.
    fn tail(self) -> f64 {
        match self {
            Workload::McCopy | Workload::RestartStorm => 0.99,
            Workload::MailSocket => 0.90,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage(problem: &str) -> ! {
    eprintln!("loadbench: {problem}");
    eprintln!(
        "usage: loadbench --workload <mc_copy|mail_socket|restart_storm> --seed <n> --seconds <s> --trace <0|1>"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value)
                        .unwrap_or_else(|| usage(&format!("unknown workload {value:?}"))),
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse()
                        .unwrap_or_else(|_| usage("--seed takes an integer")),
                )
            }
            "--seconds" => match value.parse::<u64>() {
                Ok(s) if (1..=600).contains(&s) => seconds = Some(s),
                _ => usage("--seconds takes an integer from 1 to 600"),
            },
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => usage("--trace takes 0 or 1"),
            },
            other => usage(&format!("unknown flag {other:?}")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds is required")),
        trace: trace.unwrap_or_else(|| usage("--trace is required")),
    }
}

/// Refuses to measure anything but the shipped default configuration,
/// then prints what that configuration resolves to.
fn pin_configuration() {
    let set: Vec<&str> = PINNED_ENV
        .iter()
        .copied()
        .filter(|v| std::env::var_os(v).is_some())
        .collect();
    if !set.is_empty() {
        eprintln!(
            "loadbench: refusing to run with {} set: the benchmark measures the shipped default configuration",
            set.join(", ")
        );
        std::process::exit(2);
    }
    let spec = foc_servers::BootSpec::new(ServerKind::Mc, Mode::FailureOblivious);
    let farm = foc_servers::farm::FarmConfig::new(ServerKind::Apache, Mode::FailureOblivious);
    println!(
        "config: tier={} lookup={} table={} | farm default: lookup={} table={} edge={} (mail_socket runs edge=socket, {} connections)",
        spec.tier.label(),
        spec.lookup.name(),
        spec.table.name(),
        farm.lookup.name(),
        farm.table.name(),
        farm.edge.label(),
        farmrun::CONNECTIONS,
    );
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

#[derive(Default)]
struct Report {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    metrics: Vec<Metric>,
    notes: Vec<String>,
    digest: Digest,
}

impl Report {
    fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 16 {
            self.failures.push(what);
        }
    }
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Where outputs (span dumps, transcript digests) go: inside the
/// benchmark's own directory of the checkout it was built from.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn main() {
    let args = parse_args();
    pin_configuration();
    println!(
        "loadbench: workload={} seed={} seconds={} trace={} clients={} cores={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if args.workload == Workload::MailSocket {
            farmrun::THREADS as u64
        } else {
            CLIENTS
        },
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    let epoch = Instant::now();
    let mut canary_ns = stats::canary_probes();
    stats::reset_peak_rss();

    let mut report = Report::default();
    let mut setup_tracer = Tracer::new(epoch, 0);
    let setup = setup::measure(&args.workload.servers(), args.trace, &mut setup_tracer);

    let seconds = Duration::from_secs(args.seconds);
    let tracers = match args.workload {
        Workload::McCopy | Workload::RestartStorm => direct(&args, seconds, epoch, &mut report),
        Workload::MailSocket => mail_socket(&args, seconds, epoch, &mut report),
    };
    let peak_rss_mb = stats::peak_rss_mb();
    canary_ns.extend(stats::canary_probes());
    let canary_median = median(&canary_ns);
    println!(
        "host.canary_ns = {canary_median:.2} ns/step (start {:.1}, end {:.1}; noise witness, not a gate)",
        median(&canary_ns[..3]),
        median(&canary_ns[3..])
    );

    if args.trace {
        report.metric("lang.frontend_ms", setup.frontend_ms, "ms");
        report.metric("compiler.image_ms", setup.compile_ms, "ms");
        report.metric("image.first_boot_ms", setup.boot_ms, "ms");
        report.metric("host.canary_ns", canary_median, "ns");
        let mut spans = vec![setup_tracer.into_spans()];
        spans.extend(tracers.into_iter().map(Tracer::into_spans));
        let path = out_dir().join(format!("trace-{}.tsv", args.workload.name()));
        match trace::write_tsv(&path, &spans) {
            Ok(()) => println!("spans: {}", path.display()),
            Err(e) => report.fail(format!("writing {}: {e}", path.display())),
        }
    } else {
        report.metric("setup_s", setup.total_s, "s");
        report.metric("peak_rss_mb", peak_rss_mb, "MB");
    }
    check_digest(&args, &mut report);
    finish(report);
}

/// The direct workloads: `CLIENTS` closed-loop client threads. Returns
/// their span recorders.
fn direct(args: &Args, seconds: Duration, epoch: Instant, report: &mut Report) -> Vec<Tracer> {
    let scripts: Vec<client::Script> = (0..CLIENTS)
        .map(|c| match args.workload {
            Workload::McCopy => workloads::mc_copy(args.seed, c),
            _ => workloads::restart_storm(args.seed, c),
        })
        .collect();
    let runs: Vec<ClientRun> = std::thread::scope(|s| {
        let handles: Vec<_> = scripts
            .iter()
            .enumerate()
            .map(|(c, script)| {
                let tracer = Tracer::new(epoch, c as u32 + 1);
                s.spawn(move || client::run_client(script, seconds, args.trace, tracer))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });

    let mut latency = Hist::default();
    let mut layers = Layers::default();
    let (mut completed, mut traced_latency_ns, mut replacements) = (0, 0, 0);
    for run in &runs {
        report.digest.u64(run.reference.0 .0);
        report.digest.u64(run.reference.1);
        report.digest.u64(run.reference.2);
        report.failed += run.failed;
        report.failures.extend(run.failures.iter().cloned());
        report.attempted += run.requests;
        completed += run.completed;
        latency.merge(&run.sink.latency);
        layers.merge(&run.sink.layers);
        traced_latency_ns += run.sink.traced_latency_ns;
        replacements += run.replacements_per_round;
    }
    let rounds: Vec<usize> = runs
        .iter()
        .map(|r| r.untraced_rates.len() + r.traced_rates.len())
        .collect();
    report.notes.push(format!("rounds per client: {rounds:?}"));
    // Each client's rate is the median over its rounds; clients run
    // concurrently, so the system's rate is their sum.
    let rate = |traced: bool| -> f64 {
        runs.iter()
            .map(|r| {
                median(if traced {
                    &r.traced_rates
                } else {
                    &r.untraced_rates
                })
            })
            .sum()
    };

    if !args.trace {
        let q = args.workload.tail();
        let n = latency.len();
        let beyond = n - (q * n as f64).ceil() as u64;
        report.metric("throughput_rps", rate(false), "1/s");
        report.metric("latency_p50_us", latency.percentile(0.5) / 1e3, "us");
        report.metric("latency_tail_us", latency.percentile(q) / 1e3, "us");
        report.notes.push(format!(
            "latency_tail_us is p{} of {n} requests ({beyond} beyond it)",
            q * 100.0
        ));
        if beyond < 10 {
            report
                .notes
                .push("warning: fewer than 10 samples beyond the tail percentile".into());
        }
        report.metric(
            "availability",
            completed as f64 / report.attempted as f64,
            "ratio",
        );
        return Vec::new();
    }

    let overhead_pct = (rate(false) / rate(true) - 1.0) * 100.0;
    let tracers: Vec<Tracer> = runs.into_iter().map(|r| r.tracer).collect();
    let unattributed = request_accounting(&tracers, traced_latency_ns, report);
    layer_metrics(report, &layers, replacements as f64);
    // No farm and no socket edge on the direct workloads.
    report.metric("edge.overhead_ratio", 0.0, "ratio");
    report.metric("edge.us_per_req", 0.0, "us");
    report.metric("farm.inprocess_rps", 0.0, "1/s");
    report.metric("trace.overhead_pct", overhead_pct, "%");
    report.metric("trace.unattributed_pct", unattributed, "%");
    tracers
}

/// Prints the self-time table of the request spans and checks that the
/// self times of the request trees add up to the request time the
/// client measured. Returns the share of request time outside any layer
/// span (the client's own bookkeeping), in percent.
fn request_accounting(tracers: &[Tracer], latency_ns: u64, report: &mut Report) -> f64 {
    let mut totals: BTreeMap<&str, trace::NameTotals> = BTreeMap::new();
    for t in tracers {
        for (name, n) in t.totals() {
            let e = totals.entry(name).or_default();
            e.count += n.count;
            e.total_ns += n.total_ns;
            e.self_ns += n.self_ns;
        }
    }
    totals.retain(|name, _| !name.starts_with("farm.") && !name.starts_with("setup."));
    let request = totals.get("request").copied().unwrap_or_default();
    let self_ns: u64 = totals.values().map(|t| t.self_ns).sum();
    if request.total_ns != latency_ns || self_ns != request.total_ns {
        report.fail(format!(
            "request spans do not account for request time: measured {latency_ns} ns, request spans {} ns, self times {self_ns} ns",
            request.total_ns
        ));
    }
    println!(
        "span self times over {} traced requests ({:.1} ms):",
        request.count,
        secs(request.total_ns) * 1e3
    );
    println!(
        "  {:<28} {:>9} {:>12} {:>12} {:>8}",
        "span", "count", "total_ms", "self_ms", "self_%"
    );
    for (name, t) in &totals {
        println!(
            "  {:<28} {:>9} {:>12.3} {:>12.3} {:>7.2}%",
            name,
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6,
            100.0 * t.self_ns as f64 / request.total_ns.max(1) as f64
        );
    }
    100.0 * request.self_ns as f64 / request.total_ns.max(1) as f64
}

/// The per-layer metrics that come from driver-call counters. A layer
/// or request type the workload does not exercise reads 0.
fn layer_metrics(report: &mut Report, layers: &Layers, replacements_per_round: f64) {
    let req = layers.requests.max(1) as f64;
    let per_req = |v: u64| v as f64 / req;
    report.metric("vm.instrs_per_req", per_req(layers.instrs), "count");
    report.metric("vm.calls_per_req", per_req(layers.calls), "count");
    report.metric(
        "vm.minstr_per_s",
        layers.instrs as f64 / 1e6 / secs(layers.driver_ns.max(1)),
        "Minstr/s",
    );
    report.metric("memory.checked_per_req", per_req(layers.checked), "count");
    report.metric(
        "memory.checked_per_instr",
        layers.checked as f64 / layers.instrs.max(1) as f64,
        "ratio",
    );
    report.metric(
        "memory.violations_per_req",
        per_req(layers.violations),
        "count",
    );
    report.metric("memory.mallocs_per_req", per_req(layers.mallocs), "count");
    report.metric(
        "supervisor.replacements",
        replacements_per_round,
        "count/round",
    );
    let replace_us = if layers.replace.len() == 0 {
        0.0
    } else {
        layers.replace.percentile(0.5) / 1e3
    };
    report.metric("supervisor.replace_us", replace_us, "us");
    let none = OpAgg::default();
    for op in OpKind::ALL {
        let agg = layers.ops.get(op.index()).unwrap_or(&none);
        let n = agg.durations.len();
        let (p50, instrs, checked) = if n == 0 {
            (0.0, 0.0, 0.0)
        } else {
            (
                agg.durations.percentile(0.5) / 1e3,
                agg.instrs as f64 / n as f64,
                agg.checked as f64 / n as f64,
            )
        };
        report.metric(&format!("{}.p50_us", op.span()), p50, "us");
        report.metric(&format!("{}.instrs", op.span()), instrs, "count");
        report.metric(&format!("{}.checked", op.span()), checked, "count");
    }
}

/// `mail_socket`: farm rounds over the socket edge. When tracing, the
/// rounds rotate through socket (untraced), socket (traced), in-process
/// (the edge baseline) and a traced direct replay of the same mix.
/// Returns the span recorder.
fn mail_socket(args: &Args, seconds: Duration, epoch: Instant, report: &mut Report) -> Vec<Tracer> {
    let socket: Vec<_> = farmrun::KINDS
        .iter()
        .map(|&k| farmrun::config(k, args.seed, farmrun::socket_edge()))
        .collect();
    let inprocess: Vec<_> = farmrun::KINDS
        .iter()
        .map(|&k| farmrun::config(k, args.seed, Edge::InProcess))
        .collect();
    // The in-process farms are the reference every socket farm must
    // equal (and the warm-up).
    let reference: Vec<_> = inprocess.iter().map(foc_servers::farm::run_farm).collect();
    let mut tracer = Tracer::new(epoch, 1);
    let mut failures = Vec::new();
    let mut failed = 0u64;
    let warm = farmrun::run_round(&socket, &reference, &mut tracer, &mut failures, &mut failed);
    report.digest = warm.digest;

    let replay = workloads::mail_replay(args.seed);
    let replay_specs = client::specs(&replay);
    let mut replay_ref = None;
    let mut sink = Sink::default();

    // (host µs per request, completed per second) per round, by variant.
    let (mut socket_rounds, mut traced_rounds, mut inproc_rounds) = (vec![], vec![], vec![]);
    let (mut attempted, mut completed) = (0u64, 0u64);
    let deadline = Instant::now() + seconds;
    // At least one round of each variant, however short the run.
    let min_rounds = if args.trace { 4 } else { 1 };
    let mut i = 0usize;
    while Instant::now() < deadline || i < min_rounds {
        let variant = if args.trace { i % 4 } else { 0 };
        i += 1;
        if variant == 3 {
            let round = client::run_round(
                &replay,
                &replay_specs,
                &mut tracer,
                true,
                &mut sink,
                &mut failures,
                &mut failed,
            );
            match replay_ref {
                None => replay_ref = Some((round.digest, round.instrs, round.cycles)),
                Some(r) => client::check_drift(r, &round, &mut failures, &mut failed),
            }
            continue;
        }
        let configs = if variant == 2 { &inprocess } else { &socket };
        tracer.set_on(variant == 1);
        let round =
            farmrun::run_round(configs, &reference, &mut tracer, &mut failures, &mut failed);
        tracer.set_on(false);
        if round.digest != warm.digest {
            client::fail(
                &mut failures,
                &mut failed,
                format!("farm round {i} drifted from the first round"),
            );
        }
        let sample = (
            secs(round.host_ns) * 1e6 / round.requests as f64,
            round.completed as f64 / secs(round.host_ns),
        );
        match variant {
            0 => {
                attempted += round.requests;
                completed += round.completed;
                socket_rounds.push(sample);
            }
            1 => traced_rounds.push(sample),
            _ => inproc_rounds.push(sample),
        }
    }
    report.failed += failed;
    report.failures.extend(failures);
    report.attempted = attempted;
    report
        .notes
        .push(format!("socket farm rounds: {}", socket_rounds.len()));
    let us: Vec<f64> = socket_rounds.iter().map(|s| s.0).collect();
    let rps: Vec<f64> = socket_rounds.iter().map(|s| s.1).collect();

    if !args.trace {
        let mut sorted = us.clone();
        sorted.sort_by(f64::total_cmp);
        let q = args.workload.tail();
        report.metric("throughput_rps", median(&rps), "1/s");
        report.metric("latency_p50_us", median(&us), "us");
        report.metric("latency_tail_us", percentile_sorted(&sorted, q), "us");
        report.notes.push(format!(
            "latency_*_us are host us per request of whole farm rounds (run_farm exposes no per-request host time); tail is p{} of {} rounds ({} beyond it)",
            q * 100.0,
            sorted.len(),
            sorted.len() - (q * sorted.len() as f64).ceil() as usize
        ));
        report.metric("availability", completed as f64 / attempted as f64, "ratio");
        return Vec::new();
    }

    let unattributed = request_accounting(
        std::slice::from_ref(&tracer),
        sink.traced_latency_ns,
        report,
    );
    layer_metrics(report, &sink.layers, 0.0);
    let column = |rounds: &[(f64, f64)], pick: fn(&(f64, f64)) -> f64| -> f64 {
        median(&rounds.iter().map(pick).collect::<Vec<_>>())
    };
    let socket_us = median(&us);
    let inproc_us = column(&inproc_rounds, |s| s.0);
    report.metric("edge.overhead_ratio", socket_us / inproc_us, "ratio");
    report.metric("edge.us_per_req", socket_us - inproc_us, "us");
    report.metric("farm.inprocess_rps", column(&inproc_rounds, |s| s.1), "1/s");
    report.metric(
        "trace.overhead_pct",
        (median(&rps) / column(&traced_rounds, |s| s.1) - 1.0) * 100.0,
        "%",
    );
    report.metric("trace.unattributed_pct", unattributed, "%");
    vec![tracer]
}

/// FNV-1a of this executable, so recorded digests are only compared
/// between runs of the same build.
fn exe_hash() -> u64 {
    let exe = std::env::current_exe().expect("current executable path");
    let bytes = std::fs::read(exe).expect("read current executable");
    let mut d = Digest::default();
    d.bytes(&bytes);
    d.0
}

/// The transcript digest must match across runs of one seed: the first
/// run of a (build, workload, seed) records it, later runs compare.
fn check_digest(args: &Args, report: &mut Report) {
    let dir = out_dir().join("digests");
    let path = dir.join(format!(
        "{}-{}-{:016x}",
        args.workload.name(),
        args.seed,
        exe_hash()
    ));
    let digest = format!("{:016x}", report.digest.0);
    println!("transcript digest: {digest}");
    match std::fs::read_to_string(&path) {
        Ok(recorded) if recorded.trim() != digest => report.fail(format!(
            "transcript digest {digest} differs from {} recorded by an earlier run of this seed",
            recorded.trim()
        )),
        Ok(_) => {}
        Err(_) => {
            let tmp = path.with_extension("tmp");
            let written = std::fs::create_dir_all(&dir)
                .and_then(|_| std::fs::write(&tmp, &digest))
                .and_then(|_| std::fs::rename(&tmp, &path));
            if let Err(e) = written {
                report.fail(format!("recording digest in {}: {e}", path.display()));
            }
        }
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn finish(report: Report) -> ! {
    for note in &report.notes {
        println!("{note}");
    }
    for m in &report.metrics {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
    for f in &report.failures {
        println!("CHECK FAILED: {f}");
    }
    let correct = report.failed == 0;
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {:?}, \"unit\": {}}}",
                json_string(&m.name),
                m.value,
                json_string(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
    std::process::exit(if correct { 0 } else { 1 });
}
