//! `mail_socket`: whole farms through `run_farm`, one per mail-facing
//! server kind per round, carried over the simulated socket edge.

use std::time::Instant;

use foc_memory::Mode;
use foc_servers::conn::{Edge, Scenario, SocketEdge};
use foc_servers::farm::{run_farm, FarmConfig, FarmReport};
use foc_servers::ServerKind;

use crate::stats::Digest;
use crate::trace::{Tracer, NONE};

/// The kinds a round farms, in order.
pub const KINDS: [ServerKind; 4] = [
    ServerKind::Apache,
    ServerKind::Sendmail,
    ServerKind::Pine,
    ServerKind::Mutt,
];

/// Farm shape: as many threads and connections per server as the host
/// has cores (2). Eight servers, each with its own seeded stream, so a
/// round's mix of cheap and expensive requests (a Mutt read costs 100
/// folder opens) varies little from seed to seed, and work stealing can
/// balance the two threads.
pub const SERVERS: usize = 8;
pub const THREADS: usize = 2;
pub const CONNECTIONS: usize = 2;
/// Requests per server per farm.
pub const REQUESTS_PER_SERVER: usize = 32;

/// The socket edge: clean scenario, `CONNECTIONS` client connections.
pub fn socket_edge() -> Edge {
    Edge::Socket(SocketEdge {
        connections: CONNECTIONS,
        scenario: Scenario::Clean,
        ..SocketEdge::default()
    })
}

/// The shipped farm defaults for `kind` under Failure Oblivious (1-in-8
/// attacks, the default restart budget and scheduling grain), resized
/// to the host and seeded from the benchmark seed.
pub fn config(kind: ServerKind, seed: u64, edge: Edge) -> FarmConfig {
    let mut c = FarmConfig::new(kind, Mode::FailureOblivious);
    c.servers = SERVERS;
    c.threads = THREADS;
    c.requests_per_server = REQUESTS_PER_SERVER;
    c.seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ kind.index() as u64;
    c.edge = edge;
    c
}

/// One round: a farm per kind.
pub struct FarmRound {
    pub host_ns: u64,
    pub requests: u64,
    pub completed: u64,
    pub digest: Digest,
}

/// The report fields that describe guest behaviour (host wall time
/// excluded), digested.
pub fn report_digest(d: &mut Digest, report: &FarmReport) {
    d.bytes(format!("{:?}{:?}", report.stats, report.per_server).as_bytes());
}

/// Runs one farm per config, checking each report against the in-process
/// reference of the same config; spans `farm.run` per farm when tracing.
pub fn run_round(
    configs: &[FarmConfig],
    reference: &[FarmReport],
    tracer: &mut Tracer,
    failures: &mut Vec<String>,
    failed: &mut u64,
) -> FarmRound {
    let mut round = FarmRound {
        host_ns: 0,
        requests: 0,
        completed: 0,
        digest: Digest::default(),
    };
    let started = Instant::now();
    for (config, want) in configs.iter().zip(reference) {
        tracer.open("farm.run", NONE);
        let report = run_farm(config);
        tracer.close();
        if report != *want {
            let what = format!(
                "{} farm over {} differs from the in-process farm",
                config.kind.name(),
                config.edge.label()
            );
            crate::client::fail(failures, failed, what);
        }
        if report.stats.deaths != 0 {
            let what = format!(
                "{} died {} times under Failure Oblivious",
                config.kind.name(),
                report.stats.deaths
            );
            crate::client::fail(failures, failed, what);
        }
        round.requests += report.stats.requests;
        round.completed += report.stats.completed;
        report_digest(&mut round.digest, &report);
    }
    round.host_ns = started.elapsed().as_nanos() as u64;
    tracer.end_round();
    round
}
