//! Sendmail's double life (§4.4): a daemon that commits a benign memory
//! error on *every wake-up*, plus the prescan stack overflow.
//!
//! This is the paper's sharpest case against terminate-on-first-error:
//! the Bounds Check version dies before it ever serves a message, while
//! the failure-oblivious version logs a steady stream of errors and
//! delivers mail — through repeated attacks.
//!
//! ```text
//! cargo run --example sendmail_daemon
//! ```

use failure_oblivious::memory::Mode;
use failure_oblivious::servers::sendmail::{attack_address, Sendmail};
use failure_oblivious::servers::workload;
use failure_oblivious::servers::Outcome;
use failure_oblivious::servers::{BootSpec, ServerKind};

fn main() {
    for mode in [Mode::Standard, Mode::BoundsCheck, Mode::FailureOblivious] {
        println!("=== {} version ===", mode.name());
        let mut sm = Sendmail::boot_spec(&BootSpec::new(ServerKind::Sendmail, mode));
        match sm.init_outcome() {
            Outcome::Crashed(f) => {
                println!("  daemon died during its first wake-up: {f}");
                println!("  => unusable with or without restarting (§4.7)\n");
                continue;
            }
            Outcome::Done { .. } => println!("  daemon up (first wake-up survived)"),
        }

        // A normal day: mail punctuated by attack messages and wake-ups.
        let mut delivered = 0;
        let mut rejected = 0;
        for i in 0..20u64 {
            sm.wakeup();
            let r = if i % 4 == 3 {
                sm.mail_from(&attack_address(400))
            } else {
                let r = sm.receive(
                    &workload::sendmail_address(i),
                    &workload::sendmail_address(100 + i),
                    &workload::lorem(300, i),
                );
                if r.outcome.ret() == Some(250) {
                    delivered += 1;
                }
                r
            };
            match &r.outcome {
                Outcome::Done { ret: 501, .. } => rejected += 1,
                Outcome::Done { .. } => {}
                Outcome::Crashed(f) => {
                    println!("  daemon crashed mid-stream: {f}");
                    break;
                }
            }
        }
        println!("  delivered {delivered} messages, rejected {rejected} attack addresses");
        let log = sm.process().machine().space().error_log();
        println!(
            "  memory-error log: {} total ({} reads, {} writes) — the wake-up error fires every cycle",
            log.total(),
            log.total_reads(),
            log.total_writes()
        );
        println!();
    }
}
