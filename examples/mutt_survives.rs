//! The paper's running example (§2, Figure 1): Mutt's UTF-8 → UTF-7
//! conversion overflow, end to end, under all three compilers.
//!
//! ```text
//! cargo run --example mutt_survives
//! ```

use failure_oblivious::memory::Mode;
use failure_oblivious::servers::mutt::{attack_folder_name, Mutt};
use failure_oblivious::servers::Outcome;
use failure_oblivious::servers::{BootSpec, ServerKind};

fn main() {
    let attack = attack_folder_name(40);
    println!(
        "attack folder name: {} bytes alternating control/printable\n",
        attack.len()
    );

    for mode in [Mode::Standard, Mode::BoundsCheck, Mode::FailureOblivious] {
        println!("=== {} version ===", mode.name());
        let mut mutt = Mutt::boot_spec(&BootSpec::new(ServerKind::Mutt, mode), 3);

        // The user's client is configured to open the malicious folder.
        let r = mutt.open_folder(&attack);
        match &r.outcome {
            Outcome::Done { ret, .. } => println!(
                "  open(attack folder) -> rc {ret}  (folder rejected by IMAP error handling)"
            ),
            Outcome::Crashed(f) => println!("  open(attack folder) -> MUTT DIED: {f}"),
        }

        // Can the user still read their mail?
        let inbox = mutt.open_folder(b"INBOX");
        let read = mutt.read_message(0);
        match &read.outcome {
            Outcome::Done { ret: 0, .. } => {
                let moved = mutt.move_message(1, b"archive");
                println!(
                    "  open INBOX -> rc {:?};  read msg 0 -> ok;  move msg 1 -> rc {:?}",
                    inbox.outcome.ret(),
                    moved.outcome.ret()
                );
                let log = mutt.process().machine().space().error_log();
                println!(
                    "  memory-error log: {} invalid writes discarded",
                    log.total_writes()
                );
                println!("  => the user keeps processing mail (§4.6.2)");
            }
            Outcome::Done { ret, .. } => println!("  read msg 0 -> unexpected rc {ret}"),
            Outcome::Crashed(_) => {
                println!("  read msg 0 -> impossible, the process is gone");
                println!("  => the user cannot read mail at all");
            }
        }
        println!();
    }
}
