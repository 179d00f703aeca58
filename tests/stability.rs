//! Stability runs (§4.2.4, §4.3.4, §4.4.4, §4.5.4, §4.6.4), scaled down:
//! the paper deployed the failure-oblivious servers for days to months
//! with attacks interleaved into daily workloads; we compress each study
//! into hundreds of requests with the same interleaving structure and
//! assert zero anomalies.

use failure_oblivious::memory::Mode;
use failure_oblivious::servers::{apache, mc, mutt, pine, sendmail, workload};
use failure_oblivious::servers::{BootSpec, ServerKind};

/// Pine: "we used Pine to process roughly 25 new mail messages a day...
/// periodically sent an email that triggered the memory error... executed
/// successfully through all errors to perform all requests flawlessly."
#[test]
fn pine_stability_with_periodic_attacks() {
    let mut p = pine::Pine::boot_spec(
        &BootSpec::new(ServerKind::Pine, Mode::FailureOblivious),
        pine::Pine::standard_mailbox(10),
    );
    assert!(p.usable());
    let mut delivered = 10i64;
    for day in 0..12u64 {
        // A day's mail, with one attack message mixed in.
        for n in 0..8 {
            let seed = day * 100 + n;
            let r = if n == 3 {
                p.deliver(&pine::attack_from(40), b"pwn attempt", b"ignore me")
            } else {
                p.deliver(
                    &workload::from_field(seed),
                    format!("day {day} msg {n}").as_bytes(),
                    &workload::lorem(600, seed),
                )
            };
            assert!(r.outcome.survived(), "day {day} msg {n}: {:?}", r.outcome);
            delivered += 1;
        }
        // The user reads, composes, and files messages.
        assert_eq!(p.read(delivered - 2).outcome.ret(), Some(0), "day {day}");
        assert_eq!(p.compose().outcome.ret(), Some(0));
        assert_eq!(p.move_message(delivered - 1).outcome.ret(), Some(0));
        delivered -= 1; // one message moved out
    }
    assert!(p.usable(), "Pine must still be serving after the run");
}

/// Apache: "we have been using the Failure Oblivious version to serve our
/// research project's web site... periodically presented the web server
/// with requests that triggered the vulnerability... no anomalous
/// behavior."
#[test]
fn apache_stability_mixed_traffic() {
    let mut pool = apache::ApachePool::new(Mode::FailureOblivious, 3);
    let mut ok = 0;
    for i in 0..400usize {
        let outcome = match i % 10 {
            0 => pool.get(&apache::attack_url()),
            1 => pool.get(&apache::rewrite_url(3)),
            2 => pool.get(b"/big.bin"),
            3 => pool.get(b"/nonexistent.html"),
            _ => pool.get(b"/index.html"),
        };
        assert!(outcome.survived(), "request {i} dropped: {outcome:?}");
        if outcome.ret() == Some(200) {
            ok += 1;
        }
    }
    assert_eq!(pool.child_deaths, 0, "no FO child may ever die");
    assert!(ok >= 320, "served {ok} OK responses");
}

/// Sendmail: "used it to send and receive hundreds of thousands of email
/// messages... repeatedly sent the attack message through the daemon,
/// which continued through the attack to correctly process all subsequent
/// commands."
#[test]
fn sendmail_stability_with_attacks_and_wakeups() {
    let mut sm =
        sendmail::Sendmail::boot_spec(&BootSpec::new(ServerKind::Sendmail, Mode::FailureOblivious));
    assert!(sm.usable());
    let mut expect_delivered = 0;
    for i in 0..120u64 {
        sm.wakeup();
        if i % 7 == 0 {
            let r = sm.mail_from(&sendmail::attack_address(100 + (i % 40) as usize * 5));
            assert_eq!(r.outcome.ret(), Some(501), "attack {i} must be rejected");
        } else {
            let r = sm.receive(
                &workload::sendmail_address(i),
                &workload::sendmail_address(10_000 + i),
                &workload::lorem(100 + (i as usize % 8) * 400, i),
            );
            assert_eq!(r.outcome.ret(), Some(250), "message {i} must deliver");
            expect_delivered += 1;
        }
    }
    // Every legitimate message was delivered, none lost or duplicated.
    assert_eq!(sm.delivered_count(), Some(expect_delivered));
    // The wake-up memory error fired throughout (the §3 log at work).
    let log = sm.process().machine().space().error_log();
    assert!(
        log.total_reads() >= 120,
        "wake-up errors: {}",
        log.total_reads()
    );
}

/// Midnight Commander: "he used the Failure Oblivious version to manage
/// his files. Periodically... attempted to open the problematic archive
/// ... then went back to using the Midnight Commander to accomplish his
/// work." The config also contains the blank line that disables the
/// Bounds Check version.
#[test]
fn mc_stability_daily_use() {
    let mut m = mc::Mc::boot_spec(
        &BootSpec::new(ServerKind::Mc, Mode::FailureOblivious),
        &mc::config_with_blank_line(),
    );
    assert!(m.usable(), "FO MC must start despite the blank config line");
    for session in 0..10 {
        // Periodically open the problematic archive...
        let r = m.open_archive(&mc::attack_links());
        assert!(r.outcome.survived(), "session {session}");
        // ...then do real work.
        let base = format!("/work/file{session}");
        m.create(base.as_bytes(), 50_000, false);
        let copy = m.copy(base.as_bytes(), format!("{base}.bak").as_bytes());
        assert_eq!(copy.outcome.ret(), Some(50_000), "session {session}");
        let mk = m.mkdir(format!("/work/dir{session}").as_bytes());
        assert!(mk.outcome.ret().unwrap_or(-1) >= 0);
        let del = m.delete(format!("{base}.bak").as_bytes());
        assert_eq!(del.outcome.ret(), Some(0));
    }
}

/// Mutt: "we configured Mutt to trigger the security vulnerability when
/// it loaded... successfully executed through the resulting memory errors
/// to correctly execute all of his requests."
#[test]
fn mutt_stability_attack_at_every_load() {
    for round in 0..6 {
        let mut mt =
            mutt::Mutt::boot_spec(&BootSpec::new(ServerKind::Mutt, Mode::FailureOblivious), 6);
        // The configured (malicious) folder is tried at startup.
        let r = mt.open_folder(&mutt::attack_folder_name(40));
        assert_eq!(r.outcome.ret(), Some(-1), "round {round}");
        // The user then works normally.
        assert_eq!(mt.open_folder(b"INBOX").outcome.ret(), Some(0));
        for i in 0..6 {
            assert_eq!(
                mt.read_message(i).outcome.ret(),
                Some(0),
                "round {round} msg {i}"
            );
        }
        assert_eq!(mt.move_message(0, b"archive").outcome.ret(), Some(0));
        assert_eq!(mt.message_count(), Some(5));
    }
}

/// A large-mailbox pass (the paper used >100,000 messages; we scale to
/// hundreds but keep the structure: bulk load, then full scan).
#[test]
fn mutt_large_mailbox_scan() {
    let mut mt = mutt::Mutt::boot_spec(&BootSpec::new(ServerKind::Mutt, Mode::FailureOblivious), 0);
    for i in 0..60u64 {
        assert!(mt
            .add_message(
                &workload::from_field(i),
                format!("bulk {i}").as_bytes(),
                &workload::lorem(900, i),
            )
            .is_some());
    }
    assert_eq!(mt.open_folder(b"INBOX").outcome.ret(), Some(0));
    for i in 0..60 {
        assert_eq!(mt.read_message(i).outcome.ret(), Some(0), "msg {i}");
    }
    assert_eq!(mt.message_count(), Some(60));
}

/// Memory does not leak across a long failure-oblivious run: unit slots
/// and OOB descriptors are recycled, keeping live bookkeeping bounded.
#[test]
fn bookkeeping_stays_bounded_over_long_runs() {
    let mut sm =
        sendmail::Sendmail::boot_spec(&BootSpec::new(ServerKind::Sendmail, Mode::FailureOblivious));
    let mut peak_units = 0;
    for i in 0..200u64 {
        if i % 5 == 0 {
            sm.mail_from(&sendmail::attack_address(80));
        } else {
            sm.receive(
                &workload::sendmail_address(i),
                &workload::sendmail_address(999),
                b"steady state",
            );
        }
        peak_units = peak_units.max(sm.process().machine().space().live_units());
    }
    assert!(
        peak_units < 200,
        "live data units must stay bounded, peaked at {peak_units}"
    );
}
