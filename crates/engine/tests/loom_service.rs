//! Model-checking the `EngineService` admission-slot handoff under loom.
//!
//! Compiled only under `RUSTFLAGS="--cfg loom"` (the CI `loom` job). With
//! that cfg, `service.rs` routes its `Mutex`/`Condvar`/channel/thread
//! primitives through the `loom` crate, and these tests drive the
//! submit/call/drain/shutdown protocol through `loom::model`. The vendored
//! `loom` stub (see `vendor/loom`) re-runs each scenario many times over
//! real threads rather than exhaustively exploring interleavings; against
//! the registry crate the same tests become exhaustive model checks.
//!
//! The protocol invariants being checked:
//!
//! 1. **Slot conservation** — with capacity 1, two racing submitters
//!    produce `submitted + rejected_overload == 2` and at least one
//!    acceptance; every accepted job delivers exactly one result.
//! 2. **Close/submit handoff** — a submission that observes `accepting`
//!    is processed even if `close` lands immediately after; a submission
//!    sequenced after `close` returns is always `ShuttingDown`.
//! 3. **Drain completeness** — `drain` returns only once every accepted
//!    job has delivered, so `completed == submitted` at shutdown.
//! 4. **Caller-path slots** — jobs run on the calling thread
//!    (`call_spec`) never hold more than `workers` execution slots, even
//!    racing submitted jobs; `executing()` and `outstanding()` return to
//!    0; and a drain racing the calls always returns, so the idle signal
//!    is never lost.
#![cfg(loom)]

use loom::sync::atomic::{AtomicBool, Ordering};
use loom::sync::Arc;
use rlc_engine::{EngineError, EngineService, JobSpec, ServiceConfig};

const DECK: &str = "R1 in n1 25\nC1 n1 0 0.5p\n";

#[test]
fn racing_submitters_conserve_the_admission_slot() {
    loom::model(|| {
        let service = Arc::new(EngineService::start(ServiceConfig {
            workers: 1,
            capacity: 1,
            ..ServiceConfig::default()
        }));
        let racer = {
            let service = Arc::clone(&service);
            loom::thread::spawn(move || match service.submit("b", DECK) {
                Ok(ticket) => {
                    ticket.wait().expect("accepted job delivers a result");
                    true
                }
                Err(EngineError::Overloaded { .. }) => false,
                Err(other) => panic!("unexpected admission error: {other}"),
            })
        };
        let main_accepted = match service.submit("a", DECK) {
            Ok(ticket) => {
                ticket.wait().expect("accepted job delivers a result");
                true
            }
            Err(EngineError::Overloaded { .. }) => false,
            Err(other) => panic!("unexpected admission error: {other}"),
        };
        let racer_accepted = racer.join().expect("racer thread joins");
        assert!(
            main_accepted || racer_accepted,
            "an empty service must accept at least one of two submitters"
        );
        let service = match Arc::try_unwrap(service) {
            Ok(service) => service,
            Err(_) => panic!("all clones joined"),
        };
        let stats = service.shutdown();
        assert_eq!(
            stats.submitted + stats.rejected_overload,
            2,
            "every submission is either admitted or typed-rejected: {stats:?}"
        );
        assert_eq!(
            stats.completed, stats.submitted,
            "every admitted job delivers exactly once: {stats:?}"
        );
        assert_eq!(stats.rejected_shutdown, 0, "{stats:?}");
    });
}

#[test]
fn close_submit_handoff_never_strands_accepted_work() {
    loom::model(|| {
        let service = Arc::new(EngineService::start(ServiceConfig {
            workers: 1,
            capacity: 2,
            ..ServiceConfig::default()
        }));
        let early = service
            .submit("early", DECK)
            .expect("empty service accepts");
        let closer = {
            let service = Arc::clone(&service);
            loom::thread::spawn(move || service.close())
        };
        // Races with `close`: may be admitted or typed-rejected, but never
        // lost either way.
        let late = service.submit("late", DECK);
        closer.join().expect("closer thread joins");
        // Sequenced strictly after `close` returned: always rejected.
        match service.submit("post-close", DECK) {
            Err(EngineError::ShuttingDown { net }) => assert_eq!(net, "post-close"),
            Ok(_) => panic!("submission after close must be rejected"),
            Err(other) => panic!("wrong rejection kind: {other}"),
        }
        early.wait().expect("pre-close job delivers");
        let late_accepted = match late {
            Ok(ticket) => {
                ticket.wait().expect("admitted job delivers despite close");
                true
            }
            Err(EngineError::ShuttingDown { .. }) => false,
            Err(other) => panic!("unexpected admission error: {other}"),
        };
        service.drain();
        assert_eq!(service.outstanding(), 0, "drain returns only when idle");
        let service = match Arc::try_unwrap(service) {
            Ok(service) => service,
            Err(_) => panic!("all clones joined"),
        };
        let stats = service.shutdown();
        assert_eq!(stats.submitted, 1 + u64::from(late_accepted));
        assert_eq!(stats.completed, stats.submitted, "{stats:?}");
        assert!(stats.rejected_shutdown >= 1, "{stats:?}");
    });
}

/// Samples `executing()` until `done`, asserting the slot bound each time.
fn watch_slots(service: &EngineService, done: &AtomicBool) {
    while !done.load(Ordering::Acquire) {
        let executing = service.executing();
        assert!(
            executing <= service.workers(),
            "{executing} jobs hold slots, only {} exist",
            service.workers()
        );
        loom::thread::yield_now();
    }
}

#[test]
fn racing_callers_never_exceed_the_slots() {
    loom::model(|| {
        let service = Arc::new(EngineService::start(ServiceConfig {
            workers: 1,
            capacity: 3,
            ..ServiceConfig::default()
        }));
        let done = Arc::new(AtomicBool::new(false));
        let watcher = {
            let (service, done) = (Arc::clone(&service), Arc::clone(&done));
            loom::thread::spawn(move || watch_slots(&service, &done))
        };
        // Two callers and one submitter race for the single slot.
        let racers: Vec<_> = ["a", "b"]
            .into_iter()
            .map(|name| {
                let service = Arc::clone(&service);
                loom::thread::spawn(move || match service.call_spec(JobSpec::deck(name, DECK)) {
                    Ok((result, _)) => {
                        result.expect("admitted call delivers a result");
                        true
                    }
                    Err(EngineError::Overloaded { .. }) => false,
                    Err(other) => panic!("unexpected admission error: {other}"),
                })
            })
            .collect();
        let submitted = match service.submit("c", DECK) {
            Ok(ticket) => {
                ticket.wait().expect("accepted job delivers a result");
                true
            }
            Err(EngineError::Overloaded { .. }) => false,
            Err(other) => panic!("unexpected admission error: {other}"),
        };
        let accepted = racers
            .into_iter()
            .map(|racer| racer.join().expect("racer joins"))
            .filter(|&accepted| accepted)
            .count()
            + usize::from(submitted);
        done.store(true, Ordering::Release);
        watcher.join().expect("watcher joins");
        assert!(accepted >= 1, "an empty service accepts someone");
        assert_eq!(service.executing(), 0, "every slot is released");
        assert_eq!(service.outstanding(), 0, "nothing is left outstanding");
        let service = match Arc::try_unwrap(service) {
            Ok(service) => service,
            Err(_) => panic!("all clones joined"),
        };
        let stats = service.shutdown();
        assert_eq!(stats.submitted, accepted as u64, "{stats:?}");
        assert_eq!(stats.submitted + stats.rejected_overload, 3, "{stats:?}");
        assert_eq!(stats.completed, stats.submitted, "{stats:?}");
    });
}

#[test]
fn drain_racing_calls_always_sees_idle() {
    loom::model(|| {
        let service = Arc::new(EngineService::start(ServiceConfig {
            workers: 2,
            capacity: 2,
            ..ServiceConfig::default()
        }));
        let caller = {
            let service = Arc::clone(&service);
            loom::thread::spawn(
                move || match service.call_spec(JobSpec::deck("call", DECK)) {
                    Ok((result, _)) => {
                        result.expect("admitted call delivers despite the drain");
                        true
                    }
                    Err(EngineError::ShuttingDown { .. }) => false,
                    Err(other) => panic!("unexpected admission error: {other}"),
                },
            )
        };
        let drainer = {
            let service = Arc::clone(&service);
            // Returns only after the idle signal: a lost wake-up hangs here.
            loom::thread::spawn(move || service.drain())
        };
        let main_accepted = match service.call_spec(JobSpec::deck("main", DECK)) {
            Ok((result, _)) => {
                result.expect("admitted call delivers despite the drain");
                true
            }
            Err(EngineError::ShuttingDown { .. }) => false,
            Err(other) => panic!("unexpected admission error: {other}"),
        };
        drainer.join().expect("drainer returns");
        let caller_accepted = caller.join().expect("caller joins");
        assert_eq!(service.executing(), 0);
        assert_eq!(service.outstanding(), 0);
        // Sequenced after the drain returned: always rejected.
        assert!(matches!(
            service.call_spec(JobSpec::deck("late", DECK)),
            Err(EngineError::ShuttingDown { .. })
        ));
        let service = match Arc::try_unwrap(service) {
            Ok(service) => service,
            Err(_) => panic!("all clones joined"),
        };
        let stats = service.shutdown();
        let accepted = u64::from(main_accepted) + u64::from(caller_accepted);
        assert_eq!(stats.submitted, accepted, "{stats:?}");
        assert_eq!(stats.completed, accepted, "{stats:?}");
        assert_eq!(stats.rejected_shutdown, 3 - accepted, "{stats:?}");
    });
}
