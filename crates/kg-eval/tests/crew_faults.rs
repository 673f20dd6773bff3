//! Fault-injection matrix for the crew's barrier-index poison protocol
//! (`kg_eval::crew`): crews of 1–8 participants cross a fixed sequence of
//! rendezvous, and a panic is injected at every (rendezvous × participant)
//! pair, the lead and the crew's closing rendezvous included, then at
//! pairs of rendezvous. Every case must
//!
//! * finish by unwinding, never by deadlock — each run sits behind a
//!   channel `recv_timeout`, so a hung crew fails the test instead of
//!   hanging it;
//! * re-raise the first injected panic's payload;
//! * have every participant leave at the same rendezvous: the one the
//!   first panic was headed for.

use kg_eval::crew::{Crew, Seat};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::{mpsc, Once};
use std::time::Duration;

/// Rendezvous each body attends. Index `ROUNDS` names the crew's closing
/// rendezvous, which the bodies do not see.
const ROUNDS: usize = 5;

/// Crew sizes under test.
const SIZES: std::ops::RangeInclusive<usize> = 1..=8;

/// A deadlocked crew is reported after this long.
const HANG: Duration = Duration::from_secs(30);

/// Participant `who` panics on its way to rendezvous `at`.
#[derive(Debug, Clone, Copy)]
struct Fault {
    at: usize,
    who: usize,
}

impl Fault {
    fn message(&self) -> String {
        format!("crew fault at rendezvous {} in participant {}", self.at, self.who)
    }
}

/// How one run ended: the re-raised payload (`None` if the crew finished)
/// and the rendezvous each participant was attending when it left.
#[derive(Debug)]
struct Outcome {
    payload: Option<String>,
    exits: Vec<usize>,
}

/// Silence the injected panics' reports; anything else still prints.
fn quiet_injected_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|m| m.starts_with("crew fault"));
            if !injected {
                default(info);
            }
        }));
    });
}

/// Run a crew of `size` with `faults` injected, on a thread of its own so
/// that a deadlock surfaces as a timeout here.
fn run(size: usize, faults: &[Fault]) -> Outcome {
    let (tx, rx) = mpsc::channel();
    let injected = faults.to_vec();
    std::thread::spawn(move || {
        let exits: Vec<AtomicUsize> = (0..size).map(|_| AtomicUsize::new(usize::MAX)).collect();
        let body = |seat: &mut Seat<'_>| {
            let me = seat.index();
            for at in 0..=ROUNDS {
                exits[me].store(at, Relaxed);
                if let Some(fault) = injected.iter().find(|f| f.at == at && f.who == me) {
                    panic!("{}", fault.message());
                }
                if at < ROUNDS {
                    seat.wait();
                }
            }
        };
        let payload =
            catch_unwind(AssertUnwindSafe(|| Crew::run(size, body, body))).err().map(|p| {
                p.downcast_ref::<String>().cloned().unwrap_or_else(|| "<non-string payload>".into())
            });
        let exits = exits.iter().map(|e| e.load(Relaxed)).collect();
        let _ = tx.send(Outcome { payload, exits });
    });
    rx.recv_timeout(HANG)
        .unwrap_or_else(|_| panic!("crew of {size} with faults {faults:?} deadlocked"))
}

/// Assert that the run unwound with `first`'s payload and that every
/// participant left at `first.at`.
fn assert_unwound_at(size: usize, faults: &[Fault], first: Fault) {
    let out = run(size, faults);
    let case = format!("crew of {size}, faults {faults:?}");
    assert_eq!(out.payload, Some(first.message()), "{case}: wrong payload");
    assert!(out.exits.iter().all(|&e| e == first.at), "{case}: exits {:?}", out.exits);
}

#[test]
fn healthy_crews_cross_every_rendezvous() {
    for size in SIZES {
        let out = run(size, &[]);
        assert_eq!(out.payload, None, "crew of {size}");
        assert_eq!(out.exits, vec![ROUNDS; size], "crew of {size}");
    }
}

#[test]
fn one_panic_at_every_rendezvous_and_participant() {
    quiet_injected_panics();
    for size in SIZES {
        for at in 0..=ROUNDS {
            for who in 0..size {
                let fault = Fault { at, who };
                assert_unwound_at(size, &[fault], fault);
            }
        }
    }
}

/// The later fault never fires: its participant leaves at the first
/// fault's rendezvous before reaching it.
#[test]
fn two_panics_at_different_rendezvous() {
    quiet_injected_panics();
    for size in SIZES {
        for first_at in 0..ROUNDS {
            for later_at in first_at + 1..=ROUNDS {
                for first_who in 0..size {
                    for later_who in 0..size {
                        let first = Fault { at: first_at, who: first_who };
                        let later = Fault { at: later_at, who: later_who };
                        assert_unwound_at(size, &[later, first], first);
                    }
                }
            }
        }
    }
}

/// Two participants panicking on the way to the same rendezvous: the crew
/// leaves there and re-raises the lower-indexed participant's payload.
#[test]
fn two_panics_at_the_same_rendezvous() {
    quiet_injected_panics();
    for size in 2..=*SIZES.end() {
        for at in 0..=ROUNDS {
            for lo in 0..size {
                for hi in lo + 1..size {
                    let (first, other) = (Fault { at, who: lo }, Fault { at, who: hi });
                    assert_unwound_at(size, &[other, first], first);
                }
            }
        }
    }
}
