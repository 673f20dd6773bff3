//! The lockstep worker crew shared by both cooperative engines: pipelined
//! parallel ranking ([`crate::ranking`]) and sharded crew training
//! (`kg-train`'s `crew` module).
//!
//! [`Crew::run`] runs participant 0, the **lead**, on the calling thread
//! and `size − 1` scoped worker threads beside it. Every rendezvous goes
//! through one [`std::sync::Barrier`]: a participant calls
//! [`Seat::wait`] wherever its protocol needs the whole crew in step, and
//! the protocol must have every participant attend the same sequence of
//! rendezvous. The crew adds one **closing rendezvous** after the bodies
//! return, which the protocol does not see.
//!
//! # Poison
//!
//! `Barrier` does not poison: a participant that panicked would leave the
//! rest waiting at its next rendezvous forever. The crew therefore counts
//! the rendezvous each participant has attended, which names every
//! rendezvous unambiguously because the crew crosses them in lockstep. A
//! panic in any participant, anywhere between two rendezvous, is caught by
//! the crew, which tags a shared poison slot with the index of the
//! rendezvous the panicker would attend next (`fetch_min`, so the earliest
//! tag wins) and then attends that rendezvous on the panicker's behalf.
//! Every [`Seat::wait`] checks the tag after crossing the barrier and
//! leaves the body exactly at the tagged rendezvous:
//!
//! * the tag is written before the panicker attends, so the barrier's own
//!   synchronisation makes it visible to everyone crossing that rendezvous;
//! * a participant still waking from an *earlier* rendezvous sees a tag
//!   ahead of its own count and carries on until it reaches the tagged one,
//!   so nobody leaves early and strands the panicker.
//!
//! A tag that named a *step* instead of a rendezvous races once a step
//! spans more than one barrier; the index cannot. A panic after a body's
//! last rendezvous tags the closing one, which every participant attends.
//! Once the workers are joined, [`Crew::run`] re-raises the original panic
//! payload on the caller (the lowest-indexed panicking participant's,
//! the lead first). Leaving at a poisoned rendezvous unwinds the body with
//! a private marker payload, which the crew swallows: bodies need no
//! abort branches of their own.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Barrier;

/// A panic payload, as `catch_unwind` and `JoinHandle::join` return it.
type Payload = Box<dyn Any + Send>;

/// The shared state of one crew run: its barrier and its poison tag.
pub struct Crew {
    barrier: Barrier,
    /// Index of the rendezvous at which every participant leaves;
    /// `usize::MAX` while no participant has panicked.
    poison: AtomicUsize,
}

/// One participant's place in a running [`Crew`].
pub struct Seat<'c> {
    crew: &'c Crew,
    index: usize,
    /// Rendezvous this participant has crossed so far — the index of the
    /// next one it attends.
    attended: usize,
}

/// The unwind payload of a participant leaving at the poisoned
/// rendezvous. Never re-raised: the panicker's own payload is.
struct Left;

impl Seat<'_> {
    /// This participant's index: 0 for the lead, `1..size` for workers.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Attend the crew's next rendezvous. Returns once every participant
    /// has arrived; unwinds out of the body instead when a participant
    /// panicked on its way to this rendezvous (the crew then re-raises
    /// that panic from [`Crew::run`]).
    pub fn wait(&mut self) {
        self.crew.barrier.wait();
        self.attended += 1;
        if self.crew.poison.load(Relaxed) < self.attended {
            resume_unwind(Box::new(Left));
        }
    }
}

impl Crew {
    /// Run a crew of `size` participants: `lead` on the calling thread as
    /// participant 0, `worker` on `size − 1` scoped threads. Returns the
    /// lead's result once every worker has finished, or re-raises the
    /// first panic (see the module docs) once every worker has been
    /// joined.
    ///
    /// ```
    /// use kg_eval::crew::Crew;
    /// use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
    ///
    /// let arrived = AtomicUsize::new(0);
    /// let seen = Crew::run(
    ///     4,
    ///     |seat| {
    ///         arrived.fetch_add(1, Relaxed);
    ///         seat.wait(); // every participant has arrived past here
    ///         arrived.load(Relaxed)
    ///     },
    ///     |seat| {
    ///         arrived.fetch_add(1, Relaxed);
    ///         seat.wait();
    ///     },
    /// );
    /// assert_eq!(seen, 4);
    /// ```
    ///
    /// # Panics
    /// Panics if `size` is zero, and re-raises any participant's panic.
    pub fn run<R>(
        size: usize,
        lead: impl FnOnce(&mut Seat<'_>) -> R,
        worker: impl Fn(&mut Seat<'_>) + Sync,
    ) -> R {
        assert!(size >= 1, "a crew needs at least one participant");
        let crew = Crew { barrier: Barrier::new(size), poison: AtomicUsize::new(usize::MAX) };
        let (lead, workers) = std::thread::scope(|scope| {
            let handles: Vec<_> = (1..size)
                .map(|index| {
                    let (crew, worker) = (&crew, &worker);
                    std::thread::Builder::new()
                        .name(format!("kg-crew-{index}"))
                        .spawn_scoped(scope, move || crew.attend(index, worker))
                        .expect("spawn crew worker")
                })
                .collect();
            let lead = crew.attend(0, lead);
            let workers: Vec<_> = handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|payload| Err(Some(payload))))
                .collect();
            (lead, workers)
        });
        let (lead, mut payload) = match lead {
            Ok(result) => (Some(result), None),
            Err(departed) => (None, departed),
        };
        for departed in workers.into_iter().filter_map(Result::err) {
            payload = payload.or(departed);
        }
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
        lead.expect("the lead only leaves a crew in which someone panicked")
    }

    /// Run participant `index`'s body, then settle its part of the
    /// protocol: a body that returns attends the closing rendezvous; a body
    /// that panics tags the poison with the rendezvous it would attend next
    /// and attends it; a body that left at the poisoned rendezvous is done.
    /// `Err(Some(payload))` is a panic, `Err(None)` a departure.
    fn attend<R>(
        &self,
        index: usize,
        body: impl FnOnce(&mut Seat<'_>) -> R,
    ) -> Result<R, Option<Payload>> {
        let mut seat = Seat { crew: self, index, attended: 0 };
        match catch_unwind(AssertUnwindSafe(|| body(&mut seat))) {
            Ok(result) => {
                self.barrier.wait();
                Ok(result)
            }
            Err(payload) if payload.is::<Left>() => Err(None),
            Err(payload) => {
                self.poison.fetch_min(seat.attended, Relaxed);
                self.barrier.wait();
                Err(Some(payload))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_participant_runs_and_the_lead_returns() {
        for size in 1..=5 {
            let indices = AtomicUsize::new(0);
            let out = Crew::run(
                size,
                |seat| {
                    assert_eq!(seat.index(), 0);
                    seat.wait();
                    indices.load(Relaxed)
                },
                |seat| {
                    indices.fetch_add(seat.index(), Relaxed);
                    seat.wait();
                },
            );
            // Workers 1..size all ran before the lead crossed the rendezvous.
            assert_eq!(out, size * (size - 1) / 2);
        }
    }

    #[test]
    fn rendezvous_order_the_phases() {
        // Each phase's writes are complete when any participant crosses
        // the rendezvous that ends it.
        let size = 4;
        let phase = AtomicUsize::new(0);
        let body = |seat: &mut Seat<'_>| {
            for round in 0..6 {
                phase.fetch_add(1, Relaxed);
                seat.wait();
                assert_eq!(phase.load(Relaxed), (round + 1) * size);
                seat.wait();
            }
        };
        Crew::run(size, body, body);
    }

    #[test]
    #[should_panic(expected = "at least one participant")]
    fn an_empty_crew_is_rejected() {
        Crew::run(0, |_| (), |_| ());
    }
}
