//! The types of the shared, epoch-versioned model cache.
//!
//! The cache itself is the server state's model table: one entry per
//! [`Fingerprint`](crate::Fingerprint), holding either a training in flight
//! with the jobs parked on it or the published [`ModelSnapshot`]. The first
//! requester trains and publishes epoch 1; later requesters share the same
//! `Arc`. A retrain publishes the *next* epoch by replacing the entry's
//! `Arc` — readers holding the previous snapshot are never stalled or
//! invalidated, the multiversion discipline (readers against an immutable
//! snapshot, writers installing the next one) that keeps concurrency from
//! ever changing a report.

use macrobase_core::executor::FittedModel;

/// An immutable fitted model stamped with the epoch that published it.
/// Everything a scorer needs is frozen at publication: epochs never mutate.
#[derive(Debug)]
pub struct ModelSnapshot {
    /// Publication epoch, starting at 1 for the first training.
    pub epoch: u64,
    /// The fitted classifier + threshold.
    pub model: FittedModel,
}

/// How a cache lookup was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// This requester trained the model (or arrived while no model existed
    /// and won the training slot).
    Miss,
    /// An already-published snapshot was reused.
    Hit,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::Priority;
    use crate::server::JobStatus;
    use crate::state::tests::{read, Driver, Outcome};
    use std::sync::Arc;

    #[test]
    fn first_requester_trains_and_later_requesters_hit() {
        let mut d = Driver::new(1, 16);
        d.submit("first", Some(0), Priority::Normal).unwrap();
        d.step(0, Outcome::Ok);
        assert_eq!(d.holds(0).unwrap().kind, "train");
        d.drain(0);
        d.submit("second", Some(0), Priority::Normal).unwrap();
        d.drain(0);
        assert_eq!(read(&d.status("first")), Some((1, CacheOutcome::Miss)));
        assert_eq!(read(&d.status("second")), Some((1, CacheOutcome::Hit)));
        // One training, and both read the same snapshot.
        let scored: Vec<_> = d.handed.iter().filter_map(|h| h.snapshot.clone()).collect();
        assert_eq!(scored.len(), 2);
        assert!(Arc::ptr_eq(&scored[0], &scored[1]));
        assert_eq!(d.handed.iter().filter(|h| h.kind == "train").count(), 1);
    }

    #[test]
    fn retrain_publishes_the_next_epoch_without_touching_old_readers() {
        let mut d = Driver::new(1, 16);
        d.submit("q", Some(0), Priority::Normal).unwrap();
        d.drain(0);
        let old = d.state.snapshot("q").unwrap();
        d.retrain("q").unwrap();
        assert_eq!(d.holds(0).unwrap().kind, "retrain");
        d.drain(0);
        // The held snapshot is immutable: still epoch 1.
        assert_eq!(old.epoch, 1);
        // New requesters see the new epoch.
        let current = d.state.snapshot("q").unwrap();
        assert_eq!(current.epoch, 2);
        assert!(!Arc::ptr_eq(&old, &current));
        d.submit("next", Some(0), Priority::Normal).unwrap();
        d.drain(0);
        assert_eq!(read(&d.status("next")), Some((2, CacheOutcome::Hit)));
    }

    #[test]
    fn a_failed_training_is_typed_and_the_next_request_trains_again() {
        let mut d = Driver::new(1, 16);
        d.submit("a", Some(0), Priority::Normal).unwrap();
        d.step(0, Outcome::Ok);
        d.step(0, Outcome::Fail("boom"));
        assert!(matches!(d.status("a"), JobStatus::Failed(ref m) if m == "boom"));
        assert!(d.state.snapshot("a").is_none());
        d.submit("b", Some(0), Priority::Normal).unwrap();
        d.step(0, Outcome::Ok);
        assert_eq!(d.holds(0).unwrap().kind, "train");
        d.drain(0);
        assert_eq!(read(&d.status("b")), Some((1, CacheOutcome::Miss)));
        assert_eq!(d.handed.iter().filter(|h| h.kind == "train").count(), 2);
        d.submit("c", Some(0), Priority::Normal).unwrap();
        d.drain(0);
        assert_eq!(read(&d.status("c")), Some((1, CacheOutcome::Hit)));
        assert_eq!(d.counter("cache_misses"), 2);
    }

    #[test]
    fn a_panicking_trainer_fails_the_slot_and_wakes_its_waiters() {
        let mut d = Driver::new(2, 16);
        d.submit("trainer", Some(0), Priority::Normal).unwrap();
        d.step(0, Outcome::Ok);
        assert_eq!(d.holds(0).unwrap().kind, "train");
        d.submit("waiter", Some(0), Priority::Normal).unwrap();
        d.step(1, Outcome::Ok);
        assert!(d.holds(1).is_none(), "the waiter parks");
        let wakeups = d.caller_wakeups;
        d.step(0, Outcome::Unwind);
        // The waiter comes back with the failure instead of parking forever.
        assert!(d.caller_wakeups > wakeups);
        assert!(
            matches!(d.status("waiter"), JobStatus::Failed(ref m) if m == "training panicked"),
            "{:?}",
            d.status("waiter")
        );
        assert!(matches!(d.status("trainer"), JobStatus::Failed(ref m) if m == "job panicked"));
        assert!(d.workers.iter().all(Option::is_none));

        // An unrelated fingerprint still trains, and then hits.
        d.submit("other", Some(1), Priority::Normal).unwrap();
        d.drain(0);
        d.submit("again", Some(1), Priority::Normal).unwrap();
        d.drain(0);
        assert_eq!(read(&d.status("other")), Some((1, CacheOutcome::Miss)));
        assert_eq!(read(&d.status("again")), Some((1, CacheOutcome::Hit)));
    }

    #[test]
    fn a_panicking_retrain_leaves_the_published_epoch_readable() {
        let mut d = Driver::new(1, 16);
        d.submit("q", Some(0), Priority::Normal).unwrap();
        d.drain(0);
        d.retrain("q").unwrap();
        d.step(0, Outcome::Unwind);
        assert_eq!(d.state.snapshot("q").unwrap().epoch, 1);
        d.submit("hit", Some(0), Priority::Normal).unwrap();
        d.drain(0);
        assert_eq!(read(&d.status("hit")), Some((1, CacheOutcome::Hit)));
        // And the fingerprint still takes the next epoch.
        d.retrain("q").unwrap();
        d.drain(0);
        assert_eq!(d.state.snapshot("q").unwrap().epoch, 2);
    }
}
