//! The types of admission: priority classes and the typed rejection a
//! full queue returns.
//!
//! The queue itself is the server state's: three classes drained in
//! priority order by a small fixed set of worker threads, bounded in total.
//! Workers only *sequence* jobs — each job's internal parallelism (model
//! training, partitioned scoring) still runs on the shared global
//! [`mb_pool`] the server configured at startup. That split keeps admission
//! control (how many queries run at once) independent of execution
//! parallelism (how many cores each query uses).

/// Admission priority class; higher classes always drain first. The
/// declaration order is the drain order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Priority {
    /// Latency-sensitive interactive queries.
    High,
    /// The default class.
    #[default]
    Normal,
    /// Background work (retrains, batch sweeps).
    Low,
}

impl Priority {
    /// Parse the wire spelling (`high` / `normal` / `low`).
    pub(crate) fn parse(name: &str) -> Option<Priority> {
        match name {
            "high" => Some(Priority::High),
            "normal" => Some(Priority::Normal),
            "low" => Some(Priority::Low),
            _ => None,
        }
    }
}

/// Typed rejection returned when the admission queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Saturated {
    /// Jobs currently queued (all classes).
    pub queued: usize,
    /// The configured admission limit.
    pub limit: usize,
}

impl std::fmt::Display for Saturated {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "admission queue saturated ({} queued, limit {})",
            self.queued, self.limit
        )
    }
}

impl std::error::Error for Saturated {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{Closed, JobStatus, ServeError};
    use crate::state::tests::{Driver, Outcome};

    fn ran(d: &Driver) -> Vec<String> {
        d.handed.iter().filter_map(|h| h.id.clone()).collect()
    }

    #[test]
    fn drains_in_priority_order() {
        // One worker, busy, so everything queues before anything runs.
        let mut d = Driver::new(1, 16);
        d.submit("gate", None, Priority::High).unwrap();
        for (id, priority) in [
            ("low", Priority::Low),
            ("normal", Priority::Normal),
            ("high", Priority::High),
        ] {
            d.submit(id, None, priority).unwrap();
        }
        assert_eq!(d.state.stats().gauge("queue_depth"), Some(3.0));
        // Queue wait is measured on the time each command carries.
        d.now += std::time::Duration::from_millis(7);
        d.drain(0);
        assert_eq!(ran(&d), ["gate", "high", "normal", "low"]);
        let waits = d.state.stats();
        let waits = waits.histogram("queue_wait_ns").unwrap();
        assert_eq!((waits.count(), waits.sum_ns()), (4, 3 * 7_000_000));
    }

    #[test]
    fn saturation_is_a_typed_rejection_and_cancel_frees_a_slot() {
        let mut d = Driver::new(1, 2);
        d.submit("gate", None, Priority::Normal).unwrap();
        for id in ["a", "b"] {
            d.submit(id, None, Priority::Normal).unwrap();
        }
        let err = d.submit("c", None, Priority::Normal).unwrap_err();
        assert_eq!(
            err,
            ServeError::Saturated(Saturated {
                queued: 2,
                limit: 2
            })
        );
        assert_eq!(d.counter("jobs_rejected"), 1);
        assert!(
            d.state.status("c").is_err(),
            "a rejected job is not retained"
        );

        // Cancelling a queued job frees its slot; it never runs.
        assert_eq!(
            d.call(crate::state::Command::Close("b".to_string()))
                .ok()
                .map(|_| ()),
            Some(())
        );
        assert!(matches!(d.status("b"), JobStatus::Cancelled));
        assert_eq!(d.state.stats().gauge("queue_depth"), Some(1.0));
        d.submit("c", None, Priority::Normal).unwrap();
        d.drain(0);
        assert_eq!(ran(&d), ["gate", "a", "c"]);
        assert!(matches!(
            d.call(crate::state::Command::Close("b".to_string())),
            Ok(crate::state::Reply::Closed(Closed::Job))
        ));
        assert!(
            d.state.status("b").is_err(),
            "closing a cancelled job forgets it"
        );
    }

    #[test]
    fn a_panicking_job_keeps_its_worker() {
        let mut d = Driver::new(2, 16);
        d.submit("boom", None, Priority::High).unwrap();
        for n in 0..6 {
            d.submit(&format!("j{n}"), None, Priority::Normal).unwrap();
        }
        d.step(0, Outcome::Unwind);
        assert!(matches!(d.status("boom"), JobStatus::Failed(ref m) if m == "job panicked"));
        // The worker that ran it takes the next job at once.
        assert!(d.holds(0).is_some());
        while d.workers.iter().any(Option::is_some) {
            for w in 0..2 {
                if d.workers[w].is_some() {
                    d.step(w, Outcome::Ok);
                }
            }
        }
        for n in 0..6 {
            assert!(
                matches!(d.status(&format!("j{n}")), JobStatus::Done(_)),
                "j{n}"
            );
        }
        // Both workers are still there: two jobs run at once.
        for id in ["g0", "g1"] {
            d.submit(id, None, Priority::Normal).unwrap();
        }
        assert!(d.holds(0).is_some() && d.holds(1).is_some());
        assert_eq!(d.counter("jobs_failed"), 1);
    }
}
