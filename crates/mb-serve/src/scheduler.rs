//! The admission scheduler: a bounded three-class priority queue drained by
//! a small fixed set of worker threads.
//!
//! Workers only *sequence* jobs — each job's internal parallelism (model
//! training, partitioned scoring) still runs on the shared global
//! [`mb_pool`] the server configured at startup. That split keeps admission
//! control (how many queries run at once) independent of execution
//! parallelism (how many cores each query uses).

use crate::lock;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Admission priority class; higher classes always drain first.
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
    pub fn parse(name: &str) -> Option<Priority> {
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

struct QueuedJob {
    id: String,
    work: Box<dyn FnOnce() + Send>,
}

#[derive(Default)]
struct Queues {
    high: VecDeque<QueuedJob>,
    normal: VecDeque<QueuedJob>,
    low: VecDeque<QueuedJob>,
    shutdown: bool,
}

impl Queues {
    fn len(&self) -> usize {
        self.high.len() + self.normal.len() + self.low.len()
    }

    fn pop(&mut self) -> Option<QueuedJob> {
        self.high
            .pop_front()
            .or_else(|| self.normal.pop_front())
            .or_else(|| self.low.pop_front())
    }

    fn remove(&mut self, id: &str) -> bool {
        for queue in [&mut self.high, &mut self.normal, &mut self.low] {
            if let Some(pos) = queue.iter().position(|j| j.id == id) {
                queue.remove(pos);
                return true;
            }
        }
        false
    }
}

struct SchedulerShared {
    queues: Mutex<Queues>,
    cond: Condvar,
}

/// The scheduler: `submit` enqueues, worker threads drain in priority
/// order, `cancel` removes a not-yet-started job. Dropping the scheduler
/// stops the workers after their current job.
pub struct Scheduler {
    shared: Arc<SchedulerShared>,
    limit: usize,
    workers: Vec<JoinHandle<()>>,
}

impl Scheduler {
    /// Start `workers` worker threads with an admission queue bounded at
    /// `limit` waiting jobs.
    pub fn start(workers: usize, limit: usize) -> Scheduler {
        let shared = Arc::new(SchedulerShared {
            queues: Mutex::new(Queues::default()),
            cond: Condvar::new(),
        });
        let handles = (0..workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                // mb-lint: allow(no-adhoc-threads) -- resident scheduler workers park on a condvar; mb-pool tasks must never block
                std::thread::Builder::new()
                    .name(format!("mb-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("failed to spawn scheduler worker") // mb-lint: allow(no-unwrap-in-executors) -- at startup, before any request: a server with no workers cannot serve
            })
            .collect();
        Scheduler {
            shared,
            limit,
            workers: handles,
        }
    }

    /// Enqueue `work` under `id`. Returns a typed [`Saturated`] rejection —
    /// without running or retaining anything — when the queue is full.
    pub fn submit(
        &self,
        id: &str,
        priority: Priority,
        work: Box<dyn FnOnce() + Send>,
    ) -> Result<(), Saturated> {
        let mut queues = lock(&self.shared.queues);
        let queued = queues.len();
        if queued >= self.limit {
            return Err(Saturated {
                queued,
                limit: self.limit,
            });
        }
        let job = QueuedJob {
            id: id.to_string(),
            work,
        };
        match priority {
            Priority::High => queues.high.push_back(job),
            Priority::Normal => queues.normal.push_back(job),
            Priority::Low => queues.low.push_back(job),
        }
        drop(queues);
        self.shared.cond.notify_one();
        Ok(())
    }

    /// Remove a queued job before a worker picks it up. Returns `false` if
    /// the job already started (or never existed) — the caller then handles
    /// running-job cancellation itself.
    pub fn cancel(&self, id: &str) -> bool {
        lock(&self.shared.queues).remove(id)
    }

    /// Number of jobs waiting for a worker (all classes).
    pub fn depth(&self) -> usize {
        lock(&self.shared.queues).len()
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        {
            lock(&self.shared.queues).shutdown = true;
        }
        self.shared.cond.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &SchedulerShared) {
    loop {
        let job = {
            let mut queues = lock(&shared.queues);
            loop {
                if let Some(job) = queues.pop() {
                    break job;
                }
                if queues.shutdown {
                    return;
                }
                queues = shared
                    .cond
                    .wait(queues)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        // The worker set is fixed: a job that panics must not take its
        // worker with it. The job publishes its own failure as it unwinds.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job.work));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;

    #[test]
    fn drains_in_priority_order() {
        // One worker, gated so everything queues before anything runs.
        let scheduler = Scheduler::start(1, 16);
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let (order_tx, order_rx) = mpsc::channel::<&'static str>();
        scheduler
            .submit(
                "gate",
                Priority::High,
                Box::new(move || {
                    gate_rx.recv().unwrap();
                }),
            )
            .unwrap();
        for (id, priority) in [
            ("low", Priority::Low),
            ("normal", Priority::Normal),
            ("high", Priority::High),
        ] {
            let tx = order_tx.clone();
            scheduler
                .submit(id, priority, Box::new(move || tx.send(id).unwrap()))
                .unwrap();
        }
        gate_tx.send(()).unwrap();
        let order: Vec<&str> = (0..3).map(|_| order_rx.recv().unwrap()).collect();
        assert_eq!(order, ["high", "normal", "low"]);
    }

    #[test]
    fn saturation_is_a_typed_rejection_and_cancel_frees_a_slot() {
        let scheduler = Scheduler::start(1, 2);
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let ran = Arc::new(AtomicUsize::new(0));
        scheduler
            .submit(
                "gate",
                Priority::Normal,
                Box::new(move || {
                    gate_rx.recv().unwrap();
                }),
            )
            .unwrap();
        // Wait for the worker to pick the gate job up so the queue is empty.
        while scheduler.depth() > 0 {
            std::thread::yield_now();
        }
        for id in ["a", "b"] {
            let ran = Arc::clone(&ran);
            scheduler
                .submit(
                    id,
                    Priority::Normal,
                    Box::new(move || {
                        ran.fetch_add(1, Ordering::SeqCst);
                    }),
                )
                .unwrap();
        }
        let err = scheduler
            .submit("c", Priority::Normal, Box::new(|| {}))
            .unwrap_err();
        assert_eq!(err, Saturated { queued: 2, limit: 2 });

        // Cancelling a queued job frees its slot; it never runs.
        assert!(scheduler.cancel("b"));
        assert!(!scheduler.cancel("b"));
        scheduler
            .submit(
                "c",
                Priority::Normal,
                Box::new({
                    let ran = Arc::clone(&ran);
                    move || {
                        ran.fetch_add(1, Ordering::SeqCst);
                    }
                }),
            )
            .unwrap();
        gate_tx.send(()).unwrap();
        drop(scheduler); // joins workers, draining the queue
        assert_eq!(ran.load(Ordering::SeqCst), 2); // a + c, not b
    }

    #[test]
    fn a_panicking_job_keeps_its_worker() {
        let scheduler = Scheduler::start(2, 16);
        let (done_tx, done_rx) = mpsc::channel();
        scheduler
            .submit(
                "boom",
                Priority::High,
                Box::new(|| panic!("estimator blew up")),
            )
            .unwrap();
        for n in 0..6 {
            let done = done_tx.clone();
            scheduler
                .submit(
                    &format!("j{n}"),
                    Priority::Normal,
                    Box::new(move || done.send(n).unwrap()),
                )
                .unwrap();
        }
        let mut ran: Vec<i32> = (0..6)
            .map(|_| {
                done_rx
                    .recv_timeout(std::time::Duration::from_secs(10))
                    .unwrap()
            })
            .collect();
        ran.sort_unstable();
        assert_eq!(ran, [0, 1, 2, 3, 4, 5]);
        while scheduler.depth() > 0 {
            std::thread::yield_now();
        }
        // Both workers are still there: two gated jobs run at once.
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let gate_rx = Arc::new(Mutex::new(gate_rx));
        let (started_tx, started_rx) = mpsc::channel();
        for id in ["g0", "g1"] {
            let (gate, started) = (Arc::clone(&gate_rx), started_tx.clone());
            scheduler
                .submit(
                    id,
                    Priority::Normal,
                    Box::new(move || {
                        started.send(()).unwrap();
                        let _ = gate.lock().unwrap().recv();
                    }),
                )
                .unwrap();
        }
        for _ in 0..2 {
            started_rx
                .recv_timeout(std::time::Duration::from_secs(10))
                .unwrap();
        }
        drop(gate_tx);
    }
}
