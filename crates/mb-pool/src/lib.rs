//! A minimal work-stealing thread pool: the execution substrate for
//! MacroBase-RS's batch kernels — the sharded attribute encode, FastMCD's
//! starts and distance pass, and the batch explainer's shards — and for the
//! naïve partitioned executor's partition tasks.
//!
//! The build environment has no crates.io access, so this crate is a
//! deliberately small stand-in for `rayon` (swap back via two lines in
//! `[workspace.dependencies]` when network access exists). It keeps only
//! the calls the tree makes — [`Pool::scope`], [`Pool::parallel_for`] and
//! [`Pool::map_vec`] — and the properties the tree relies on:
//!
//! * **Reusable workers** — a [`Pool`] spawns its threads once; submitting
//!   work is a queue push, not a `std::thread::scope` spawn per call, which
//!   is what makes scatter cheap for small batches.
//! * **Work stealing** — each worker owns a LIFO deque (newest-first for
//!   cache locality); idle workers steal oldest-first from a random victim,
//!   and external submissions land on a shared injector queue.
//! * **Nested parallelism** — a thread that waits for a scope to finish
//!   *helps*: it executes queued tasks instead of blocking, so pool workers
//!   can themselves open scopes without deadlocking. FastMCD training is the
//!   canonical nesting: each start is a pool task ([`Pool::map_vec`]) whose
//!   C-step distance passes fan out further on the same pool
//!   ([`Pool::parallel_for`]) — and a naïve partition task may be running
//!   the whole fit. Helping is stack-safe: past a fixed nesting depth a
//!   waiter only executes tasks of the scope it is waiting for, bounding
//!   stack growth by the application's real nesting depth instead of the
//!   number of in-flight tasks.
//! * **Panic propagation** — a panic inside a spawned task is captured and
//!   re-raised on the thread that owns the scope, after every sibling task
//!   has finished (so borrowed data is never left aliased).
//!
//! Use the process-wide [`global`] pool (lazily sized from
//! [`std::thread::available_parallelism`], overridable once via
//! [`configure_global_threads`]) or build an explicit [`Pool::new`].
//!
//! ## Example
//!
//! ```
//! let pool = mb_pool::Pool::new(4);
//! let mut counts = [0usize; 2];
//! pool.scope(|s| {
//!     for (parity, count) in counts.iter_mut().enumerate() {
//!         s.spawn(move || *count = (0..1000).filter(|i| i % 2 == parity).count());
//!     }
//! });
//! assert_eq!(counts, [500, 500]);
//!
//! let squares = pool.map_vec(vec![1u64, 2, 3, 4, 5], |x| x * x);
//! assert_eq!(squares.iter().sum::<u64>(), 55);
//! ```

#![warn(missing_docs)]

use std::cell::Cell;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Duration;

/// A type-erased unit of work, tagged with the identity of the scope that
/// spawned it so waiters can restrict themselves to their own scope's tasks
/// (see [`MAX_FOREIGN_HELP_DEPTH`]). Tasks are created with a scope-bound
/// lifetime and transmuted to `'static`; soundness comes from
/// [`Pool::scope`] never returning until every task it spawned has run to
/// completion.
struct Job {
    /// The owning [`ScopeState`]'s address — an id, never dereferenced.
    scope: usize,
    run: Box<dyn FnOnce() + Send + 'static>,
}

/// How many *foreign* (other-scope) jobs a thread may be executing,
/// nested on its stack, before its scope waits stop stealing arbitrary
/// work. Help-first waiting executes stolen jobs in the waiter's stack
/// frame; an unlucky chain (help a job, whose wait helps another job, ...)
/// grows the stack by one frame set per in-flight job, which is unbounded
/// by anything in the task DAG and overflows under fine-grained nested
/// parallelism. Beyond this depth a waiter only executes tasks of the
/// scope it is waiting for: those chains are bounded by the application's
/// real nesting depth, and the deepest waiter in the waits-on DAG can
/// always find (or outwait) its own scope's tasks, so progress is
/// preserved without unbounded stack growth.
const MAX_FOREIGN_HELP_DEPTH: usize = 32;

/// Worker stack size: help-first execution runs application tasks nested
/// inside wait loops, so give workers generous (lazily committed) stacks.
const WORKER_STACK_BYTES: usize = 16 * 1024 * 1024;

/// Process-unique pool ids, so a thread can tell whether it is a worker of
/// *this* pool (push to own deque) or a foreign thread (push to injector).
static NEXT_POOL_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// `(pool id, worker index)` of the pool this thread belongs to, or
    /// `(0, _)` for threads that are not pool workers.
    static CURRENT_WORKER: Cell<(u64, usize)> = const { Cell::new((0, usize::MAX)) };
    /// Number of helped jobs currently nested on this thread's stack.
    static HELP_DEPTH: Cell<usize> = const { Cell::new(0) };
}

/// Per-worker activity counters, always on. Increments are relaxed atomic
/// adds on lines the worker already owns — one or two per *job*, which is
/// noise next to the queue lock the job was popped under — so there is no
/// "metrics enabled" mode to toggle. Snapshots (`Pool::worker_stats`)
/// merge by field-wise addition: the counters are monotonic monoids, the
/// same shape `mb-obs` folds into query traces.
#[derive(Default)]
struct WorkerCounters {
    /// Jobs this worker (or helper) popped and ran, from any queue.
    executed: AtomicU64,
    /// Jobs taken from another worker's deque.
    stolen: AtomicU64,
    /// Jobs taken from the external-submission injector queue.
    injector_pops: AtomicU64,
    /// Times the worker parked on the wakeup condvar with nothing to do.
    idle_parks: AtomicU64,
}

impl WorkerCounters {
    fn snapshot(&self) -> WorkerStats {
        WorkerStats {
            tasks_executed: self.executed.load(Ordering::Relaxed),
            tasks_stolen: self.stolen.load(Ordering::Relaxed),
            injector_pops: self.injector_pops.load(Ordering::Relaxed),
            idle_parks: self.idle_parks.load(Ordering::Relaxed),
        }
    }
}

/// A snapshot of one worker's (or the whole pool's) activity counters.
///
/// Monotonic: every field only grows over a pool's lifetime. Form a
/// per-interval delta with [`WorkerStats::since`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WorkerStats {
    /// Jobs popped and run (own deque, injector, or stolen).
    pub tasks_executed: u64,
    /// Jobs taken from another worker's deque.
    pub tasks_stolen: u64,
    /// Jobs taken from the external-submission injector queue.
    pub injector_pops: u64,
    /// Times the worker parked idle on the wakeup condvar.
    pub idle_parks: u64,
}

impl WorkerStats {
    /// Field-wise sum of two snapshots.
    fn combined(mut self, other: WorkerStats) -> WorkerStats {
        self.tasks_executed += other.tasks_executed;
        self.tasks_stolen += other.tasks_stolen;
        self.injector_pops += other.injector_pops;
        self.idle_parks += other.idle_parks;
        self
    }

    /// Field-wise saturating delta since an earlier snapshot of the same
    /// counters.
    pub fn since(&self, earlier: &WorkerStats) -> WorkerStats {
        WorkerStats {
            tasks_executed: self.tasks_executed.saturating_sub(earlier.tasks_executed),
            tasks_stolen: self.tasks_stolen.saturating_sub(earlier.tasks_stolen),
            injector_pops: self.injector_pops.saturating_sub(earlier.injector_pops),
            idle_parks: self.idle_parks.saturating_sub(earlier.idle_parks),
        }
    }
}

/// State shared between a pool handle and its worker threads.
struct Shared {
    id: u64,
    /// One deque per worker. The owner pushes/pops at the back (LIFO);
    /// thieves pop at the front (FIFO — oldest, largest-granularity work).
    local: Vec<Mutex<VecDeque<Job>>>,
    /// Activity counters, index-aligned with `local`.
    counters: Vec<WorkerCounters>,
    /// Counters for non-worker threads that execute jobs while helping a
    /// scope wait (e.g. the caller of [`Pool::scope`]).
    helper_counters: WorkerCounters,
    /// Submissions from threads outside the pool.
    injector: Mutex<VecDeque<Job>>,
    /// Bumped on every push; sleepers re-check it before parking so a push
    /// racing with "queues looked empty" is never lost.
    epoch: AtomicU64,
    /// Workers currently parked on `wakeup`; pushes skip the notification
    /// lock entirely while this is zero (the common case under load).
    sleepers: AtomicUsize,
    sleep: Mutex<()>,
    wakeup: Condvar,
    shutdown: AtomicBool,
}

impl Shared {
    /// Queue `job`: onto this worker's own deque when called from a worker
    /// of this pool, onto the injector otherwise.
    fn push(&self, job: Job) {
        match self.current_worker_index() {
            Some(index) => self.local[index].lock().unwrap().push_back(job),
            None => self.injector.lock().unwrap().push_back(job),
        }
        self.epoch.fetch_add(1, Ordering::Release);
        // Notify under the sleep lock: a worker that saw empty queues either
        // re-checks the epoch under this lock (and rescans) or is already
        // parked (and receives this notification). Skipped entirely when no
        // worker is parked; the narrow race this opens (a worker committing
        // to sleep between the epoch bump and this load) is covered by the
        // bounded `wait_timeout` in the worker loop.
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            let _guard = self.sleep.lock().unwrap();
            self.wakeup.notify_all();
        }
    }

    /// This thread's worker index in this pool, if any.
    fn current_worker_index(&self) -> Option<usize> {
        let (pool, index) = CURRENT_WORKER.with(|c| c.get());
        (pool == self.id).then_some(index)
    }

    /// Pop or steal one job: own deque (LIFO), then the injector, then a
    /// random-order sweep of the other workers' deques (FIFO). With
    /// `only_scope` set, only jobs spawned by that scope are taken (a
    /// linear scan under each queue's lock — used only by depth-limited
    /// waiters, where correctness beats queue-pop cost).
    fn find_work(
        &self,
        me: Option<usize>,
        steal_rng: &mut u64,
        only_scope: Option<usize>,
    ) -> Option<Job> {
        let take_back = |queue: &Mutex<VecDeque<Job>>| -> Option<Job> {
            let mut queue = queue.lock().unwrap();
            match only_scope {
                None => queue.pop_back(),
                Some(id) => {
                    let pos = queue.iter().rposition(|job| job.scope == id)?;
                    queue.remove(pos)
                }
            }
        };
        let take_front = |queue: &Mutex<VecDeque<Job>>| -> Option<Job> {
            let mut queue = queue.lock().unwrap();
            match only_scope {
                None => queue.pop_front(),
                Some(id) => {
                    let pos = queue.iter().position(|job| job.scope == id)?;
                    queue.remove(pos)
                }
            }
        };
        // Every job returned from here is executed immediately by the
        // caller (worker loop or helping waiter), so `executed` is counted
        // at the pop, tagged with the source queue.
        let counters = match me {
            Some(index) => &self.counters[index],
            None => &self.helper_counters,
        };
        if let Some(index) = me {
            if let Some(job) = take_back(&self.local[index]) {
                counters.executed.fetch_add(1, Ordering::Relaxed);
                return Some(job);
            }
        }
        if let Some(job) = take_front(&self.injector) {
            counters.executed.fetch_add(1, Ordering::Relaxed);
            counters.injector_pops.fetch_add(1, Ordering::Relaxed);
            return Some(job);
        }
        let n = self.local.len();
        let start = (xorshift(steal_rng) as usize) % n.max(1);
        for offset in 0..n {
            let victim = (start + offset) % n;
            if Some(victim) == me {
                continue;
            }
            if let Some(job) = take_front(&self.local[victim]) {
                counters.executed.fetch_add(1, Ordering::Relaxed);
                counters.stolen.fetch_add(1, Ordering::Relaxed);
                return Some(job);
            }
        }
        None
    }

    /// Worker main loop: run work while there is any; park briefly when idle;
    /// exit once shut down *and* drained.
    fn worker_loop(self: &Arc<Self>, index: usize) {
        CURRENT_WORKER.with(|c| c.set((self.id, index)));
        let mut steal_rng = self.id.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (index as u64 + 1);
        loop {
            let epoch = self.epoch.load(Ordering::Acquire);
            if let Some(job) = self.find_work(Some(index), &mut steal_rng, None) {
                (job.run)();
                continue;
            }
            if self.shutdown.load(Ordering::Acquire) {
                break;
            }
            let guard = self.sleep.lock().unwrap();
            // Register as a sleeper *before* re-checking the epoch: in the
            // SeqCst total order, a pusher that reads `sleepers == 0` (and
            // skips notifying) must have bumped the epoch before this
            // re-check, which then sees it and rescans — so no wakeup is
            // ever lost. The timeout remains as defense in depth.
            self.sleepers.fetch_add(1, Ordering::SeqCst);
            if self.epoch.load(Ordering::SeqCst) != epoch || self.shutdown.load(Ordering::Acquire)
            {
                self.sleepers.fetch_sub(1, Ordering::SeqCst);
                continue; // new work (or shutdown) raced in; rescan
            }
            self.counters[index].idle_parks.fetch_add(1, Ordering::Relaxed);
            let _ = self
                .wakeup
                .wait_timeout(guard, Duration::from_millis(50))
                .unwrap();
            self.sleepers.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// 64-bit xorshift for victim selection — cheap, deterministic per worker,
/// and independent of the data being processed.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// Completion tracking for one [`Pool::scope`]: outstanding-task count, the
/// first captured panic, and a condvar the owner parks on when it runs out
/// of work to help with.
struct ScopeState {
    pending: AtomicUsize,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    done_lock: Mutex<()>,
    done_cv: Condvar,
}

impl ScopeState {
    fn new() -> Self {
        ScopeState {
            pending: AtomicUsize::new(0),
            panic: Mutex::new(None),
            done_lock: Mutex::new(()),
            done_cv: Condvar::new(),
        }
    }
}

/// Handle for spawning tasks that may borrow data owned by the caller of
/// [`Pool::scope`]; all tasks are guaranteed to finish before `scope`
/// returns.
pub struct Scope<'scope> {
    pool: &'scope Pool,
    state: Arc<ScopeState>,
    /// Make `'scope` invariant, as in rayon: tasks must not be allowed to
    /// shorten the lifetime their captures are checked against.
    _marker: PhantomData<fn(&'scope ()) -> &'scope ()>,
}

impl<'scope> Scope<'scope> {
    /// Spawn `f` onto the pool. It may run on any worker (or on the scope
    /// owner while it waits); it will have run to completion before
    /// [`Pool::scope`] returns. A panic in `f` is re-raised by `scope`.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        self.state.pending.fetch_add(1, Ordering::SeqCst);
        let scope_id = Arc::as_ptr(&self.state) as usize;
        let state = Arc::clone(&self.state);
        let task = move || {
            if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(f)) {
                let mut slot = state.panic.lock().unwrap();
                if slot.is_none() {
                    *slot = Some(payload);
                }
            }
            if state.pending.fetch_sub(1, Ordering::SeqCst) == 1 {
                let _guard = state.done_lock.lock().unwrap();
                state.done_cv.notify_all();
            }
        };
        let run: Box<dyn FnOnce() + Send + 'scope> = Box::new(task);
        // SAFETY: `scope` waits for `pending` to reach zero before returning,
        // so every borrow captured by the task outlives the task's execution;
        // the transmute only erases the `'scope` bound down to `'static`.
        let run = unsafe {
            std::mem::transmute::<
                Box<dyn FnOnce() + Send + 'scope>,
                Box<dyn FnOnce() + Send + 'static>,
            >(run)
        };
        self.pool.shared.push(Job {
            scope: scope_id,
            run,
        });
    }
}

/// A fixed-size work-stealing thread pool.
///
/// Dropping the pool shuts its workers down after draining queued work. The
/// process-wide [`global`] pool is never dropped.
pub struct Pool {
    shared: Arc<Shared>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("threads", &self.num_threads())
            .finish()
    }
}

impl Pool {
    /// Create a pool with `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            id: NEXT_POOL_ID.fetch_add(1, Ordering::Relaxed),
            local: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
            counters: (0..threads).map(|_| WorkerCounters::default()).collect(),
            helper_counters: WorkerCounters::default(),
            injector: Mutex::new(VecDeque::new()),
            epoch: AtomicU64::new(0),
            sleepers: AtomicUsize::new(0),
            sleep: Mutex::new(()),
            wakeup: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let handles = (0..threads)
            .map(|index| {
                let shared = Arc::clone(&shared);
                #[expect(
                    clippy::disallowed_methods,
                    reason = "mb-pool owns the worker threads everything else runs on"
                )]
                std::thread::Builder::new()
                    .name(format!("mb-pool-{index}"))
                    .stack_size(WORKER_STACK_BYTES)
                    .spawn(move || shared.worker_loop(index))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        Pool { shared, handles }
    }

    /// Number of worker threads in this pool.
    pub fn num_threads(&self) -> usize {
        self.shared.local.len()
    }

    /// Per-worker activity snapshots, index-aligned with the pool's worker
    /// threads. Counters are cumulative over the pool's lifetime; take two
    /// snapshots and use [`WorkerStats::since`] for an interval view.
    fn worker_stats(&self) -> Vec<WorkerStats> {
        self.shared.counters.iter().map(|c| c.snapshot()).collect()
    }

    /// Activity of non-worker threads that executed jobs while waiting on a
    /// scope (help-first waiting).
    fn helper_stats(&self) -> WorkerStats {
        self.shared.helper_counters.snapshot()
    }

    /// Whole-pool totals: every worker plus the helpers, field-wise summed.
    /// The sum of `tasks_executed` equals the number of jobs ever spawned
    /// onto the pool (once they have all finished), independent of the
    /// worker count or how stealing interleaved them.
    pub fn total_stats(&self) -> WorkerStats {
        self.worker_stats()
            .into_iter()
            .fold(self.helper_stats(), WorkerStats::combined)
    }

    /// Run `op` with a [`Scope`] for spawning borrowing tasks, then wait —
    /// helping to execute queued work, never blocking the CPU — until every
    /// spawned task has finished. The first panic (from `op` or any task) is
    /// re-raised after that wait, so borrows are never left live.
    pub fn scope<'scope, OP, R>(&'scope self, op: OP) -> R
    where
        OP: FnOnce(&Scope<'scope>) -> R,
    {
        let state = Arc::new(ScopeState::new());
        let scope = Scope {
            pool: self,
            state: Arc::clone(&state),
            _marker: PhantomData,
        };
        let result = panic::catch_unwind(AssertUnwindSafe(|| op(&scope)));
        self.wait_scope(&state);
        let task_panic = state.panic.lock().unwrap().take();
        match (result, task_panic) {
            (Err(payload), _) => panic::resume_unwind(payload),
            (Ok(_), Some(payload)) => panic::resume_unwind(payload),
            (Ok(value), None) => value,
        }
    }

    /// Help-first wait: execute queued jobs until `state.pending` reaches
    /// zero. Any queued job may be helped while the thread's helped-job
    /// nesting is shallow; past [`MAX_FOREIGN_HELP_DEPTH`] only *this
    /// scope's* jobs are taken, which keeps the stack bounded while still
    /// guaranteeing progress (the deepest waiter in the waits-on DAG either
    /// finds its own scope's tasks queued or outwaits the threads running
    /// them — see the constant's doc).
    fn wait_scope(&self, state: &ScopeState) {
        let me = self.shared.current_worker_index();
        let scope_id = state as *const ScopeState as usize;
        let mut steal_rng = self.shared.id ^ 0xA076_1D64_78BD_642F;
        loop {
            if state.pending.load(Ordering::SeqCst) == 0 {
                return;
            }
            let depth = HELP_DEPTH.with(|d| d.get());
            let only_scope = (depth >= MAX_FOREIGN_HELP_DEPTH).then_some(scope_id);
            if let Some(job) = self.shared.find_work(me, &mut steal_rng, only_scope) {
                // Tasks never unwind (spawn wraps them in catch_unwind), so
                // plain set/restore is enough.
                HELP_DEPTH.with(|d| d.set(depth + 1));
                (job.run)();
                HELP_DEPTH.with(|d| d.set(depth));
                continue;
            }
            let guard = state.done_lock.lock().unwrap();
            if state.pending.load(Ordering::SeqCst) == 0 {
                return;
            }
            // Short timeout: completion notifies `done_cv`, but *new* work we
            // could help with (spawned by a still-running task) only pokes the
            // pool-wide condvar, so re-poll the queues at a modest cadence.
            let _ = state
                .done_cv
                .wait_timeout(guard, Duration::from_micros(200))
                .unwrap();
        }
    }

    /// Apply `f` to disjoint chunks of `items` in parallel, in place.
    /// `f` receives each chunk's starting offset in `items` and the chunk
    /// itself. Chunks hold at least `grain` elements (except the last), so
    /// tiny inputs run inline on the caller with zero submission overhead.
    pub fn parallel_for<T, F>(&self, items: &mut [T], grain: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        let grain = grain.max(1);
        if items.len() <= grain || self.num_threads() == 1 {
            if !items.is_empty() {
                f(0, items);
            }
            return;
        }
        // Over-split by 4× the worker count so stealing can balance uneven
        // chunk costs, but never below the requested grain.
        let chunk = items
            .len()
            .div_ceil(self.num_threads() * 4)
            .max(grain);
        let f = &f;
        self.scope(|s| {
            let mut offset = 0;
            for piece in items.chunks_mut(chunk) {
                let start = offset;
                offset += piece.len();
                s.spawn(move || f(start, piece));
            }
        });
    }

    /// Map `f` over owned `items` in parallel, preserving order. One task
    /// per item — meant for coarse work units (partition chunks), not
    /// element-wise math (use [`parallel_for`](Pool::parallel_for) for
    /// that).
    pub fn map_vec<T, U, F>(&self, items: Vec<T>, f: F) -> Vec<U>
    where
        T: Send,
        U: Send,
        F: Fn(T) -> U + Sync,
    {
        if self.num_threads() == 1 || items.len() <= 1 {
            return items.into_iter().map(f).collect();
        }
        let mut out: Vec<Option<U>> = items.iter().map(|_| None).collect();
        let f = &f;
        self.scope(|s| {
            for (slot, item) in out.iter_mut().zip(items) {
                s.spawn(move || *slot = Some(f(item)));
            }
        });
        out.into_iter()
            .map(|slot| slot.expect("map_vec task did not run"))
            .collect()
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        {
            let _guard = self.shared.sleep.lock().unwrap();
            self.shared.wakeup.notify_all();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// The size the lazy global pool should be created with; 0 = derive from
/// [`std::thread::available_parallelism`]. The low bits carry the requested
/// size; [`CONFIGURED`] records that a configuration call already landed.
static GLOBAL_THREADS: AtomicUsize = AtomicUsize::new(0);
static CONFIGURED: AtomicBool = AtomicBool::new(false);
static GLOBAL: OnceLock<Pool> = OnceLock::new();

/// Number of threads the platform reports as available (≥ 1).
fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Whether the calling thread is running a task it took up while waiting
/// for a scope to finish (help-first waiting, see [`Pool::scope`]), at any
/// depth of its stack. A task that keeps its thread for a long time can
/// return early when this holds, so that the wait it interrupted is not
/// held up behind it.
pub fn inside_scope_wait() -> bool {
    HELP_DEPTH.with(|depth| depth.get() > 0)
}

/// Request that the [`global`] pool be built with `threads` workers.
///
/// **One-shot contract:** the process-wide pool is configured at most once,
/// before its first use, and the winning size holds for the process
/// lifetime (a resident server — `mb-serve` — owns the pool for every query
/// it will ever run, so a later caller cannot be allowed to silently
/// resize or silently lose). Exactly one call can succeed:
///
/// * the first call before any use of [`global`] wins and returns `Ok`;
/// * a second call returns [`ConfigureError::AlreadyConfigured`] with the
///   size that won, and changes nothing;
/// * any call after the pool has been built returns
///   [`ConfigureError::PoolInitialized`] with the worker count it was built
///   with, and changes nothing.
///
/// Harness binaries call this from a `--threads` flag and surface the error
/// instead of swallowing it.
pub fn configure_global_threads(threads: usize) -> Result<(), ConfigureError> {
    if GLOBAL.get().is_some() {
        return Err(ConfigureError::PoolInitialized {
            workers: global().num_threads(),
        });
    }
    if CONFIGURED.swap(true, Ordering::SeqCst) {
        return Err(ConfigureError::AlreadyConfigured {
            configured: GLOBAL_THREADS.load(Ordering::SeqCst),
        });
    }
    GLOBAL_THREADS.store(threads, Ordering::SeqCst);
    // Racing with a concurrent first `global()` call loses benignly: the
    // store above either lands before the builder reads it, or is ignored.
    if GLOBAL.get().is_some() {
        return Err(ConfigureError::PoolInitialized {
            workers: global().num_threads(),
        });
    }
    Ok(())
}

/// Error returned by [`configure_global_threads`] when its one-shot
/// contract is violated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigureError {
    /// A previous `configure_global_threads` call already fixed the size
    /// (the pool itself may not exist yet). Carries the size that won.
    AlreadyConfigured {
        /// The thread count the earlier call requested (0 = one worker per
        /// available core).
        configured: usize,
    },
    /// The global pool has already been built; its size is immutable for
    /// the rest of the process lifetime.
    PoolInitialized {
        /// The worker count the pool was built with.
        workers: usize,
    },
}

impl std::fmt::Display for ConfigureError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigureError::AlreadyConfigured { configured } => write!(
                f,
                "the global mb-pool thread count has already been configured (requested size {configured}; 0 = per-core)"
            ),
            ConfigureError::PoolInitialized { workers } => write!(
                f,
                "the global mb-pool has already been initialized with {workers} workers"
            ),
        }
    }
}

impl std::error::Error for ConfigureError {}

/// The process-wide pool, created on first use with
/// [`configure_global_threads`]'s size or one worker per available core.
pub fn global() -> &'static Pool {
    GLOBAL.get_or_init(|| {
        let requested = GLOBAL_THREADS.load(Ordering::SeqCst);
        Pool::new(if requested == 0 {
            available_threads()
        } else {
            requested
        })
    })
}

/// [`Pool::map_vec`] on the [`global`] pool.
pub fn map_vec<T, U, F>(items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    global().map_vec(items, f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `a` on the caller and `b` spawned, in one scope: the fork-join shape
    /// the nesting tests drive.
    fn both<RA, RB: Send>(
        pool: &Pool,
        a: impl FnOnce() -> RA,
        b: impl FnOnce() -> RB + Send,
    ) -> (RA, RB) {
        let mut rb = None;
        let ra = pool.scope(|s| {
            let slot = &mut rb;
            s.spawn(move || *slot = Some(b()));
            a()
        });
        (ra, rb.expect("the scope ran its task"))
    }

    #[test]
    fn join_returns_both_results() {
        let pool = Pool::new(2);
        let (a, b) = both(&pool, || 1 + 1, || "two".to_string());
        assert_eq!(a, 2);
        assert_eq!(b, "two");
    }

    #[test]
    fn nested_join_computes_fibonacci() {
        // Recursion forces workers to call back into the pool: every level
        // below the first opens a scope *on a worker thread*, which must help
        // execute queued tasks rather than deadlock waiting for itself.
        fn fib(pool: &Pool, n: u64) -> u64 {
            if n < 2 {
                return n;
            }
            let (a, b) = both(pool, || fib(pool, n - 1), || fib(pool, n - 2));
            a + b
        }
        let pool = Pool::new(3);
        assert_eq!(fib(&pool, 16), 987);
    }

    #[test]
    fn deep_nested_join_does_not_overflow_the_stack() {
        // Regression test: help-first waiting used to execute arbitrary
        // stolen jobs in the waiter's stack frame, so a chain of helped
        // jobs could stack one frame set per *in-flight task* (~10k here)
        // and abort with a stack overflow. The foreign-help depth bound
        // keeps chains finite regardless of task count.
        fn fib(pool: &Pool, n: u64) -> u64 {
            if n < 2 {
                return n;
            }
            let (a, b) = both(pool, || fib(pool, n - 1), || fib(pool, n - 2));
            a + b
        }
        let pool = Pool::new(4);
        assert_eq!(fib(&pool, 20), 6_765);
    }

    #[test]
    fn scope_runs_borrowing_tasks_to_completion() {
        let pool = Pool::new(4);
        let mut counters = vec![0u64; 64];
        pool.scope(|s| {
            for (i, slot) in counters.iter_mut().enumerate() {
                s.spawn(move || *slot = i as u64 * 2);
            }
        });
        for (i, &value) in counters.iter().enumerate() {
            assert_eq!(value, i as u64 * 2);
        }
    }

    #[test]
    fn inside_scope_wait_holds_only_for_tasks_a_waiter_runs() {
        let pool = Pool::new(1);
        assert!(!inside_scope_wait());
        // The scope's owner spins until the task has run, so it is not
        // waiting yet: the worker takes the task from its idle loop.
        let idle_loop = Mutex::new(None);
        pool.scope(|s| {
            s.spawn(|| *idle_loop.lock().unwrap() = Some(inside_scope_wait()));
            while idle_loop.lock().unwrap().is_none() {
                std::thread::yield_now();
            }
        });
        assert_eq!(idle_loop.into_inner().unwrap(), Some(false));
        // The worker is held by the first task until the second has run,
        // so only the owner's wait can run the second.
        let (held, released) = (AtomicBool::new(false), AtomicBool::new(false));
        let in_wait = Mutex::new(None);
        pool.scope(|s| {
            s.spawn(|| {
                held.store(true, Ordering::SeqCst);
                while !released.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
            });
            while !held.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            s.spawn(|| {
                *in_wait.lock().unwrap() = Some(inside_scope_wait());
                released.store(true, Ordering::SeqCst);
            });
        });
        assert_eq!(in_wait.into_inner().unwrap(), Some(true));
        assert!(!inside_scope_wait());
    }

    #[test]
    fn parallel_for_covers_every_element_exactly_once() {
        let pool = Pool::new(4);
        let mut data = vec![0u32; 10_000];
        pool.parallel_for(&mut data, 64, |start, chunk| {
            for (k, slot) in chunk.iter_mut().enumerate() {
                *slot += (start + k) as u32 + 1;
            }
        });
        for (i, &value) in data.iter().enumerate() {
            assert_eq!(value, i as u32 + 1, "element {i} touched wrong number of times");
        }
    }

    #[test]
    fn parallel_for_runs_inline_below_grain() {
        let pool = Pool::new(4);
        let mut data = vec![0u8; 8];
        pool.parallel_for(&mut data, 1024, |start, chunk| {
            assert_eq!(start, 0);
            assert_eq!(chunk.len(), 8);
            chunk.fill(7);
        });
        assert!(data.iter().all(|&b| b == 7));
    }

    #[test]
    fn map_vec_preserves_order() {
        let pool = Pool::new(4);
        let items: Vec<usize> = (0..200).collect();
        let mapped = pool.map_vec(items, |i| i * 3);
        assert_eq!(mapped, (0..200).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn panic_in_task_propagates_and_pool_survives() {
        let pool = Pool::new(2);
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                s.spawn(|| panic!("task exploded"));
                s.spawn(|| { /* sibling still runs */ });
            });
        }));
        let payload = result.expect_err("scope should re-raise the task panic");
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("<non-str payload>");
        assert!(message.contains("task exploded"), "payload: {message}");
        // The worker that caught the panic keeps serving work.
        let (a, b) = both(&pool, || 40, || 2);
        assert_eq!(a + b, 42);
    }

    #[test]
    fn panic_in_join_closure_waits_for_sibling() {
        let pool = Pool::new(2);
        let done = AtomicBool::new(false);
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            both(
                &pool,
                || panic!("inline half"),
                || {
                    std::thread::sleep(Duration::from_millis(20));
                    done.store(true, Ordering::SeqCst);
                },
            )
        }));
        assert!(result.is_err());
        // The spawned half must have completed before the panic was re-raised
        // (otherwise it could still be using borrowed state).
        assert!(done.load(Ordering::SeqCst));
    }

    #[test]
    fn single_thread_pool_still_completes_everything() {
        let pool = Pool::new(1);
        let mut items: Vec<u64> = (1..=100).collect();
        pool.parallel_for(&mut items, 10, |_, chunk| {
            chunk.iter_mut().for_each(|x| *x *= 2)
        });
        assert_eq!(items.iter().sum::<u64>(), 10_100);
        assert_eq!(pool.map_vec(items, |x| x / 2).iter().sum::<u64>(), 5050);
        let (a, b) = both(&pool, || 1, || 2);
        assert_eq!((a, b), (1, 2));
    }

    #[test]
    fn zero_requested_threads_clamps_to_one() {
        let pool = Pool::new(0);
        assert_eq!(pool.num_threads(), 1);
    }

    #[test]
    fn dropping_a_pool_joins_its_workers_after_draining() {
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let pool = Pool::new(2);
            pool.scope(|s| {
                for _ in 0..32 {
                    let counter = Arc::clone(&counter);
                    s.spawn(move || {
                        counter.fetch_add(1, Ordering::SeqCst);
                    });
                }
            });
        } // drop
        assert_eq!(counter.load(Ordering::SeqCst), 32);
    }

    #[test]
    fn global_pool_exists_and_configure_fails_after_init() {
        let workers = global().num_threads();
        assert!(workers >= 1);
        assert_eq!(
            configure_global_threads(4),
            Err(ConfigureError::PoolInitialized { workers })
        );
    }

    #[test]
    fn nested_parallel_for_inside_map_vec_tasks() {
        // The FastMCD-inside-a-partition shape: coarse outer tasks that each
        // fan out elementwise inner work on the same pool.
        let pool = Pool::new(4);
        let partitions: Vec<Vec<u64>> = (0..6).map(|p| (0..5_000).map(|i| p + i).collect()).collect();
        let expected: Vec<u64> = partitions.iter().map(|v| v.iter().sum()).collect();
        let sums = pool.map_vec(partitions, |mut partition| {
            pool.parallel_for(&mut partition, 256, |_, chunk| {
                for value in chunk.iter_mut() {
                    *value = value.wrapping_mul(1); // touch every element
                }
            });
            let chunks: Vec<&[u64]> = partition.chunks(256).collect();
            pool.map_vec(chunks, |chunk| chunk.iter().sum::<u64>())
                .into_iter()
                .sum::<u64>()
        });
        assert_eq!(sums, expected);
    }

    #[test]
    fn worker_counters_sum_to_spawn_count_at_any_thread_count() {
        // The telemetry contract: per-worker executed counters are a
        // commutative monoid, so their fold equals the number of spawned
        // jobs at 1, 2, and 4 threads — scheduling and stealing only move
        // counts between workers, never create or lose them.
        const TASKS: usize = 257;
        for threads in [1usize, 2, 4] {
            let pool = Pool::new(threads);
            let before = pool.total_stats();
            assert_eq!(before.tasks_executed, 0);
            let counter = AtomicUsize::new(0);
            pool.scope(|s| {
                for _ in 0..TASKS {
                    s.spawn(|| {
                        counter.fetch_add(1, Ordering::SeqCst);
                    });
                }
            });
            assert_eq!(counter.load(Ordering::SeqCst), TASKS);
            let delta = pool.total_stats().since(&before);
            assert_eq!(
                delta.tasks_executed, TASKS as u64,
                "executed-counter fold diverged at {threads} threads"
            );
            // The scope owner is a foreign thread here, so every job entered
            // via the injector; pops from it can never exceed submissions.
            assert!(delta.injector_pops <= TASKS as u64);
        }
    }

    #[test]
    fn worker_stats_are_per_worker_and_combine() {
        let pool = Pool::new(3);
        pool.scope(|s| {
            for _ in 0..64 {
                s.spawn(|| std::hint::black_box(()));
            }
        });
        // A worker may still be on its way to park after the scope returns
        // (bumping `idle_parks`), so compare the fold against totals that
        // did not move while the per-worker counters were read. Counters
        // only grow, so equal totals before and after mean nothing changed.
        let folded = loop {
            let before = pool.total_stats();
            let per_worker = pool.worker_stats();
            assert_eq!(per_worker.len(), 3);
            let folded = per_worker
                .into_iter()
                .fold(pool.helper_stats(), WorkerStats::combined);
            if pool.total_stats() == before {
                assert_eq!(folded, before);
                break folded;
            }
        };
        assert_eq!(folded.tasks_executed, 64);
        let again = pool.total_stats().since(&folded);
        assert_eq!(again.tasks_executed, 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn map_vec_matches_sequential_map(values in proptest::collection::vec(0u32..10_000, 0..200)) {
            let pool = Pool::new(3);
            let sequential: Vec<u64> = values.iter().map(|&v| (v as u64) << 1).collect();
            let parallel = pool.map_vec(values, |v| (v as u64) << 1);
            prop_assert_eq!(parallel, sequential);
        }
    }
}
