//! Persistent worker-pool executor with boundary-yield scheduling.
//!
//! The sharded engine's fan-out used to spawn one scoped thread per
//! involved shard on **every** ingest call and join them before
//! returning — thread churn on the hot path, and ingest admission gated
//! on the slowest shard: one expensive standing query stalled every
//! sibling's view of the stream. This module replaces that with a pool
//! the engine owns for its lifetime:
//!
//! * **Tasks are batch boundaries.** One `Task` is one shard's slice
//!   of one ingest batch / delta batch / heartbeat / push flush. Workers
//!   run exactly one task per scheduling turn and then *yield* the shard
//!   back to the ready list, so a shard with a deep backlog (a slow
//!   query) drains at its own pace while sibling shards' tasks keep
//!   being picked up — batch boundaries are the yield points.
//! * **Per-shard FIFO queues, bounded.** Work for a shard is executed in
//!   exactly the order it was submitted (the correctness contract:
//!   sequential execution reordered only *across* shards, never within
//!   one). Queues are bounded by `queue_depth`; a producer that finds a
//!   queue full blocks until the owning worker makes progress
//!   (backpressure — memory stays flat under sustained skew, and the
//!   admission stall is recorded in [`ExecutorStats`]).
//! * **Quiescence, not global joins.** Readers (snapshots, telemetry,
//!   lifecycle ops, migrations) call `Executor::quiesce` on exactly
//!   the shards they touch; nothing ever waits for the whole engine
//!   unless it asks for a coherent global snapshot
//!   (`Executor::quiesce_all`).
//! * **Three scheduling modes** ([`Scheduling`]): `Sequential` runs
//!   every task inline on the submitting thread (no threads, no
//!   scheduler noise in per-shard busy accounting); `Pool` runs the
//!   persistent workers;
//!   `Deterministic(seed)` keeps the queues but replays a fixed, seeded
//!   interleaving on the submitting thread — tasks are deferred and
//!   executed out of order across shards exactly as a pool would, but
//!   reproducibly, which is what makes the scheduling-determinism
//!   property in `tests/sharding.rs` assertable.
//!
//! Worker panics are caught and surfaced as deferred
//! [`AspenError::Execution`] errors (the `parking_lot` shim does not
//! poison, matching the real crate), so the engine stays usable — the
//! panicking shard's slice may be partially applied, like any mid-batch
//! operator error. Errors raised by deferred tasks are sticky until
//! observed once: the next submission (ingest / heartbeat) *or* the
//! next quiescing read (snapshot, lifecycle op) returns them — a failed
//! deferred boundary is never silently swallowed.

use std::collections::VecDeque;
use std::ops::Deref;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use aspen_types::{AspenError, Result, SimTime, SourceId, Tuple};
use parking_lot::Mutex;

use crate::delta::DeltaBatch;
use crate::shard::EngineShard;
use crate::state::Coded;
use crate::telemetry::WorkerLoad;
use crate::trace::{now_us, TraceCtx};

/// How the engine schedules per-shard boundary tasks. Fixed at
/// construction via [`crate::session::EngineConfig::scheduling`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Scheduling {
    /// Every task runs inline on the ingest thread, shard by shard —
    /// ingest admission waits for all involved shards (the old gated
    /// fan-out semantics, minus the thread churn).
    #[default]
    Sequential,
    /// Persistent worker pool: tasks are enqueued per shard and ingest
    /// returns as soon as admission succeeds; workers drain the queues
    /// concurrently, yielding between batch boundaries.
    Pool,
    /// Single-threaded pool semantics with a seeded, replayable
    /// interleaving: tasks are deferred in the same bounded queues and
    /// executed in an order drawn from the seed. Reserved for tests —
    /// the same seed over the same event sequence replays the same
    /// interleaving exactly.
    Deterministic(u64),
}

/// One shard's slice of one batch boundary. A [`Boundary`] borrows its
/// payload from the call site: sequential mode executes it in place (no
/// allocation at all — the single-shard default engine pays nothing for
/// the pool's existence). A [`Task`] owns it, so it can outlive the
/// submitting call; the deferred modes convert a boundary to a task
/// once, and the payload is shared (`Arc`) across the involved shards,
/// so fan-out enqueueing (and `Clone`) never copies tuple data per shard.
#[derive(Clone)]
pub(crate) enum Work<T, D> {
    /// A stream batch, its tuples numbered from `first` and its text
    /// coded at admission.
    Batch {
        src: SourceId,
        first: u64,
        tuples: T,
        text: Option<Arc<Coded>>,
        trace: Option<TraceCtx>,
    },
    Deltas {
        src: SourceId,
        deltas: D,
        trace: Option<TraceCtx>,
    },
    AdvanceTime(SimTime),
    FlushPush(SimTime),
}

/// Borrowed work, as the engine holds it at the call site.
pub(crate) type Boundary<'a> = Work<&'a [Tuple], &'a DeltaBatch>;
/// Owned work, queued.
pub(crate) type Task = Work<Arc<[Tuple]>, Arc<DeltaBatch>>;

impl<T: Deref<Target = [Tuple]>, D: Deref<Target = DeltaBatch>> Work<T, D> {
    fn run(&self, shard: &mut EngineShard) -> Result<()> {
        match self {
            Work::Batch {
                src,
                first,
                tuples,
                text,
                trace,
            } => shard.push_batch(*src, *first, tuples, text.as_deref(), *trace),
            Work::Deltas { src, deltas, trace } => shard.push_deltas(*src, deltas, *trace),
            Work::AdvanceTime(now) => shard.advance_time(*now),
            Work::FlushPush(now) => {
                shard.flush_push(*now);
                Ok(())
            }
        }
    }
}

impl Boundary<'_> {
    fn to_task(&self) -> Task {
        match self {
            Work::Batch {
                src,
                first,
                tuples,
                text,
                trace,
            } => Work::Batch {
                src: *src,
                first: *first,
                tuples: Arc::from(*tuples),
                text: text.clone(),
                trace: *trace,
            },
            Work::Deltas { src, deltas, trace } => Work::Deltas {
                src: *src,
                deltas: Arc::new((*deltas).clone()),
                trace: *trace,
            },
            Work::AdvanceTime(now) => Work::AdvanceTime(*now),
            Work::FlushPush(now) => Work::FlushPush(*now),
        }
    }
}

/// Scheduling-side state of one shard: its pending-task queue plus the
/// flags that serialize execution (exactly one worker runs a shard at a
/// time, and a shard appears on the ready list at most once).
#[derive(Default)]
struct ShardQueue {
    /// Pending tasks, each stamped with the boundary sequence number it
    /// belongs to (the shard's applied watermark advances to it once the
    /// task completes) and its admission tick ([`now_us`]) — the
    /// queue-wait histogram resolves against that stamp at execution.
    tasks: VecDeque<(u64, Task, u64)>,
    /// A worker is executing a task for this shard right now.
    running: bool,
    /// The shard is on the pool's ready list.
    enlisted: bool,
    /// Worker that last ran this shard (steal accounting).
    last_worker: Option<usize>,
    /// Deepest the queue has ever been (stays ≤ `queue_depth`: every
    /// task enters through a bounded admission).
    high_water: usize,
}

/// One shard's cell: engine state behind the `parking_lot` shim plus the
/// scheduling queue, its condition variables, and the pair of watermark
/// counters the barrier-free read paths consume.
pub(crate) struct ShardCell {
    pub(crate) state: Mutex<EngineShard>,
    queue: StdMutex<ShardQueue>,
    /// Signaled when the shard drains to empty-and-idle (quiesce wait).
    idle_cv: Condvar,
    /// Signaled when a queue slot frees (backpressure wait).
    space_cv: Condvar,
    /// Highest boundary sequence number submitted to this shard.
    submitted: AtomicU64,
    /// Highest boundary sequence number fully applied on this shard —
    /// the shard's watermark. Monotone (`fetch_max`), published at batch
    /// boundaries; `submitted - applied` is the shard's staleness lag.
    applied: AtomicU64,
}

impl ShardCell {
    fn new() -> Self {
        ShardCell {
            state: Mutex::new(EngineShard::default()),
            queue: StdMutex::new(ShardQueue::default()),
            idle_cv: Condvar::new(),
            space_cv: Condvar::new(),
            submitted: AtomicU64::new(0),
            applied: AtomicU64::new(0),
        }
    }
}

/// Per-worker meters (lock-free; read by telemetry).
#[derive(Default)]
struct WorkerMeters {
    tasks: AtomicU64,
    busy_nanos: AtomicU64,
    steals: AtomicU64,
}

/// State shared between the engine thread and the pool workers.
struct PoolCore {
    cells: Vec<ShardCell>,
    /// Shards with pending work and no worker on them, oldest first.
    ready: StdMutex<VecDeque<usize>>,
    work_cv: Condvar,
    shutdown: AtomicBool,
    /// First deferred task error; surfaced by the next submission.
    error: StdMutex<Option<AspenError>>,
    queue_depth: usize,
    workers: Vec<WorkerMeters>,
    /// Total producer time spent blocked on full queues.
    stall_nanos: AtomicU64,
    tasks_executed: AtomicU64,
    /// Global boundary sequence: one tick per submission, carried by
    /// every task of that boundary into the per-shard watermarks.
    seq: AtomicU64,
}

impl PoolCore {
    /// Run one unit of boundary work against a shard's state, timing the
    /// shard meters exactly like the old fan-out did. Shared by every
    /// scheduling mode so the metering cannot drift between them. The
    /// returned duration covers execution only — time spent waiting for
    /// the shard-state lock is not busy time (worker meters would
    /// otherwise report an idle-blocked worker as saturated).
    fn run_metered(
        &self,
        shard: usize,
        enq_us: u64,
        run: impl FnOnce(&mut EngineShard) -> Result<()>,
    ) -> (Result<()>, Duration) {
        let mut state = self.cells[shard].state.lock();
        state
            .meters
            .queue_wait
            .record_us(now_us().saturating_sub(enq_us));
        let start = Instant::now();
        let result = run(&mut state);
        let elapsed = start.elapsed();
        state.meters.busy += elapsed;
        state.meters.batches += 1;
        self.tasks_executed.fetch_add(1, Ordering::Relaxed);
        (result, elapsed)
    }

    /// Run one deferred task, converting a panic into an `Err` so the
    /// worker (or draining thread) survives it — the panicking task's
    /// slice may be partially applied and its meters unrecorded, like
    /// any mid-batch operator failure. Publishes the shard's applied
    /// watermark.
    fn execute(&self, shard: usize, seq: u64, task: &Task, enq_us: u64) -> (Result<()>, Duration) {
        let (result, busy) = catch_unwind(AssertUnwindSafe(|| {
            self.run_metered(shard, enq_us, |s| task.run(s))
        }))
        .unwrap_or_else(|_| {
            (
                Err(AspenError::Execution("shard worker panicked".into())),
                Duration::ZERO,
            )
        });
        self.cells[shard].applied.fetch_max(seq, Ordering::Relaxed);
        (result, busy)
    }

    fn record_error(&self, result: Result<()>) {
        if let Err(e) = result {
            self.error.lock().unwrap().get_or_insert(e);
        }
    }

    fn take_error(&self) -> Option<AspenError> {
        self.error.lock().unwrap().take()
    }
}

/// A deterministic xorshift64* generator for the `Deterministic` mode's
/// interleaving choices. Self-contained so the executor needs no RNG
/// dependency; the sequence is a pure function of the seed.
struct DetRng(u64);

impl DetRng {
    fn new(seed: u64) -> Self {
        // Mix the seed so 0, 1, 2, ... give unrelated streams.
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        DetRng((z ^ (z >> 31)) | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn pick(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    /// True with probability `num / den`.
    fn chance(&mut self, num: u64, den: u64) -> bool {
        self.next() % den < num
    }
}

enum Mode {
    Sequential,
    Pool,
    Deterministic(StdMutex<DetRng>),
}

/// Point-in-time scheduling statistics (queue depths, admission stall).
/// Exposed through `ShardedEngine::executor_stats` for the isolation
/// tests and the benchmark.
#[derive(Debug, Clone, Default)]
pub struct ExecutorStats {
    /// Tasks currently queued per shard (excludes the one mid-flight).
    pub pending: Vec<usize>,
    /// Deepest each shard's queue has ever been — bounded by the
    /// configured queue depth, by construction.
    pub high_water: Vec<usize>,
    /// Total producer time spent blocked on full queues (backpressure).
    pub admission_stall_seconds: f64,
    /// Tasks executed so far (all modes).
    pub tasks_executed: u64,
    /// Worker threads serving the queues (0 outside `Pool` mode).
    pub workers: usize,
}

/// The engine's boundary-task executor: owns the shard cells and, in
/// `Pool` mode, the persistent worker threads.
pub(crate) struct Executor {
    core: Arc<PoolCore>,
    handles: Vec<JoinHandle<()>>,
    mode: Mode,
    /// The mode as resolved at construction.
    pub(crate) scheduling: Scheduling,
}

impl Executor {
    pub(crate) fn new(shards: usize, scheduling: Scheduling, workers: usize, depth: usize) -> Self {
        let core = Arc::new(PoolCore {
            cells: (0..shards.max(1)).map(|_| ShardCell::new()).collect(),
            ready: StdMutex::new(VecDeque::new()),
            work_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            error: StdMutex::new(None),
            queue_depth: depth.max(1),
            workers: match scheduling {
                Scheduling::Pool => (0..workers.max(1))
                    .map(|_| WorkerMeters::default())
                    .collect(),
                _ => Vec::new(),
            },
            stall_nanos: AtomicU64::new(0),
            tasks_executed: AtomicU64::new(0),
            seq: AtomicU64::new(0),
        });
        let (mode, handles) = match scheduling {
            Scheduling::Sequential => (Mode::Sequential, Vec::new()),
            Scheduling::Deterministic(seed) => (
                Mode::Deterministic(StdMutex::new(DetRng::new(seed))),
                Vec::new(),
            ),
            Scheduling::Pool => {
                let handles = (0..core.workers.len())
                    .map(|w| {
                        let core = Arc::clone(&core);
                        std::thread::Builder::new()
                            .name(format!("aspen-shard-worker-{w}"))
                            .spawn(move || worker_loop(core, w))
                            .expect("spawn pool worker")
                    })
                    .collect();
                (Mode::Pool, handles)
            }
        };
        Executor {
            core,
            handles,
            mode,
            scheduling,
        }
    }

    /// The engine state of one shard. Callers that need the state to
    /// reflect every submitted boundary must [`Executor::quiesce`] the
    /// shard first; callers reading fields only the coordinator writes
    /// (the runtimes' pause flags, the cursors) may lock directly —
    /// tasks never mutate those.
    pub(crate) fn shard(&self, i: usize) -> &Mutex<EngineShard> {
        &self.core.cells[i].state
    }

    /// Submit one boundary's work to the involved shards. `Sequential`
    /// runs it inline on every involved shard and returns the first
    /// error, so a shard that fails never keeps the boundary from the
    /// ones after it; the deferred modes enqueue with backpressure and
    /// surface any *earlier* deferred error. Every submission ticks the
    /// global boundary sequence and advances the involved shards'
    /// `submitted` watermarks.
    pub(crate) fn submit(&self, involved: &[usize], item: Boundary<'_>) -> Result<()> {
        let seq = self.core.seq.fetch_add(1, Ordering::Relaxed) + 1;
        for &i in involved {
            self.core.cells[i]
                .submitted
                .fetch_max(seq, Ordering::Relaxed);
        }
        match &self.mode {
            Mode::Sequential => {
                let mut served = Ok(());
                for &i in involved {
                    let run = self.run_inline(i, seq, &item);
                    served = served.and(run);
                }
                served
            }
            Mode::Pool => {
                if !involved.is_empty() {
                    let task = item.to_task();
                    for &i in involved {
                        self.enqueue_pool(i, seq, task.clone());
                    }
                }
                self.core.take_error().map_or(Ok(()), Err)
            }
            Mode::Deterministic(rng) => {
                let mut rng = rng.lock().unwrap();
                if !involved.is_empty() {
                    let task = item.to_task();
                    for &i in involved {
                        self.enqueue_det(i, seq, task.clone());
                    }
                }
                // Replay a seeded amount of deferred work, drawn shard by
                // shard — the fixed interleaving the mode's name promises.
                while rng.chance(1, 2) && self.det_step(&mut rng) {}
                self.core.take_error().map_or(Ok(()), Err)
            }
        }
    }

    /// Sequential fast path: run the borrowed boundary directly against
    /// the shard state — no allocation, no Arc, panics propagate on the
    /// submitting thread like the old inline loop.
    fn run_inline(&self, i: usize, seq: u64, item: &Boundary<'_>) -> Result<()> {
        let result = self
            .core
            .run_metered(i, now_us(), |state| item.run(state))
            .0;
        self.core.cells[i].applied.fetch_max(seq, Ordering::Relaxed);
        result
    }

    /// Enqueue with backpressure: block while the shard's queue is full.
    fn enqueue_pool(&self, i: usize, seq: u64, task: Task) {
        let cell = &self.core.cells[i];
        let mut q = cell.queue.lock().unwrap();
        while q.tasks.len() >= self.core.queue_depth {
            let t0 = Instant::now();
            q = cell.space_cv.wait(q).unwrap();
            self.core
                .stall_nanos
                .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
        q.tasks.push_back((seq, task, now_us()));
        q.high_water = q.high_water.max(q.tasks.len());
        if !q.enlisted && !q.running {
            q.enlisted = true;
            drop(q);
            self.core.ready.lock().unwrap().push_back(i);
            self.core.work_cv.notify_one();
        }
    }

    /// Deterministic enqueue: a full queue makes *admission* run that
    /// shard's oldest tasks inline until a slot frees — the
    /// single-threaded equivalent of blocking on the worker's progress,
    /// so the depth bound holds identically in both deferred modes.
    fn enqueue_det(&self, i: usize, seq: u64, task: Task) {
        loop {
            {
                let mut q = self.core.cells[i].queue.lock().unwrap();
                if q.tasks.len() < self.core.queue_depth {
                    q.tasks.push_back((seq, task, now_us()));
                    q.high_water = q.high_water.max(q.tasks.len());
                    return;
                }
            }
            self.run_head(i);
        }
    }

    /// Execute the oldest pending task of one shard (deferred modes on
    /// the submitting thread). Returns false if the queue was empty.
    fn run_head(&self, i: usize) -> bool {
        let (seq, task, enq_us) = {
            let mut q = self.core.cells[i].queue.lock().unwrap();
            match q.tasks.pop_front() {
                Some(t) => t,
                None => return false,
            }
        };
        let (result, _) = self.core.execute(i, seq, &task, enq_us);
        self.core.record_error(result);
        true
    }

    /// One deterministic scheduling step: pick a random shard with
    /// pending work and run its head task. Returns false when every
    /// queue is empty.
    fn det_step(&self, rng: &mut DetRng) -> bool {
        let pending: Vec<usize> = (0..self.core.cells.len())
            .filter(|&i| !self.core.cells[i].queue.lock().unwrap().tasks.is_empty())
            .collect();
        if pending.is_empty() {
            return false;
        }
        let i = pending[rng.pick(pending.len())];
        self.run_head(i)
    }

    /// Wait until `shard` has no queued or mid-flight task — every
    /// boundary submitted for it so far is fully applied — without
    /// consuming any deferred error (for surfaces that cannot return
    /// one, e.g. telemetry). In the deferred single-threaded mode this
    /// *drains* the shard in FIFO order on the calling thread.
    pub(crate) fn settle(&self, shard: usize) {
        match &self.mode {
            Mode::Sequential => {}
            Mode::Deterministic(_) => while self.run_head(shard) {},
            Mode::Pool => {
                let cell = &self.core.cells[shard];
                let mut q = cell.queue.lock().unwrap();
                while !q.tasks.is_empty() || q.running {
                    q = cell.idle_cv.wait(q).unwrap();
                }
            }
        }
    }

    /// Settle every shard without consuming deferred errors — the
    /// global barrier for infallible coherent snapshots
    /// ([`crate::session::Consistency::Fresh`] reads). Tasks enqueue no
    /// further work, so one pass drains everything.
    pub(crate) fn settle_all(&self) {
        for i in 0..self.core.cells.len() {
            self.settle(i);
        }
    }

    /// One shard's `(submitted, applied)` boundary watermarks. `applied`
    /// is published at batch boundaries as tasks complete; the
    /// difference is the shard's staleness lag, and `min(applied)` over
    /// a set of shards is the consistent cut the barrier-free read
    /// paths expose.
    pub(crate) fn watermark(&self, i: usize) -> (u64, u64) {
        let cell = &self.core.cells[i];
        (
            cell.submitted.load(Ordering::Relaxed),
            cell.applied.load(Ordering::Relaxed),
        )
    }

    /// [`Executor::settle`], then surface any deferred task error the
    /// drain uncovered (or an earlier one not yet observed). Errors are
    /// sticky until observed once: whoever sees it first — a submission
    /// or a quiescing read — gets it, so a failed deferred boundary can
    /// never be silently swallowed by a read path.
    pub(crate) fn quiesce(&self, shard: usize) -> Result<()> {
        self.settle(shard);
        self.core.take_error().map_or(Ok(()), Err)
    }

    /// Quiesce every shard and surface any deferred error. Point reads
    /// and migrations use the per-shard [`Executor::quiesce`] instead.
    pub(crate) fn quiesce_all(&self) -> Result<()> {
        self.settle_all();
        self.core.take_error().map_or(Ok(()), Err)
    }

    pub(crate) fn stats(&self) -> ExecutorStats {
        let mut pending = Vec::with_capacity(self.core.cells.len());
        let mut high_water = Vec::with_capacity(self.core.cells.len());
        for cell in &self.core.cells {
            let q = cell.queue.lock().unwrap();
            pending.push(q.tasks.len());
            high_water.push(q.high_water);
        }
        ExecutorStats {
            pending,
            high_water,
            admission_stall_seconds: self.core.stall_nanos.load(Ordering::Relaxed) as f64 / 1e9,
            tasks_executed: self.core.tasks_executed.load(Ordering::Relaxed),
            workers: self.handles.len(),
        }
    }

    /// Per-worker busy/steal meters for the telemetry report (empty
    /// outside `Pool` mode — the inline modes have no workers to meter).
    pub(crate) fn worker_loads(&self) -> Vec<WorkerLoad> {
        self.core
            .workers
            .iter()
            .enumerate()
            .map(|(w, m)| WorkerLoad {
                worker: w,
                tasks: m.tasks.load(Ordering::Relaxed),
                busy_seconds: m.busy_nanos.load(Ordering::Relaxed) as f64 / 1e9,
                steals: m.steals.load(Ordering::Relaxed),
            })
            .collect()
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        // Set the flag while holding the ready-list lock: a worker is
        // then either before its shutdown check (and will see the flag)
        // or already parked in work_cv.wait (and the notify below wakes
        // it into a re-check). Storing outside the lock could land in
        // the window between a worker's check and its wait — the notify
        // would have no waiter and the join would hang forever.
        {
            let _ready = self.core.ready.lock().unwrap();
            self.core.shutdown.store(true, Ordering::SeqCst);
        }
        self.core.work_cv.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// The worker loop: claim a ready shard, run exactly one of its tasks,
/// then yield the shard back (to the *tail* of the ready list if it
/// still has work) so a backlogged shard shares the pool fairly with
/// its siblings instead of monopolizing a worker between boundaries.
fn worker_loop(core: Arc<PoolCore>, w: usize) {
    loop {
        let shard = {
            let mut ready = core.ready.lock().unwrap();
            loop {
                if core.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(i) = ready.pop_front() {
                    break i;
                }
                ready = core.work_cv.wait(ready).unwrap();
            }
        };
        let cell = &core.cells[shard];
        let (seq, task, enq_us) = {
            let mut q = cell.queue.lock().unwrap();
            q.enlisted = false;
            match q.tasks.pop_front() {
                Some(t) => {
                    q.running = true;
                    if q.last_worker.is_some_and(|last| last != w) {
                        core.workers[w].steals.fetch_add(1, Ordering::Relaxed);
                    }
                    q.last_worker = Some(w);
                    t
                }
                None => {
                    cell.idle_cv.notify_all();
                    continue;
                }
            }
        };
        cell.space_cv.notify_one();

        // Busy time comes from inside the state lock (run_metered), so a
        // worker blocked behind a coordinator read is idle, not busy.
        let (result, busy) = core.execute(shard, seq, &task, enq_us);
        core.workers[w]
            .busy_nanos
            .fetch_add(busy.as_nanos() as u64, Ordering::Relaxed);
        core.workers[w].tasks.fetch_add(1, Ordering::Relaxed);
        core.record_error(result);

        // Boundary yield: release the shard; re-enlist it at the back of
        // the ready list if more boundaries are pending, or wake any
        // quiesce waiter if it just drained.
        let mut q = cell.queue.lock().unwrap();
        q.running = false;
        if q.tasks.is_empty() {
            drop(q);
            cell.idle_cv.notify_all();
        } else if !q.enlisted {
            q.enlisted = true;
            drop(q);
            core.ready.lock().unwrap().push_back(shard);
            core.work_cv.notify_one();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn det_rng_is_deterministic_and_seed_sensitive() {
        let mut a = DetRng::new(7);
        let mut b = DetRng::new(7);
        let xs: Vec<u64> = (0..16).map(|_| a.next()).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.next()).collect();
        assert_eq!(xs, ys);
        let mut c = DetRng::new(8);
        let zs: Vec<u64> = (0..16).map(|_| c.next()).collect();
        assert_ne!(xs, zs);
        // pick stays in range, chance extremes behave.
        let mut r = DetRng::new(0);
        for _ in 0..64 {
            assert!(r.pick(3) < 3);
            assert!(r.chance(1, 1));
            assert!(!r.chance(0, 2));
        }
    }

    #[test]
    fn empty_executor_quiesces_and_reports() {
        // All three modes build, quiesce on nothing, and report stats.
        for scheduling in [
            Scheduling::Sequential,
            Scheduling::Pool,
            Scheduling::Deterministic(3),
        ] {
            let e = Executor::new(2, scheduling, 2, 4);
            e.quiesce_all().unwrap();
            let stats = e.stats();
            assert_eq!(stats.pending, vec![0, 0]);
            assert_eq!(stats.high_water, vec![0, 0]);
            assert_eq!(stats.tasks_executed, 0);
            assert_eq!(
                stats.workers,
                if scheduling == Scheduling::Pool { 2 } else { 0 }
            );
            assert_eq!(
                e.worker_loads().len(),
                if scheduling == Scheduling::Pool { 2 } else { 0 }
            );
        }
    }
}
