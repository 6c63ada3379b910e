//! The parallel decode engine: a long-lived worker pool that decodes
//! independent blocks across cores.
//!
//! Parallelism is **across blocks**:
//! [`DecodeEngine::decode_batch_parallel`], the streaming
//! [`DecodeEngine::submit`]/[`DecodeEngine::drain`] pair, and the
//! service layer's dispatch hook each hand one whole block to one
//! worker, which owns one [`DecodeWorkspace`] for its lifetime — the
//! per-core workspace that keeps the §7.1 attempt loop allocation-free
//! once warm. The block's beam search runs serially in the
//! [`decoder`](crate::decoder) under the submitting decoder's profile,
//! so every path is bit-for-bit identical to a serial decode at every
//! thread count. The paper's case for splitting one beam step across
//! parallel lanes (§7, and "De-randomizing Shannon") is a hardware
//! argument; in software on a few cores the per-step dispatch costs
//! more than it saves, so the engine never splits a block.
//!
//! The pool is **long-lived** (no `std::thread::scope` per call): threads
//! are spawned by [`DecodeEngine::new`] and joined on drop, so a sweep
//! that decodes millions of blocks pays thread startup once. The engine
//! takes an explicit thread budget; callers that already fan out at the
//! trial level (e.g. `spinal_sim::sweep`) pass `1` and get the plain
//! serial path with zero coordination overhead, so the two layers of
//! parallelism compose without oversubscription.
//!
//! # Self-healing
//!
//! A worker that **panics** mid-job no longer takes the process with it
//! (the seed called `std::process::abort()` here): the attempt resolves
//! as [`DecodeFailure::WorkerPanicked`] — delivered through the same
//! completion channel a success would use, so `drain`/gather waiters
//! never hang — the poisoned thread exits, and its slot is respawned
//! with a fresh [`DecodeWorkspace`] (counted in
//! [`EngineStats::worker_respawns`]). An optional **stuck-attempt
//! watchdog** ([`DecodeEngine::with_watchdog`]) pairs a per-worker
//! heartbeat epoch (bumped at job boundaries and at every beam step via
//! the workspace, so a slow-but-progressing decode never looks stuck)
//! with a scanner thread: a worker busy for longer than
//! [`WatchdogConfig::after`] without a heartbeat is flagged, and under
//! [`WatchdogPolicy::CancelAndRespawn`] its attempt resolves as
//! [`DecodeFailure::StuckAttempt`], the wedged thread is detached, and
//! the slot is refilled. A cancelled attempt that later finishes anyway
//! is dropped by the (idempotent) completion latches and counted as
//! stale — never delivered twice, never lost silently.

use crate::decoder::{BubbleDecoder, DecodeResult, DecodeWorkspace};
use crate::rx::RxSymbols;
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Structured failure of one decode attempt. Since the self-healing
/// rework a failing worker never aborts the process: the attempt
/// resolves with one of these through the same completion path a
/// success would take (engine [`DecodeEngine::drain`], gather latches,
/// service `wait`/`try_result`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeFailure {
    /// The decode job panicked on its worker. The panic payload's
    /// message is preserved; the worker was torn down and its slot
    /// respawned with a fresh workspace.
    WorkerPanicked {
        /// The panic payload, when it was a string (the overwhelmingly
        /// common case); `"non-string panic payload"` otherwise.
        payload_msg: String,
    },
    /// The stuck-attempt watchdog cancelled the job: its worker was
    /// busy for `waited` without a heartbeat
    /// ([`WatchdogPolicy::CancelAndRespawn`]).
    StuckAttempt {
        /// How long the worker sat busy with no epoch progress.
        waited: Duration,
    },
}

impl std::fmt::Display for DecodeFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeFailure::WorkerPanicked { payload_msg } => {
                write!(f, "decode worker panicked: {payload_msg}")
            }
            DecodeFailure::StuckAttempt { waited } => {
                write!(
                    f,
                    "decode attempt stuck for {waited:?}; cancelled by watchdog"
                )
            }
        }
    }
}

impl std::error::Error for DecodeFailure {}

/// What the stuck-attempt watchdog does when it finds a worker busy
/// past [`WatchdogConfig::after`] with no heartbeat progress.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WatchdogPolicy {
    /// Count the event ([`EngineStats::watchdog_flags`]) and leave the
    /// worker alone — observability without intervention.
    Flag,
    /// Flag, then resolve the attempt as
    /// [`DecodeFailure::StuckAttempt`], detach the wedged thread, and
    /// respawn its slot so the pool keeps its full width.
    CancelAndRespawn,
}

/// Configuration for the opt-in stuck-attempt watchdog
/// ([`DecodeEngine::with_watchdog`]).
///
/// `after` is per *heartbeat*, not per job: the workspace bumps the
/// worker's epoch every beam step, so the threshold only needs to clear
/// the longest single step (microseconds to low milliseconds), not the
/// longest whole decode. The default (30 s, [`WatchdogPolicy::Flag`])
/// is deliberately conservative — orders of magnitude above any
/// legitimate step — and observe-only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// A busy worker whose epoch is unchanged for this long is stuck.
    pub after: Duration,
    /// What to do about it.
    pub policy: WatchdogPolicy,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            after: Duration::from_secs(30),
            policy: WatchdogPolicy::Flag,
        }
    }
}

/// Counters for the engine's self-healing machinery, snapshotted by
/// [`DecodeEngine::stats`]. All zero on a healthy engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Worker slots refilled after a panic or a watchdog cancel.
    pub worker_respawns: u64,
    /// Stuck attempts the watchdog flagged (one per job at most).
    pub watchdog_flags: u64,
    /// Stuck attempts the watchdog cancelled (≤ flags).
    pub watchdog_cancels: u64,
    /// Submit completions that arrived after their generation was
    /// forgotten, or after their attempt was already resolved (e.g. a
    /// watchdog-cancelled job that finished anyway).
    pub stale_completions: u64,
}

/// The work half of a pool job: runs on a worker, with exclusive use of
/// that worker's long-lived [`DecodeWorkspace`].
pub(crate) type RunFn = Box<dyn FnOnce(&mut DecodeWorkspace) + Send + 'static>;

/// The failure half: invoked at most once, with the structured failure,
/// when the job panics or is cancelled by the watchdog. Must resolve
/// whatever completion the run half would have resolved.
pub(crate) type FailFn = Box<dyn FnOnce(DecodeFailure) + Send + 'static>;

/// A unit of work for the pool.
struct Job {
    run: RunFn,
    on_fail: Option<FailFn>,
}

// ---------------------------------------------------------------------
// Worker pool
// ---------------------------------------------------------------------

/// Per-worker shared state: the heartbeat the watchdog reads, the
/// cancel flag, and the running job's parked failure continuation.
/// Replaced wholesale (fresh `id`) when the slot is respawned.
struct WorkerCtx {
    /// Unique across respawns, so watchdog tracking resets when a slot
    /// is refilled.
    id: u64,
    /// Heartbeat epoch: bumped at job pickup/finish and — through the
    /// worker's workspace, which shares this counter — at every beam
    /// step, so a long-but-progressing decode never looks stuck.
    epoch: Arc<AtomicU64>,
    /// True while a job is running.
    busy: AtomicBool,
    /// Set by the watchdog on cancel: the worker exits instead of
    /// dequeuing another job (its slot already has a replacement).
    cancelled: AtomicBool,
    /// The watchdog already flagged the current job (one flag per job).
    flagged: AtomicBool,
    /// The running job's `on_fail`, parked here so both the panic path
    /// (the worker itself) and the watchdog can reach it; whoever takes
    /// it first resolves the attempt.
    fail: Mutex<Option<FailFn>>,
}

impl WorkerCtx {
    fn new() -> Arc<Self> {
        static NEXT_ID: AtomicU64 = AtomicU64::new(1);
        Arc::new(WorkerCtx {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            epoch: Arc::new(AtomicU64::new(0)),
            busy: AtomicBool::new(false),
            cancelled: AtomicBool::new(false),
            flagged: AtomicBool::new(false),
            fail: Mutex::new(None),
        })
    }
}

struct PoolState {
    queue: VecDeque<Job>,
    shutdown: bool,
    /// Live per-slot worker contexts (replaced on respawn).
    workers: Vec<Arc<WorkerCtx>>,
    /// Per-slot join handles; `None` for a detached (wedged) thread.
    handles: Vec<Option<std::thread::JoinHandle<()>>>,
    wd_handle: Option<std::thread::JoinHandle<()>>,
    respawns: u64,
    watchdog_flags: u64,
    watchdog_cancels: u64,
}

struct PoolShared {
    state: Mutex<PoolState>,
    ready: Condvar,
    /// Watchdog pacing, separate from `ready` so a job notification
    /// always wakes a worker, never just the watchdog.
    wd: Condvar,
}

/// Long-lived worker threads sharing one job queue. Each worker owns a
/// [`DecodeWorkspace`] (the "per-core workspace") handed to every job it
/// runs. Dropping the pool wakes and joins all workers.
struct WorkerPool {
    shared: Arc<PoolShared>,
}

fn spawn_worker(
    shared: &Arc<PoolShared>,
    slot: usize,
) -> (Arc<WorkerCtx>, std::thread::JoinHandle<()>) {
    let ctx = WorkerCtx::new();
    let handle = std::thread::Builder::new()
        .name(format!("spinal-decode-{slot}"))
        .spawn({
            let shared = Arc::clone(shared);
            let ctx = Arc::clone(&ctx);
            move || worker_loop(&shared, slot, &ctx)
        })
        .expect("spawn decode worker");
    (ctx, handle)
}

impl WorkerPool {
    fn new(workers: usize) -> Self {
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                queue: VecDeque::new(),
                shutdown: false,
                workers: Vec::new(),
                handles: Vec::new(),
                wd_handle: None,
                respawns: 0,
                watchdog_flags: 0,
                watchdog_cancels: 0,
            }),
            ready: Condvar::new(),
            wd: Condvar::new(),
        });
        {
            let mut st = shared.state.lock();
            for slot in 0..workers {
                let (ctx, handle) = spawn_worker(&shared, slot);
                st.workers.push(ctx);
                st.handles.push(Some(handle));
            }
        }
        WorkerPool { shared }
    }

    fn submit(&self, job: Job) {
        let mut st = self.shared.state.lock();
        st.queue.push_back(job);
        drop(st);
        self.shared.ready.notify_one();
    }

    /// Start the stuck-attempt watchdog thread (idempotent).
    fn start_watchdog(&self, cfg: WatchdogConfig) {
        let mut st = self.shared.state.lock();
        if st.wd_handle.is_some() {
            return;
        }
        let shared = Arc::clone(&self.shared);
        st.wd_handle = Some(
            std::thread::Builder::new()
                .name("spinal-watchdog".into())
                .spawn(move || watchdog_loop(&shared, cfg))
                .expect("spawn watchdog"),
        );
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        let (handles, wd_handle) = {
            let mut st = self.shared.state.lock();
            st.shutdown = true;
            (std::mem::take(&mut st.handles), st.wd_handle.take())
        };
        self.shared.ready.notify_all();
        self.shared.wd.notify_all();
        let me = std::thread::current().id();
        for h in handles.into_iter().flatten().chain(wd_handle) {
            if h.thread().id() == me {
                // The pool can be dropped *from one of its own workers*
                // (a service job holding the last Arc to the engine's
                // owner). Joining ourselves would deadlock/panic —
                // detach instead; the thread exits on its own once the
                // current job returns and it observes `shutdown`.
                drop(h);
            } else {
                let _ = h.join();
            }
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn worker_loop(shared: &Arc<PoolShared>, slot: usize, ctx: &Arc<WorkerCtx>) {
    let mut ws = DecodeWorkspace::new();
    // The workspace shares the worker's heartbeat epoch: every beam
    // step bumps it, so slow-but-progressing decodes never trip the
    // watchdog.
    ws.set_heartbeat(Arc::clone(&ctx.epoch));
    loop {
        let job = {
            let mut st = shared.state.lock();
            loop {
                if ctx.cancelled.load(Ordering::Relaxed) {
                    return;
                }
                if let Some(job) = st.queue.pop_front() {
                    break job;
                }
                if st.shutdown {
                    return;
                }
                shared.ready.wait(&mut st);
            }
        };
        ctx.epoch.fetch_add(1, Ordering::Relaxed);
        ctx.flagged.store(false, Ordering::Relaxed);
        *ctx.fail.lock() = job.on_fail;
        ctx.busy.store(true, Ordering::Relaxed);
        let run = job.run;
        // A panicking job must not take the process down (the seed
        // aborted here) or leave its dispatcher waiting forever on a
        // gather latch: catch it, resolve the attempt as a structured
        // failure, respawn the slot, and let this thread die.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(&mut ws)));
        ctx.busy.store(false, Ordering::Relaxed);
        ctx.epoch.fetch_add(1, Ordering::Relaxed);
        let on_fail = ctx.fail.lock().take();
        match outcome {
            Ok(()) => {
                // The job resolved its own completion; the unused
                // failure continuation just drops. A watchdog-cancelled
                // worker exits here (its completion was resolved as
                // StuckAttempt and its slot already refilled; the late
                // success was dropped by the idempotent latch).
                drop(on_fail);
                if ctx.cancelled.load(Ordering::Relaxed) {
                    return;
                }
            }
            Err(payload) => {
                let payload_msg = panic_message(payload.as_ref());
                drop(payload);
                {
                    let mut st = shared.state.lock();
                    if !ctx.cancelled.load(Ordering::Relaxed) && !st.shutdown {
                        st.respawns += 1;
                        let (new_ctx, handle) = spawn_worker(shared, slot);
                        st.workers[slot] = new_ctx;
                        // Overwrites this thread's own handle: the dying
                        // thread is detached, never joined.
                        st.handles[slot] = Some(handle);
                    }
                }
                if let Some(f) = on_fail {
                    f(DecodeFailure::WorkerPanicked { payload_msg });
                }
                return;
            }
        }
    }
}

fn watchdog_loop(shared: &Arc<PoolShared>, cfg: WatchdogConfig) {
    let tick = (cfg.after / 4).max(Duration::from_millis(1));
    // Per slot: (worker id, last seen epoch, when it was first seen).
    let mut seen: Vec<(u64, u64, Instant)> = Vec::new();
    loop {
        // Scan under the state lock, but deliver failure continuations
        // outside it: `on_fail` closures take caller locks (the service
        // slot/metrics locks) that must never nest under the pool's.
        let mut deliveries: Vec<(FailFn, Duration)> = Vec::new();
        {
            let mut st = shared.state.lock();
            if st.shutdown {
                return;
            }
            let now = Instant::now();
            seen.resize(st.workers.len(), (0, 0, now));
            let n_workers = st.workers.len();
            for (slot, entry) in seen.iter_mut().enumerate().take(n_workers) {
                let ctx = Arc::clone(&st.workers[slot]);
                let epoch = ctx.epoch.load(Ordering::Relaxed);
                let (id, last_epoch, since) = *entry;
                if ctx.id != id || epoch != last_epoch || !ctx.busy.load(Ordering::Relaxed) {
                    *entry = (ctx.id, epoch, now);
                    continue;
                }
                let waited = now.duration_since(since);
                if waited < cfg.after || ctx.flagged.swap(true, Ordering::Relaxed) {
                    continue;
                }
                st.watchdog_flags += 1;
                if cfg.policy == WatchdogPolicy::CancelAndRespawn {
                    ctx.cancelled.store(true, Ordering::Relaxed);
                    let on_fail = ctx.fail.lock().take();
                    // Detach the wedged thread (it exits on its own if
                    // the job ever finishes) and refill the slot.
                    drop(st.handles[slot].take());
                    st.watchdog_cancels += 1;
                    st.respawns += 1;
                    let (new_ctx, handle) = spawn_worker(shared, slot);
                    *entry = (new_ctx.id, 0, now);
                    st.workers[slot] = new_ctx;
                    st.handles[slot] = Some(handle);
                    if let Some(f) = on_fail {
                        deliveries.push((f, waited));
                    }
                }
            }
        }
        for (f, waited) in deliveries {
            f(DecodeFailure::StuckAttempt { waited });
        }
        let mut st = shared.state.lock();
        if st.shutdown {
            return;
        }
        shared.wd.wait_for(&mut st, tick);
    }
}

// ---------------------------------------------------------------------
// Completion latch
// ---------------------------------------------------------------------

struct GatherState<T> {
    slots: Vec<Option<Result<T, DecodeFailure>>>,
    remaining: usize,
}

/// Indexed completion latch: `n` producers each resolve one slot (a
/// value via `put`, a structured failure via `fail`), one consumer
/// `wait_all`s. Resolution is idempotent — the first outcome per slot
/// wins, so a watchdog-cancelled job that later completes anyway is
/// dropped rather than double-counted.
struct Gather<T> {
    state: Mutex<GatherState<T>>,
    done: Condvar,
}

impl<T> Gather<T> {
    fn new(n: usize) -> Arc<Self> {
        Arc::new(Gather {
            state: Mutex::new(GatherState {
                slots: (0..n).map(|_| None).collect(),
                remaining: n,
            }),
            done: Condvar::new(),
        })
    }

    fn resolve(&self, i: usize, outcome: Result<T, DecodeFailure>) {
        let mut st = self.state.lock();
        if st.slots[i].is_some() {
            return;
        }
        st.slots[i] = Some(outcome);
        st.remaining -= 1;
        if st.remaining == 0 {
            self.done.notify_all();
        }
    }

    fn put(&self, i: usize, value: T) {
        self.resolve(i, Ok(value));
    }

    fn fail(&self, i: usize, failure: DecodeFailure) {
        self.resolve(i, Err(failure));
    }

    /// Wait for every slot, then return the values in slot order — or
    /// the first failure, if any producer resolved with one.
    fn wait_all(&self) -> Result<Vec<T>, DecodeFailure> {
        let mut st = self.state.lock();
        while st.remaining > 0 {
            self.done.wait(&mut st);
        }
        st.slots
            .drain(..)
            .map(|slot| slot.expect("all gather slots filled"))
            .collect()
    }
}

/// One generation of the submit/drain stream: the submissions issued
/// between two `drain` calls, identified by a monotone counter.
struct GenStream {
    gen: u64,
    results: Vec<Option<Result<DecodeResult, DecodeFailure>>>,
    issued: usize,
    done: usize,
}

impl GenStream {
    fn new(gen: u64) -> Self {
        GenStream {
            gen,
            results: Vec::new(),
            issued: 0,
            done: 0,
        }
    }
}

struct SubmitState {
    /// The generation currently accepting submissions.
    open: GenStream,
    /// Generations closed by a `drain` that is still waiting for their
    /// in-flight jobs (one entry per concurrent drain).
    closed: Vec<GenStream>,
    /// Completions whose generation no longer exists (its stream was
    /// forgotten) or whose slot was already resolved (a cancelled
    /// attempt finishing late): detected, counted, and dropped — never
    /// attached to a newer stream, never double-delivered.
    stale: u64,
}

struct SubmitShared {
    state: Mutex<SubmitState>,
    done: Condvar,
}

impl SubmitShared {
    /// Record one finished submission against its generation. A
    /// completion whose stream is gone (the generation was forgotten)
    /// or whose slot was already resolved is counted as stale instead
    /// of corrupting a newer stream or double-filling a slot.
    fn complete(&self, gen: u64, idx: usize, result: Result<DecodeResult, DecodeFailure>) {
        let mut st = self.state.lock();
        let landed = {
            let stream = if st.open.gen == gen {
                Some(&mut st.open)
            } else {
                st.closed.iter_mut().find(|s| s.gen == gen)
            };
            match stream {
                Some(s) if s.results[idx].is_none() => {
                    s.results[idx] = Some(result);
                    s.done += 1;
                    if s.done == s.issued {
                        self.done.notify_all();
                    }
                    true
                }
                _ => false,
            }
        };
        if !landed {
            st.stale += 1;
        }
    }
}

/// A persistent multi-threaded decode engine that schedules whole
/// blocks onto a worker pool. See the module docs for the scheduling
/// model and the self-healing machinery around it.
///
/// Construction spawns exactly `threads` pool workers when `threads > 1`
/// (the dispatching thread only queues and blocks, so `threads` cores
/// stay busy); a budget of 1 spawns no threads at all and every call
/// runs inline, making `DecodeEngine::new(1)` a zero-overhead stand-in
/// wherever an engine is plumbed through.
///
/// All methods take `&self`; the engine is `Sync` and can be shared by
/// several sweep workers (inline decodes serialise on the engine's one
/// workspace, pooled jobs interleave in the shared queue). The
/// [`DecodeEngine::submit`]/[`DecodeEngine::drain`] pair is one shared
/// stream, but generation-counted so a racing drain closes only its own
/// generation — see its docs.
pub struct DecodeEngine {
    threads: usize,
    pool: Option<WorkerPool>,
    /// The workspace inline (thread budget 1) decodes run through.
    ws: Mutex<DecodeWorkspace>,
    submits: Arc<SubmitShared>,
}

impl std::fmt::Debug for DecodeEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DecodeEngine")
            .field("threads", &self.threads)
            .finish_non_exhaustive()
    }
}

impl DecodeEngine {
    /// Create an engine with a thread budget. `threads` is clamped to at
    /// least 1; a budget of 1 spawns no worker threads (see type docs).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        DecodeEngine {
            threads,
            pool: (threads > 1).then(|| WorkerPool::new(threads)),
            ws: Mutex::new(DecodeWorkspace::new()),
            submits: Arc::new(SubmitShared {
                state: Mutex::new(SubmitState {
                    open: GenStream::new(0),
                    closed: Vec::new(),
                    stale: 0,
                }),
                done: Condvar::new(),
            }),
        }
    }

    /// Enable the stuck-attempt watchdog on this engine's pool (no-op
    /// for an inline engine — nothing can wedge off-thread). See
    /// [`WatchdogConfig`] for threshold semantics.
    pub fn with_watchdog(self, cfg: WatchdogConfig) -> Self {
        if let Some(pool) = &self.pool {
            pool.start_watchdog(cfg);
        }
        self
    }

    /// The engine's thread budget.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Snapshot the self-healing counters: worker respawns, watchdog
    /// flags/cancels, stale completions. All zero on a healthy engine.
    pub fn stats(&self) -> EngineStats {
        let (worker_respawns, watchdog_flags, watchdog_cancels) = match &self.pool {
            None => (0, 0, 0),
            Some(pool) => {
                let st = pool.shared.state.lock();
                (st.respawns, st.watchdog_flags, st.watchdog_cancels)
            }
        };
        EngineStats {
            worker_respawns,
            watchdog_flags,
            watchdog_cancels,
            stale_completions: self.submits.state.lock().stale,
        }
    }

    /// Decode a batch of independent blocks across the worker pool (one
    /// whole block per job, each worker reusing its own workspace).
    /// Results are in input order and bit-for-bit identical to decoding
    /// each block serially under the decoder's profile.
    ///
    /// # Panics
    ///
    /// If a worker fails mid-batch (panic or watchdog cancel) the
    /// failure propagates as a panic *on the calling thread* with the
    /// structured failure's message — batch callers have no per-block
    /// failure channel. Streaming callers who need structured failures
    /// use [`DecodeEngine::submit`]/[`DecodeEngine::drain`].
    pub fn decode_batch_parallel(
        &self,
        dec: &BubbleDecoder,
        rxs: &[RxSymbols],
    ) -> Vec<DecodeResult> {
        match &self.pool {
            None => {
                let ws = &mut *self.ws.lock();
                rxs.iter()
                    .map(|rx| dec.decode_symbols_impl(rx, ws))
                    .collect()
            }
            Some(pool) => {
                let dec = Arc::new(dec.clone());
                let gather = Gather::new(rxs.len());
                for (i, rx) in rxs.iter().enumerate() {
                    let rx = rx.clone();
                    let dec = Arc::clone(&dec);
                    let on_done = Arc::clone(&gather);
                    let on_fail = Arc::clone(&gather);
                    pool.submit(Job {
                        run: Box::new(move |ws| {
                            on_done.put(i, dec.decode_symbols_impl(&rx, ws));
                        }),
                        on_fail: Some(Box::new(move |f| on_fail.fail(i, f))),
                    });
                }
                gather
                    .wait_all()
                    .unwrap_or_else(|f| panic!("batch decode failed: {f}"))
            }
        }
    }

    /// Queue one block for background decoding. Pair with
    /// [`DecodeEngine::drain`]; results come back in submission order.
    /// With a thread budget of 1 the decode runs inline here.
    ///
    /// The engine holds ONE submit/drain stream, but submissions are
    /// tagged with a generation counter: each `drain` closes the current
    /// generation and waits only for the submissions it saw, so a submit
    /// racing a drain lands cleanly in the *next* generation instead of
    /// being mis-ordered or lost, and a completion whose generation was
    /// [forgotten](DecodeEngine::forget_submissions) is counted in
    /// [`DecodeEngine::stale_completions`] rather than attached to a
    /// newer stream. Multi-session callers should still prefer the
    /// session layer ([`DecodeService`](crate::service::DecodeService)),
    /// which gives every caller its own completion handle.
    pub fn submit(&self, dec: &BubbleDecoder, rx: &RxSymbols) {
        match &self.pool {
            None => {
                let result = dec.decode_symbols_impl(rx, &mut self.ws.lock());
                let mut st = self.submits.state.lock();
                st.open.results.push(Some(Ok(result)));
                st.open.issued += 1;
                st.open.done += 1;
            }
            Some(pool) => {
                let (gen, idx) = self.reserve_submission();
                let dec = Arc::new(dec.clone());
                let rx = rx.clone();
                let submits = Arc::clone(&self.submits);
                let fail_submits = Arc::clone(&self.submits);
                pool.submit(Job {
                    run: Box::new(move |ws| {
                        let result = dec.decode_symbols_impl(&rx, ws);
                        submits.complete(gen, idx, Ok(result));
                    }),
                    on_fail: Some(Box::new(move |f| fail_submits.complete(gen, idx, Err(f)))),
                });
            }
        }
    }

    /// Test-only failure injection: queue a submission whose job is
    /// guaranteed to panic on its worker with `payload_msg`, exercising
    /// the real catch → respawn → structured-completion path. On an
    /// inline engine (no worker to poison) the failure is recorded
    /// directly. The poisoned slot drains as
    /// `Err(DecodeFailure::WorkerPanicked)` in submission order, like
    /// any other result.
    #[doc(hidden)]
    pub fn submit_poison(&self, payload_msg: &str) {
        let msg = payload_msg.to_string();
        match &self.pool {
            None => {
                let mut st = self.submits.state.lock();
                st.open
                    .results
                    .push(Some(Err(DecodeFailure::WorkerPanicked {
                        payload_msg: msg,
                    })));
                st.open.issued += 1;
                st.open.done += 1;
            }
            Some(pool) => {
                let (gen, idx) = self.reserve_submission();
                let submits = Arc::clone(&self.submits);
                pool.submit(Job {
                    run: Box::new(move |_ws| panic!("{}", msg)),
                    on_fail: Some(Box::new(move |f| submits.complete(gen, idx, Err(f)))),
                });
            }
        }
    }

    fn reserve_submission(&self) -> (u64, usize) {
        let mut st = self.submits.state.lock();
        let idx = st.open.issued;
        st.open.issued += 1;
        st.open.results.push(None);
        (st.open.gen, idx)
    }

    /// Wait for every [`DecodeEngine::submit`] issued before this call —
    /// from all threads — and return their outcomes in submission order:
    /// `Ok(result)` for a clean decode, `Err(failure)` for an attempt
    /// whose worker panicked or was cancelled by the watchdog (the
    /// engine respawned the worker either way; later submissions are
    /// unaffected). Closes the current generation: submissions that race
    /// in while a drain waits start a fresh generation and are returned
    /// by the *next* drain, never stolen by or blocking this one.
    pub fn drain(&self) -> Vec<Result<DecodeResult, DecodeFailure>> {
        let mut st = self.submits.state.lock();
        let gen = st.open.gen;
        let closing = std::mem::replace(&mut st.open, GenStream::new(gen + 1));
        st.closed.push(closing);
        loop {
            let pos = st
                .closed
                .iter()
                .position(|s| s.gen == gen)
                .expect("closed generation present until drained");
            if st.closed[pos].done == st.closed[pos].issued {
                let stream = st.closed.swap_remove(pos);
                return stream
                    .results
                    .into_iter()
                    .map(|slot| slot.expect("drained submit completed"))
                    .collect();
            }
            self.submits.done.wait(&mut st);
        }
    }

    /// Abandon every submission issued so far that no drain has claimed:
    /// the open generation is replaced and any still-running jobs from
    /// it complete as *stale* (counted, dropped — see
    /// [`DecodeEngine::stale_completions`]). Generations already closed
    /// by a waiting [`DecodeEngine::drain`] are untouched. Returns how
    /// many pending submissions were forgotten.
    pub fn forget_submissions(&self) -> usize {
        let mut st = self.submits.state.lock();
        let gen = st.open.gen;
        let forgotten = std::mem::replace(&mut st.open, GenStream::new(gen + 1));
        // Jobs already finished in the forgotten stream stay accounted
        // there (the stream is dropped whole); only still-running jobs
        // re-surface later, as stale completions.
        forgotten.issued
    }

    /// How many submit completions arrived after their generation was
    /// [forgotten](DecodeEngine::forget_submissions) or their slot was
    /// already resolved. A nonzero count means results were discarded
    /// by design, not lost silently.
    pub fn stale_completions(&self) -> u64 {
        self.submits.state.lock().stale
    }

    /// Whether this engine runs a worker pool (`threads > 1`) or inline.
    pub(crate) fn is_pooled(&self) -> bool {
        self.pool.is_some()
    }

    /// Run an arbitrary closure on a pool worker, returning `false` (and
    /// running nothing) when the engine has no pool — the caller then
    /// runs it inline. The closure receives the worker's long-lived
    /// [`DecodeWorkspace`] (whose heartbeat feeds the watchdog — callers
    /// decoding through their *own* workspace should copy the heartbeat
    /// over). `on_fail` resolves the caller's completion if the closure
    /// panics or is watchdog-cancelled; exactly one of the two runs to
    /// completion-resolution. The service layer's dispatch hook.
    pub(crate) fn pool_spawn(&self, f: RunFn, on_fail: FailFn) -> bool {
        match &self.pool {
            None => false,
            Some(pool) => {
                pool.submit(Job {
                    run: f,
                    on_fail: Some(on_fail),
                });
                true
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::DecodeRequest;
    use crate::bits::Message;
    use crate::encoder::Encoder;
    use crate::params::CodeParams;
    use crate::puncturing::Schedule;
    use crate::quant::MetricProfile;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use spinal_channel::{AwgnChannel, Channel};

    fn make_rx(p: &CodeParams, passes: usize, seed: u64) -> RxSymbols {
        let mut rng = StdRng::seed_from_u64(seed);
        let msg = Message::random(p.n, || rng.gen());
        let mut enc = Encoder::new(p, &msg);
        let schedule = Schedule::new(p.num_spines(), p.tail, p.puncturing);
        let mut rx = RxSymbols::new(schedule);
        let mut ch = AwgnChannel::new(9.0, seed.wrapping_add(7));
        rx.push(&ch.transmit(&enc.next_symbols(passes * p.symbols_per_pass())));
        rx
    }

    #[test]
    fn batch_parallel_matches_serial_batch_in_order() {
        let p = CodeParams::default().with_n(64).with_b(16);
        let rxs: Vec<RxSymbols> = (0..7).map(|s| make_rx(&p, 2, 100 + s)).collect();
        for profile in [MetricProfile::Exact, MetricProfile::Quantized] {
            let dec = BubbleDecoder::new(&p).with_profile(profile);
            let serial: Vec<DecodeResult> = rxs
                .iter()
                .map(|rx| DecodeRequest::new(&dec, rx).decode())
                .collect();
            let engine = DecodeEngine::new(3);
            let batch = engine.decode_batch_parallel(&dec, &rxs);
            assert_eq!(batch.len(), serial.len());
            for (a, b) in serial.iter().zip(&batch) {
                assert_eq!(a.message, b.message, "{profile:?}");
                assert_eq!(a.cost.to_bits(), b.cost.to_bits(), "{profile:?}");
            }
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let p = CodeParams::default().with_n(64);
        let dec = BubbleDecoder::new(&p);
        for threads in [1, 2] {
            let engine = DecodeEngine::new(threads);
            assert!(engine.decode_batch_parallel(&dec, &[]).is_empty());
            assert!(engine.drain().is_empty());
        }
    }

    #[test]
    fn submit_drain_preserves_submission_order() {
        let p = CodeParams::default().with_n(64).with_b(16);
        let rxs: Vec<RxSymbols> = (0..5).map(|s| make_rx(&p, 2, 40 + s)).collect();
        let dec = BubbleDecoder::new(&p);
        for threads in [1, 3] {
            let engine = DecodeEngine::new(threads);
            for rx in &rxs {
                engine.submit(&dec, rx);
            }
            let results = engine.drain();
            assert_eq!(results.len(), rxs.len(), "threads {threads}");
            for (rx, out) in rxs.iter().zip(&results) {
                let out = out.as_ref().expect("clean submit decodes");
                let serial = DecodeRequest::new(&dec, rx).decode();
                assert_eq!(serial.message, out.message);
                assert_eq!(serial.cost.to_bits(), out.cost.to_bits());
            }
            // The engine is reusable after a drain.
            engine.submit(&dec, &rxs[0]);
            let again = engine.drain();
            assert_eq!(again.len(), 1);
            assert_eq!(
                again[0].as_ref().expect("clean decode").message,
                DecodeRequest::new(&dec, &rxs[0]).decode().message
            );
        }
    }

    #[test]
    fn one_engine_serves_heterogeneous_parameters_and_profiles() {
        // Worker workspaces are parameter- AND profile-agnostic: one
        // engine must serve different (n, k, B, d) codes and alternating
        // metric profiles back to back through one submit/drain stream.
        let engine = DecodeEngine::new(2);
        let mut expected = Vec::new();
        for (n, k, b, d) in [
            (64usize, 4usize, 16usize, 1usize),
            (60, 3, 8, 2),
            (96, 4, 64, 1),
        ] {
            let p = CodeParams::default()
                .with_n(n)
                .with_k(k)
                .with_b(b)
                .with_d(d);
            let rx = make_rx(&p, 2, (n + b) as u64);
            for profile in [MetricProfile::Exact, MetricProfile::Quantized] {
                let dec = BubbleDecoder::new(&p).with_profile(profile);
                engine.submit(&dec, &rx);
                let serial = DecodeRequest::new(&dec, &rx).decode();
                expected.push((format!("{profile:?} n{n} k{k} B{b} d{d}"), serial));
            }
        }
        let drained = engine.drain();
        assert_eq!(drained.len(), expected.len());
        for ((case, serial), out) in expected.iter().zip(&drained) {
            let out = out.as_ref().expect("clean submit decodes");
            assert_eq!(out.message, serial.message, "{case}");
            assert_eq!(out.cost.to_bits(), serial.cost.to_bits(), "{case}");
        }
    }

    #[test]
    fn thread_budget_is_clamped_and_reported() {
        assert_eq!(DecodeEngine::new(0).threads(), 1);
        assert_eq!(DecodeEngine::new(3).threads(), 3);
    }

    #[test]
    fn forgotten_submissions_surface_as_stale_not_lost() {
        let p = CodeParams::default().with_n(64).with_b(16);
        let rxs: Vec<RxSymbols> = (0..3).map(|s| make_rx(&p, 2, 60 + s)).collect();
        let dec = BubbleDecoder::new(&p);
        for threads in [1, 3] {
            let engine = DecodeEngine::new(threads);
            for rx in &rxs {
                engine.submit(&dec, rx);
            }
            // Abandon the open generation: its in-flight completions
            // must be *counted* as stale, never delivered to a later
            // drain and never silently dropped.
            assert_eq!(engine.forget_submissions(), rxs.len(), "threads {threads}");
            assert_eq!(engine.forget_submissions(), 0, "forget is idempotent");
            engine.submit(&dec, &rxs[0]);
            let after = engine.drain();
            assert_eq!(after.len(), 1, "threads {threads}: post-forget drain");
            assert_eq!(
                after[0].as_ref().expect("clean decode").message,
                DecodeRequest::new(&dec, &rxs[0]).decode().message
            );
            // Pooled engines run forgotten jobs to completion and count
            // them; the inline engine never started them, so both ends
            // of the contract are "stale ≤ forgotten, drained exact".
            let stale = engine.stale_completions();
            if threads == 1 {
                assert_eq!(stale, 0, "inline engine runs nothing it forgets");
            } else {
                assert!(
                    stale <= rxs.len() as u64,
                    "stale {stale} exceeds the {} forgotten jobs",
                    rxs.len()
                );
            }
        }
    }

    #[test]
    fn injected_panic_resolves_structurally_and_respawns() {
        let p = CodeParams::default().with_n(64).with_b(16);
        let rxs: Vec<RxSymbols> = (0..2).map(|s| make_rx(&p, 2, 80 + s)).collect();
        let dec = BubbleDecoder::new(&p);
        for threads in [1, 2, 3] {
            let engine = DecodeEngine::new(threads);
            engine.submit(&dec, &rxs[0]);
            engine.submit_poison("injected decode panic");
            engine.submit(&dec, &rxs[1]);
            let results = engine.drain();
            assert_eq!(results.len(), 3, "threads {threads}");
            assert!(results[0].is_ok(), "threads {threads}: first submit clean");
            match &results[1] {
                Err(DecodeFailure::WorkerPanicked { payload_msg }) => {
                    assert_eq!(payload_msg, "injected decode panic", "threads {threads}");
                }
                other => panic!("threads {threads}: poison resolved as {other:?}"),
            }
            assert!(results[2].is_ok(), "threads {threads}: later submit clean");
            let stats = engine.stats();
            if threads > 1 {
                assert_eq!(
                    stats.worker_respawns, 1,
                    "threads {threads}: poisoned worker respawned exactly once"
                );
            } else {
                assert_eq!(stats.worker_respawns, 0, "inline engine has no workers");
            }
            assert_eq!(stats.stale_completions, 0, "threads {threads}");
            // The engine keeps serving at full width after the respawn.
            for rx in &rxs {
                engine.submit(&dec, rx);
            }
            for (rx, out) in rxs.iter().zip(engine.drain()) {
                let out = out.expect("post-respawn decode clean");
                assert_eq!(out.message, DecodeRequest::new(&dec, rx).decode().message);
            }
        }
    }

    #[test]
    fn repeated_panics_never_exhaust_the_pool() {
        let p = CodeParams::default().with_n(64).with_b(16);
        let rx = make_rx(&p, 2, 90);
        let dec = BubbleDecoder::new(&p);
        let engine = DecodeEngine::new(2);
        for round in 0..5 {
            engine.submit_poison("round poison");
            engine.submit(&dec, &rx);
            let results = engine.drain();
            assert_eq!(results.len(), 2, "round {round}");
            assert!(results[0].is_err(), "round {round}");
            assert!(results[1].is_ok(), "round {round}");
        }
        assert_eq!(engine.stats().worker_respawns, 5);
    }

    #[test]
    fn batch_panic_propagates_to_the_dispatcher() {
        // The batch path has no per-block failure channel: a worker
        // panic must surface as a *dispatcher* panic (never an abort,
        // never a hang) and the engine must stay usable afterwards.
        let p = CodeParams::default().with_n(64).with_b(16);
        let rx = make_rx(&p, 2, 91);
        let dec = BubbleDecoder::new(&p);
        let engine = DecodeEngine::new(2);
        let gather: Arc<Gather<()>> = Gather::new(1);
        let pool = engine.pool.as_ref().expect("pooled engine");
        let fail_gather = Arc::clone(&gather);
        pool.submit(Job {
            run: Box::new(|_ws| panic!("batch job poison")),
            on_fail: Some(Box::new(move |f| fail_gather.fail(0, f))),
        });
        match gather.wait_all() {
            Err(DecodeFailure::WorkerPanicked { payload_msg }) => {
                assert_eq!(payload_msg, "batch job poison");
            }
            other => panic!("gather resolved as {other:?}"),
        }
        // Still serves decodes at full correctness after the respawn.
        let serial = DecodeRequest::new(&dec, &rx).decode();
        let batch = engine.decode_batch_parallel(&dec, std::slice::from_ref(&rx));
        assert_eq!(batch[0].message, serial.message);
        assert_eq!(engine.stats().worker_respawns, 1);
    }

    /// Drive a raw stall job (sleeps without heartbeating) through the
    /// pool and collect whatever failure the watchdog delivers.
    fn run_stalled_job(engine: &DecodeEngine, stall: Duration) -> Arc<Mutex<Vec<DecodeFailure>>> {
        let failures: Arc<Mutex<Vec<DecodeFailure>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&failures);
        engine.pool.as_ref().expect("pooled engine").submit(Job {
            run: Box::new(move |_ws| std::thread::sleep(stall)),
            on_fail: Some(Box::new(move |f| sink.lock().push(f))),
        });
        failures
    }

    fn wait_until(deadline: Duration, mut done: impl FnMut() -> bool) -> bool {
        let start = Instant::now();
        while start.elapsed() < deadline {
            if done() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        done()
    }

    #[test]
    fn watchdog_flags_a_wedged_worker_without_killing_it() {
        let engine = DecodeEngine::new(2).with_watchdog(WatchdogConfig {
            after: Duration::from_millis(40),
            policy: WatchdogPolicy::Flag,
        });
        let failures = run_stalled_job(&engine, Duration::from_millis(400));
        assert!(
            wait_until(Duration::from_secs(10), || engine.stats().watchdog_flags
                >= 1),
            "watchdog never flagged the stalled worker: {:?}",
            engine.stats()
        );
        // Flag-only policy: no cancel, no respawn, no failure delivered.
        let stats = engine.stats();
        assert_eq!(stats.watchdog_flags, 1, "one flag per job");
        assert_eq!(stats.watchdog_cancels, 0);
        assert_eq!(stats.worker_respawns, 0);
        assert!(failures.lock().is_empty());
    }

    #[test]
    fn watchdog_cancels_and_respawns_a_wedged_worker() {
        let p = CodeParams::default().with_n(64).with_b(16);
        let rx = make_rx(&p, 2, 92);
        let dec = BubbleDecoder::new(&p);
        let engine = DecodeEngine::new(2).with_watchdog(WatchdogConfig {
            after: Duration::from_millis(40),
            policy: WatchdogPolicy::CancelAndRespawn,
        });
        let failures = run_stalled_job(&engine, Duration::from_millis(400));
        assert!(
            wait_until(Duration::from_secs(10), || !failures.lock().is_empty()),
            "watchdog never cancelled the stalled worker: {:?}",
            engine.stats()
        );
        match &failures.lock()[0] {
            DecodeFailure::StuckAttempt { waited } => {
                assert!(*waited >= Duration::from_millis(40), "waited {waited:?}");
            }
            other => panic!("stall resolved as {other:?}"),
        }
        let stats = engine.stats();
        assert_eq!(stats.watchdog_cancels, 1);
        assert_eq!(stats.worker_respawns, 1);
        // The refilled pool still serves at full width — and the wedged
        // thread's eventual silent exit does not disturb it.
        engine.submit(&dec, &rx);
        engine.submit(&dec, &rx);
        for out in engine.drain() {
            let out = out.expect("post-cancel decode clean");
            assert_eq!(out.message, DecodeRequest::new(&dec, &rx).decode().message);
        }
    }

    #[test]
    fn heartbeating_slow_decode_never_trips_the_watchdog() {
        // A legitimate decode that takes far longer than `after` in
        // wall-clock terms must never be flagged: the per-step
        // heartbeat keeps the epoch moving. Threshold chosen well above
        // a single beam step but far below the whole decode.
        let p = CodeParams::default().with_n(256).with_b(64);
        let rx = make_rx(&p, 2, 93);
        let dec = BubbleDecoder::new(&p);
        let engine = DecodeEngine::new(2).with_watchdog(WatchdogConfig {
            after: Duration::from_millis(25),
            policy: WatchdogPolicy::CancelAndRespawn,
        });
        for _ in 0..3 {
            engine.submit(&dec, &rx);
        }
        for out in engine.drain() {
            let out = out.expect("slow decode must complete, not be cancelled");
            assert_eq!(out.message, DecodeRequest::new(&dec, &rx).decode().message);
        }
        let stats = engine.stats();
        assert_eq!(stats.watchdog_flags, 0, "false positive: {stats:?}");
        assert_eq!(stats.watchdog_cancels, 0);
        assert_eq!(stats.worker_respawns, 0);
    }

    #[test]
    fn default_watchdog_threshold_tolerates_a_deep_wide_decode() {
        // False-positive guard at the *default* threshold (30 s): one
        // worker grinding a genuinely heavy decode — n = 1024 spine
        // steps at beam width B = 256 — is slow but alive, and the
        // default watchdog must never flag it, let alone cancel it.
        let p = CodeParams::default().with_n(1024).with_b(256);
        let rx = make_rx(&p, 1, 94);
        let dec = BubbleDecoder::new(&p);
        let engine = DecodeEngine::new(2).with_watchdog(WatchdogConfig::default());
        engine.submit(&dec, &rx);
        for out in engine.drain() {
            out.expect("heavy decode must complete, not be cancelled");
        }
        let stats = engine.stats();
        assert_eq!(stats.watchdog_flags, 0, "false positive: {stats:?}");
        assert_eq!(stats.watchdog_cancels, 0);
        assert_eq!(stats.worker_respawns, 0);
    }
}
