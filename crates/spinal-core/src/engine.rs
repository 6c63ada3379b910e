//! The parallel decode engine: a long-lived worker pool that decodes
//! independent blocks across cores.
//!
//! Parallelism is **across blocks**:
//! [`DecodeEngine::decode_batch_parallel`] and the service layer's
//! dispatch hook each hand one whole block to one worker, which owns
//! one [`DecodeWorkspace`] for its lifetime — the per-core workspace
//! that keeps the §7.1 attempt loop allocation-free once warm. The
//! block's beam search runs serially in the [`decoder`](crate::decoder)
//! under the submitting decoder's profile, so every path is bit-for-bit
//! identical to a serial decode at every thread count. The paper's case for splitting one beam step across
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
//! completion channel a success would use, so batch and session
//! waiters never hang — the poisoned thread exits, and its slot is
//! respawned with a fresh [`DecodeWorkspace`] (counted in
//! [`EngineStats::worker_respawns`]). An optional **stuck-attempt
//! watchdog** ([`DecodeEngine::with_watchdog`]) pairs a per-worker
//! heartbeat epoch (bumped at job boundaries and at every beam step via
//! the workspace, so a slow-but-progressing decode never looks stuck)
//! with a scanner thread: a worker busy for longer than
//! [`WatchdogConfig::after`] without a heartbeat is flagged, and under
//! [`WatchdogPolicy::CancelAndRespawn`] its attempt resolves as
//! [`DecodeFailure::StuckAttempt`], the wedged thread is detached, and
//! the slot is refilled. A cancelled attempt that later finishes anyway
//! is dropped by the (idempotent) completion latches — never delivered
//! twice; the service counts it as stale.

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
/// success would take (session
/// [`wait`](crate::service::Session::wait)/[`try_result`](crate::service::Session::try_result),
/// or the batch gather latch).
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
/// workspace, pooled jobs interleave in the shared queue). Callers that
/// stream blocks and need a completion handle per block use a
/// [`DecodeService`](crate::service::DecodeService) session instead.
pub struct DecodeEngine {
    threads: usize,
    pool: Option<WorkerPool>,
    /// The workspace inline (thread budget 1) decodes run through.
    ws: Mutex<DecodeWorkspace>,
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

    /// Snapshot the self-healing counters: worker respawns and watchdog
    /// flags/cancels. All zero on a healthy engine.
    pub fn stats(&self) -> EngineStats {
        match &self.pool {
            None => EngineStats::default(),
            Some(pool) => {
                let st = pool.shared.state.lock();
                EngineStats {
                    worker_respawns: st.respawns,
                    watchdog_flags: st.watchdog_flags,
                    watchdog_cancels: st.watchdog_cancels,
                }
            }
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
    /// failure channel. Callers who need structured failures decode
    /// through [`DecodeService`](crate::service::DecodeService)
    /// sessions, whose `wait` returns the [`DecodeFailure`].
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
        }
    }

    #[test]
    fn one_engine_serves_heterogeneous_parameters_and_profiles() {
        // Worker workspaces are parameter- AND profile-agnostic: one
        // engine must serve different (n, k, B, d) codes and alternating
        // metric profiles back to back, batch after batch.
        let engine = DecodeEngine::new(2);
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
            let seed = (n + b) as u64;
            let rxs = [make_rx(&p, 2, seed), make_rx(&p, 2, seed + 1)];
            for profile in [MetricProfile::Exact, MetricProfile::Quantized] {
                let dec = BubbleDecoder::new(&p).with_profile(profile);
                let case = format!("{profile:?} n{n} k{k} B{b} d{d}");
                for (rx, out) in rxs.iter().zip(engine.decode_batch_parallel(&dec, &rxs)) {
                    let serial = DecodeRequest::new(&dec, rx).decode();
                    assert_eq!(out.message, serial.message, "{case}");
                    assert_eq!(out.cost.to_bits(), serial.cost.to_bits(), "{case}");
                }
            }
        }
    }

    #[test]
    fn thread_budget_is_clamped_and_reported() {
        assert_eq!(DecodeEngine::new(0).threads(), 1);
        assert_eq!(DecodeEngine::new(3).threads(), 3);
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
        let serial = DecodeRequest::new(&dec, &rx).decode();
        for out in engine.decode_batch_parallel(&dec, &[rx.clone(), rx.clone()]) {
            assert_eq!(out.message, serial.message);
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
        // A cancelled block would panic the batch on this thread.
        let serial = DecodeRequest::new(&dec, &rx).decode();
        for out in engine.decode_batch_parallel(&dec, &[rx.clone(), rx.clone(), rx.clone()]) {
            assert_eq!(out.message, serial.message);
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
        // A cancelled block would panic the batch on this thread.
        assert_eq!(engine.decode_batch_parallel(&dec, &[rx]).len(), 1);
        let stats = engine.stats();
        assert_eq!(stats.watchdog_flags, 0, "false positive: {stats:?}");
        assert_eq!(stats.watchdog_cancels, 0);
        assert_eq!(stats.worker_respawns, 0);
    }
}
