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
//! # Panic isolation
//!
//! A worker that **panics** mid-job does not take the process with it:
//! the attempt resolves as [`DecodeFailure::WorkerPanicked`] — delivered
//! through the same completion channel a success would use, so batch
//! and session waiters never hang — the poisoned thread exits, and its
//! slot is respawned with a fresh [`DecodeWorkspace`] (counted in
//! [`EngineStats::worker_respawns`]).

use crate::decoder::{BubbleDecoder, DecodeResult, DecodeWorkspace};
use crate::rx::RxSymbols;
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::Arc;

/// Structured failure of one decode attempt. A failing worker never
/// aborts the process: the attempt resolves with one of these through
/// the same completion path a success would take (session
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
}

impl std::fmt::Display for DecodeFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeFailure::WorkerPanicked { payload_msg } => {
                write!(f, "decode worker panicked: {payload_msg}")
            }
        }
    }
}

impl std::error::Error for DecodeFailure {}

/// Counters for the engine's panic isolation, snapshotted by
/// [`DecodeEngine::stats`]. All zero on a healthy engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Worker slots refilled after a panic.
    pub worker_respawns: u64,
}

/// The work half of a pool job: runs on a worker, with exclusive use of
/// that worker's long-lived [`DecodeWorkspace`].
pub(crate) type RunFn = Box<dyn FnOnce(&mut DecodeWorkspace) + Send + 'static>;

/// The failure half: invoked at most once, with the structured failure,
/// when the job panics. Must resolve whatever completion the run half
/// would have resolved.
pub(crate) type FailFn = Box<dyn FnOnce(DecodeFailure) + Send + 'static>;

/// A unit of work for the pool.
struct Job {
    run: RunFn,
    on_fail: FailFn,
}

// ---------------------------------------------------------------------
// Worker pool
// ---------------------------------------------------------------------

struct PoolState {
    queue: VecDeque<Job>,
    shutdown: bool,
    /// Per-slot join handles (replaced on respawn).
    handles: Vec<std::thread::JoinHandle<()>>,
    respawns: u64,
}

struct PoolShared {
    state: Mutex<PoolState>,
    ready: Condvar,
}

/// Long-lived worker threads sharing one job queue. Each worker owns a
/// [`DecodeWorkspace`] (the "per-core workspace") handed to every job it
/// runs. Dropping the pool wakes and joins all workers.
struct WorkerPool {
    shared: Arc<PoolShared>,
}

fn spawn_worker(shared: &Arc<PoolShared>, slot: usize) -> std::thread::JoinHandle<()> {
    let shared = Arc::clone(shared);
    std::thread::Builder::new()
        .name(format!("spinal-decode-{slot}"))
        .spawn(move || worker_loop(&shared, slot))
        .expect("spawn decode worker")
}

impl WorkerPool {
    fn new(workers: usize) -> Self {
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                queue: VecDeque::new(),
                shutdown: false,
                handles: Vec::new(),
                respawns: 0,
            }),
            ready: Condvar::new(),
        });
        {
            let mut st = shared.state.lock();
            for slot in 0..workers {
                st.handles.push(spawn_worker(&shared, slot));
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
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        let handles = {
            let mut st = self.shared.state.lock();
            st.shutdown = true;
            std::mem::take(&mut st.handles)
        };
        self.shared.ready.notify_all();
        let me = std::thread::current().id();
        for h in handles {
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

fn worker_loop(shared: &Arc<PoolShared>, slot: usize) {
    let mut ws = DecodeWorkspace::new();
    loop {
        let job = {
            let mut st = shared.state.lock();
            loop {
                if let Some(job) = st.queue.pop_front() {
                    break job;
                }
                if st.shutdown {
                    return;
                }
                shared.ready.wait(&mut st);
            }
        };
        let Job { run, on_fail } = job;
        // A panicking job must not take the process down or leave its
        // dispatcher waiting forever on a gather latch: catch it,
        // respawn the slot, resolve the attempt as a structured failure,
        // and let this thread die.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(&mut ws)));
        if let Err(payload) = outcome {
            let payload_msg = panic_message(payload.as_ref());
            drop(payload);
            {
                let mut st = shared.state.lock();
                if !st.shutdown {
                    st.respawns += 1;
                    // Overwrites this thread's own handle: the dying
                    // thread is detached, never joined.
                    st.handles[slot] = spawn_worker(shared, slot);
                }
            }
            on_fail(DecodeFailure::WorkerPanicked { payload_msg });
            return;
        }
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
/// `wait_all`s. The first outcome per slot wins.
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
/// model and the panic isolation around it.
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

    /// The engine's thread budget.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Snapshot the panic-isolation counters. All zero on a healthy
    /// engine.
    pub fn stats(&self) -> EngineStats {
        match &self.pool {
            None => EngineStats::default(),
            Some(pool) => EngineStats {
                worker_respawns: pool.shared.state.lock().respawns,
            },
        }
    }

    /// Decode a batch of independent blocks across the worker pool (one
    /// whole block per job, each worker reusing its own workspace).
    /// Results are in input order and bit-for-bit identical to decoding
    /// each block serially under the decoder's profile.
    ///
    /// # Panics
    ///
    /// If a worker panics mid-batch the failure propagates as a panic *on the calling thread* with the
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
                        on_fail: Box::new(move |f| on_fail.fail(i, f)),
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
    /// [`DecodeWorkspace`]. `on_fail` resolves the caller's completion
    /// if the closure panics; exactly one of the two runs to
    /// completion-resolution. The service layer's dispatch hook.
    pub(crate) fn pool_spawn(&self, f: RunFn, on_fail: FailFn) -> bool {
        match &self.pool {
            None => false,
            Some(pool) => {
                pool.submit(Job { run: f, on_fail });
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
            on_fail: Box::new(move |f| fail_gather.fail(0, f)),
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
}
