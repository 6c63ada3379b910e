//! The decode service's worker pool: long-lived threads that decode
//! independent blocks across cores, plus the one structured failure an
//! attempt can end in.
//!
//! Parallelism is **across blocks**: the
//! [`DecodeService`](crate::service::DecodeService) hands one whole
//! block attempt to one worker, which owns one [`DecodeWorkspace`] for
//! its lifetime — the per-core workspace that keeps the §7.1 attempt
//! loop allocation-free once warm. The block's beam search runs
//! serially in the [`decoder`](crate::decoder) under the submitting
//! decoder's profile, so every attempt is bit-for-bit identical to a
//! serial decode at every thread count. The paper's case for splitting
//! one beam step across parallel lanes (§7, and "De-randomizing
//! Shannon") is a hardware argument; in software on a few cores the
//! per-step dispatch costs more than it saves, so the pool never splits
//! a block.
//!
//! A pool is **long-lived** (no `std::thread::scope` per call). A
//! service made by [`DecodeService::new`](crate::service::DecodeService::new)
//! spawns its own pool once and joins it when the service drops, so a
//! sweep that decodes millions of blocks pays thread startup once.
//!
//! # The process-wide pool
//!
//! [`shared_pool`] holds one more pool for the whole process: one worker
//! per core (`available_parallelism`), spawned by its first use and
//! **never joined**. Services made by
//! [`DecodeService::shared`](crate::service::DecodeService::shared) run
//! their attempts on it, each keeping its own admission limit, queue,
//! in-flight cap and metrics, so a short transfer pays neither a spawn
//! nor a join, and its attempts land on workers whose workspaces are
//! already warm. A 1-core host has no such pool. Its workers are
//! invisible to the `spinal-check` model checker and outlive every
//! schedule it explores, so a model-check harness must not build it:
//! harnesses use a private pool (`DecodeService::new`).
//!
//! # Panic isolation
//!
//! A worker that **panics** mid-job does not take the process with it:
//! the pool catches the panic, respawns the slot with a fresh
//! [`DecodeWorkspace`], and hands the job's failure half a
//! [`DecodeFailure::WorkerPanicked`], which the service delivers
//! through the same session slot a success would use, so waiters never
//! hang. The poisoned thread then exits. A 1-thread service's inline
//! attempts run under the same catch ([`run_caught`]), so a decoder
//! panic ends its attempt the same way at every width.

use crate::decoder::DecodeWorkspace;
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::sync::{Arc, OnceLock};

/// Structured failure of one decode attempt. A failing worker never
/// aborts the process: the attempt resolves with one of these through
/// the same completion path a success would take (session
/// [`wait`](crate::service::Session::wait)/[`try_result`](crate::service::Session::try_result),
/// or the block's slot in a
/// [`decode_batch`](crate::service::DecodeService::decode_batch)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeFailure {
    /// The decode job panicked, on a pool worker or inline at
    /// `submit`. The panic payload's message is preserved; the workspace
    /// it ran on was replaced with a fresh one (a pool worker's slot is
    /// respawned).
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

struct PoolState {
    queue: VecDeque<Job>,
    shutdown: bool,
    /// Per-slot join handles (replaced on respawn).
    handles: Vec<std::thread::JoinHandle<()>>,
}

struct PoolShared {
    state: Mutex<PoolState>,
    ready: Condvar,
}

/// Long-lived worker threads sharing one job queue. Each worker owns a
/// [`DecodeWorkspace`] (the "per-core workspace") handed to every job it
/// runs. Dropping the pool wakes and joins all workers.
pub(crate) struct WorkerPool {
    shared: Arc<PoolShared>,
    workers: usize,
}

fn spawn_worker(shared: &Arc<PoolShared>, slot: usize) -> std::thread::JoinHandle<()> {
    let shared = Arc::clone(shared);
    std::thread::Builder::new()
        .name(format!("spinal-decode-{slot}"))
        .spawn(move || worker_loop(&shared, slot))
        .expect("spawn decode worker")
}

impl WorkerPool {
    pub(crate) fn new(workers: usize) -> Self {
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                queue: VecDeque::new(),
                shutdown: false,
                handles: Vec::new(),
            }),
            ready: Condvar::new(),
        });
        {
            let mut st = shared.state.lock();
            for slot in 0..workers {
                st.handles.push(spawn_worker(&shared, slot));
            }
        }
        WorkerPool { shared, workers }
    }

    /// The number of worker slots.
    pub(crate) fn workers(&self) -> usize {
        self.workers
    }

    /// Queue a job: `run` gets the worker's workspace; if it panics,
    /// `on_fail` resolves the caller's completion instead, so exactly
    /// one of the two ends the job.
    pub(crate) fn submit(&self, run: RunFn, on_fail: FailFn) {
        let mut st = self.shared.state.lock();
        st.queue.push_back(Job { run, on_fail });
        drop(st);
        self.shared.ready.notify_one();
    }
}

#[cfg(test)]
impl WorkerPool {
    /// The thread serving each worker slot, in slot order: a slot whose
    /// worker panicked shows its replacement.
    pub(crate) fn worker_threads(&self) -> Vec<std::thread::ThreadId> {
        let st = self.shared.state.lock();
        st.handles.iter().map(|h| h.thread().id()).collect()
    }
}

/// The process-wide pool (see the module docs): one worker per core,
/// spawned by the first call and never joined. `None` on a 1-core host,
/// where services decode inline on the caller's thread instead.
pub(crate) fn shared_pool() -> Option<Arc<WorkerPool>> {
    static POOL: OnceLock<Option<Arc<WorkerPool>>> = OnceLock::new();
    POOL.get_or_init(|| {
        let cores = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        (cores > 1).then(|| Arc::new(WorkerPool::new(cores)))
    })
    .clone()
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
                // (a service job holding the last Arc to the service).
                // Joining ourselves would deadlock/panic — detach
                // instead; the thread exits on its own once the current
                // job returns and it observes `shutdown`.
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

/// Run one job's work half on `ws`, catching a panic as the attempt's
/// [`DecodeFailure::WorkerPanicked`]: the one place a decode panic is
/// contained, for pool workers and inline attempts alike. After a
/// failure `ws` may hold a half-finished decode's state; the caller
/// replaces it.
pub(crate) fn run_caught(
    run: impl FnOnce(&mut DecodeWorkspace),
    ws: &mut DecodeWorkspace,
) -> Result<(), DecodeFailure> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(ws))).map_err(|payload| {
        DecodeFailure::WorkerPanicked {
            payload_msg: panic_message(payload.as_ref()),
        }
    })
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
        // waiter hanging: catch it, respawn the slot, resolve the
        // attempt as a structured failure, and let this thread die.
        if let Err(failure) = run_caught(run, &mut ws) {
            {
                let mut st = shared.state.lock();
                if !st.shutdown {
                    // Overwrites this thread's own handle: the dying
                    // thread is detached, never joined.
                    st.handles[slot] = spawn_worker(shared, slot);
                }
            }
            on_fail(failure);
            return;
        }
    }
}
