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
//! A decoder that **panics** mid-attempt does not take the process with
//! it. The service runs each attempt's decode, and nothing else, under
//! [`run_caught`], on a pool worker and inline at `submit` alike: the
//! panic ends that attempt as a [`DecodeFailure::WorkerPanicked`],
//! delivered through the same session slot a success would use, so
//! waiters never hang; the workspace it ran on is replaced with a fresh
//! one, and the thread that ran it carries on with the next attempt. A
//! pool's workers are therefore spawned once and never replaced. The
//! service's own bookkeeping around the decode runs uncaught: a panic
//! there is a bug in the service, not a decode failure. It unwinds out
//! of the thread running the attempt — into the caller of `submit`
//! inline, or out of a pool worker, which then ends and leaves its pool
//! one worker short.

use crate::decoder::DecodeWorkspace;
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::sync::{Arc, OnceLock};

/// Structured failure of one decode attempt. A failing decode never
/// aborts the process: the attempt resolves with one of these through
/// the same completion path a success would take (session
/// [`wait`](crate::service::Session::wait)/[`try_result`](crate::service::Session::try_result),
/// or the block's slot in a
/// [`decode_batch`](crate::service::DecodeService::decode_batch)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeFailure {
    /// The attempt's decode panicked, on a pool worker or inline at
    /// `submit`. The panic payload's message is preserved. The
    /// workspace the decode ran on was replaced with a fresh one; the
    /// thread it ran on lives on and runs the next attempt.
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

/// A pool job: runs on a worker, with exclusive use of that worker's
/// long-lived [`DecodeWorkspace`].
pub(crate) type RunFn = Box<dyn FnOnce(&mut DecodeWorkspace) + Send + 'static>;

struct PoolState {
    queue: VecDeque<RunFn>,
    shutdown: bool,
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
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl WorkerPool {
    pub(crate) fn new(workers: usize) -> Self {
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                queue: VecDeque::new(),
                shutdown: false,
            }),
            ready: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|slot| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("spinal-decode-{slot}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn decode worker")
            })
            .collect();
        WorkerPool { shared, handles }
    }

    /// The number of worker slots.
    pub(crate) fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Queue a job for the next free worker.
    pub(crate) fn submit(&self, run: RunFn) {
        self.shared.state.lock().queue.push_back(run);
        self.shared.ready.notify_one();
    }
}

#[cfg(test)]
impl WorkerPool {
    /// The workers' threads that are still running, in slot order: a
    /// worker that died drops out.
    pub(crate) fn worker_threads(&self) -> Vec<std::thread::ThreadId> {
        self.handles
            .iter()
            .filter(|h| !h.is_finished())
            .map(|h| h.thread().id())
            .collect()
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
        self.shared.state.lock().shutdown = true;
        self.shared.ready.notify_all();
        let me = std::thread::current().id();
        for h in self.handles.drain(..) {
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

/// Run one attempt's decode, catching a panic as the attempt's
/// [`DecodeFailure::WorkerPanicked`]: the one place a decode panic is
/// contained, for pool workers and inline attempts alike. After a
/// failure the workspace the decode ran on may hold a half-finished
/// decode's state; the caller replaces it.
pub(crate) fn run_caught<R>(decode: impl FnOnce() -> R) -> Result<R, DecodeFailure> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(decode)).map_err(|payload| {
        DecodeFailure::WorkerPanicked {
            payload_msg: panic_message(payload.as_ref()),
        }
    })
}

fn worker_loop(shared: &PoolShared) {
    let mut ws = DecodeWorkspace::new();
    loop {
        let run = {
            let mut st = shared.state.lock();
            loop {
                if let Some(run) = st.queue.pop_front() {
                    break run;
                }
                if st.shutdown {
                    return;
                }
                shared.ready.wait(&mut st);
            }
        };
        run(&mut ws);
    }
}
