//! Many-session decode service — the one way to decode across cores:
//! per-session state, admission control, backpressure, and metrics on
//! top of a worker pool, the service's own or the process-wide one.
//!
//! The paper's receiver is rateless and incremental — symbols trickle in
//! per block and decodes retry at pass boundaries (§7.1) — and the
//! operating regime of interest is *many* such blocks in flight at once
//! (the amortized many-user shape analyzed in "De-randomizing
//! Shannon", arXiv 1206.0418). This module gives every in-flight block
//! its own handle:
//!
//! * **[`Session`]** — owns the per-block decode state: the receive
//!   buffer ([`SessionBuffer`]) and a schedule position. Each attempt
//!   builds its tables from the whole buffer on the service's per-core
//!   [`DecodeWorkspace`] (the pooled worker's own, or the inline
//!   workspace of a 1-thread service), so a session carries no decode
//!   scratch of its own. Completion is per-session (`submit` → `wait`),
//!   so independent callers cannot cross-talk.
//! * **[`DecodeService`]** — admission control (at most
//!   [`ServiceConfig::max_sessions`] live sessions, structured
//!   [`AdmitError`] on shed) and a bounded dispatch queue
//!   ([`ServiceConfig::queue_capacity`], structured [`SubmitError`] on
//!   overflow — backpressure, never unbounded growth) that dispatches
//!   attempts in submission order. A caller that holds every block up
//!   front hands them to [`DecodeService::decode_batch`], which runs
//!   one session per block and returns each block's outcome.
//! * **[`MetricsSnapshot`]** — sessions admitted/shed/active, decode
//!   latency p50/p99, symbols/s, retries, worker panics; snapshotable as
//!   JSON for the `traffic_gen` harness and CI smoke checks.
//!
//! A service of more than one thread runs session jobs on pool
//! workers; a 1-thread service runs them inline at `submit`, which
//! keeps `wait` non-blocking there and the whole layer deadlock-free at
//! every thread count. [`DecodeService::new`] spawns a private pool
//! that lives and dies with the service. [`DecodeService::shared`]
//! spawns nothing: its attempts run on the process-wide pool, one
//! worker per core, which every such service shares and which is never
//! joined. The books stay per service either way: two shared services
//! never refuse each other's sessions or count each other's attempts.
//! At every width a decoder panic ends only its attempt, as a
//! [`DecodeFailure`]. Results are bit-identical to a serial decode of
//! the same observations — the job body is the serial
//! [`DecodeRequest`] decode itself.

use crate::api::{DecodeRequest, RxObservations};
use crate::decoder::{BubbleDecoder, DecodeResult, DecodeWorkspace};
use crate::engine::{run_caught, shared_pool, DecodeFailure, WorkerPool};
use crate::rx::{RxBits, RxSymbols};
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Service-wide tuning knobs. `Default` gives a generous single-tenant
/// shape: 4096 sessions, a 1024-deep queue, in-flight cap = service
/// threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Admission limit: `open_session` beyond this many live sessions is
    /// shed with [`AdmitError::SessionsFull`].
    pub max_sessions: usize,
    /// Bound on queued (submitted, not yet running) attempts across all
    /// sessions; `submit` beyond it fails with [`SubmitError::QueueFull`].
    pub queue_capacity: usize,
    /// Cap on concurrently *running* attempts; `0` means the service's
    /// thread count. Clamped to at least 1.
    pub max_inflight: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            max_sessions: 4096,
            queue_capacity: 1024,
            max_inflight: 0,
        }
    }
}

/// Per-session options passed to [`DecodeService::open_session`]. There
/// are none: every session's attempts dispatch in submission order. The
/// type keeps `open_session`'s signature stable for existing callers,
/// which pass `SessionOptions::default()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SessionOptions {}

/// Why [`DecodeService::open_session`] refused a session. Each shed is
/// counted exactly once in [`MetricsSnapshot::sessions_shed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitError {
    /// The service is at its [`ServiceConfig::max_sessions`] limit.
    SessionsFull {
        /// Live sessions at the time of the attempt.
        active: usize,
        /// The configured admission limit.
        limit: usize,
    },
    /// The buffer's spine count does not match the decoder's code
    /// parameters — the decode could never run.
    SpineMismatch {
        /// Spines in the submitted receive buffer.
        buffer: usize,
        /// Spines implied by the decoder's `CodeParams`.
        decoder: usize,
    },
}

impl std::fmt::Display for AdmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmitError::SessionsFull { active, limit } => {
                write!(f, "service full: {active} active sessions (limit {limit})")
            }
            AdmitError::SpineMismatch { buffer, decoder } => {
                write!(
                    f,
                    "buffer has {buffer} spines but the decoder expects {decoder}"
                )
            }
        }
    }
}

impl std::error::Error for AdmitError {}

/// Why [`Session::submit`] refused an attempt. The session stays usable;
/// retry after draining in-flight work or backing off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The service-wide dispatch queue is at capacity — backpressure.
    QueueFull {
        /// Attempts queued at the time of the submit.
        queued: usize,
        /// The configured [`ServiceConfig::queue_capacity`].
        capacity: usize,
    },
    /// This session already has an attempt in flight; `wait` for it (or
    /// poll [`Session::try_result`]) before submitting again.
    AttemptInFlight,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull { queued, capacity } => {
                write!(
                    f,
                    "dispatch queue full: {queued}/{capacity} attempts queued"
                )
            }
            SubmitError::AttemptInFlight => {
                write!(f, "session already has a decode attempt in flight")
            }
        }
    }
}

impl std::error::Error for SubmitError {}

/// A session's receive buffer: complex symbols (AWGN/fading) or hard
/// bits (BSC). Owned by the session so attempts decode it in place,
/// without cloning the buffer.
#[derive(Debug, Clone)]
pub enum SessionBuffer {
    /// Complex symbol observations ([`RxSymbols`]).
    Symbols(RxSymbols),
    /// Hard-bit observations ([`RxBits`]).
    Bits(RxBits),
}

impl SessionBuffer {
    /// Total observations buffered so far.
    pub fn symbols_received(&self) -> usize {
        self.observations().symbols_received()
    }

    fn observations(&self) -> RxObservations<'_> {
        match self {
            SessionBuffer::Symbols(rx) => RxObservations::Symbols(rx),
            SessionBuffer::Bits(rx) => RxObservations::Bits(rx),
        }
    }
}

/// The per-session decode resources that travel into a job and back:
/// the receive buffer and how much of it the metrics have counted. The
/// job builds its tables and decodes on the workspace of whichever
/// service thread runs it.
#[derive(Debug)]
struct SessionRes {
    buffer: SessionBuffer,
    /// Observations already counted into `symbols_folded` metrics.
    folded: usize,
}

/// Completion-handle state for one session.
#[derive(Debug)]
enum SlotState {
    /// No attempt queued and no result waiting.
    Idle,
    /// An attempt is queued or running.
    Queued,
    /// The attempt finished; resources wait for `wait`/`try_result`.
    Ready(Box<(DecodeResult, SessionRes)>),
    /// The attempt failed structurally (its job panicked). The failed
    /// job unwound before the failure was published, so its resources
    /// are always recovered.
    Failed(Box<(DecodeFailure, SessionRes)>),
    /// The session was dropped; late completions are discarded (and
    /// counted as stale).
    Abandoned,
}

/// How long [`Session::await_ending`] may block for the in-flight
/// attempt to end.
#[derive(Clone, Copy)]
enum Block {
    /// Not at all ([`Session::try_result`]).
    Never,
    /// Until it ends ([`Session::wait`]).
    Forever,
    /// Until this instant ([`Session::wait_timeout`]).
    Until(Instant),
}

#[derive(Debug)]
struct SessionSlot {
    state: Mutex<SlotState>,
    ready: Condvar,
}

/// One queued decode attempt.
struct PendingJob {
    dec: Arc<BubbleDecoder>,
    res: SessionRes,
    slot: Arc<SessionSlot>,
    submitted: Instant,
    /// Test-only failure injection ([`Session::poison_next_attempt`]):
    /// the job panics with this message instead of decoding.
    poison: Option<String>,
}

/// A job handed to the worker pool, shaped so both halves of the
/// pool's run/fail contract can reach it: the job (and the session
/// resources inside it) is parked in `held` for the whole decode, and
/// `resolved` latches whichever of the run path and the failure path
/// ends the attempt first — the other side backs off, so every submit
/// ends exactly once and the in-flight slot is freed exactly once.
struct DispatchedJob {
    slot: Arc<SessionSlot>,
    held: Mutex<Option<PendingJob>>,
    resolved: AtomicBool,
}

impl DispatchedJob {
    fn new(job: PendingJob) -> Self {
        DispatchedJob {
            slot: Arc::clone(&job.slot),
            held: Mutex::new(Some(job)),
            resolved: AtomicBool::new(false),
        }
    }
}

/// Latency histogram with power-of-two microsecond buckets — enough
/// resolution for p50/p99 smoke floors without per-sample storage.
#[derive(Debug)]
struct LatencyHist {
    buckets: [u64; 40],
    total: u64,
}

impl Default for LatencyHist {
    fn default() -> Self {
        LatencyHist {
            buckets: [0; 40],
            total: 0,
        }
    }
}

impl LatencyHist {
    fn record(&mut self, micros: u64) {
        let idx = (64 - micros.leading_zeros()).min(39) as usize;
        self.buckets[idx] += 1;
        self.total += 1;
    }

    /// Upper bound (µs) of the bucket containing quantile `q` ∈ [0, 1].
    fn quantile_us(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((self.total as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return 1u64 << i;
            }
        }
        1u64 << 39
    }
}

#[derive(Debug)]
struct MetricsInner {
    admitted: u64,
    shed: u64,
    closed: u64,
    submits: u64,
    rejected: u64,
    completions: u64,
    stale: u64,
    retries: u64,
    failed: u64,
    worker_panics: u64,
    symbols_folded: u64,
    peak_active: usize,
    latency: LatencyHist,
    dispatch_latency: LatencyHist,
    started: Instant,
}

/// A point-in-time snapshot of the service's counters, cheap to take and
/// serializable with [`MetricsSnapshot::to_json`].
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Sessions currently open.
    pub sessions_active: usize,
    /// Highest concurrent session count observed.
    pub peak_active: usize,
    /// Sessions admitted over the service lifetime.
    pub sessions_admitted: u64,
    /// Admission attempts refused (each counted exactly once).
    pub sessions_shed: u64,
    /// Sessions closed (dropped) so far.
    pub sessions_closed: u64,
    /// Decode attempts accepted.
    pub submits: u64,
    /// Decode attempts refused by backpressure.
    pub submits_rejected: u64,
    /// Decode attempts completed (including stale ones).
    pub completions: u64,
    /// Completions that arrived after their session was dropped —
    /// discarded by design, never silently lost.
    pub stale_completions: u64,
    /// Attempts beyond each session's first — the §7.1 retry count.
    pub retries_total: u64,
    /// Attempts that ended in a structured [`DecodeFailure`] — each
    /// also ends its submit exactly once, like a completion, so
    /// `submits == completions + attempts_failed` once nothing is in
    /// flight.
    pub attempts_failed: u64,
    /// The subset of `attempts_failed` caused by a worker panic.
    pub worker_panics: u64,
    /// Observations folded into finished decodes.
    pub symbols_folded: u64,
    /// Median submit→complete latency (µs, bucket upper bound).
    pub decode_p50_us: u64,
    /// 99th-percentile submit→complete latency (µs, bucket upper bound).
    pub decode_p99_us: u64,
    /// 99th-percentile submit→dispatch latency (µs, bucket upper
    /// bound): time an attempt spent queued.
    pub dispatch_p99_us: u64,
    /// `symbols_folded` per second of service uptime.
    pub symbols_per_sec: f64,
    /// Seconds since the service was created.
    pub uptime_secs: f64,
}

impl MetricsSnapshot {
    /// Serialize as a single-line JSON object (hand-rolled; the
    /// workspace carries no serde).
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"sessions_active\":{},\"peak_active\":{},",
                "\"sessions_admitted\":{},\"sessions_shed\":{},",
                "\"sessions_closed\":{},\"submits\":{},",
                "\"submits_rejected\":{},\"completions\":{},",
                "\"stale_completions\":{},\"retries_total\":{},",
                "\"attempts_failed\":{},\"worker_panics\":{},",
                "\"symbols_folded\":{},\"decode_p50_us\":{},",
                "\"decode_p99_us\":{},\"dispatch_p99_us\":{},",
                "\"symbols_per_sec\":{:.3},",
                "\"uptime_secs\":{:.3}}}"
            ),
            self.sessions_active,
            self.peak_active,
            self.sessions_admitted,
            self.sessions_shed,
            self.sessions_closed,
            self.submits,
            self.submits_rejected,
            self.completions,
            self.stale_completions,
            self.retries_total,
            self.attempts_failed,
            self.worker_panics,
            self.symbols_folded,
            self.decode_p50_us,
            self.decode_p99_us,
            self.dispatch_p99_us,
            self.symbols_per_sec,
            self.uptime_secs,
        )
    }
}

struct ServiceState {
    active: usize,
    inflight: usize,
    /// Queued attempts, oldest first.
    pending: VecDeque<PendingJob>,
}

struct ServiceInner {
    /// The worker pool of a service with more than one thread (its own,
    /// or the process-wide one); `None` runs every attempt inline at
    /// `submit`.
    pool: Option<Arc<WorkerPool>>,
    /// The workspace inline attempts run on.
    inline_ws: Mutex<DecodeWorkspace>,
    threads: usize,
    cfg: ServiceConfig,
    max_inflight: usize,
    state: Mutex<ServiceState>,
    metrics: Mutex<MetricsInner>,
}

/// The many-session decode service. Cheap to clone (all clones share
/// one worker pool, queue, and metrics registry); see the module docs
/// for the architecture.
#[derive(Clone)]
pub struct DecodeService {
    inner: Arc<ServiceInner>,
}

impl std::fmt::Debug for DecodeService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DecodeService")
            .field("threads", &self.inner.threads)
            .field("cfg", &self.inner.cfg)
            .finish_non_exhaustive()
    }
}

impl DecodeService {
    /// Create a service with a thread budget, clamped to at least 1.
    /// A budget of `threads > 1` spawns exactly that many pool workers
    /// (a waiting caller only blocks, so `threads` cores stay busy),
    /// private to this service and joined when its last clone drops; a
    /// budget of 1 spawns none and runs every attempt inline at
    /// `submit`, with no coordination beyond the session books.
    pub fn new(threads: usize, cfg: ServiceConfig) -> Self {
        let threads = threads.max(1);
        let pool = (threads > 1).then(|| Arc::new(WorkerPool::new(threads)));
        Self::on_pool(threads, pool, cfg)
    }

    /// Create a service whose attempts run on the process-wide decode
    /// pool: one worker per core (`available_parallelism`), spawned by
    /// the first call in the process and never joined, each worker
    /// keeping its warm [`DecodeWorkspace`] from one service to the
    /// next. So this spawns no thread after the first call, and dropping
    /// the service joins none. The service keeps its own admission
    /// limit, queue, in-flight cap and metrics, as one made by
    /// [`DecodeService::new`] with a thread budget of one per core
    /// would; only the workers are shared. On a 1-core host there is no
    /// pool, and the service runs every attempt inline at `submit`.
    ///
    /// The pool's threads stay alive, idle, for the rest of the
    /// process. A model-check harness must not call this: its schedules
    /// cannot see the shared workers (see `spinal-check`).
    pub fn shared(cfg: ServiceConfig) -> Self {
        match shared_pool() {
            Some(pool) => Self::on_pool(pool.workers(), Some(pool), cfg),
            None => Self::new(1, cfg),
        }
    }

    /// A service with a thread budget of `threads` whose attempts run on
    /// `pool`, or inline at `submit` without one.
    fn on_pool(threads: usize, pool: Option<Arc<WorkerPool>>, cfg: ServiceConfig) -> Self {
        let max_inflight = if cfg.max_inflight == 0 {
            threads
        } else {
            cfg.max_inflight
        }
        .max(1);
        DecodeService {
            inner: Arc::new(ServiceInner {
                pool,
                inline_ws: Mutex::new(DecodeWorkspace::new()),
                threads,
                cfg,
                max_inflight,
                state: Mutex::new(ServiceState {
                    active: 0,
                    inflight: 0,
                    pending: VecDeque::new(),
                }),
                metrics: Mutex::new(MetricsInner {
                    admitted: 0,
                    shed: 0,
                    closed: 0,
                    submits: 0,
                    rejected: 0,
                    completions: 0,
                    stale: 0,
                    retries: 0,
                    failed: 0,
                    worker_panics: 0,
                    symbols_folded: 0,
                    peak_active: 0,
                    latency: LatencyHist::default(),
                    dispatch_latency: LatencyHist::default(),
                    started: Instant::now(),
                }),
            }),
        }
    }

    /// The service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.inner.cfg
    }

    /// The service's thread budget: for a [`DecodeService::shared`]
    /// service, the width of the process-wide pool.
    pub fn threads(&self) -> usize {
        self.inner.threads
    }

    /// Sessions currently open.
    pub fn active_sessions(&self) -> usize {
        self.inner.state.lock().active
    }

    /// Admit a new session owning `buffer` and decoding with `dec`.
    /// Takes the decoder by `&Arc` — sessions share the caller's
    /// decoder for their whole lifetime; no per-submit clone (see
    /// [`BubbleDecoder::clones_total`]). A refused admission is counted
    /// in [`MetricsSnapshot::sessions_shed`] exactly once.
    pub fn open_session(
        &self,
        dec: &Arc<BubbleDecoder>,
        buffer: SessionBuffer,
        _opts: SessionOptions,
    ) -> Result<Session, AdmitError> {
        self.admit(dec, &buffer)?;
        Ok(self.admitted(dec, buffer))
    }

    /// Take an admission slot for a session decoding `buffer` with
    /// `dec`, or count the refusal.
    fn admit(&self, dec: &BubbleDecoder, buffer: &SessionBuffer) -> Result<(), AdmitError> {
        let expected = dec.params_ref().num_spines();
        let spines = buffer.observations().n_spines();
        if spines != expected {
            self.inner.metrics.lock().shed += 1;
            return Err(AdmitError::SpineMismatch {
                buffer: spines,
                decoder: expected,
            });
        }
        let active = {
            let mut st = self.inner.state.lock();
            if st.active >= self.inner.cfg.max_sessions {
                let active = st.active;
                drop(st);
                self.inner.metrics.lock().shed += 1;
                return Err(AdmitError::SessionsFull {
                    active,
                    limit: self.inner.cfg.max_sessions,
                });
            }
            st.active += 1;
            st.active
        };
        let mut m = self.inner.metrics.lock();
        m.admitted += 1;
        m.peak_active = m.peak_active.max(active);
        Ok(())
    }

    /// The session for an admission slot [`DecodeService::admit`] took.
    fn admitted(&self, dec: &Arc<BubbleDecoder>, buffer: SessionBuffer) -> Session {
        Session {
            svc: self.clone(),
            dec: Arc::clone(dec),
            slot: Arc::new(SessionSlot {
                state: Mutex::new(SlotState::Idle),
                ready: Condvar::new(),
            }),
            res: Some(SessionRes { buffer, folded: 0 }),
            position: 0,
            attempts: 0,
            poison: None,
        }
    }

    /// Decode a batch of independent blocks, one session per buffer,
    /// and return each block's outcome in input order: the serial
    /// [`DecodeRequest`] decode of that buffer under `dec`, bit for bit,
    /// or the [`DecodeFailure`] of a decode that panicked on that block
    /// (its siblings decode unaffected). The buffers move into their
    /// sessions and every session shares `dec`, so the batch clones
    /// neither.
    ///
    /// Every block is submitted before the batch waits for any, so a
    /// pooled service decodes them all at once. The batch obeys the
    /// service's limits like any other caller: when the service refuses
    /// an open or a submit, the batch waits for its own oldest block in
    /// flight and retries, and a block refused while none of the batch
    /// is in flight decodes on the calling thread instead. So a batch
    /// finishes under every [`ServiceConfig`], and its refusals are
    /// counted in the metrics.
    ///
    /// # Panics
    ///
    /// A buffer whose spine count does not match `dec` is never
    /// admitted, so it decodes on the calling thread, where the serial
    /// decode's check panics.
    pub fn decode_batch(
        &self,
        dec: &Arc<BubbleDecoder>,
        buffers: Vec<SessionBuffer>,
    ) -> Vec<Result<DecodeResult, DecodeFailure>> {
        let mut outcomes = Vec::new();
        outcomes.resize_with(buffers.len(), || None);
        let mut inflight: VecDeque<(usize, Session)> = VecDeque::new();
        for (i, mut buffer) in buffers.into_iter().enumerate() {
            loop {
                if self.admit(dec, &buffer).is_ok() {
                    let mut session = self.admitted(dec, buffer);
                    if session.submit().is_ok() {
                        inflight.push_back((i, session));
                        break;
                    }
                    let res = session.res.take();
                    buffer = res.expect("a refused submit keeps its buffer").buffer;
                }
                match inflight.pop_front() {
                    Some((j, mut oldest)) => outcomes[j] = oldest.wait(),
                    None => {
                        let serial = DecodeRequest::new(dec, buffer.observations()).decode();
                        outcomes[i] = Some(Ok(serial));
                        break;
                    }
                }
            }
        }
        for (j, mut session) in inflight {
            outcomes[j] = session.wait();
        }
        outcomes
            .into_iter()
            .map(|outcome| outcome.expect("every block ends exactly once"))
            .collect()
    }

    /// Snapshot the metrics registry.
    pub fn metrics(&self) -> MetricsSnapshot {
        let active = self.inner.state.lock().active;
        let m = self.inner.metrics.lock();
        let uptime = m.started.elapsed().as_secs_f64();
        MetricsSnapshot {
            sessions_active: active,
            peak_active: m.peak_active,
            sessions_admitted: m.admitted,
            sessions_shed: m.shed,
            sessions_closed: m.closed,
            submits: m.submits,
            submits_rejected: m.rejected,
            completions: m.completions,
            stale_completions: m.stale,
            retries_total: m.retries,
            attempts_failed: m.failed,
            worker_panics: m.worker_panics,
            symbols_folded: m.symbols_folded,
            decode_p50_us: m.latency.quantile_us(0.50),
            decode_p99_us: m.latency.quantile_us(0.99),
            dispatch_p99_us: m.dispatch_latency.quantile_us(0.99),
            symbols_per_sec: if uptime > 0.0 {
                m.symbols_folded as f64 / uptime
            } else {
                0.0
            },
            uptime_secs: uptime,
        }
    }
}

impl ServiceInner {
    /// Pull queued jobs and run them while an in-flight slot is free.
    /// A pooled service gives the job to a worker; a 1-thread service
    /// runs it right here (so it is fully synchronous and `wait` can
    /// never block on a job nobody will run).
    fn dispatch(self: &Arc<Self>) {
        loop {
            let job = {
                let mut st = self.state.lock();
                if st.inflight >= self.max_inflight {
                    return;
                }
                match st.pending.pop_front() {
                    Some(job) => {
                        st.inflight += 1;
                        job
                    }
                    None => return,
                }
            };
            self.metrics.lock().dispatch_latency.record(
                job.submitted
                    .elapsed()
                    .as_micros()
                    .min(u128::from(u64::MAX)) as u64,
            );
            if matches!(*job.slot.state.lock(), SlotState::Abandoned) {
                // The session died while queued: drop its resources,
                // account the attempt as stale, free the slot we took.
                let mut m = self.metrics.lock();
                m.completions += 1;
                m.stale += 1;
                drop(m);
                self.state.lock().inflight -= 1;
                continue;
            }
            if let Some(pool) = &self.pool {
                let d = Arc::new(DispatchedJob::new(job));
                let me = Arc::clone(self);
                let run_d = Arc::clone(&d);
                let fail_me = Arc::clone(self);
                // The failure continuation resolves the attempt when the
                // job panics on its worker: exactly one of {run, fail}
                // ends the attempt and frees the in-flight slot (first
                // resolver wins via the `resolved` latch).
                pool.submit(
                    Box::new(move |ws| {
                        me.run_job(&run_d, ws);
                        me.dispatch();
                    }),
                    Box::new(move |failure| {
                        fail_me.fail_job(&d, failure);
                        fail_me.dispatch();
                    }),
                );
            } else {
                // Inline: run here and keep looping; no recursion, so
                // queue depth never grows the stack. A panic is caught
                // as on a pool worker, so it never reaches the caller of
                // `submit`, and the workspace it interrupted is replaced
                // with a fresh one, as a respawned worker's would be.
                let d = DispatchedJob::new(job);
                let mut ws = self.inline_ws.lock();
                if let Err(failure) = run_caught(|ws| self.run_job(&d, ws), &mut ws) {
                    *ws = DecodeWorkspace::new();
                    drop(ws);
                    self.fail_job(&d, failure);
                }
            }
        }
    }

    /// Decode one attempt on `ws`, the running service thread's
    /// workspace, and publish its result to the session slot.
    ///
    /// The job rides in `d.held` for the whole decode: a panic unwinds
    /// out of this frame with the resources still parked there, so the
    /// failure continuation can recover them.
    fn run_job(&self, d: &DispatchedJob, ws: &mut DecodeWorkspace) {
        let (result, job) = {
            let mut guard = d.held.lock();
            let job = guard.as_mut().expect("job present until resolved");
            if let Some(msg) = job.poison.take() {
                // Test-only failure injection: blow up exactly like a
                // decoder bug would, mid-job, wherever the job runs.
                panic!("{}", msg);
            }
            let result = DecodeRequest::new(&job.dec, job.res.buffer.observations())
                .workspace(ws)
                .decode();
            (result, guard.take().expect("job present until resolved"))
        };
        if d.resolved.swap(true, Ordering::SeqCst) {
            // The attempt was already resolved as a structured failure:
            // the late result is dropped, counted, and the in-flight
            // slot stays freed by the resolver.
            self.metrics.lock().stale += 1;
            return;
        }
        let PendingJob {
            mut res,
            slot,
            submitted,
            ..
        } = job;
        let micros = submitted.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
        let delta = res.buffer.symbols_received().saturating_sub(res.folded);
        res.folded = res.buffer.symbols_received();
        {
            // Metrics update and result publication are atomic under the
            // slot lock (lock order: slot, then metrics — nowhere
            // nested the other way), so a waiter woken by the result
            // always sees its completion counted.
            let mut sl = slot.state.lock();
            let mut m = self.metrics.lock();
            m.completions += 1;
            if matches!(*sl, SlotState::Abandoned) {
                m.stale += 1;
            } else {
                m.latency.record(micros);
                m.symbols_folded += delta as u64;
                *sl = SlotState::Ready(Box::new((result, res)));
                slot.ready.notify_all();
            }
        }
        self.state.lock().inflight -= 1;
    }

    /// Resolve one attempt as a structured failure: a decoder panic
    /// caught on a pool worker or inline at `submit`. The failed job has
    /// already unwound, so its resources sit in `held`, with the receive
    /// buffer intact. The workspace the job decoded on is never reused:
    /// a pool worker's dies with its thread and the respawned slot starts
    /// a fresh one, and an inline service swaps in a fresh inline
    /// workspace.
    fn fail_job(&self, d: &DispatchedJob, failure: DecodeFailure) {
        if d.resolved.swap(true, Ordering::SeqCst) {
            return;
        }
        let res = d
            .held
            .lock()
            .take()
            .expect("an unresolved job keeps its resources in `held`")
            .res;
        {
            let mut sl = d.slot.state.lock();
            let mut m = self.metrics.lock();
            m.failed += 1;
            m.worker_panics += 1;
            if matches!(*sl, SlotState::Abandoned) {
                // Session gone; the failure still ended the attempt
                // (counted above), the resources just drop.
                m.stale += 1;
            } else {
                *sl = SlotState::Failed(Box::new((failure, res)));
                d.slot.ready.notify_all();
            }
        }
        self.state.lock().inflight -= 1;
    }

    fn close_session(&self, slot: &SessionSlot) {
        *slot.state.lock() = SlotState::Abandoned;
        self.state.lock().active -= 1;
        self.metrics.lock().closed += 1;
    }
}

/// One live decode session — the per-block completion handle. Push
/// observations, `submit` an attempt, `wait` for (or poll) the result,
/// push more, resubmit: the §7.1 retry loop. Each attempt builds its
/// tables from the whole buffer in one pass, on the service's per-core
/// workspace.
///
/// Dropping a session releases its admission slot; an attempt still in
/// flight completes as *stale* (discarded, counted — never corrupting
/// another session).
#[derive(Debug)]
pub struct Session {
    svc: DecodeService,
    dec: Arc<BubbleDecoder>,
    slot: Arc<SessionSlot>,
    res: Option<SessionRes>,
    position: usize,
    attempts: u64,
    /// Armed test-only injected panic for the next attempt.
    poison: Option<String>,
}

impl Session {
    /// The session's receive buffer, or `None` while an attempt is in
    /// flight (the buffer travels with the job).
    pub fn buffer(&self) -> Option<&SessionBuffer> {
        self.res.as_ref().map(|r| &r.buffer)
    }

    /// Mutable access to the receive buffer for pushing observations,
    /// or `None` while an attempt is in flight.
    pub fn buffer_mut(&mut self) -> Option<&mut SessionBuffer> {
        self.res.as_mut().map(|r| &mut r.buffer)
    }

    /// The decoder this session shares with its opener.
    pub fn decoder(&self) -> &Arc<BubbleDecoder> {
        &self.dec
    }

    /// Caller-maintained schedule position (e.g. the next subpass
    /// boundary index); the service stores it verbatim.
    pub fn position(&self) -> usize {
        self.position
    }

    /// Update the schedule position.
    pub fn set_position(&mut self, position: usize) {
        self.position = position;
    }

    /// Decode attempts submitted so far.
    pub fn attempts(&self) -> u64 {
        self.attempts
    }

    /// Queue one decode attempt over everything buffered so far.
    /// Backpressure: fails with [`SubmitError::QueueFull`] when the
    /// service queue is at capacity (the session and its buffer are
    /// untouched — push more symbols and retry), or with
    /// [`SubmitError::AttemptInFlight`] if this session already has an
    /// attempt outstanding.
    pub fn submit(&mut self) -> Result<(), SubmitError> {
        if self.res.is_none() {
            return Err(SubmitError::AttemptInFlight);
        }
        let inner = &self.svc.inner;
        {
            let mut st = inner.state.lock();
            if st.pending.len() >= inner.cfg.queue_capacity {
                let queued = st.pending.len();
                drop(st);
                inner.metrics.lock().rejected += 1;
                return Err(SubmitError::QueueFull {
                    queued,
                    capacity: inner.cfg.queue_capacity,
                });
            }
            let res = self.res.take().expect("checked in-flight above");
            *self.slot.state.lock() = SlotState::Queued;
            st.pending.push_back(PendingJob {
                dec: Arc::clone(&self.dec),
                res,
                slot: Arc::clone(&self.slot),
                submitted: Instant::now(),
                poison: self.poison.take(),
            });
        }
        {
            let mut m = inner.metrics.lock();
            m.submits += 1;
            if self.attempts > 0 {
                m.retries += 1;
            }
        }
        self.attempts += 1;
        inner.dispatch();
        Ok(())
    }

    /// Block until the in-flight attempt completes and return its
    /// outcome; `None` if no attempt is outstanding. `Some(Err(_))`
    /// surfaces a structured failure (a worker panic), after which the
    /// session is immediately usable again with its receive buffer
    /// intact. Never deadlocks: queued work is always driven by a pool
    /// worker or by `submit` itself on an inline service.
    pub fn wait(&mut self) -> Option<Result<DecodeResult, DecodeFailure>> {
        self.await_ending(Block::Forever)
    }

    /// [`Session::wait`] with a timeout: `Some(outcome)` on completion,
    /// `None` on timeout or when nothing is in flight (a timed-out
    /// attempt is still in flight, so [`Session::buffer`] stays `None`).
    /// A timeout too large to add to the clock (`Duration::MAX`) waits
    /// like [`Session::wait`].
    pub fn wait_timeout(
        &mut self,
        timeout: Duration,
    ) -> Option<Result<DecodeResult, DecodeFailure>> {
        let block = match Instant::now().checked_add(timeout) {
            Some(deadline) => Block::Until(deadline),
            None => Block::Forever,
        };
        self.await_ending(block)
    }

    /// Non-blocking [`Session::wait`]: `Some(outcome)` if the in-flight
    /// attempt has completed, `None` while it is still queued or running
    /// or when nothing is in flight. Reads no clock.
    pub fn try_result(&mut self) -> Option<Result<DecodeResult, DecodeFailure>> {
        self.await_ending(Block::Never)
    }

    /// The wait family's one loop: once the in-flight attempt's slot
    /// holds its ending, take the resources back and return the
    /// outcome, blocking on the slot's condvar as `block` allows.
    fn await_ending(&mut self, block: Block) -> Option<Result<DecodeResult, DecodeFailure>> {
        if self.res.is_some() {
            return None;
        }
        let mut sl = self.slot.state.lock();
        loop {
            if matches!(*sl, SlotState::Ready(_) | SlotState::Failed(_)) {
                let ended = std::mem::replace(&mut *sl, SlotState::Idle);
                drop(sl);
                let (outcome, res) = match ended {
                    SlotState::Ready(boxed) => {
                        let (result, res) = *boxed;
                        (Ok(result), res)
                    }
                    SlotState::Failed(boxed) => {
                        let (failure, res) = *boxed;
                        (Err(failure), res)
                    }
                    _ => unreachable!("matched a terminal slot state above"),
                };
                self.res = Some(res);
                return Some(outcome);
            }
            match block {
                Block::Never => return None,
                Block::Forever => self.slot.ready.wait(&mut sl),
                Block::Until(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        return None;
                    }
                    self.slot.ready.wait_for(&mut sl, deadline - now);
                }
            }
        }
    }

    /// Test-only failure injection: the next submitted attempt panics
    /// where it runs, on a pool worker or inline at `submit`, instead of
    /// decoding — exercising the full panic-recovery path: catch, fresh
    /// workspace, `DecodeFailure` surfacing. Never use outside tests.
    #[doc(hidden)]
    pub fn poison_next_attempt(&mut self, payload_msg: &str) {
        self.poison = Some(payload_msg.to_string());
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        self.svc.inner.close_session(&self.slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::Message;
    use crate::encoder::Encoder;
    use crate::params::CodeParams;
    use crate::puncturing::{Puncturing, Schedule};
    use crate::quant::MetricProfile;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use spinal_channel::{AwgnChannel, Channel};

    /// How long a test waits for an attempt that needs a live pool
    /// worker: far beyond any decode here, so only a pool that lost its
    /// workers runs out of it.
    const PATIENCE: Duration = Duration::from_secs(30);

    fn setup(seed: u64) -> (CodeParams, Message, Vec<spinal_channel::Complex>) {
        let params = CodeParams::default().with_n(32);
        let payload: Vec<u8> = (0..4)
            .map(|i| (seed as u8).wrapping_mul(31).wrapping_add(i))
            .collect();
        let message = Message::from_bytes(payload, 32);
        let mut enc = Encoder::new(&params, &message);
        let tx = enc.next_symbols(3 * params.symbols_per_pass());
        let mut ch = AwgnChannel::new(15.0, seed);
        (params.clone(), message, ch.transmit(&tx))
    }

    fn rx_for(params: &CodeParams, ys: &[spinal_channel::Complex]) -> RxSymbols {
        let sched = Schedule::new(params.num_spines(), params.tail, params.puncturing);
        let mut rx = RxSymbols::new(sched);
        rx.push(ys);
        rx
    }

    /// `passes` passes of a random `p.n`-bit message through 9 dB AWGN.
    fn make_rx(p: &CodeParams, passes: usize, seed: u64) -> SessionBuffer {
        let mut rng = StdRng::seed_from_u64(seed);
        let msg = Message::random(p.n, || rng.gen());
        let mut enc = Encoder::new(p, &msg);
        let schedule = Schedule::new(p.num_spines(), p.tail, p.puncturing);
        let mut rx = RxSymbols::new(schedule);
        let mut ch = AwgnChannel::new(9.0, seed.wrapping_add(7));
        rx.push(&ch.transmit(&enc.next_symbols(passes * p.symbols_per_pass())));
        SessionBuffer::Symbols(rx)
    }

    fn serial(dec: &BubbleDecoder, buffer: &SessionBuffer) -> DecodeResult {
        DecodeRequest::new(dec, buffer.observations()).decode()
    }

    /// Require every block of a batch to match its serial decode, bit
    /// for bit and in input order.
    fn assert_batch_matches_serial(
        outcomes: &[Result<DecodeResult, DecodeFailure>],
        dec: &BubbleDecoder,
        buffers: &[SessionBuffer],
        ctx: &str,
    ) {
        assert_eq!(outcomes.len(), buffers.len(), "{ctx}");
        for (i, (outcome, buffer)) in outcomes.iter().zip(buffers).enumerate() {
            let got = outcome.as_ref().expect("clean batch decode");
            let want = serial(dec, buffer);
            assert_eq!(got.message, want.message, "{ctx} block {i}");
            assert_eq!(got.cost.to_bits(), want.cost.to_bits(), "{ctx} block {i}");
        }
    }

    #[test]
    fn session_roundtrip_matches_serial() {
        for threads in [1, 2] {
            let svc = DecodeService::new(threads, ServiceConfig::default());
            let (params, message, ys) = setup(7);
            let dec = Arc::new(BubbleDecoder::new(&params));
            let rx = rx_for(&params, &ys);
            let serial = crate::api::DecodeRequest::new(&dec, &rx).decode();
            let mut session = svc
                .open_session(&dec, SessionBuffer::Symbols(rx), SessionOptions::default())
                .expect("admitted");
            session.submit().expect("queued");
            let got = session
                .wait()
                .expect("one attempt in flight")
                .expect("clean");
            assert_eq!(got.message, serial.message, "threads={threads}");
            assert_eq!(got.message, message);
            assert_eq!(session.attempts(), 1);
            let m = svc.metrics();
            assert_eq!(m.submits, 1);
            assert_eq!(m.completions, 1);
            assert_eq!(m.stale_completions, 0);
        }
    }

    #[test]
    fn incremental_resubmit_folds_new_symbols() {
        let svc = DecodeService::new(1, ServiceConfig::default());
        let (params, message, ys) = setup(3);
        let dec = Arc::new(BubbleDecoder::new(&params));
        let sched = Schedule::new(params.num_spines(), params.tail, params.puncturing);
        let rx = RxSymbols::new(sched);
        let mut session = svc
            .open_session(&dec, SessionBuffer::Symbols(rx), SessionOptions::default())
            .expect("admitted");
        let half = ys.len() / 2;
        match session.buffer_mut().expect("idle") {
            SessionBuffer::Symbols(rx) => rx.push(&ys[..half]),
            SessionBuffer::Bits(_) => unreachable!(),
        }
        session.submit().expect("queued");
        let _ = session.wait();
        match session.buffer_mut().expect("idle again") {
            SessionBuffer::Symbols(rx) => rx.push(&ys[half..]),
            SessionBuffer::Bits(_) => unreachable!(),
        }
        session.submit().expect("queued");
        let got = session.wait().expect("in flight").expect("clean");
        // Bit-identical to a fresh serial decode over the full buffer.
        let full = rx_for(&params, &ys);
        let serial = crate::api::DecodeRequest::new(&dec, &full).decode();
        assert_eq!(got.message, serial.message);
        assert_eq!(got.message, message);
        let m = svc.metrics();
        assert_eq!(m.retries_total, 1);
        assert_eq!(m.symbols_folded as usize, ys.len());
    }

    #[test]
    fn admission_limit_sheds_exactly_once() {
        let cfg = ServiceConfig {
            max_sessions: 1,
            ..ServiceConfig::default()
        };
        let svc = DecodeService::new(1, cfg);
        let (params, _message, ys) = setup(11);
        let dec = Arc::new(BubbleDecoder::new(&params));
        let s1 = svc
            .open_session(
                &dec,
                SessionBuffer::Symbols(rx_for(&params, &ys)),
                SessionOptions::default(),
            )
            .expect("first admitted");
        let err = svc
            .open_session(
                &dec,
                SessionBuffer::Symbols(rx_for(&params, &ys)),
                SessionOptions::default(),
            )
            .expect_err("second shed");
        assert_eq!(
            err,
            AdmitError::SessionsFull {
                active: 1,
                limit: 1
            }
        );
        assert_eq!(svc.metrics().sessions_shed, 1);
        drop(s1);
        assert_eq!(svc.active_sessions(), 0);
        // Slot freed: admission works again.
        let _s3 = svc
            .open_session(
                &dec,
                SessionBuffer::Symbols(rx_for(&params, &ys)),
                SessionOptions::default(),
            )
            .expect("re-admitted after close");
        assert_eq!(svc.metrics().sessions_shed, 1);
    }

    #[test]
    fn spine_mismatch_is_rejected_at_admission() {
        let svc = DecodeService::new(1, ServiceConfig::default());
        let (params, _message, ys) = setup(5);
        let dec = Arc::new(BubbleDecoder::new(&params));
        let other = CodeParams::default().with_n(64);
        let rx = rx_for(&other, &ys);
        let err = svc
            .open_session(&dec, SessionBuffer::Symbols(rx), SessionOptions::default())
            .expect_err("mismatched spine count");
        assert!(matches!(err, AdmitError::SpineMismatch { .. }));
    }

    #[test]
    fn double_submit_is_an_error_on_a_pooled_service() {
        let svc = DecodeService::new(2, ServiceConfig::default());
        let (params, _message, ys) = setup(9);
        let dec = Arc::new(BubbleDecoder::new(&params));
        let mut session = svc
            .open_session(
                &dec,
                SessionBuffer::Symbols(rx_for(&params, &ys)),
                SessionOptions::default(),
            )
            .expect("admitted");
        session.submit().expect("queued");
        // Whatever the race with the pool worker, a second submit before
        // wait() must either queue cleanly (if the attempt finished and
        // was taken) or fail with AttemptInFlight — here nothing took
        // the result, so it must fail.
        assert_eq!(session.submit(), Err(SubmitError::AttemptInFlight));
        assert!(session.wait().is_some());
        let m = svc.metrics();
        assert_eq!(m.submits, 1);
    }

    #[test]
    fn dropped_session_completion_is_stale_not_lost() {
        let svc = DecodeService::new(1, ServiceConfig::default());
        let (params, _message, ys) = setup(13);
        let dec = Arc::new(BubbleDecoder::new(&params));
        let mut session = svc
            .open_session(
                &dec,
                SessionBuffer::Symbols(rx_for(&params, &ys)),
                SessionOptions::default(),
            )
            .expect("admitted");
        session.submit().expect("queued");
        // Inline service: the attempt already completed; drop without
        // taking the result. The Ready slot is simply discarded — no
        // stale count, the result existed and the caller walked away.
        drop(session);
        let m = svc.metrics();
        assert_eq!(m.completions, 1);
        assert_eq!(m.sessions_closed, 1);
        assert_eq!(m.sessions_active, 0);
    }

    #[test]
    fn queue_capacity_backpressure() {
        // Capacity 0: every submit is refused, structurally.
        let cfg = ServiceConfig {
            queue_capacity: 0,
            ..ServiceConfig::default()
        };
        let svc = DecodeService::new(1, cfg);
        let (params, _message, ys) = setup(17);
        let dec = Arc::new(BubbleDecoder::new(&params));
        let mut session = svc
            .open_session(
                &dec,
                SessionBuffer::Symbols(rx_for(&params, &ys)),
                SessionOptions::default(),
            )
            .expect("admitted");
        assert_eq!(
            session.submit(),
            Err(SubmitError::QueueFull {
                queued: 0,
                capacity: 0
            })
        );
        // The session survives backpressure: buffer still accessible.
        assert!(session.buffer().is_some());
        assert_eq!(svc.metrics().submits_rejected, 1);
    }

    #[test]
    fn metrics_json_is_wellformed() {
        let svc = DecodeService::new(1, ServiceConfig::default());
        let json = svc.metrics().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        for key in [
            "sessions_active",
            "sessions_shed",
            "decode_p50_us",
            "decode_p99_us",
            "symbols_per_sec",
            "attempts_failed",
            "worker_panics",
            "dispatch_p99_us",
        ] {
            assert!(
                json.contains(&format!("\"{key}\":")),
                "missing {key} in {json}"
            );
        }
    }

    #[test]
    fn wait_timeout_times_out_then_delivers() {
        let svc = DecodeService::new(1, ServiceConfig::default());
        let (params, message, ys) = setup(37);
        let dec = Arc::new(BubbleDecoder::new(&params));
        let mut session = svc
            .open_session(
                &dec,
                SessionBuffer::Symbols(rx_for(&params, &ys)),
                SessionOptions::default(),
            )
            .expect("admitted");
        // Nothing in flight: wait_timeout returns immediately.
        assert!(session.wait_timeout(Duration::from_millis(1)).is_none());
        session.submit().expect("queued");
        // Inline service: already complete, any timeout finds it Ready.
        let got = session
            .wait_timeout(Duration::from_secs(10))
            .expect("inline decode already finished")
            .expect("clean");
        assert_eq!(got.message, message);
    }

    #[test]
    fn poisoned_attempt_books_balance_and_respawns_worker() {
        // Pooled services: each poison panics on a real worker thread,
        // the pool catches it, respawns the slot, and the service
        // surfaces the structured failure — then the session decodes
        // again on the replacement worker. Repeated rounds must never
        // exhaust the pool. The inline service catches the poison at
        // `submit` the same way, with no worker to lose, and decodes
        // again on a fresh inline workspace.
        const ROUNDS: u64 = 5;
        for threads in [1, 2, 3] {
            let svc = DecodeService::new(threads, ServiceConfig::default());
            let (params, message, ys) = setup(67);
            let dec = Arc::new(BubbleDecoder::new(&params));
            let mut session = svc
                .open_session(
                    &dec,
                    SessionBuffer::Symbols(rx_for(&params, &ys)),
                    SessionOptions::default(),
                )
                .expect("admitted");
            for round in 1..=ROUNDS {
                let ctx = format!("threads {threads} round {round}");
                session.poison_next_attempt("injected poison");
                session.submit().expect("queued");
                let outcome = if threads == 1 {
                    session.try_result()
                } else {
                    session.wait_timeout(PATIENCE)
                };
                match outcome.expect("the poisoned attempt ended") {
                    Err(DecodeFailure::WorkerPanicked { payload_msg }) => {
                        assert_eq!(payload_msg, "injected poison", "{ctx}")
                    }
                    Ok(_) => panic!("{ctx}: the poisoned attempt decoded"),
                }
                let n_sym = session
                    .buffer()
                    .expect("resources recovered")
                    .symbols_received();
                assert_eq!(n_sym, ys.len(), "{ctx}: receive buffer survives the panic");
                // Each caught panic is counted once. On a pooled service
                // it also respawns exactly one worker: the failure
                // continuation holds the service, and so the pool, alive
                // until the replacement is spawned.
                assert_eq!(svc.metrics().worker_panics, round, "{ctx}");
                // The session decodes normally afterwards. A pool that
                // lost its workers would never run the attempt, so the
                // wait is bounded.
                session.submit().expect("queued after failure");
                let got = session
                    .wait_timeout(PATIENCE)
                    .expect("a live worker decoded the attempt")
                    .expect("clean");
                assert_eq!(got.message, message, "{ctx}");
            }
            let m = svc.metrics();
            assert_eq!(m.worker_panics, ROUNDS, "threads {threads}");
            assert_eq!(m.attempts_failed, ROUNDS, "threads {threads}");
            assert_eq!(m.completions, ROUNDS, "threads {threads}");
            assert_eq!(m.stale_completions, 0, "threads {threads}");
            assert_eq!(
                m.submits,
                m.completions + m.attempts_failed,
                "threads {threads}: every accepted submit ends exactly once"
            );
        }
    }

    #[test]
    fn wait_timeout_without_representable_deadline_waits_for_the_result() {
        // `Duration::MAX` overflows `Instant + Duration`; it must mean
        // "no deadline", whether the result is already waiting (inline)
        // or still being decoded (pooled).
        for threads in [1, 2] {
            let svc = DecodeService::new(threads, ServiceConfig::default());
            let (params, message, ys) = setup(71);
            let dec = Arc::new(BubbleDecoder::new(&params));
            let mut session = svc
                .open_session(
                    &dec,
                    SessionBuffer::Symbols(rx_for(&params, &ys)),
                    SessionOptions::default(),
                )
                .expect("admitted");
            session.submit().expect("queued");
            let got = session
                .wait_timeout(Duration::MAX)
                .expect("attempt was in flight")
                .expect("clean");
            assert_eq!(got.message, message, "threads {threads}");
        }
    }

    #[test]
    fn batch_parallel_matches_serial_batch_in_order() {
        let p = CodeParams::default().with_n(64).with_b(16);
        let buffers: Vec<SessionBuffer> = (0..7).map(|s| make_rx(&p, 2, 100 + s)).collect();
        for profile in [MetricProfile::Exact, MetricProfile::Quantized] {
            let dec = Arc::new(BubbleDecoder::new(&p).with_profile(profile));
            let svc = DecodeService::new(3, ServiceConfig::default());
            let batch = svc.decode_batch(&dec, buffers.clone());
            assert_batch_matches_serial(&batch, &dec, &buffers, &format!("{profile:?}"));
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let p = CodeParams::default().with_n(64);
        let dec = Arc::new(BubbleDecoder::new(&p));
        for threads in [1, 2] {
            let svc = DecodeService::new(threads, ServiceConfig::default());
            assert!(svc.decode_batch(&dec, Vec::new()).is_empty());
        }
    }

    #[test]
    fn one_service_serves_heterogeneous_parameters_and_profiles() {
        // Worker workspaces are parameter- AND profile-agnostic: one
        // service must serve different (n, k, B, d) codes and
        // alternating metric profiles back to back, batch after batch.
        let svc = DecodeService::new(2, ServiceConfig::default());
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
            let buffers = [make_rx(&p, 2, seed), make_rx(&p, 2, seed + 1)];
            for profile in [MetricProfile::Exact, MetricProfile::Quantized] {
                let dec = Arc::new(BubbleDecoder::new(&p).with_profile(profile));
                let batch = svc.decode_batch(&dec, buffers.to_vec());
                let case = format!("{profile:?} n{n} k{k} B{b} d{d}");
                assert_batch_matches_serial(&batch, &dec, &buffers, &case);
            }
        }
    }

    #[test]
    fn thread_budget_is_clamped_and_reported() {
        assert_eq!(DecodeService::new(0, ServiceConfig::default()).threads(), 1);
        assert_eq!(DecodeService::new(3, ServiceConfig::default()).threads(), 3);
    }

    #[test]
    fn batch_windows_through_refusals_in_order() {
        // However tight the service's limits, a batch returns every
        // block in input order, bit-identical to serial: a refused open
        // or submit waits for the batch's oldest block in flight, and a
        // block refused with none in flight decodes on the caller.
        let p = CodeParams::default().with_n(64).with_b(16);
        let buffers: Vec<SessionBuffer> = (0..7).map(|s| make_rx(&p, 2, 300 + s)).collect();
        let dec = Arc::new(BubbleDecoder::new(&p));
        let configs = [
            ServiceConfig::default(),
            ServiceConfig {
                max_sessions: 2,
                queue_capacity: 1,
                ..ServiceConfig::default()
            },
            ServiceConfig {
                queue_capacity: 0,
                ..ServiceConfig::default()
            },
            ServiceConfig {
                queue_capacity: 1,
                max_inflight: 1,
                ..ServiceConfig::default()
            },
        ];
        for threads in [1, 2, 3] {
            for cfg in configs {
                let ctx = format!("threads {threads} {cfg:?}");
                let svc = DecodeService::new(threads, cfg);
                let batch = svc.decode_batch(&dec, buffers.clone());
                assert_batch_matches_serial(&batch, &dec, &buffers, &ctx);
                let m = svc.metrics();
                assert_eq!(m.submits, m.completions + m.attempts_failed, "{ctx}");
                assert_eq!(m.sessions_active, 0, "{ctx}: a batch session leaked");
                if cfg.queue_capacity == 0 {
                    assert_eq!(m.submits, 0, "{ctx}: every block decodes on the caller");
                    assert_eq!(m.submits_rejected, 7, "{ctx}");
                }
            }
        }
    }

    /// The payload whose block check panics in
    /// [`batch_worker_panic_fails_only_its_block`].
    const POISON: [u8; 4] = *b"PANC";

    fn panics_on_poison(msg: &Message) -> bool {
        if msg.as_bytes() == POISON {
            panic!("block check poison");
        }
        true
    }

    #[test]
    fn batch_worker_panic_fails_only_its_block() {
        // An unpunctured B = 32 decoder runs its block check on every
        // block's B/16 candidate, so a check that panics on one payload
        // poisons exactly that block, on whichever worker decodes it —
        // or inline at `submit` on a 1-thread service. The last case is
        // a service on the process-wide pool, which outlives it: a second
        // service on the same workers decodes the next batch, and each
        // service's books count its own attempts alone.
        const POISONED: usize = 2;
        let p = CodeParams::default()
            .with_n(32)
            .with_b(32)
            .with_puncturing(Puncturing::none());
        let dec = Arc::new(BubbleDecoder::new(&p).with_block_check(panics_on_poison));
        let buffers: Vec<SessionBuffer> = (0..5u8)
            .map(|i| {
                let payload = if usize::from(i) == POISONED {
                    POISON.to_vec()
                } else {
                    vec![i, 0x5A, 0xC3, i.wrapping_mul(37)]
                };
                let mut enc = Encoder::new(&p, &Message::from_bytes(payload, p.n));
                let mut rx = RxSymbols::new(Schedule::new(p.num_spines(), p.tail, p.puncturing));
                let mut ch = AwgnChannel::new(20.0, u64::from(i) + 40);
                rx.push(&ch.transmit(&enc.next_symbols(2 * p.symbols_per_pass())));
                SessionBuffer::Symbols(rx)
            })
            .collect();
        let siblings: Vec<SessionBuffer> = buffers
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != POISONED)
            .map(|(_, b)| b.clone())
            .collect();
        let cfg = ServiceConfig::default();
        let mut cases: Vec<(String, DecodeService, DecodeService)> = [1, 2, 3]
            .into_iter()
            .map(|threads| {
                let svc = DecodeService::new(threads, cfg);
                (format!("threads {threads}"), svc.clone(), svc)
            })
            .collect();
        cases.push((
            "shared pool".to_string(),
            DecodeService::shared(cfg),
            DecodeService::shared(cfg),
        ));
        for (ctx, svc, next) in cases {
            let slots = svc.inner.pool.as_ref().map(|pool| pool.worker_threads());
            let mut batch = svc.decode_batch(&dec, buffers.clone());
            match batch.remove(POISONED) {
                Err(DecodeFailure::WorkerPanicked { payload_msg }) => {
                    assert_eq!(payload_msg, "block check poison", "{ctx}")
                }
                Ok(_) => panic!("{ctx}: the poisoned block decoded"),
            }
            assert_batch_matches_serial(&batch, &dec, &siblings, &ctx);
            // The worker respawns before the failure is delivered, so
            // the poisoned slot alone already has a new thread.
            if let (Some(pool), Some(slots)) = (&svc.inner.pool, slots) {
                let now = pool.worker_threads();
                assert_eq!(now.len(), slots.len(), "{ctx}");
                let respawned = slots.iter().zip(&now).filter(|(a, b)| a != b).count();
                assert_eq!(respawned, 1, "{ctx}: one slot respawns per panic");
            }
            // The pool still decodes afterwards, on the respawned worker
            // or the fresh inline workspace.
            let again = next.decode_batch(&dec, siblings.clone());
            assert_batch_matches_serial(&again, &dec, &siblings, &format!("{ctx} after"));
            let m = svc.metrics();
            assert_eq!(m.worker_panics, 1, "{ctx}");
            assert_eq!(m.attempts_failed, 1, "{ctx}");
            for m in [svc.metrics(), next.metrics()] {
                assert_eq!(m.submits, m.completions + m.attempts_failed, "{ctx}");
            }
        }
    }
}
