//! Many-session decode service: per-session state, admission control,
//! backpressure, and metrics on top of [`DecodeEngine`].
//!
//! The paper's receiver is rateless and incremental — symbols trickle in
//! per block and decodes retry at pass boundaries (§7.1) — and the
//! operating regime of interest is *many* such blocks in flight at once
//! (the amortized many-user shape analyzed in "De-randomizing
//! Shannon", arXiv 1206.0418). The engine's batch path serves a caller
//! that holds every block up front; this module gives every in-flight
//! block its own handle:
//!
//! * **[`Session`]** — owns the per-block decode state: the receive
//!   buffer ([`SessionBuffer`]), a [`TableCache`] so each exact-profile
//!   retry folds in only the symbols received since the last attempt,
//!   and a schedule position. Its attempts run on the engine's per-core
//!   [`DecodeWorkspace`] (the pooled worker's own, or the inline
//!   engine's), so a session carries no decode scratch of its own.
//!   Completion is per-session (`submit` → `wait`), so independent
//!   callers cannot cross-talk.
//! * **[`DecodeService`]** — admission control (at most
//!   [`ServiceConfig::max_sessions`] live sessions, structured
//!   [`AdmitError`] on shed) and a bounded dispatch queue
//!   ([`ServiceConfig::queue_capacity`], structured [`SubmitError`] on
//!   overflow — backpressure, never unbounded growth) that dispatches
//!   attempts in submission order.
//! * **[`MetricsSnapshot`]** — sessions admitted/shed/active, decode
//!   latency p50/p99, symbols/s, retries; snapshotable as JSON for the
//!   `traffic_gen` harness and CI smoke checks.
//!
//! Decodes run on the service's [`DecodeEngine`]: pooled engines execute
//! session jobs on their workers; a 1-thread engine runs them inline at
//! `submit`, which keeps `wait` non-blocking there and the whole layer
//! deadlock-free at every thread count. Results are bit-identical to a
//! serial decode of the same observations — the job body is the same
//! incremental-table path a serial [`DecodeRequest`](crate::DecodeRequest)
//! resolves to.

use crate::decoder::{BubbleDecoder, DecodeResult, DecodeWorkspace};
use crate::engine::{DecodeEngine, DecodeFailure};
use crate::rx::{RxBits, RxSymbols};
use crate::tables::TableCache;
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Service-wide tuning knobs. `Default` gives a generous single-tenant
/// shape: 4096 sessions, a 1024-deep queue, in-flight cap = engine
/// threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Admission limit: `open_session` beyond this many live sessions is
    /// shed with [`AdmitError::SessionsFull`].
    pub max_sessions: usize,
    /// Bound on queued (submitted, not yet running) attempts across all
    /// sessions; `submit` beyond it fails with [`SubmitError::QueueFull`].
    pub queue_capacity: usize,
    /// Cap on concurrently *running* attempts; `0` means "engine thread
    /// count". Clamped to at least 1.
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
        match self {
            SessionBuffer::Symbols(rx) => rx.symbols_received(),
            SessionBuffer::Bits(rx) => rx.symbols_received(),
        }
    }

    fn n_spines(&self) -> usize {
        match self {
            SessionBuffer::Symbols(rx) => rx.n_spines(),
            SessionBuffer::Bits(rx) => rx.n_spines(),
        }
    }
}

/// The per-session decode resources that travel into a job and back:
/// the receive buffer and the incremental table cache. The job decodes
/// on the workspace of whichever engine thread runs it.
#[derive(Debug)]
struct SessionRes {
    buffer: SessionBuffer,
    cache: TableCache,
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

/// A job handed to the engine pool, shaped so both halves of the
/// engine's run/fail contract can reach it: the job (and the session
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
    engine: DecodeEngine,
    cfg: ServiceConfig,
    max_inflight: usize,
    state: Mutex<ServiceState>,
    metrics: Mutex<MetricsInner>,
}

/// The many-session decode service. Cheap to clone (all clones share
/// one engine, queue, and metrics registry); see the module docs for
/// the architecture.
#[derive(Clone)]
pub struct DecodeService {
    inner: Arc<ServiceInner>,
}

impl std::fmt::Debug for DecodeService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DecodeService")
            .field("threads", &self.inner.engine.threads())
            .field("cfg", &self.inner.cfg)
            .finish_non_exhaustive()
    }
}

impl DecodeService {
    /// Create a service with its own [`DecodeEngine`] of `threads`
    /// workers (1 = run every attempt inline at `submit`). The service
    /// owns the engine and dispatches every session attempt through its
    /// pool.
    pub fn new(threads: usize, cfg: ServiceConfig) -> Self {
        let engine = DecodeEngine::new(threads);
        let max_inflight = if cfg.max_inflight == 0 {
            engine.threads()
        } else {
            cfg.max_inflight
        }
        .max(1);
        DecodeService {
            inner: Arc::new(ServiceInner {
                engine,
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

    /// Worker threads on the underlying engine.
    pub fn threads(&self) -> usize {
        self.inner.engine.threads()
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
        let expected = dec.params_ref().num_spines();
        if buffer.n_spines() != expected {
            self.inner.metrics.lock().shed += 1;
            return Err(AdmitError::SpineMismatch {
                buffer: buffer.n_spines(),
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
        {
            let mut m = self.inner.metrics.lock();
            m.admitted += 1;
            m.peak_active = m.peak_active.max(active);
        }
        Ok(Session {
            svc: self.clone(),
            dec: Arc::clone(dec),
            slot: Arc::new(SessionSlot {
                state: Mutex::new(SlotState::Idle),
                ready: Condvar::new(),
            }),
            res: Some(SessionRes {
                buffer,
                cache: TableCache::new(),
                folded: 0,
            }),
            position: 0,
            attempts: 0,
            poison: None,
        })
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
    /// Pooled engines get the job on a worker; a poolless engine runs it
    /// right here (so a 1-thread service is fully synchronous and
    /// `wait` can never block on a job nobody will run).
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
            if self.engine.is_pooled() {
                let d = Arc::new(DispatchedJob::new(job));
                let me = Arc::clone(self);
                let run_d = Arc::clone(&d);
                let fail_me = Arc::clone(self);
                // The failure continuation resolves the attempt when the
                // job panics on its worker: exactly one of {run, fail}
                // ends the attempt and frees the in-flight slot (first
                // resolver wins via the `resolved` latch).
                self.engine.pool_spawn(
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
                // queue depth never grows the stack. A poisoned attempt
                // must not panic the *submitting* thread — resolve it as
                // the structured failure directly.
                let mut job = job;
                let poison = job.poison.take();
                let d = DispatchedJob::new(job);
                match poison {
                    Some(payload_msg) => {
                        self.fail_job(&d, DecodeFailure::WorkerPanicked { payload_msg })
                    }
                    None => self.run_job(&d, &mut self.engine.inline_workspace()),
                }
            }
        }
    }

    /// Decode one attempt on `ws`, the running engine thread's
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
                // decoder bug would, on the worker, mid-job.
                panic!("{}", msg);
            }
            let res = &mut job.res;
            let result = match &mut res.buffer {
                SessionBuffer::Symbols(rx) => job.dec.decode_cached_impl(rx, &mut res.cache, ws),
                SessionBuffer::Bits(rx) => job.dec.decode_bits_impl(rx, ws),
            };
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

    /// Resolve one attempt as a structured failure (a worker panic, or
    /// an injected poison on an inline engine). The failed job has
    /// already unwound, so its resources sit in `held`. The incremental
    /// cache is reset (a panic can interrupt a cache sync half-way); the
    /// receive buffer survives intact. The workspace the job decoded on
    /// was the worker's, and it died with the panicked thread; the
    /// respawned worker starts a fresh one.
    fn fail_job(&self, d: &DispatchedJob, failure: DecodeFailure) {
        if d.resolved.swap(true, Ordering::SeqCst) {
            return;
        }
        let mut res = d
            .held
            .lock()
            .take()
            .expect("an unresolved job keeps its resources in `held`")
            .res;
        res.cache = TableCache::new();
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
/// push more, resubmit: the §7.1 retry loop. Under the exact profile
/// each attempt folds only the new observations through the session's
/// [`TableCache`]; a quantized attempt builds its tables from the
/// buffer in one pass. Either way the attempt runs on the engine's
/// per-core workspace.
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
    /// worker or by `submit` itself on inline engines.
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
    /// on its worker (or resolves directly as the structured failure on
    /// an inline engine) instead of decoding — exercising the full
    /// panic-recovery path: catch, respawn, `DecodeFailure` surfacing.
    /// Never use outside tests.
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
    use crate::puncturing::Schedule;
    use spinal_channel::{AwgnChannel, Channel};

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
    fn double_submit_is_an_error_on_pooled_engine() {
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
        // Inline engine: the attempt already completed; drop without
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
        // Inline engine: already complete, any timeout finds it Ready.
        let got = session
            .wait_timeout(Duration::from_secs(10))
            .expect("inline decode already finished")
            .expect("clean");
        assert_eq!(got.message, message);
    }

    #[test]
    fn poisoned_attempt_books_balance_and_respawns_worker() {
        // Pooled engines: each poison panics on a real worker thread,
        // the engine catches it, respawns the slot, and the service
        // surfaces the structured failure — then the session decodes
        // again on the replacement worker. Repeated rounds must never
        // exhaust the pool. The inline engine resolves the poison at
        // `submit` with no worker to lose.
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
                    session.wait()
                };
                match outcome.expect("attempt was in flight") {
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
                let respawns = if threads == 1 { 0 } else { round };
                assert_eq!(svc.inner.engine.stats().worker_respawns, respawns, "{ctx}");
                // The session decodes normally afterwards.
                session.submit().expect("queued after failure");
                let got = session.wait().expect("in flight").expect("clean");
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
}
