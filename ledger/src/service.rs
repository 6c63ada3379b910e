//! The `service_small_open` workload: an open loop of seeded Poisson
//! session arrivals into one shared, threaded `DecodeService`.
//!
//! Each arrival opens a session with one pass of noisy symbols and
//! submits a decode attempt; every wrong decode adds one more pass and
//! resubmits, up to [`MAX_PASSES`]. The generator runs on the main
//! thread and never spins: between due times it blocks in
//! `wait_timeout` on the session whose attempt was submitted first.
//! Latency runs from an arrival's due time to the moment its correct
//! decode is observed, so a late generator shows up as latency, and so
//! does a completion that waits to be seen while the generator blocks on
//! an earlier attempt (the run reports how long that can be).

use crate::sys::{self, Rng, Segment, Segments};
use crate::trace::{span, Kind, Tracer, NO_BLOCK};
use crate::{set_segment_metrics, timed_setup, Args, Outcome, WARMUP_SEED};
use spinal_channel::{AwgnChannel, Channel};
use spinal_core::{
    BubbleDecoder, CodeParams, DecodeFailure, DecodeResult, DecodeService, Encoder, Message,
    MetricsSnapshot, RxSymbols, Schedule, ServiceConfig, Session, SessionBuffer, SessionOptions,
};
use std::cell::RefCell;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Offered load in sessions per second: about half the rate at which
/// session p99 latency starts to climb on a 2-core host (see README;
/// the knee was found by editing this constant).
pub const OFFERED_RATE: f64 = 5000.0;
/// Pass budget per session.
const MAX_PASSES: usize = 8;

/// One code geometry and channel of the session mix.
struct Mix {
    params: CodeParams,
    decoder: Arc<BubbleDecoder>,
    schedule: Schedule,
    snr_db: f64,
}

struct Arrival {
    /// Seconds after the start of the timed region.
    due_s: f64,
    mix: usize,
}

/// Everything a run needs before the clock starts.
struct Setup {
    seed: u64,
    mixes: Vec<Mix>,
    svc: DecodeService,
    arrivals: Vec<Arrival>,
}

/// One in-flight session and the sender state that streams its passes.
struct Active {
    idx: usize,
    due: Instant,
    session: Session,
    expect: Message,
    encoder: Encoder,
    channel: AwgnChannel,
    passes: usize,
    symbols: usize,
    /// Order of the current attempt's submit within the phase: with FIFO
    /// dispatch the lowest in-flight value completes first.
    submit_seq: u64,
}

/// What became of a session after one of its attempts completed.
enum Step {
    Delivered,
    Retried,
    Failed,
}

type AttemptResult = Option<Result<DecodeResult, DecodeFailure>>;

impl Setup {
    fn new(seed: u64, seconds: f64) -> Self {
        let mixes = [(32, 8, 10.0), (64, 8, 12.0), (64, 16, 8.0)]
            .into_iter()
            .map(|(n, b, snr_db)| {
                let params = CodeParams::default().with_n(n).with_b(b);
                params.validate();
                Mix {
                    decoder: Arc::new(BubbleDecoder::new(&params)),
                    schedule: Schedule::new(params.num_spines(), params.tail, params.puncturing),
                    params,
                    snr_db,
                }
            })
            .collect();
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        let svc = DecodeService::new(
            threads,
            ServiceConfig {
                max_sessions: 4096,
                queue_capacity: 4096,
                ..ServiceConfig::default()
            },
        );
        let mut rng = Rng::new(seed ^ 0xA771_7A15);
        let mut t = 0.0;
        let mut arrivals = Vec::with_capacity((OFFERED_RATE * seconds * 1.1) as usize);
        loop {
            t += -rng.unit().ln() / OFFERED_RATE;
            if t >= seconds {
                break;
            }
            arrivals.push(Arrival {
                due_s: t,
                mix: (rng.next_u64() % 3) as usize,
            });
        }
        let setup = Setup {
            seed,
            mixes,
            svc,
            arrivals,
        };
        // Warm-up: one session of each geometry, decoded to the end; the
        // same for every seed so set-up time does not depend on it.
        for mix in 0..setup.mixes.len() {
            let mut a = setup
                .open_session(WARMUP_SEED, mix, mix, Instant::now(), None)
                .expect("warm-up session admitted");
            loop {
                let r = a.session.wait();
                if !matches!(setup.step(&mut a, r, None), Step::Retried) {
                    break;
                }
            }
        }
        setup
    }

    /// Session `idx` of stream `seed`: its message and channel depend on
    /// the two alone.
    fn open_session(
        &self,
        seed: u64,
        idx: usize,
        mix: usize,
        due: Instant,
        tr: Option<&RefCell<Tracer>>,
    ) -> Option<Active> {
        let m = &self.mixes[mix];
        let mut rng = Rng::for_item(seed, idx as u64);
        let expect = Message::from_bytes(rng.bytes(m.params.n / 8), m.params.n);
        let mut encoder = Encoder::new(&m.params, &expect);
        let mut channel = AwgnChannel::new(m.snr_db, rng.next_u64());
        let spp = m.params.symbols_per_pass();
        let ys = span(tr, Kind::Generate, idx as u64, NO_BLOCK, || {
            channel.transmit(&encoder.next_symbols(spp))
        });
        let mut rx = RxSymbols::new(m.schedule.clone());
        rx.push(&ys);
        let mut session = span(tr, Kind::Open, idx as u64, NO_BLOCK, || {
            self.svc.open_session(
                &m.decoder,
                SessionBuffer::Symbols(rx),
                SessionOptions::default(),
            )
        })
        .ok()?;
        span(tr, Kind::Submit, idx as u64, NO_BLOCK, || session.submit()).ok()?;
        Some(Active {
            idx,
            due,
            session,
            expect,
            encoder,
            channel,
            passes: 1,
            symbols: spp,
            submit_seq: 0,
        })
    }

    /// Judge one completed attempt: accept a bit-exact decode, or stream
    /// one more pass and resubmit.
    fn step(&self, a: &mut Active, r: AttemptResult, tr: Option<&RefCell<Tracer>>) -> Step {
        match r {
            Some(Ok(res)) if res.message == a.expect => Step::Delivered,
            Some(Ok(_)) if a.passes < MAX_PASSES => {
                let spp = a.encoder.schedule().symbols_per_pass();
                let (encoder, channel) = (&mut a.encoder, &mut a.channel);
                let ys = span(tr, Kind::Generate, a.idx as u64, NO_BLOCK, || {
                    channel.transmit(&encoder.next_symbols(spp))
                });
                match a.session.buffer_mut() {
                    Some(SessionBuffer::Symbols(rx)) => rx.push(&ys),
                    _ => return Step::Failed,
                }
                a.passes += 1;
                a.symbols += spp;
                let session = &mut a.session;
                match span(tr, Kind::Submit, a.idx as u64, NO_BLOCK, || {
                    session.submit()
                }) {
                    Ok(()) => Step::Retried,
                    Err(_) => Step::Failed,
                }
            }
            _ => Step::Failed,
        }
    }
}

/// Tallies of one pass over the arrival schedule.
#[derive(Default)]
struct Phase {
    sessions: u64,
    failed: u64,
    segments: Vec<Segment>,
    lags_ms: Vec<f64>,
    symbols: u64,
    submits: u64,
    wall_s: f64,
    cpu_s: f64,
    main_cpu_s: f64,
    /// Submits the service refused during the phase.
    rejected: u64,
    /// Completions found by the sweep rather than by the blocking wait,
    /// each with the time since the sweep before: the most it waited to
    /// be seen.
    swept_gaps_ms: Vec<f64>,
    /// The service's metrics when the phase ended.
    metrics: Option<MetricsSnapshot>,
}

/// Drive every arrival due before `until_s` and wait for all of them.
fn run_phase(setup: &Setup, until_s: f64, tr: Option<&RefCell<Tracer>>) -> Phase {
    let n = setup.arrivals.partition_point(|a| a.due_s < until_s);
    let mut p = Phase::default();
    let rejected0 = setup.svc.metrics().submits_rejected;
    let mut inflight: Vec<Active> = Vec::new();
    let mut next = 0;
    let cpu0 = sys::process_cpu_s();
    let main0 = sys::thread_cpu_s();
    let mut segs = Segments::new();
    let start = Instant::now();
    let mut prev_sweep = start;
    let due_at = |i: usize| start + Duration::from_secs_f64(setup.arrivals[i].due_s);
    // Book one completed attempt of `inflight[k]`; true if the session
    // left the in-flight set.
    let settle = |inflight: &mut Vec<Active>,
                  k: usize,
                  r: AttemptResult,
                  p: &mut Phase,
                  segs: &mut Segments| {
        let step = setup.step(&mut inflight[k], r, tr);
        if matches!(step, Step::Retried) {
            p.submits += 1;
            inflight[k].submit_seq = p.submits;
            return false;
        }
        let a = inflight.swap_remove(k);
        if matches!(step, Step::Delivered) {
            p.symbols += a.symbols as u64;
            let latency_ms = a.due.elapsed().as_secs_f64() * 1e3;
            segs.record(a.expect.len_bits() as u64, latency_ms);
        } else {
            p.failed += 1;
        }
        true
    };
    loop {
        let now = Instant::now();
        while next < n && due_at(next) <= now {
            let due = due_at(next);
            p.lags_ms.push(now.duration_since(due).as_secs_f64() * 1e3);
            p.sessions += 1;
            match setup.open_session(setup.seed, next, setup.arrivals[next].mix, due, tr) {
                Some(mut a) => {
                    p.submits += 1;
                    a.submit_seq = p.submits;
                    inflight.push(a);
                }
                None => p.failed += 1,
            }
            next += 1;
        }
        let sweep_at = Instant::now();
        let gap_ms = sweep_at.duration_since(prev_sweep).as_secs_f64() * 1e3;
        prev_sweep = sweep_at;
        let mut k = 0;
        while k < inflight.len() {
            let a = &mut inflight[k];
            let r = span(tr, Kind::TryResult, a.idx as u64, NO_BLOCK, || {
                a.session.try_result()
            });
            if r.is_some() {
                p.swept_gaps_ms.push(gap_ms);
            }
            if r.is_none() || !settle(&mut inflight, k, r, &mut p, &mut segs) {
                k += 1;
            }
        }
        if next >= n && inflight.is_empty() {
            break;
        }
        // Block until the earliest-submitted attempt completes or the
        // next arrival is due, whichever comes first.
        let timeout = if next < n {
            due_at(next).saturating_duration_since(Instant::now())
        } else {
            Duration::from_secs(1)
        };
        match (0..inflight.len()).min_by_key(|&k| inflight[k].submit_seq) {
            Some(k) => {
                let a = &mut inflight[k];
                let r = span(tr, Kind::Wait, a.idx as u64, NO_BLOCK, || {
                    a.session.wait_timeout(timeout)
                });
                if r.is_some() {
                    settle(&mut inflight, k, r, &mut p, &mut segs);
                }
            }
            None => std::thread::sleep(timeout),
        }
        segs.tick();
    }
    p.segments = segs.finish();
    p.wall_s = start.elapsed().as_secs_f64();
    p.cpu_s = sys::process_cpu_s() - cpu0;
    p.main_cpu_s = sys::thread_cpu_s() - main0;
    let metrics = setup.svc.metrics();
    p.rejected = metrics.submits_rejected - rejected0;
    p.metrics = Some(metrics);
    p
}

pub fn run(args: &Args, name: &str) -> Outcome {
    let (setup, setup_s, builds) = timed_setup(|| Setup::new(args.seed, args.seconds));
    let mut out = Outcome::default();
    out.note(format!(
        "setup: median of {builds} builds {setup_s} s; {} arrivals scheduled at \
         {OFFERED_RATE} sessions/s",
        setup.arrivals.len()
    ));
    if args.trace {
        traced_run(&setup, args, name, &mut out);
        return out;
    }
    let p = run_phase(&setup, args.seconds, None);
    out.attempted = p.sessions;
    out.failed = p.failed;
    let bits: u64 = p.segments.iter().map(|s| s.bits).sum();
    out.set("bits_per_symbol", bits as f64 / p.symbols.max(1) as f64);
    set_segment_metrics(&mut out, &p.segments, "session", 0.9);
    let p99 = sys::segment_median(&p.segments, |s| sys::quantile(&s.latencies_ms, 0.99));
    out.note(format!("session_p99_ms = {p99} ms (median over segments)"));
    out.set("setup_s", setup_s);
    out.note(format!("peak_rss_mb = {} MB (VmHWM)", sys::peak_rss_mb()));
    out.note(format!(
        "generator: cpu_frac {} lag_p99_ms {}; achieved {} sessions/s, {} attempts/session",
        p.main_cpu_s / p.wall_s,
        sys::quantile(&p.lags_ms, 0.99),
        p.sessions as f64 / p.wall_s,
        p.submits as f64 / p.sessions.max(1) as f64
    ));
    out.note(format!(
        "observation: {} of {} completions found by the sweep, not the wait; \
         since the sweep before: p50 {} ms, p99 {} ms",
        p.swept_gaps_ms.len(),
        p.submits,
        sys::quantile(&p.swept_gaps_ms, 0.5),
        sys::quantile(&p.swept_gaps_ms, 0.99)
    ));
    out
}

/// Run the first half of the schedule untraced, then the same sessions
/// again traced; per-layer metrics come from the traced pass, generator
/// and engine CPU from the untraced one.
fn traced_run(setup: &Setup, args: &Args, name: &str, out: &mut Outcome) {
    let half = args.seconds / 2.0;
    let plain = run_phase(setup, half, None);
    let tr = RefCell::new(Tracer::new());
    let traced = run_phase(setup, half, Some(&tr));
    let tr = tr.into_inner();
    out.attempted = plain.sessions + traced.sessions;
    out.failed = plain.failed + traced.failed;
    let mean_us = |kind: Kind| {
        let t = tr.totals(kind);
        t.dur_ns as f64 / 1e3 / t.count.max(1) as f64
    };
    out.set("service.open_us", mean_us(Kind::Open));
    out.set("service.submit_us", mean_us(Kind::Submit));
    out.set("service.result_us", mean_us(Kind::TryResult));
    out.set(
        "service.attempts_per_session",
        traced.submits as f64 / traced.sessions.max(1) as f64,
    );
    let rejected = traced.rejected as f64;
    out.set(
        "service.rejected_frac",
        rejected / (traced.submits as f64 + rejected).max(1.0),
    );
    let m = traced
        .metrics
        .as_ref()
        .expect("run_phase snapshots metrics");
    out.set("service.dispatch_p99_us", m.dispatch_p99_us as f64);
    out.set("service.decode_p50_us", m.decode_p50_us as f64);
    out.set(
        "engine.cpu_us_per_attempt",
        (plain.cpu_s - plain.main_cpu_s).max(0.0) * 1e6 / plain.submits.max(1) as f64,
    );
    out.set("generator.cpu_frac", plain.main_cpu_s / plain.wall_s);
    out.set("generator.lag_p99_ms", sys::quantile(&plain.lags_ms, 0.99));
    let per_session = |p: &Phase| p.cpu_s / p.sessions.max(1) as f64;
    out.set(
        "trace.overhead_frac",
        per_session(&traced) / per_session(&plain).max(1e-12) - 1.0,
    );
    out.note(format!(
        "traced {} sessions ({} spans) after the same {} untraced",
        traced.sessions,
        tr.spans.len(),
        plain.sessions
    ));
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("out/{name}.spans.tsv"));
    match tr.write_tsv(&path) {
        Ok(()) => out.note(format!("spans written to {}", path.display())),
        Err(e) => eprintln!("ledger: cannot write spans to {}: {e}", path.display()),
    }
}
