//! Model-check harnesses driving the *real* `DecodeService` through
//! hundreds to thousands of deterministic schedules: the batch and
//! session paths every caller decodes through, and the service's
//! shutdown.
//!
//! Each harness runs a service workload as a checked body over the
//! `check`-featured `parking_lot` shim, so every slot, queue, metrics
//! and pool lock and condvar is a schedule point, and the session's
//! strategy decides every handoff. Every schedule must finish with no
//! deadlock, lost wakeup or lock-order inversion, with clean decodes
//! bit-identical to a serial reference, and with the service's books
//! balanced: every accepted submit ends exactly once.
//! `SPINAL_CHECK_SCHEDULES` caps each harness's budget for CI smoke
//! runs (the flagship's distinct-schedule floor scales down with it).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spinal_channel::{AwgnChannel, Channel};
use spinal_check::hooks::await_participants;
use spinal_check::{check_random, CheckConfig};
use spinal_core::{
    BubbleDecoder, CodeParams, DecodeFailure, DecodeRequest, DecodeResult, DecodeService, Encoder,
    Message, MetricsSnapshot, RxSymbols, Schedule, ServiceConfig, Session, SessionBuffer,
    SessionOptions,
};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Pool width of the session harnesses' services.
const WORKERS: usize = 2;

fn make_rx(p: &CodeParams, seed: u64) -> RxSymbols {
    let mut rng = StdRng::seed_from_u64(seed);
    let msg = Message::random(p.n, || rng.gen());
    let mut enc = Encoder::new(p, &msg);
    let schedule = Schedule::new(p.num_spines(), p.tail, p.puncturing);
    let mut rx = RxSymbols::new(schedule);
    let mut ch = AwgnChannel::new(9.0, seed.wrapping_add(7));
    rx.push(&ch.transmit(&enc.next_symbols(2 * p.symbols_per_pass())));
    rx
}

/// `(message, cost-bits)` — the bit-identity fingerprint of a decode.
type Fingerprint = (Message, u64);

fn fingerprint(r: &DecodeResult) -> Fingerprint {
    (r.message.clone(), r.cost.to_bits())
}

fn schedule_budget(default: usize) -> usize {
    std::env::var("SPINAL_CHECK_SCHEDULES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn open(svc: &DecodeService, dec: &Arc<BubbleDecoder>, rx: &RxSymbols) -> Session {
    let buffer = SessionBuffer::Symbols(rx.clone());
    svc.open_session(dec, buffer, SessionOptions::default())
        .expect("admitted")
}

/// The flagship: a batch decode on a fresh service, then the service's
/// drop (shutdown broadcast and worker joins), at 2 and 3 workers. The
/// default budget must reach ≥1000 distinct schedules per worker count
/// with zero violations, and every schedule's batch must match the
/// serial decode bit for bit with the books balanced.
#[test]
fn service_batch_shutdown_is_schedule_independent() {
    let p = CodeParams::default().with_n(32).with_b(4);
    let dec = Arc::new(BubbleDecoder::new(&p));
    let rxs: Vec<RxSymbols> = (0..3).map(|i| make_rx(&p, 0xD0 + i)).collect();
    let serial: Vec<Fingerprint> = rxs
        .iter()
        .map(|rx| fingerprint(&DecodeRequest::new(&dec, rx).decode()))
        .collect();

    let budget = schedule_budget(1200);
    // With the default budget the acceptance bar is ≥1000 distinct
    // schedules; a smoke-sized budget keeps a ~75% density bar (PCT
    // schedules intentionally repeat at small thread counts).
    let distinct_floor = if budget >= 1200 { 1000 } else { budget * 3 / 4 };

    for workers in [2usize, 3] {
        let cfg = CheckConfig {
            schedules: budget,
            seed: 0xE1D0_0000 + workers as u64,
            // Main + the service's worker pool.
            declared_threads: Some(1 + workers),
        };
        let (results, stats) = check_random(&cfg, || batch_then_drop(workers, &dec, &rxs));
        stats.assert_clean(&format!("service batch, {workers} workers"));
        eprintln!(
            "service batch, {workers} workers: {}/{} distinct schedules",
            stats.distinct, stats.schedules
        );
        assert_eq!(
            results.len(),
            stats.schedules,
            "some schedule failed to complete ({workers} workers)"
        );
        for (i, (got, m)) in results.iter().enumerate() {
            let ctx = format!("schedule {i} ({workers} workers)");
            assert_eq!(got, &serial, "{ctx} diverged from the serial decode");
            assert_eq!(m.submits, 3, "{ctx}");
            assert_eq!(m.attempts_failed, 0, "{ctx}");
            assert_eq!(
                m.submits,
                m.completions + m.attempts_failed,
                "{ctx}: books unbalanced {m:?}"
            );
            assert_eq!(m.sessions_active, 0, "{ctx}: a batch session leaked");
        }
        assert!(
            stats.distinct >= distinct_floor,
            "only {} distinct schedules of {} runs ({workers} workers); floor {}",
            stats.distinct,
            stats.schedules,
            distinct_floor
        );
    }
}

/// One checked body: a fresh `workers`-wide service decodes `rxs` as
/// one batch, then drops — the pool's shutdown broadcast runs under the
/// model on every schedule (its worker joins are invisible to it).
fn batch_then_drop(
    workers: usize,
    dec: &Arc<BubbleDecoder>,
    rxs: &[RxSymbols],
) -> (Vec<Fingerprint>, MetricsSnapshot) {
    let svc = DecodeService::new(workers, ServiceConfig::default());
    // Worker registration races spawn latency; pin it so every
    // schedule explores the same participant set.
    await_participants(1 + workers);
    let buffers = rxs.iter().cloned().map(SessionBuffer::Symbols).collect();
    let got = svc
        .decode_batch(dec, buffers)
        .into_iter()
        .map(|r| fingerprint(&r.expect("clean batch decode")))
        .collect();
    let m = svc.metrics();
    drop(svc);
    (got, m)
}

/// Worker panic against `wait`: the middle of three sessions is
/// poisoned, so its attempt panics on a pool worker while the healthy
/// attempts run and the caller waits on each session in turn. On every
/// schedule the panic must resolve as `WorkerPanicked` on the poisoned
/// session only, with its receive buffer handed back, the healthy
/// sessions' results must match serial bit for bit, and the books must
/// balance with nothing stale.
#[test]
fn worker_panic_against_wait_resolves_structurally_on_every_schedule() {
    const POISONED: usize = 1;
    let p = CodeParams::default().with_n(32).with_b(4);
    let dec = Arc::new(BubbleDecoder::new(&p));
    let rxs: Vec<RxSymbols> = (0..3).map(|i| make_rx(&p, 0xB00 + i)).collect();
    let serial: Vec<Fingerprint> = rxs
        .iter()
        .map(|rx| fingerprint(&DecodeRequest::new(&dec, rx).decode()))
        .collect();

    let cfg = CheckConfig {
        schedules: schedule_budget(250),
        seed: 0xBAD_5EED,
        // Main + the service's worker pool: the worker that runs the
        // poisoned attempt catches the panic and lives on.
        declared_threads: Some(1 + WORKERS),
    };
    let (results, stats) = check_random(&cfg, || {
        let svc = DecodeService::new(WORKERS, ServiceConfig::default());
        await_participants(1 + WORKERS);
        let mut sessions: Vec<Session> = rxs.iter().map(|rx| open(&svc, &dec, rx)).collect();
        sessions[POISONED].poison_next_attempt("model-checked poison");
        for session in &mut sessions {
            session.submit().expect("queued");
        }
        let outcomes: Vec<(Result<Fingerprint, DecodeFailure>, Option<usize>)> = sessions
            .iter_mut()
            .map(|session| {
                let outcome = session.wait().expect("attempt in flight");
                let buffered = session.buffer().map(SessionBuffer::symbols_received);
                (outcome.map(|r| fingerprint(&r)), buffered)
            })
            .collect();
        drop(sessions);
        (outcomes, svc.metrics())
    });
    stats.assert_clean("service worker panic against wait");
    assert_eq!(results.len(), stats.schedules, "a panic schedule wedged");
    eprintln!(
        "panic against wait: {}/{} distinct schedules",
        stats.distinct, stats.schedules
    );
    for (i, (outcomes, m)) in results.iter().enumerate() {
        for (s, (outcome, buffered)) in outcomes.iter().enumerate() {
            let ctx = format!("schedule {i} session {s}");
            assert_eq!(
                *buffered,
                Some(rxs[s].symbols_received()),
                "{ctx}: buffer not handed back intact"
            );
            match outcome {
                Ok(got) => {
                    assert_ne!(s, POISONED, "{ctx}: the poisoned attempt decoded");
                    assert_eq!(got, &serial[s], "{ctx}: healthy result corrupted");
                }
                Err(DecodeFailure::WorkerPanicked { payload_msg }) => {
                    assert_eq!(s, POISONED, "{ctx}: failure outside the poisoned session");
                    assert_eq!(payload_msg, "model-checked poison", "{ctx}");
                }
            }
        }
        assert_eq!(m.submits, 3, "schedule {i}");
        assert_eq!(m.attempts_failed, 1, "schedule {i}: one structured failure");
        assert_eq!(
            m.stale_completions, 0,
            "schedule {i}: completion leaked as stale"
        );
        assert_eq!(
            m.submits,
            m.completions + m.attempts_failed,
            "schedule {i}: books unbalanced {m:?}"
        );
    }
}

/// Sessions and service dropped with attempts queued or running: three
/// sessions submit behind a one-slot in-flight cap (one attempt running
/// or done, the rest queued) and are dropped without waiting, then the
/// last service handle drops — so pool shutdown may run on a pool
/// worker. No schedule may wedge, and no attempt may be lost: a
/// sentinel session submitted after the drops dispatches only once
/// every earlier attempt has ended (FIFO order, one attempt in flight),
/// so its result proves the books final — balanced, with each dropped
/// attempt either completed before its drop or counted stale.
#[test]
fn sessions_and_service_dropped_with_attempts_in_flight_never_wedge() {
    let p = CodeParams::default().with_n(32).with_b(4);
    let dec = Arc::new(BubbleDecoder::new(&p));
    let rxs: Vec<RxSymbols> = (0..3).map(|i| make_rx(&p, 0xDEAD + i)).collect();
    let sentinel_serial = fingerprint(&DecodeRequest::new(&dec, &rxs[0]).decode());

    let cfg = CheckConfig {
        schedules: schedule_budget(250),
        seed: 0xD20D,
        declared_threads: Some(1 + WORKERS),
    };
    let (results, stats) = check_random(&cfg, || {
        let svc = DecodeService::new(
            WORKERS,
            ServiceConfig {
                max_inflight: 1,
                ..ServiceConfig::default()
            },
        );
        await_participants(1 + WORKERS);
        let mut sessions: Vec<Session> = rxs.iter().map(|rx| open(&svc, &dec, rx)).collect();
        for session in &mut sessions {
            session.submit().expect("queued");
        }
        drop(sessions);
        let mut sentinel = open(&svc, &dec, &rxs[0]);
        sentinel.submit().expect("queued");
        let got = sentinel
            .wait()
            .expect("attempt in flight")
            .expect("clean sentinel decode");
        drop(sentinel);
        let m = svc.metrics();
        drop(svc);
        (fingerprint(&got), m)
    });
    stats.assert_clean("service and sessions dropped mid-flight");
    assert_eq!(results.len(), stats.schedules, "a drop schedule wedged");
    eprintln!(
        "drop mid-flight: {}/{} distinct schedules",
        stats.distinct, stats.schedules
    );
    let mut stale_counts = BTreeSet::new();
    for (i, (got, m)) in results.iter().enumerate() {
        assert_eq!(got, &sentinel_serial, "schedule {i}: sentinel corrupted");
        assert_eq!(m.submits, 4, "schedule {i}");
        assert_eq!(m.attempts_failed, 0, "schedule {i}: no attempt may fail");
        assert_eq!(
            m.submits,
            m.completions + m.attempts_failed,
            "schedule {i}: an attempt was lost {m:?}"
        );
        assert!(
            m.stale_completions <= 3,
            "schedule {i}: more stale completions than dropped attempts"
        );
        assert_eq!(m.sessions_closed, 4, "schedule {i}");
        assert_eq!(m.sessions_active, 0, "schedule {i}");
        stale_counts.insert(m.stale_completions);
    }
    // The race must actually branch: some schedules drop an attempt
    // before it ends (stale), others after.
    assert!(
        stale_counts.len() >= 2,
        "drops never raced completion: stale counts {stale_counts:?}"
    );
}
