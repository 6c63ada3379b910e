//! Property tests for the many-session decode service: for arbitrary
//! (code, channel, session count, thread budget, queue capacity) the
//! FIFO service must
//!
//! * return every session's decode **bit-identical** to the serial
//!   decode of the same buffer, at every thread count;
//! * report admission shed **exactly once** per rejected open, and
//!   admit again as soon as a slot frees;
//! * exert backpressure through `Err(QueueFull)` — a structured,
//!   prompt refusal — never by blocking the caller (a deadlock here
//!   hangs the test; proptest's timeout is the detector);
//! * keep its books balanced: `submits == completions + attempts_failed`,
//!   nothing stale, nothing lost, after every session reaches a terminal
//!   state.
//!
//! The service's two concurrent races — a worker panic against `wait`,
//! and a dropped session or service against completion — each have a
//! deterministic-schedule harness in `spinal-check`'s
//! `model_check_service.rs`.

use proptest::prelude::*;
use spinal_codes::channel::BitChannel;
use spinal_codes::core::{DecodeRequest, DecodeResult};
use spinal_codes::{
    AwgnChannel, BscChannel, BubbleDecoder, Channel, CodeParams, DecodeService, Encoder, Message,
    RxBits, RxSymbols, Schedule, ServiceConfig, Session, SessionBuffer, SessionOptions,
};
use std::sync::Arc;

/// One generated service workload.
#[derive(Debug, Clone, Copy)]
struct Scenario {
    /// Engine thread budget (1 = inline, >1 = pooled).
    threads: usize,
    /// Sessions opened concurrently.
    sessions: usize,
    /// Attempts (submit/wait rounds) per session.
    attempts: usize,
    /// 0 = AWGN symbols, 1 = BSC bits.
    chan: u8,
    seed: u64,
}

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    (1usize..4, 1usize..5, 1usize..4, 0u8..2, 0u64..1 << 20).prop_map(
        |(threads, sessions, attempts, chan, seed)| Scenario {
            threads,
            sessions,
            attempts,
            chan,
            seed,
        },
    )
}

/// Sender-side state for one generated session, able to extend the
/// rateless stream attempt by attempt.
struct Feed {
    encoder: Encoder,
    awgn: Option<AwgnChannel>,
    bsc: Option<BscChannel>,
}

impl Feed {
    fn next_chunk(&mut self, symbols: usize) -> Chunk {
        match (&mut self.awgn, &mut self.bsc) {
            (Some(ch), _) => Chunk::Symbols(ch.transmit(&self.encoder.next_symbols(symbols))),
            (_, Some(ch)) => Chunk::Bits(ch.transmit_bits(&self.encoder.next_bits(8 * symbols))),
            _ => unreachable!("one channel is always set"),
        }
    }
}

enum Chunk {
    Symbols(Vec<spinal_codes::Complex>),
    Bits(Vec<bool>),
}

fn push_chunk(buf: &mut SessionBuffer, chunk: &Chunk) {
    match (buf, chunk) {
        (SessionBuffer::Symbols(rx), Chunk::Symbols(ys)) => rx.push(ys),
        (SessionBuffer::Bits(rx), Chunk::Bits(bs)) => rx.push(bs),
        _ => unreachable!("chunk kind always matches the buffer kind"),
    }
}

/// Build session `i` of a scenario: its initial buffer, a mirror copy
/// for the serial reference, and the feed for later attempts.
fn build_session(p: &CodeParams, sc: &Scenario, i: usize) -> (SessionBuffer, SessionBuffer, Feed) {
    let seed = sc.seed ^ (i as u64).wrapping_mul(0x9E37_79B9);
    let mut s = seed.wrapping_mul(6364136223846793005) | 1;
    let msg = Message::random(p.n, move || {
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
        (s >> 56) as u8
    });
    let encoder = Encoder::new(p, &msg);
    let schedule = Schedule::new(p.num_spines(), p.tail, p.puncturing);
    let mut feed = Feed {
        encoder,
        awgn: (sc.chan == 0).then(|| AwgnChannel::new(8.0, seed ^ 0xA)),
        bsc: (sc.chan == 1).then(|| BscChannel::new(0.04, seed ^ 0xB)),
    };
    let chunk = feed.next_chunk(2 * p.symbols_per_pass());
    let (mut buf, mut mirror) = match sc.chan {
        0 => (
            SessionBuffer::Symbols(RxSymbols::new(schedule.clone())),
            SessionBuffer::Symbols(RxSymbols::new(schedule)),
        ),
        _ => (
            SessionBuffer::Bits(RxBits::new(schedule.clone())),
            SessionBuffer::Bits(RxBits::new(schedule)),
        ),
    };
    push_chunk(&mut buf, &chunk);
    push_chunk(&mut mirror, &chunk);
    (buf, mirror, feed)
}

/// Serial reference decode of a mirror buffer on a fresh workspace;
/// every session attempt must match it bit for bit.
fn serial_decode(dec: &BubbleDecoder, buf: &SessionBuffer) -> DecodeResult {
    match buf {
        SessionBuffer::Symbols(rx) => DecodeRequest::new(dec, rx).decode(),
        SessionBuffer::Bits(rx) => DecodeRequest::new(dec, rx).decode(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The flagship property: interleaved multi-session, multi-attempt
    /// service decodes are bit-identical to serial decodes of the same
    /// buffers at every thread budget, with balanced accounting at the
    /// end.
    #[test]
    fn service_decodes_are_bit_identical_to_serial(sc in arb_scenario()) {
        let p = CodeParams::default().with_n(32).with_b(4);
        let dec = Arc::new(BubbleDecoder::new(&p));
        let svc = DecodeService::new(sc.threads, ServiceConfig::default());
        let mut sessions: Vec<(Session, SessionBuffer, Feed)> = (0..sc.sessions)
            .map(|i| {
                let (buf, mirror, feed) = build_session(&p, &sc, i);
                let session = svc
                    .open_session(&dec, buf, SessionOptions::default())
                    .expect("admission");
                (session, mirror, feed)
            })
            .collect();
        for attempt in 0..sc.attempts {
            // Submit every session's attempt before waiting on any —
            // with a pooled engine the decodes genuinely overlap.
            for (session, _, _) in &mut sessions {
                session.submit().expect("queue sized for the workload");
            }
            for (i, (session, mirror, feed)) in sessions.iter_mut().enumerate() {
                let got = session.wait().expect("attempt in flight").expect("clean decode");
                let want = serial_decode(&dec, mirror);
                prop_assert_eq!(&got.message, &want.message,
                    "session {} attempt {} ({:?})", i, attempt, sc);
                prop_assert_eq!(got.cost.to_bits(), want.cost.to_bits(),
                    "session {} attempt {} cost bits ({:?})", i, attempt, sc);
                if attempt + 1 < sc.attempts {
                    let chunk = feed.next_chunk(p.symbols_per_pass());
                    push_chunk(session.buffer_mut().expect("buffer home"), &chunk);
                    push_chunk(mirror, &chunk);
                }
            }
        }
        drop(sessions);
        let m = svc.metrics();
        prop_assert_eq!(m.submits, (sc.sessions * sc.attempts) as u64);
        prop_assert_eq!(m.attempts_failed, 0u64);
        prop_assert_eq!(m.completions + m.attempts_failed, m.submits,
            "lost or duplicated completions");
        prop_assert_eq!(m.stale_completions, 0u64);
        prop_assert_eq!(m.sessions_shed, 0u64);
        prop_assert_eq!(svc.active_sessions(), 0);
    }

    /// Admission control: overflow opens are refused with a structured
    /// error, counted as shed exactly once each, and a freed slot is
    /// immediately reusable.
    #[test]
    fn shed_is_reported_exactly_once(sc in arb_scenario()) {
        let p = CodeParams::default().with_n(32).with_b(4);
        let dec = Arc::new(BubbleDecoder::new(&p));
        let svc = DecodeService::new(1, ServiceConfig {
            max_sessions: sc.sessions,
            ..ServiceConfig::default()
        });
        let mut held: Vec<Session> = (0..sc.sessions)
            .map(|i| {
                let (buf, _, _) = build_session(&p, &sc, i);
                svc.open_session(&dec, buf, SessionOptions::default()).expect("under limit")
            })
            .collect();
        let extra = sc.attempts; // reuse as the overflow count, ≥ 1
        for i in 0..extra {
            let (buf, _, _) = build_session(&p, &sc, sc.sessions + i);
            let err = svc.open_session(&dec, buf, SessionOptions::default());
            prop_assert!(err.is_err(), "open {} past the limit admitted", i);
        }
        prop_assert_eq!(svc.metrics().sessions_shed, extra as u64, "shed miscounted");
        // Freeing one slot re-admits exactly one session.
        held.pop();
        let (buf, _, _) = build_session(&p, &sc, 999);
        let readmitted = svc.open_session(&dec, buf, SessionOptions::default());
        prop_assert!(readmitted.is_ok(), "freed slot not reusable");
        prop_assert_eq!(svc.metrics().sessions_shed, extra as u64,
            "successful open changed the shed count");
    }

    /// Backpressure under real contention: a one-slot queue and a
    /// one-job inflight cap force `QueueFull` refusals whenever the
    /// pool lags the submitter. Refusals must be prompt and structured
    /// (never blocking), side-effect-free (the session retries later
    /// and decodes correctly), counted exactly, and the retry loop must
    /// always make progress — a wedge hangs the case, a livelock trips
    /// the stuck-round assertion.
    #[test]
    fn backpressure_refuses_promptly_and_never_deadlocks(sc in arb_scenario()) {
        let p = CodeParams::default().with_n(32).with_b(4);
        let dec = Arc::new(BubbleDecoder::new(&p));
        let svc = DecodeService::new(sc.threads, ServiceConfig {
            queue_capacity: 1,
            max_inflight: 1,
            ..ServiceConfig::default()
        });
        let mut sessions: Vec<(Option<Session>, SessionBuffer)> = (0..sc.sessions)
            .map(|i| {
                let (buf, mirror, _) = build_session(&p, &sc, i);
                let session = svc
                    .open_session(&dec, buf, SessionOptions::default())
                    .expect("admission");
                (Some(session), mirror)
            })
            .collect();
        let mut refused = 0u64;
        let mut in_flight: Vec<usize> = Vec::new();
        let mut submitted = vec![false; sc.sessions];
        let mut results: Vec<Option<DecodeResult>> = vec![None; sc.sessions];
        while results.iter().any(Option::is_none) {
            let mut progressed = false;
            for i in 0..sc.sessions {
                if submitted[i] {
                    continue;
                }
                match sessions[i].0.as_mut().expect("open").submit() {
                    Ok(()) => {
                        submitted[i] = true;
                        in_flight.push(i);
                        progressed = true;
                    }
                    Err(spinal_codes::SubmitError::QueueFull { capacity, .. }) => {
                        prop_assert_eq!(capacity, 1);
                        refused += 1;
                    }
                    Err(e) => prop_assert!(false, "fresh session refused with {:?}", e),
                }
            }
            // Drain one completion per round; if nothing submitted AND
            // nothing is in flight, backpressure has livelocked.
            if let Some(i) = (!in_flight.is_empty()).then(|| in_flight.remove(0)) {
                results[i] = sessions[i].0.as_mut().expect("open").wait()
                    .map(|r| r.expect("clean decode"));
                prop_assert!(results[i].is_some(), "in-flight session {} had no result", i);
                progressed = true;
            }
            prop_assert!(progressed, "no submit accepted and nothing in flight: wedged");
        }
        for (i, (got, (_, mirror))) in results.iter().zip(&sessions).enumerate() {
            let got = got.as_ref().expect("loop exit condition");
            let want = serial_decode(&dec, mirror);
            prop_assert_eq!(&got.message, &want.message, "session {} ({:?})", i, sc);
            prop_assert_eq!(got.cost.to_bits(), want.cost.to_bits(), "session {}", i);
        }
        drop(sessions);
        let m = svc.metrics();
        prop_assert_eq!(m.submits, sc.sessions as u64, "each session decodes once");
        prop_assert_eq!(m.submits_rejected, refused, "refusals miscounted");
        prop_assert_eq!(m.attempts_failed, 0u64);
        prop_assert_eq!(m.completions + m.attempts_failed, m.submits,
            "a refused submit leaked a job");
        prop_assert_eq!(m.stale_completions, 0u64);
    }
}
