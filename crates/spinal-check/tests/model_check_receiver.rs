//! Model-check harness driving the pipelined `SpinalReceiver` on a real
//! pooled `DecodeService` through hundreds of deterministic schedules.
//!
//! The receiver submits a block's attempt and moves on to the next
//! datagram; it settles the attempt (waits, offers it to the CRC, closes
//! the session on success) before the block takes in more data, before
//! feedback, and after a refused `open_session` or `submit`. Attempts
//! complete in whatever order the pool finishes them. On every schedule
//! the receiver must report exactly what the inline loop reports for
//! the same datagrams — a one-thread receiver whose every attempt is
//! settled before the next datagram: ACK bitmap, payload, attempt count
//! and beam-ladder escalations — with every submitted attempt completed
//! and none stale, and the checker must find no deadlock, lost wakeup or
//! lock-order inversion. `SPINAL_CHECK_SCHEDULES` caps each body's
//! budget for CI smoke runs.

use spinal_channel::{AwgnChannel, Channel};
use spinal_check::hooks::await_participants;
use spinal_check::{check_random, CheckConfig};
use spinal_core::{
    CodeParams, DecodeService, Encoder, FrameBuilder, MetricsSnapshot, Puncturing, Schedule,
    ServiceConfig,
};
use spinal_net::{Packet, Payload, ReceiverConfig, SpinalReceiver};
use std::collections::BTreeSet;

/// Pool width of every service under check.
const WORKERS: usize = 2;

fn schedule_budget(default: usize) -> usize {
    std::env::var("SPINAL_CHECK_SCHEDULES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn params() -> CodeParams {
    CodeParams::default().with_n(32).with_b(4)
}

/// Unpunctured at B = 32: every attempt climbs the beam ladder, a
/// B/16 = 2 beam first and B = 32 when the block CRC rejects it.
fn laddered_params() -> CodeParams {
    CodeParams::default()
        .with_n(32)
        .with_b(32)
        .with_puncturing(Puncturing::none())
}

/// The payload: three 2-byte blocks at n = 32.
const PAYLOAD: [u8; 6] = [0xA5, 0x3C, 0x0F, 0x96, 0x5A, 0xC3];

fn data(block: u16, offset: usize, ys: Vec<spinal_channel::Complex>) -> Packet {
    Packet::Data {
        transfer_id: 1,
        seq: 0,
        block,
        offset: offset as u32,
        payload: Payload::Symbols(ys),
    }
}

/// Init, then one pass of block 0 at 2 dB (its attempt fails), two
/// passes each of blocks 1 and 2 at 12 dB, then two more passes of
/// block 0 at 12 dB. Block 0's second span arrives while its first
/// attempt may still be in flight.
fn datagrams(p: &CodeParams) -> Vec<Packet> {
    let spp = Schedule::new(p.num_spines(), p.tail, p.puncturing).symbols_per_pass();
    let msgs = FrameBuilder::new(p.n).build(&PAYLOAD);
    let mut encoders: Vec<Encoder> = msgs.iter().map(|m| Encoder::new(p, m)).collect();
    let mut noise_seed = 0x5EED;
    let mut span = |block: u16, passes: usize, snr_db: f64| {
        let tx = encoders[usize::from(block)].next_symbols(passes * spp);
        noise_seed += 1;
        AwgnChannel::new(snr_db, noise_seed).transmit(&tx)
    };
    let block0_first = span(0, 1, 2.0);
    let block1 = span(1, 2, 12.0);
    let block2 = span(2, 2, 12.0);
    let block0_rest = span(0, 2, 12.0);
    vec![
        Packet::Init {
            transfer_id: 1,
            payload_len: PAYLOAD.len() as u32,
            n_blocks: msgs.len() as u16,
            block_bits: p.n as u32,
            resume: vec![],
        },
        data(0, 0, block0_first),
        data(1, 0, block1),
        data(2, 0, block2),
        data(0, spp, block0_rest),
    ]
}

/// What a receiver reports after the datagrams and one feedback call.
#[derive(Debug, Clone, PartialEq)]
struct Observed {
    feedback: Option<Packet>,
    payload: Option<Vec<u8>>,
    decode_attempts: usize,
    escalations: usize,
}

/// Hand `packets` to `receiver`, then ask for feedback. `inline`
/// settles each attempt before the next datagram, as the inline loop
/// does.
fn drive(receiver: &mut SpinalReceiver, packets: &[Packet], inline: bool) -> Observed {
    for pkt in packets {
        receiver.handle(pkt.clone());
        if inline {
            receiver.blocks_decoded(); // settles the attempt
        }
    }
    Observed {
        feedback: receiver.feedback(),
        payload: receiver.payload(),
        decode_attempts: receiver.decode_attempts(),
        escalations: receiver.escalations(),
    }
}

/// Run the datagrams through a receiver for `p` on a `WORKERS`-thread
/// service with `svc_cfg` across many schedules; check every schedule
/// against the inline loop on a one-thread service with `svc_cfg`.
/// Returns the inline reference and each schedule's service metrics.
fn check_pipelined_receiver(
    what: &str,
    seed: u64,
    p: &CodeParams,
    svc_cfg: ServiceConfig,
) -> (Observed, Vec<MetricsSnapshot>) {
    let packets = datagrams(p);
    let cfg = ReceiverConfig::default();
    let inline = drive(
        &mut SpinalReceiver::with_service(p, cfg, DecodeService::new(1, svc_cfg)),
        &packets,
        true,
    );
    // The scenario the harness is about: block 0 needs its second span,
    // and every block decodes in the end.
    assert_eq!(inline.decode_attempts, 4, "{what}: reference attempts");
    assert_eq!(inline.payload.as_deref(), Some(&PAYLOAD[..]), "{what}");

    let check = CheckConfig {
        schedules: schedule_budget(250),
        seed,
        declared_threads: Some(1 + WORKERS),
    };
    let (results, stats) = check_random(&check, || {
        let svc = DecodeService::new(WORKERS, svc_cfg);
        await_participants(1 + WORKERS);
        let mut receiver = SpinalReceiver::with_service(p, cfg, svc.clone());
        let observed = drive(&mut receiver, &packets, false);
        drop(receiver);
        let m = svc.metrics();
        drop(svc);
        (observed, m)
    });
    stats.assert_clean(what);
    assert_eq!(results.len(), stats.schedules, "{what}: a schedule wedged");
    eprintln!(
        "{what}: {}/{} distinct schedules",
        stats.distinct, stats.schedules
    );
    let metrics = results
        .into_iter()
        .enumerate()
        .map(|(i, (observed, m))| {
            assert_eq!(observed, inline, "{what}: schedule {i} differs from inline");
            assert_eq!(m.submits, 4, "{what}: schedule {i}");
            assert_eq!(
                m.submits, m.completions,
                "{what}: schedule {i}: books unbalanced {m:?}"
            );
            assert_eq!(m.stale_completions, 0, "{what}: schedule {i}");
            assert_eq!(m.sessions_active, 0, "{what}: schedule {i}");
            m
        })
        .collect();
    (inline, metrics)
}

#[test]
fn pipelined_receiver_matches_inline_on_every_schedule() {
    check_pipelined_receiver(
        "pipelined receiver",
        0x5EC_E17E,
        &params(),
        ServiceConfig::default(),
    );
}

/// A one-deep queue: block 2's attempt queues behind blocks 0 and 1,
/// and block 0's second submit finds the queue full on the schedules
/// where no worker has picked block 2 up yet. The receiver then settles
/// its in-flight attempts and submits again.
#[test]
fn refused_submits_settle_and_retry_on_every_schedule() {
    let (_, metrics) = check_pipelined_receiver(
        "one-deep queue",
        0x0_DEE9,
        &params(),
        ServiceConfig {
            queue_capacity: 1,
            ..ServiceConfig::default()
        },
    );
    let rejected: BTreeSet<u64> = metrics.iter().map(|m| m.submits_rejected).collect();
    // The race must actually branch: some schedules refuse, others not.
    assert!(
        rejected.len() >= 2,
        "the queue-full race never branched: rejected counts {rejected:?}"
    );
}

/// Two sessions for three blocks: block 1 decodes while block 0 still
/// holds its session, so block 2's `open_session` is refused until the
/// receiver settles block 1's attempt and closes its session — which
/// the inline loop did before block 2's span arrived.
#[test]
fn refused_sessions_settle_and_retry_on_every_schedule() {
    let (_, metrics) = check_pipelined_receiver(
        "two-session service",
        0x2_5E55,
        &params(),
        ServiceConfig {
            max_sessions: 2,
            ..ServiceConfig::default()
        },
    );
    for (i, m) in metrics.iter().enumerate() {
        assert!(
            m.sessions_shed >= 1,
            "schedule {i}: block 2 was never refused"
        );
    }
}

/// The beam ladder inside a service job: block 0's first attempt, on
/// one pass at 2 dB, escalates to the full beam while its second span
/// arrives, and the receiver must settle that escalated attempt before
/// folding the span in. Every schedule must count the escalations the
/// inline loop counts.
#[test]
fn escalating_attempts_race_new_spans_on_every_schedule() {
    let (inline, _) = check_pipelined_receiver(
        "beam ladder",
        0x1_ADDE,
        &laddered_params(),
        ServiceConfig::default(),
    );
    eprintln!(
        "beam ladder: {} of {} inline attempts escalated",
        inline.escalations, inline.decode_attempts
    );
    assert!(
        inline.escalations >= 1,
        "block 0's first attempt must escalate: {inline:?}"
    );
    assert!(
        inline.escalations < inline.decode_attempts,
        "some attempt must decode at the B/16 rung: {inline:?}"
    );
}
