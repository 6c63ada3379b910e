//! The two transport workloads: closed-loop `run_transfer` calls over a
//! seeded `LoopbackLink`, one caller, back to back.
//!
//! The timed run calls `run_transfer` as-is. The traced run replays the
//! same transfers twice each — once through `run_transfer`, once through
//! [`traced_transfer`], a span-recording copy of the transport's round
//! loop built from public calls — and fails if the two ever disagree on
//! a count or the payload, so the traced numbers describe the program
//! the timed run measures.

use crate::sys::{self, Rng, Segments};
use crate::trace::{span, Kind, Tracer, NO_BLOCK};
use crate::{set_segment_metrics, timed_setup, Args, Outcome, Workload, WARMUP_SEED};
use spinal_core::{CodeParams, FrameBuilder, MetricsSnapshot, Puncturing};
use spinal_net::{
    run_transfer, Datagram, Impairments, LoopbackLink, NoiseModel, Packet, ReceiverConfig,
    SenderConfig, SpinalReceiver, SpinalSender, TransferConfig, TransferOutcome, TransferReport,
};
use std::cell::RefCell;
use std::io;
use std::path::Path;
use std::time::Instant;

const LOOPBACK_IO: &str = "loopback I/O cannot fail";

/// One transport workload's shape.
struct Spec {
    payload_len: usize,
    snr_db: f64,
    data: Impairments,
    feedback: Impairments,
    /// Distinct payloads built at set-up; transfer `i` sends payload
    /// `i % pool` over its own seeded link.
    pool: usize,
}

fn spec(workload: Workload) -> Spec {
    match workload {
        Workload::Bulk => Spec {
            payload_len: 8192,
            snr_db: 20.0,
            data: Impairments::clean(),
            feedback: Impairments::clean(),
            pool: 32,
        },
        Workload::Short => Spec {
            payload_len: 96,
            snr_db: 18.0,
            data: Impairments {
                loss: 0.10,
                dup: 0.05,
                reorder: 0.10,
                reorder_span: 3,
            },
            feedback: Impairments {
                loss: 0.10,
                ..Impairments::clean()
            },
            pool: 2048,
        },
        Workload::Service => unreachable!("the service workload has its own module"),
    }
}

/// Everything a run needs before the clock starts.
struct Setup {
    spec: Spec,
    seed: u64,
    params: CodeParams,
    cfg: TransferConfig,
    payloads: Vec<Vec<u8>>,
    /// Payload bytes per code block, for checking salvaged blocks.
    block_bytes: usize,
}

impl Setup {
    fn new(spec: Spec, seed: u64) -> Self {
        // The 16-bit block CRC passes about one wrong decode in 65,536,
        // so every failed attempt is a chance to deliver a wrong payload.
        // Unpunctured passes, one whole pass of one block per datagram,
        // at an SNR where one pass decodes, leave almost no failed
        // attempts: a lost datagram loses a whole pass, and the next
        // attempt waits for the next one.
        let params = CodeParams {
            puncturing: Puncturing::none(),
            ..CodeParams::default()
        };
        params.validate();
        let cfg = TransferConfig {
            chunk_symbols: params.symbols_per_pass(),
            ..TransferConfig::default()
        };
        let payloads = (0..spec.pool as u64)
            .map(|i| Rng::for_item(seed, i).bytes(spec.payload_len))
            .collect();
        let block_bytes = FrameBuilder::new(params.n).payload_bits() / 8;
        let setup = Setup {
            spec,
            seed,
            params,
            cfg,
            payloads,
            block_bytes,
        };
        // Warm-up: one single-block transfer over the workload's link,
        // the same for every seed so set-up time does not depend on it.
        let warm = Rng::new(WARMUP_SEED).bytes(block_bytes);
        let (mut tx, mut rx) = setup.link_seeded(WARMUP_SEED);
        run_transfer(&mut tx, &mut rx, &setup.params, &warm, 1, setup.cfg).expect(LOOPBACK_IO);
        setup
    }

    /// Transfer `i`'s payload.
    fn payload(&self, i: u64) -> &[u8] {
        &self.payloads[(i % self.spec.pool as u64) as usize]
    }

    /// Transfer `i`'s link pair, seeded from the workload seed alone.
    fn link(&self, i: u64) -> (LoopbackLink, LoopbackLink) {
        self.link_seeded(Rng::for_item(self.seed ^ 0x11AC, i).next_u64())
    }

    fn link_seeded(&self, link_seed: u64) -> (LoopbackLink, LoopbackLink) {
        LoopbackLink::pair(
            NoiseModel::Awgn {
                snr_db: self.spec.snr_db,
            },
            self.spec.data,
            self.spec.feedback,
            link_seed,
        )
    }
}

/// How a transfer ended, judged against its input.
enum Verdict {
    Delivered,
    Undelivered,
    /// The 16-bit CRC accepted a wrong decode, about once per 65,536
    /// wrong candidates. The workloads keep wrong candidates near zero,
    /// so the transfer counts as failed and the oracle fails the run.
    Wrong(String),
}

fn verdict(outcome: &TransferOutcome, payload: &[u8], block_bytes: usize) -> Verdict {
    match outcome {
        TransferOutcome::Delivered(p) if p == payload => Verdict::Delivered,
        TransferOutcome::Delivered(p) => {
            let blocks: Vec<usize> = (0..payload.len().div_ceil(block_bytes))
                .filter(|&b| {
                    let r = b * block_bytes..((b + 1) * block_bytes).min(payload.len());
                    p.get(r.clone()) != payload.get(r)
                })
                .collect();
            let bits: u32 = p
                .iter()
                .zip(payload)
                .map(|(a, b)| (a ^ b).count_ones())
                .sum();
            Verdict::Wrong(format!(
                "delivered payload differs from the input: blocks {blocks:?}, {bits} bits"
            ))
        }
        TransferOutcome::PartialDelivery { blocks, .. } => {
            for (i, block) in blocks.iter().enumerate() {
                let Some(bytes) = block else { continue };
                let start = (i * block_bytes).min(payload.len());
                let end = (start + block_bytes).min(payload.len());
                if bytes[..] != payload[start..end] {
                    return Verdict::Wrong(format!("salvaged block {i} differs from the input"));
                }
            }
            Verdict::Undelivered
        }
        _ => Verdict::Undelivered,
    }
}

pub fn run(args: &Args, name: &str) -> Outcome {
    let (setup, setup_s, builds) = timed_setup(|| Setup::new(spec(args.workload), args.seed));
    let mut out = if args.trace {
        traced_run(&setup, args, name)
    } else {
        timed_run(&setup, args)
    };
    out.note(format!("setup: median of {builds} builds {setup_s} s"));
    if !args.trace {
        out.set("setup_s", setup_s);
        out.note(format!("peak_rss_mb = {} MB (VmHWM)", sys::peak_rss_mb()));
    }
    out
}

/// Wrong candidates the CRC judged in one transfer: every attempt that
/// did not decode its block.
fn wrong_candidates(attempts: usize, blocks_decoded: usize) -> u64 {
    attempts.saturating_sub(blocks_decoded) as u64
}

/// Call `run_transfer` on transfer `i` and time it.
fn untraced_transfer(setup: &Setup, i: u64) -> (TransferReport, f64) {
    let (payload, (mut tx, mut rx)) = (setup.payload(i), setup.link(i));
    let t = Instant::now();
    let res = run_transfer(&mut tx, &mut rx, &setup.params, payload, i + 1, setup.cfg);
    let secs = t.elapsed().as_secs_f64();
    (res.unwrap_or_else(|e| *e.report), secs)
}

fn timed_run(setup: &Setup, args: &Args) -> Outcome {
    let mut out = Outcome::default();
    // Channel efficiency counts the transfers that delivered: a failed
    // one is already in `failed`, and would otherwise count twice.
    let (mut symbols, mut bits) = (0u64, 0u64);
    let mut segs = Segments::new();
    let mut i = 0u64;
    while segs.elapsed_s() < args.seconds {
        let (report, secs) = untraced_transfer(setup, i);
        let payload = setup.payload(i);
        out.attempted += 1;
        out.wrong_candidates += wrong_candidates(report.decode_attempts, report.blocks_decoded);
        match verdict(&report.outcome, payload, setup.block_bytes) {
            Verdict::Delivered => {
                symbols += report.symbols_sent as u64;
                bits += 8 * payload.len() as u64;
                segs.record(8 * payload.len() as u64, secs * 1e3);
            }
            Verdict::Undelivered => out.failed += 1,
            Verdict::Wrong(why) => {
                out.failed += 1;
                out.false_accepts += 1;
                out.note(format!("crc false accept: transfer {i}: {why}"));
            }
        }
        segs.tick();
        i += 1;
    }
    out.set("bits_per_symbol", bits as f64 / symbols.max(1) as f64);
    set_segment_metrics(&mut out, &segs.finish(), "transfer", 0.9);
    out
}

/// A `Datagram` wrapper that records a span around every send and recv
/// and counts the datagrams through it.
struct TracedLink<'a> {
    inner: LoopbackLink,
    tr: &'a RefCell<Tracer>,
    id: u64,
    sent: u64,
    received: u64,
}

impl Datagram for TracedLink<'_> {
    fn send(&mut self, buf: &[u8]) -> io::Result<()> {
        self.sent += 1;
        let inner = &mut self.inner;
        span(Some(self.tr), Kind::LinkSend, self.id, NO_BLOCK, || {
            inner.send(buf)
        })
    }

    fn recv(&mut self) -> io::Result<Option<Vec<u8>>> {
        let inner = &mut self.inner;
        let got = span(Some(self.tr), Kind::LinkRecv, self.id, NO_BLOCK, || {
            inner.recv()
        });
        if matches!(got, Ok(Some(_))) {
            self.received += 1;
        }
        got
    }
}

/// What [`traced_transfer`] observed: the `TransferReport` counts the
/// fidelity check compares, plus per-layer counters.
struct Replica {
    payload: Option<Vec<u8>>,
    symbols_sent: usize,
    datagrams_sent: usize,
    rounds: usize,
    decode_attempts: usize,
    blocks_decoded: usize,
    n_blocks: usize,
    backoff_skips: usize,
    reorder_evictions: u64,
    /// Datagrams the sender put on the data link, and the receiver took
    /// off it (duplicates included).
    data_sent: u64,
    data_received: u64,
    service: MetricsSnapshot,
}

/// `SpinalReceiver::pump`, call for call, with a span around each layer
/// call. A `handle` during which `decode_attempts()` rose is an attempt
/// span; an Init is a receiver-init span; anything else is ingest.
fn pump_traced(
    receiver: &mut SpinalReceiver,
    link: &mut TracedLink,
    tr: &RefCell<Tracer>,
    id: u64,
) {
    while let Some(buf) = link.recv().expect(LOOPBACK_IO) {
        let Some(pkt) = span(Some(tr), Kind::WireDecode, id, NO_BLOCK, || {
            Packet::decode(&buf)
        }) else {
            continue;
        };
        let (block, init) = match &pkt {
            Packet::Init { .. } => (NO_BLOCK, true),
            Packet::Data { block, .. } => (u32::from(*block), false),
            Packet::Feedback { .. } => (NO_BLOCK, false),
        };
        let before = receiver.decode_attempts();
        let s = tr.borrow_mut().begin(Kind::Ingest, id, block);
        receiver.handle(pkt);
        let kind = if init {
            Kind::ReceiverInit
        } else if receiver.decode_attempts() > before {
            Kind::Attempt
        } else {
            Kind::Ingest
        };
        tr.borrow_mut().end_as(s, kind);
    }
    if let Some(fb) = span(Some(tr), Kind::Feedback, id, NO_BLOCK, || {
        receiver.feedback()
    }) {
        let bytes = span(Some(tr), Kind::WireEncode, id, NO_BLOCK, || fb.encode());
        link.send(&bytes).expect(LOOPBACK_IO);
    }
}

/// The round loop of `run_transfer` (no deadline), replayed from public
/// calls with spans at every layer boundary.
fn traced_transfer(setup: &Setup, i: u64, tr: &RefCell<Tracer>) -> Replica {
    let (payload, (tx, rx)) = (setup.payload(i), setup.link(i));
    let id = i + 1;
    let cfg = setup.cfg;
    let sender_cfg = SenderConfig {
        chunk_symbols: cfg.chunk_symbols,
        max_passes: cfg.max_passes,
        modulation: cfg.modulation,
        backoff_after_silent: cfg.backoff_after_silent,
        backoff_max_exp: cfg.backoff_max_exp,
    };
    let receiver_cfg = ReceiverConfig {
        max_passes: cfg.max_passes,
        skip_horizon: cfg.skip_horizon,
        max_pending_spans: cfg.max_pending_spans,
    };
    let mut tx = TracedLink {
        inner: tx,
        tr,
        id,
        sent: 0,
        received: 0,
    };
    let mut rx = TracedLink {
        inner: rx,
        tr,
        id,
        sent: 0,
        received: 0,
    };
    let t = Some(tr);
    let top = tr.borrow_mut().begin(Kind::Transfer, id, NO_BLOCK);
    let mut sender = span(t, Kind::SenderNew, id, NO_BLOCK, || {
        SpinalSender::new(&setup.params, payload, id, sender_cfg)
    });
    let mut receiver = span(t, Kind::ReceiverNew, id, NO_BLOCK, || {
        SpinalReceiver::new(&setup.params, receiver_cfg)
    });
    let mut rounds = 0;
    while rounds < cfg.max_rounds {
        rounds += 1;
        span(t, Kind::SenderPoll, id, NO_BLOCK, || sender.poll(&mut tx)).expect(LOOPBACK_IO);
        pump_traced(&mut receiver, &mut rx, tr, id);
        if sender.complete() {
            break;
        }
        if sender.exhausted() && !receiver.complete() {
            span(t, Kind::SenderDrain, id, NO_BLOCK, || {
                sender.drain_feedback(&mut tx)
            })
            .expect(LOOPBACK_IO);
            break;
        }
    }
    pump_traced(&mut receiver, &mut rx, tr, id);
    span(t, Kind::SenderDrain, id, NO_BLOCK, || {
        sender.drain_feedback(&mut tx)
    })
    .expect(LOOPBACK_IO);
    let payload = span(t, Kind::Deliver, id, NO_BLOCK, || receiver.payload());
    tr.borrow_mut().end_as(top, Kind::Transfer);
    Replica {
        payload,
        symbols_sent: sender.symbols_sent(),
        datagrams_sent: sender.datagrams_sent(),
        rounds,
        decode_attempts: receiver.decode_attempts(),
        blocks_decoded: receiver.blocks_decoded(),
        n_blocks: receiver.n_blocks(),
        backoff_skips: sender.backoff_skips(),
        reorder_evictions: receiver.reorder_evictions(),
        data_sent: tx.sent,
        data_received: rx.received,
        service: receiver.service().metrics(),
    }
}

/// Counts that must agree between `run_transfer` and the replica.
fn drift(report: &TransferReport, replica: &Replica) -> Option<String> {
    let ours = (
        replica.symbols_sent,
        replica.datagrams_sent,
        replica.rounds,
        replica.decode_attempts,
        replica.blocks_decoded,
    );
    let theirs = (
        report.symbols_sent,
        report.datagrams_sent,
        report.rounds,
        report.decode_attempts,
        report.blocks_decoded,
    );
    if ours != theirs {
        return Some(format!(
            "(symbols, datagrams, rounds, attempts, blocks) traced {ours:?} vs run_transfer {theirs:?}"
        ));
    }
    if replica.payload.as_deref() != report.payload() {
        return Some("delivered payload differs between traced and untraced runs".into());
    }
    None
}

fn traced_run(setup: &Setup, args: &Args, name: &str) -> Outcome {
    let mut out = Outcome::default();
    let tr = RefCell::new(Tracer::new());
    let (mut untraced_s, mut traced_s) = (0.0, 0.0);
    let mut replicas = Vec::new();
    let (mut all_attempts, mut blocks) = (0u64, 0u64);
    let cpu0 = sys::process_cpu_s();
    let main0 = sys::thread_cpu_s();
    let t0 = Instant::now();
    let mut i = 0u64;
    while t0.elapsed().as_secs_f64() < args.seconds {
        // Alternate which copy runs first, so drift over the run (cache,
        // frequency, neighbours) lands on both sides equally.
        let traced_first = i % 2 == 1;
        let replica_run = || {
            let t = Instant::now();
            let r = traced_transfer(setup, i, &tr);
            (r, t.elapsed().as_secs_f64())
        };
        let ((replica, rs), (report, us)) = if traced_first {
            let r = replica_run();
            (r, untraced_transfer(setup, i))
        } else {
            let u = untraced_transfer(setup, i);
            (replica_run(), u)
        };
        traced_s += rs;
        untraced_s += us;
        out.attempted += 2;
        out.wrong_candidates += wrong_candidates(report.decode_attempts, report.blocks_decoded)
            + wrong_candidates(replica.decode_attempts, replica.blocks_decoded);
        let payload = setup.payload(i);
        match verdict(&report.outcome, payload, setup.block_bytes) {
            Verdict::Delivered => {}
            Verdict::Undelivered => out.failed += 2,
            Verdict::Wrong(why) => {
                out.failed += 2;
                out.false_accepts += 2;
                out.note(format!("crc false accept: transfer {i}: {why}"));
            }
        }
        if let Some(why) = drift(&report, &replica) {
            out.violations
                .push(format!("transfer {i}: replica drift: {why}"));
        }
        all_attempts += (report.decode_attempts + replica.decode_attempts) as u64;
        blocks += replica.n_blocks as u64;
        replicas.push(replica);
        i += 1;
    }
    let cpu = sys::process_cpu_s() - cpu0;
    let main_cpu = sys::thread_cpu_s() - main0;
    let tr = tr.into_inner();
    let n = replicas.len().max(1) as f64;
    let per_transfer_ms = |kind: Kind| tr.totals(kind).self_ns as f64 / 1e6 / n;
    let sum = |f: &dyn Fn(&Replica) -> f64| replicas.iter().map(f).sum::<f64>();
    let attempts = sum(&|r| r.decode_attempts as f64);

    out.set("receiver.attempt_ms", per_transfer_ms(Kind::Attempt));
    let attempt_us = tr.durations_us(Kind::Attempt);
    out.set("receiver.attempt_p50_us", sys::quantile(&attempt_us, 0.5));
    out.set("receiver.attempt_p90_us", sys::quantile(&attempt_us, 0.9));
    out.set(
        "receiver.attempts_per_block",
        attempts / blocks.max(1) as f64,
    );
    out.set(
        "receiver.attempt_yield",
        sum(&|r| r.blocks_decoded as f64) / attempts.max(1.0),
    );
    let ingest = tr.totals(Kind::Ingest);
    out.set("receiver.ingest_ms", per_transfer_ms(Kind::Ingest));
    out.set(
        "receiver.ingest_us_per_datagram",
        ingest.self_ns as f64 / 1e3 / ingest.count.max(1) as f64,
    );
    out.set(
        "receiver.init_ms",
        per_transfer_ms(Kind::ReceiverNew)
            + per_transfer_ms(Kind::ReceiverInit)
            + per_transfer_ms(Kind::Deliver),
    );
    out.set("receiver.feedback_ms", per_transfer_ms(Kind::Feedback));
    out.set(
        "receiver.evictions",
        sum(&|r| r.reorder_evictions as f64) / n,
    );
    out.set(
        "sender.self_ms",
        per_transfer_ms(Kind::SenderNew)
            + per_transfer_ms(Kind::SenderPoll)
            + per_transfer_ms(Kind::SenderDrain),
    );
    out.set("sender.symbols", sum(&|r| r.symbols_sent as f64) / n);
    out.set("sender.datagrams", sum(&|r| r.datagrams_sent as f64) / n);
    out.set("sender.backoff_skips", sum(&|r| r.backoff_skips as f64) / n);
    out.set("link.send_ms", per_transfer_ms(Kind::LinkSend));
    out.set("link.recv_ms", per_transfer_ms(Kind::LinkRecv));
    out.set(
        "link.delivered_frac",
        sum(&|r| r.data_received as f64) / sum(&|r| r.data_sent as f64).max(1.0),
    );
    out.set("wire.decode_ms", per_transfer_ms(Kind::WireDecode));
    out.set("wire.encode_ms", per_transfer_ms(Kind::WireEncode));
    out.set(
        "transfer.rounds_per_transfer",
        sum(&|r| r.rounds as f64) / n,
    );
    let top = tr.totals(Kind::Transfer);
    out.set(
        "transfer.unattributed_frac",
        top.self_ns as f64 / top.dur_ns.max(1) as f64,
    );
    // The receiver's private inline service, read through its metrics.
    let admitted = sum(&|r| r.service.sessions_admitted as f64);
    let submits = sum(&|r| r.service.submits as f64);
    let rejected = sum(&|r| r.service.submits_rejected as f64);
    out.set("service.attempts_per_session", submits / admitted.max(1.0));
    out.set(
        "service.rejected_frac",
        rejected / (submits + rejected).max(1.0),
    );
    let median_of = |f: &dyn Fn(&MetricsSnapshot) -> u64| {
        let v: Vec<f64> = replicas.iter().map(|r| f(&r.service) as f64).collect();
        sys::quantile(&v, 0.5)
    };
    out.set("service.dispatch_p99_us", median_of(&|m| m.dispatch_p99_us));
    out.set("service.decode_p50_us", median_of(&|m| m.decode_p50_us));
    out.set(
        "engine.cpu_us_per_attempt",
        (cpu - main_cpu).max(0.0) * 1e6 / all_attempts.max(1) as f64,
    );
    out.set("trace.overhead_frac", traced_s / untraced_s.max(1e-9) - 1.0);
    out.note(format!(
        "traced {} transfers ({} spans), each replayed untraced; {} replica drifts",
        replicas.len(),
        tr.spans.len(),
        out.violations.len()
    ));
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("out/{name}.spans.tsv"));
    match tr.write_tsv(&path) {
        Ok(()) => out.note(format!("spans written to {}", path.display())),
        Err(e) => eprintln!("ledger: cannot write spans to {}: {e}", path.display()),
    }
    out
}
