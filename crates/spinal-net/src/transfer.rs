//! End-to-end transfer drivers: pump a sender/receiver pair over any
//! [`Datagram`] link until the payload lands (or a budget runs out),
//! and report what it cost.
//!
//! The round structure mirrors the paper's feedback loop: the sender
//! emits one subpass per unacknowledged block, the receiver folds in
//! whatever survived the link, attempts decodes at subpass boundaries,
//! and answers with a cumulative ACK bitmap. The number of rounds a
//! transfer needs *is* its effective rate — high-SNR links finish in
//! one pass, marginal links keep drawing symbols from the rateless
//! stream.
//!
//! Hardening (PR 9): transient I/O errors are classified and retried
//! within a budget instead of aborting; a wall-clock deadline can bound
//! the transfer; and a transfer that ends with *some* blocks decoded
//! reports [`TransferOutcome::PartialDelivery`] carrying the
//! CRC-accepted bytes, so callers salvage what arrived instead of
//! losing everything. Fatal errors return a structured
//! [`TransferError`] that still carries the partial [`TransferReport`].
//!
//! Recovery (PR 10): a degraded transfer is *resumable* —
//! [`resume_transfer`] takes the partial report, pre-acknowledges every
//! CRC-accepted block on the sender (announced in the Init resume
//! bitmap), re-seeds the receiver from the salvaged bytes, and drives
//! the same round loop so only the blocks that never decoded cost
//! symbols the second time around.

use crate::link::{Datagram, LoopbackLink, NoiseModel};
use crate::receiver::{ReceiverConfig, SpinalReceiver};
use crate::sender::{SenderConfig, SpinalSender};
use spinal_channel::Impairments;
use spinal_core::{CodeParams, FrameBuilder};
use std::io;
use std::time::{Duration, Instant};

/// Transfer-wide knobs; fans out into [`SenderConfig`] and
/// [`ReceiverConfig`].
#[derive(Debug, Clone, Copy)]
pub struct TransferConfig {
    /// Observations per Data datagram.
    pub chunk_symbols: usize,
    /// Pass budget per block, both sides.
    pub max_passes: usize,
    /// Receiver gap-skip horizon in symbols (see
    /// [`ReceiverConfig::skip_horizon`]).
    pub skip_horizon: usize,
    /// Observation kind on the wire.
    pub modulation: crate::sender::Modulation,
    /// Hard stop on sender→receiver→sender round trips; protects
    /// against a link that delivers nothing at all.
    pub max_rounds: usize,
    /// Wall-clock deadline for the whole transfer; `None` (the
    /// default) keeps the driver purely round-based and deterministic.
    pub deadline: Option<Duration>,
    /// Transient I/O errors (`Interrupted`/`WouldBlock`/`TimedOut`)
    /// tolerated before the transfer gives up with
    /// [`TransferErrorKind::RetryBudgetExhausted`].
    pub io_retry_budget: usize,
    /// Receiver reorder-buffer cap per block (see
    /// [`ReceiverConfig::max_pending_spans`]).
    pub max_pending_spans: usize,
    /// Sender backoff threshold in silent polls (see
    /// [`SenderConfig::backoff_after_silent`]); 0 disables pacing.
    pub backoff_after_silent: usize,
    /// Sender backoff exponent cap (see
    /// [`SenderConfig::backoff_max_exp`]).
    pub backoff_max_exp: u32,
}

impl Default for TransferConfig {
    fn default() -> Self {
        TransferConfig {
            chunk_symbols: 32,
            max_passes: 8,
            skip_horizon: 96,
            modulation: crate::sender::Modulation::Symbols,
            max_rounds: 64,
            deadline: None,
            io_retry_budget: 64,
            max_pending_spans: 64,
            backoff_after_silent: 2,
            backoff_max_exp: 3,
        }
    }
}

impl TransferConfig {
    fn sender(&self) -> SenderConfig {
        SenderConfig {
            chunk_symbols: self.chunk_symbols,
            max_passes: self.max_passes,
            modulation: self.modulation,
            backoff_after_silent: self.backoff_after_silent,
            backoff_max_exp: self.backoff_max_exp,
        }
    }

    fn receiver(&self) -> ReceiverConfig {
        ReceiverConfig {
            max_passes: self.max_passes,
            skip_horizon: self.skip_horizon,
            max_pending_spans: self.max_pending_spans,
        }
    }
}

/// What ended a transfer that did not deliver everything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopCause {
    /// The sender's per-block pass budget ran out.
    PassBudget,
    /// The driver's round budget ran out.
    RoundBudget,
    /// The wall-clock deadline expired.
    Deadline,
    /// I/O failed (fatally, or past the transient retry budget).
    IoError,
}

/// How a transfer terminated. Degraded endings distinguish "some blocks
/// landed" ([`TransferOutcome::PartialDelivery`], carrying the salvaged
/// bytes) from "nothing did" (the budget/deadline variants).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransferOutcome {
    /// The payload arrived intact.
    Delivered(Vec<u8>),
    /// The transfer stopped with *some* blocks CRC-accepted: the caller
    /// salvages them instead of losing everything.
    PartialDelivery {
        /// Per-block payload bytes (`None` = block never decoded),
        /// trimmed to the original datagram length.
        blocks: Vec<Option<Vec<u8>>>,
        /// Total salvaged bytes across decoded blocks.
        bytes_recovered: usize,
        /// Blocks CRC-accepted.
        blocks_decoded: usize,
        /// Blocks in the transfer.
        n_blocks: usize,
        /// What stopped the transfer short.
        stop: StopCause,
    },
    /// The sender gave up with *zero* blocks decoded: its per-block
    /// pass budget ([`TransferConfig::max_passes`]) ran out. The
    /// channel needed more symbols than the budget allowed.
    PassBudgetExhausted,
    /// The driver stopped first with zero blocks decoded:
    /// [`TransferConfig::max_rounds`] round trips elapsed with the
    /// sender still willing to send.
    RoundBudgetExhausted,
    /// The wall-clock deadline expired with zero blocks decoded.
    DeadlineExceeded,
    /// I/O failed before any block decoded; only ever seen inside a
    /// [`TransferError`]'s report.
    Aborted,
}

/// What a finished (or abandoned) transfer cost.
#[derive(Debug, Clone, PartialEq)]
pub struct TransferReport {
    /// How the transfer terminated (delivery, degraded delivery, or
    /// which budget ran out).
    pub outcome: TransferOutcome,
    /// Observations (symbols or bits) the sender put on the wire.
    pub symbols_sent: usize,
    /// Datagrams (Init + Data) the sender put on the wire.
    pub datagrams_sent: usize,
    /// Deepest pass any block reached — the transfer's effective rate
    /// indicator.
    pub passes_sent: usize,
    /// Feedback round trips consumed.
    pub rounds: usize,
    /// Decode attempts the receiver ran.
    pub decode_attempts: usize,
    /// Attempts whose beam ladder escalated to the configured beam
    /// after the block CRC rejected the narrow rung's candidate (see
    /// [`SpinalReceiver::escalations`]). The transfer's wrong
    /// candidates are `decode_attempts − blocks_decoded + escalations`.
    pub escalations: usize,
    /// Transient I/O errors absorbed (retried) during the transfer.
    pub transient_io_errors: usize,
    /// Spans the receiver evicted from its capped reorder buffer.
    pub reorder_evictions: u64,
    /// Sender polls that held fire under feedback-silence backoff.
    pub backoff_skips: usize,
    /// Blocks CRC-accepted by the end of the transfer.
    pub blocks_decoded: usize,
    /// Blocks the payload was framed into (0 if Init never arrived).
    pub n_blocks: usize,
    /// Blocks re-seeded from salvage on a resumed transfer (0 for a
    /// fresh one) — these cost zero symbols and zero decode attempts.
    pub blocks_resumed: usize,
}

impl TransferReport {
    /// True when the payload arrived intact.
    pub fn delivered(&self) -> bool {
        matches!(self.outcome, TransferOutcome::Delivered(_))
    }

    /// The delivered payload, if [`TransferReport::delivered`].
    pub fn payload(&self) -> Option<&[u8]> {
        match &self.outcome {
            TransferOutcome::Delivered(p) => Some(p),
            _ => None,
        }
    }

    /// The salvaged per-block bytes of a degraded ending, if any.
    pub fn salvage(&self) -> Option<&[Option<Vec<u8>>]> {
        match &self.outcome {
            TransferOutcome::PartialDelivery { blocks, .. } => Some(blocks),
            _ => None,
        }
    }
}

/// Why [`run_transfer`] failed. Unlike a bare [`io::Error`], the
/// partial [`TransferReport`] (with any salvaged blocks) survives.
#[derive(Debug)]
pub struct TransferError {
    /// What went wrong.
    pub kind: TransferErrorKind,
    /// The transfer accounting up to the failure, outcome included.
    /// Boxed so the `Err` variant stays pointer-sized on the happy
    /// path (the report carries salvaged block buffers).
    pub report: Box<TransferReport>,
}

/// The failure class inside a [`TransferError`].
#[derive(Debug)]
pub enum TransferErrorKind {
    /// A non-transient I/O error; retrying cannot help.
    Fatal(io::Error),
    /// More transient I/O errors than [`TransferConfig::io_retry_budget`]
    /// allows — the link is effectively down.
    RetryBudgetExhausted,
}

impl std::fmt::Display for TransferError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.kind {
            TransferErrorKind::Fatal(e) => write!(f, "transfer aborted on fatal I/O error: {e}"),
            TransferErrorKind::RetryBudgetExhausted => write!(
                f,
                "transfer gave up after {} transient I/O errors",
                self.report.transient_io_errors
            ),
        }
    }
}

impl std::error::Error for TransferError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match &self.kind {
            TransferErrorKind::Fatal(e) => Some(e),
            TransferErrorKind::RetryBudgetExhausted => None,
        }
    }
}

/// Errors worth retrying: the syscall (or injected fault) was a
/// hiccup, not a verdict on the link.
fn is_transient_io(kind: io::ErrorKind) -> bool {
    matches!(
        kind,
        io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// The terminal outcome for a transfer that stopped for `stop`:
/// full delivery and degraded (some-blocks) delivery both salvage from
/// the receiver; a zero-block ending maps onto the matching variant.
fn salvage_outcome(receiver: &mut SpinalReceiver, stop: StopCause) -> TransferOutcome {
    if let Some(p) = receiver.payload() {
        return TransferOutcome::Delivered(p);
    }
    let blocks_decoded = receiver.blocks_decoded();
    if blocks_decoded > 0 {
        let blocks = receiver.partial_blocks();
        let bytes_recovered = blocks.iter().flatten().map(|b| b.len()).sum();
        return TransferOutcome::PartialDelivery {
            blocks,
            bytes_recovered,
            blocks_decoded,
            n_blocks: receiver.n_blocks(),
            stop,
        };
    }
    match stop {
        StopCause::PassBudget => TransferOutcome::PassBudgetExhausted,
        StopCause::RoundBudget => TransferOutcome::RoundBudgetExhausted,
        StopCause::Deadline => TransferOutcome::DeadlineExceeded,
        StopCause::IoError => TransferOutcome::Aborted,
    }
}

fn build_report(
    outcome: TransferOutcome,
    sender: &SpinalSender,
    receiver: &mut SpinalReceiver,
    rounds: usize,
    transient_io_errors: usize,
) -> TransferReport {
    TransferReport {
        outcome,
        symbols_sent: sender.symbols_sent(),
        datagrams_sent: sender.datagrams_sent(),
        passes_sent: sender.passes_sent(),
        rounds,
        decode_attempts: receiver.decode_attempts(),
        escalations: receiver.escalations(),
        transient_io_errors,
        reorder_evictions: receiver.reorder_evictions(),
        backoff_skips: sender.backoff_skips(),
        blocks_decoded: receiver.blocks_decoded(),
        n_blocks: receiver.n_blocks(),
        blocks_resumed: receiver.resumed_blocks(),
    }
}

/// Drive one transfer of `payload` over an existing pair of link
/// endpoints until delivery, sender give-up, the round budget, or the
/// deadline. Transient I/O errors are absorbed up to
/// [`TransferConfig::io_retry_budget`]; anything worse returns a
/// [`TransferError`] still carrying the partial report.
pub fn run_transfer<A: Datagram, B: Datagram>(
    sender_link: &mut A,
    receiver_link: &mut B,
    params: &CodeParams,
    payload: &[u8],
    transfer_id: u64,
    cfg: TransferConfig,
) -> Result<TransferReport, TransferError> {
    let mut sender = SpinalSender::new(params, payload, transfer_id, cfg.sender());
    let mut receiver = SpinalReceiver::new(params, cfg.receiver());
    drive_transfer(&mut sender, &mut receiver, sender_link, receiver_link, cfg)
}

/// Resume a transfer that ended degraded: every block the `partial`
/// report carries as CRC-accepted salvage is pre-acknowledged on the
/// sender (and announced in the Init resume bitmap) and re-seeded on
/// the receiver, so the resumed run spends symbols only on the blocks
/// that never decoded. Composes with any link — including a fresh or
/// still-chaotic one — and with further resumes if this run also ends
/// degraded.
///
/// Robust against a mismatched `partial`: salvaged blocks are verified
/// against the actual `payload` slices, and anything that fails the
/// check (or a report from a different geometry) is simply decoded from
/// symbols like a fresh block. Resuming an already-delivered report is
/// a no-op that returns a zero-cost `Delivered` report.
pub fn resume_transfer<A: Datagram, B: Datagram>(
    sender_link: &mut A,
    receiver_link: &mut B,
    params: &CodeParams,
    payload: &[u8],
    partial: &TransferReport,
    transfer_id: u64,
    cfg: TransferConfig,
) -> Result<TransferReport, TransferError> {
    if partial.payload().is_some_and(|p| p == payload) {
        // Nothing left to send or decode.
        return Ok(TransferReport {
            outcome: TransferOutcome::Delivered(payload.to_vec()),
            symbols_sent: 0,
            datagrams_sent: 0,
            passes_sent: 0,
            rounds: 0,
            decode_attempts: 0,
            escalations: 0,
            transient_io_errors: 0,
            reorder_evictions: 0,
            backoff_skips: 0,
            blocks_decoded: partial.blocks_decoded,
            n_blocks: partial.n_blocks,
            blocks_resumed: partial.n_blocks,
        });
    }
    let builder = FrameBuilder::new(params.n);
    let chunk = (builder.payload_bits() / 8).max(1);
    let n_blocks = payload.len().div_ceil(chunk).max(1);
    let salvage = partial.salvage().unwrap_or(&[]);
    // Trust nothing: a salvaged block counts only if it matches the
    // payload slice it claims to be (the report might belong to a
    // different payload, or a different framing geometry).
    let recovered: Vec<bool> = (0..n_blocks)
        .map(|i| {
            salvage.get(i).and_then(|b| b.as_deref()).is_some_and(|b| {
                let start = (i * chunk).min(payload.len());
                let end = (start + chunk).min(payload.len());
                b == &payload[start..end]
            })
        })
        .collect();
    let mut sender =
        SpinalSender::resume_with(params, payload, transfer_id, &recovered, cfg.sender());
    let mut receiver = SpinalReceiver::new(params, cfg.receiver());
    if recovered.iter().any(|&b| b) {
        receiver.seed_salvage(transfer_id, salvage.to_vec());
    }
    drive_transfer(&mut sender, &mut receiver, sender_link, receiver_link, cfg)
}

/// The shared round loop behind [`run_transfer`] and
/// [`resume_transfer`]: poll the sender, pump the receiver, stop on
/// delivery, give-up, budget, or deadline.
fn drive_transfer<A: Datagram, B: Datagram>(
    sender: &mut SpinalSender,
    receiver: &mut SpinalReceiver,
    sender_link: &mut A,
    receiver_link: &mut B,
    cfg: TransferConfig,
) -> Result<TransferReport, TransferError> {
    let started = Instant::now();
    let mut rounds = 0;
    let mut transient_io_errors = 0usize;
    let mut stop: Option<StopCause> = None;

    /// Classify one I/O step: transient errors count against the retry
    /// budget and the round continues; fatal errors (or a blown
    /// budget) abort with the partial report attached.
    macro_rules! step {
        ($e:expr) => {
            match $e {
                Ok(_) => {}
                Err(err) if is_transient_io(err.kind()) => {
                    transient_io_errors += 1;
                    if transient_io_errors > cfg.io_retry_budget {
                        let outcome = salvage_outcome(receiver, StopCause::IoError);
                        return Err(TransferError {
                            kind: TransferErrorKind::RetryBudgetExhausted,
                            report: Box::new(build_report(
                                outcome,
                                sender,
                                receiver,
                                rounds,
                                transient_io_errors,
                            )),
                        });
                    }
                }
                Err(err) => {
                    let outcome = salvage_outcome(receiver, StopCause::IoError);
                    return Err(TransferError {
                        kind: TransferErrorKind::Fatal(err),
                        report: Box::new(build_report(
                            outcome,
                            sender,
                            receiver,
                            rounds,
                            transient_io_errors,
                        )),
                    });
                }
            }
        };
    }

    while rounds < cfg.max_rounds {
        if cfg.deadline.is_some_and(|d| started.elapsed() >= d) {
            stop = Some(StopCause::Deadline);
            break;
        }
        rounds += 1;
        step!(sender.poll(sender_link));
        step!(receiver.pump(receiver_link));
        if sender.complete() {
            break; // final ACK observed; both sides are done
        }
        if sender.exhausted() && receiver.complete() {
            // The payload landed but the all-ones ACK keeps getting
            // lost; one more drain gives it a last chance below.
        } else if sender.exhausted() {
            // Budget gone and blocks still missing: give up. Drain any
            // in-flight feedback once more for an accurate report.
            step!(sender.drain_feedback(sender_link));
            break;
        }
    }
    // The receiver may have completed on the very last round; reflect
    // any final feedback still in flight.
    step!(receiver.pump(receiver_link));
    step!(sender.drain_feedback(sender_link));
    let stop = stop.unwrap_or(if sender.exhausted() {
        StopCause::PassBudget
    } else {
        StopCause::RoundBudget
    });
    let outcome = salvage_outcome(receiver, stop);
    Ok(build_report(
        outcome,
        sender,
        receiver,
        rounds,
        transient_io_errors,
    ))
}

/// Build a seeded loopback link with the given channel noise and
/// datagram impairments, and run one transfer across it.
#[allow(clippy::too_many_arguments)]
pub fn run_loopback_transfer(
    params: &CodeParams,
    payload: &[u8],
    noise: NoiseModel,
    data_impair: Impairments,
    feedback_impair: Impairments,
    seed: u64,
    cfg: TransferConfig,
) -> TransferReport {
    let (mut tx, mut rx) = LoopbackLink::pair(noise, data_impair, feedback_impair, seed);
    run_transfer(&mut tx, &mut rx, params, payload, seed | 1, cfg)
        .expect("loopback I/O cannot fail")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{ChaosLink, FaultPlan};
    use crate::sender::Modulation;
    use spinal_core::{DecodeService, Puncturing, ServiceConfig};

    fn params() -> CodeParams {
        CodeParams::default().with_n(64).with_b(32)
    }

    #[test]
    fn clean_link_delivers_in_few_rounds() {
        let p = params();
        let payload: Vec<u8> = (0u8..=99).collect();
        let report = run_loopback_transfer(
            &p,
            &payload,
            NoiseModel::Clean,
            Impairments::clean(),
            Impairments::clean(),
            5,
            TransferConfig::default(),
        );
        assert_eq!(report.payload(), Some(&payload[..]));
        assert_eq!(report.outcome, TransferOutcome::Delivered(payload.clone()));
        assert_eq!(report.passes_sent, 1, "noiseless: one pass must do");
        // One subpass per round: a one-pass transfer takes at most the
        // schedule's subpass count plus the final-ACK round.
        assert!(report.rounds <= 10, "took {} rounds", report.rounds);
        assert_eq!(report.transient_io_errors, 0);
        assert_eq!(report.reorder_evictions, 0);
        assert_eq!(report.backoff_skips, 0, "responsive link never backs off");
        assert_eq!(report.blocks_decoded, report.n_blocks);
    }

    #[test]
    fn awgn_link_delivers_and_tracks_snr() {
        let p = params();
        let payload = b"the rateless stream adapts its rate to the channel";
        let run = |snr_db: f64| {
            run_loopback_transfer(
                &p,
                payload,
                NoiseModel::Awgn { snr_db },
                Impairments::clean(),
                Impairments::clean(),
                77,
                TransferConfig::default(),
            )
        };
        let good = run(20.0);
        let bad = run(4.0);
        assert_eq!(good.payload(), Some(&payload[..]));
        assert_eq!(bad.payload(), Some(&payload[..]));
        assert!(
            good.symbols_sent < bad.symbols_sent,
            "high SNR must need fewer symbols: {} vs {}",
            good.symbols_sent,
            bad.symbols_sent
        );
    }

    #[test]
    fn bsc_link_delivers_bits() {
        let p = params();
        let payload = b"hard bits";
        let cfg = TransferConfig {
            modulation: Modulation::Bits,
            max_passes: 12,
            ..TransferConfig::default()
        };
        let report = run_loopback_transfer(
            &p,
            payload,
            NoiseModel::Bsc { flip_p: 0.03 },
            Impairments::clean(),
            Impairments::clean(),
            13,
            cfg,
        );
        assert_eq!(report.payload(), Some(&payload[..]));
    }

    #[test]
    fn hopeless_channel_reports_pass_budget_exhausted() {
        // Plenty of rounds, tiny pass budget: the sender gives up —
        // "channel too noisy for the budget", not "budget too small".
        let p = params();
        let cfg = TransferConfig {
            max_passes: 2,
            max_rounds: 40,
            ..TransferConfig::default()
        };
        let report = run_loopback_transfer(
            &p,
            b"never arrives",
            NoiseModel::Awgn { snr_db: -20.0 },
            Impairments::clean(),
            Impairments::clean(),
            3,
            cfg,
        );
        assert!(!report.delivered());
        assert_eq!(report.outcome, TransferOutcome::PassBudgetExhausted);
        assert_eq!(report.payload(), None);
        assert!(report.passes_sent <= 2);
        assert!(report.rounds <= 40);
    }

    #[test]
    fn tiny_round_budget_reports_round_budget_exhausted() {
        // Generous pass budget, almost no rounds: the driver stops with
        // the sender still willing — "budget too small".
        let p = params();
        let cfg = TransferConfig {
            max_passes: 8,
            max_rounds: 2,
            ..TransferConfig::default()
        };
        let report = run_loopback_transfer(
            &p,
            b"cut short",
            NoiseModel::Awgn { snr_db: -20.0 },
            Impairments::clean(),
            Impairments::clean(),
            9,
            cfg,
        );
        assert!(!report.delivered());
        assert_eq!(report.outcome, TransferOutcome::RoundBudgetExhausted);
        assert_eq!(report.rounds, 2);
    }

    #[test]
    fn expired_deadline_reports_deadline_exceeded() {
        let p = params();
        let cfg = TransferConfig {
            deadline: Some(Duration::ZERO),
            ..TransferConfig::default()
        };
        let report = run_loopback_transfer(
            &p,
            b"no time at all",
            NoiseModel::Clean,
            Impairments::clean(),
            Impairments::clean(),
            1,
            cfg,
        );
        assert_eq!(report.outcome, TransferOutcome::DeadlineExceeded);
        assert_eq!(report.rounds, 0, "deadline fires before the first round");
        assert_eq!(report.symbols_sent, 0);
    }

    #[test]
    fn generous_deadline_changes_nothing() {
        let p = params();
        let payload = b"plenty of time";
        let cfg = TransferConfig {
            deadline: Some(Duration::from_secs(3600)),
            ..TransferConfig::default()
        };
        let report = run_loopback_transfer(
            &p,
            payload,
            NoiseModel::Clean,
            Impairments::clean(),
            Impairments::clean(),
            5,
            cfg,
        );
        assert_eq!(report.payload(), Some(&payload[..]));
    }

    #[test]
    fn mid_transfer_blackout_salvages_partial_delivery() {
        // Data path goes dark for good mid-transfer at moderate SNR:
        // blocks differ in how many symbols they need, so some decode
        // before the lights go out and must be salvaged.
        let p = params();
        let payload: Vec<u8> = (0u8..24).collect(); // 4 blocks of 6 bytes
        let (tx, mut rx) = LoopbackLink::pair(
            NoiseModel::Awgn { snr_db: 10.0 },
            Impairments::clean(),
            Impairments::clean(),
            12,
        );
        let plan = FaultPlan {
            blackouts: vec![(32, u64::MAX)],
            ..FaultPlan::clean()
        };
        let mut tx = ChaosLink::new(tx, plan, 12);
        let report = run_transfer(&mut tx, &mut rx, &p, &payload, 1, TransferConfig::default())
            .expect("loopback I/O cannot fail");
        match &report.outcome {
            TransferOutcome::PartialDelivery {
                blocks,
                bytes_recovered,
                blocks_decoded,
                n_blocks,
                ..
            } => {
                assert_eq!(*n_blocks, 4);
                assert!(*blocks_decoded >= 1 && *blocks_decoded < 4);
                let mut recovered = 0;
                for (i, blk) in blocks.iter().enumerate() {
                    if let Some(bytes) = blk {
                        assert_eq!(bytes[..], payload[i * 6..(i + 1) * 6]);
                        recovered += bytes.len();
                    }
                }
                assert_eq!(recovered, *bytes_recovered);
                assert!(recovered > 0);
            }
            other => panic!("expected PartialDelivery, got {other:?}"),
        }
        assert_eq!(report.salvage().map(|b| b.len()), Some(4));
    }

    /// A send-side wrapper recording which blocks get Data datagrams.
    struct BlockRecorder<L> {
        inner: L,
        data_blocks: std::collections::BTreeSet<u16>,
    }

    impl<L> BlockRecorder<L> {
        fn new(inner: L) -> Self {
            BlockRecorder {
                inner,
                data_blocks: std::collections::BTreeSet::new(),
            }
        }
    }

    impl<L: Datagram> Datagram for BlockRecorder<L> {
        fn send(&mut self, buf: &[u8]) -> io::Result<()> {
            if let Some(crate::wire::Packet::Data { block, .. }) = crate::wire::Packet::decode(buf)
            {
                self.data_blocks.insert(block);
            }
            self.inner.send(buf)
        }
        fn recv(&mut self) -> io::Result<Option<Vec<u8>>> {
            self.inner.recv()
        }
    }

    #[test]
    fn blackout_partial_delivery_resumes_to_bit_exact_payload() {
        // Phase 1: the data path goes dark for good mid-transfer — some
        // blocks land, some never do (the PR 9 salvage scenario).
        let p = params();
        let payload: Vec<u8> = (0u8..24).collect(); // 4 blocks of 6 bytes
        let (tx, mut rx) = LoopbackLink::pair(
            NoiseModel::Awgn { snr_db: 10.0 },
            Impairments::clean(),
            Impairments::clean(),
            12,
        );
        let plan = FaultPlan {
            blackouts: vec![(32, u64::MAX)],
            ..FaultPlan::clean()
        };
        let mut tx = ChaosLink::new(tx, plan, 12);
        let partial = run_transfer(&mut tx, &mut rx, &p, &payload, 1, TransferConfig::default())
            .expect("loopback I/O cannot fail");
        let salvaged: Vec<u16> = partial
            .salvage()
            .expect("blackout must leave a partial delivery")
            .iter()
            .enumerate()
            .filter_map(|(i, b)| b.is_some().then_some(i as u16))
            .collect();
        assert!(!salvaged.is_empty() && salvaged.len() < 4);

        // Phase 2: resume over a fresh link (route came back). The full
        // payload must arrive bit-exact, with symbols spent only on the
        // blocks the blackout swallowed.
        let (tx2, mut rx2) = LoopbackLink::pair(
            NoiseModel::Awgn { snr_db: 10.0 },
            Impairments::clean(),
            Impairments::clean(),
            77,
        );
        let mut tx2 = BlockRecorder::new(tx2);
        let report = resume_transfer(
            &mut tx2,
            &mut rx2,
            &p,
            &payload,
            &partial,
            2,
            TransferConfig::default(),
        )
        .expect("loopback I/O cannot fail");
        assert_eq!(report.payload(), Some(&payload[..]), "bit-exact delivery");
        assert_eq!(report.blocks_resumed, salvaged.len());
        assert_eq!(report.blocks_decoded, 4);
        for block in &salvaged {
            assert!(
                !tx2.data_blocks.contains(block),
                "salvaged block {block} must get zero symbols on resume"
            );
        }
        assert!(
            !tx2.data_blocks.is_empty(),
            "unrecovered blocks still need symbols"
        );
        assert!(
            report.symbols_sent < partial.symbols_sent,
            "resume must cost fewer symbols than the interrupted run \
             ({} vs {})",
            report.symbols_sent,
            partial.symbols_sent
        );
    }

    #[test]
    fn resume_composes_with_further_chaos() {
        // The resumed run itself rides a still-degraded link (burst loss
        // + duplication): the rateless stream and the resume bitmap must
        // compose, not fight.
        let p = params();
        let payload: Vec<u8> = (100u8..124).collect();
        let (tx, mut rx) = LoopbackLink::pair(
            NoiseModel::Awgn { snr_db: 10.0 },
            Impairments::clean(),
            Impairments::clean(),
            12,
        );
        let plan = FaultPlan {
            blackouts: vec![(32, u64::MAX)],
            ..FaultPlan::clean()
        };
        let mut tx = ChaosLink::new(tx, plan, 12);
        let partial = run_transfer(&mut tx, &mut rx, &p, &payload, 5, TransferConfig::default())
            .expect("loopback I/O cannot fail");
        assert!(partial.salvage().is_some());

        let (tx2, mut rx2) = LoopbackLink::pair(
            NoiseModel::Awgn { snr_db: 12.0 },
            Impairments::clean(),
            Impairments::clean(),
            41,
        );
        let plan2 = FaultPlan {
            ge: Some(spinal_channel::GeParams {
                p_good_to_bad: 0.05,
                p_bad_to_good: 0.4,
                loss_good: 0.02,
                loss_bad: 0.8,
            }),
            dup_prob: 0.05,
            dup_max: 2,
            ..FaultPlan::clean()
        };
        let mut tx2 = ChaosLink::new(tx2, plan2, 41);
        let report = resume_transfer(
            &mut tx2,
            &mut rx2,
            &p,
            &payload,
            &partial,
            6,
            TransferConfig::default(),
        )
        .expect("within budget");
        assert_eq!(report.payload(), Some(&payload[..]));
        assert!(report.blocks_resumed >= 1);
    }

    #[test]
    fn resume_of_a_delivered_report_is_a_noop() {
        let p = params();
        let payload = b"already there".to_vec();
        let report = run_loopback_transfer(
            &p,
            &payload,
            NoiseModel::Clean,
            Impairments::clean(),
            Impairments::clean(),
            5,
            TransferConfig::default(),
        );
        assert!(report.delivered());
        let (mut tx, mut rx) = LoopbackLink::clean_pair(9);
        let resumed = resume_transfer(
            &mut tx,
            &mut rx,
            &p,
            &payload,
            &report,
            7,
            TransferConfig::default(),
        )
        .expect("no I/O at all");
        assert_eq!(resumed.payload(), Some(&payload[..]));
        assert_eq!(resumed.symbols_sent, 0);
        assert_eq!(resumed.rounds, 0);
        assert_eq!(resumed.blocks_resumed, resumed.n_blocks);
    }

    #[test]
    fn resume_with_mismatched_payload_falls_back_to_fresh_transfer() {
        // A report salvaged from a *different* payload: every salvage
        // check fails, so the resume degrades gracefully into a full
        // fresh transfer that still delivers the right bytes.
        let p = params();
        let original: Vec<u8> = (0u8..24).collect();
        let (tx, mut rx) = LoopbackLink::pair(
            NoiseModel::Awgn { snr_db: 10.0 },
            Impairments::clean(),
            Impairments::clean(),
            12,
        );
        let plan = FaultPlan {
            blackouts: vec![(32, u64::MAX)],
            ..FaultPlan::clean()
        };
        let mut tx = ChaosLink::new(tx, plan, 12);
        let partial = run_transfer(
            &mut tx,
            &mut rx,
            &p,
            &original,
            1,
            TransferConfig::default(),
        )
        .expect("loopback I/O cannot fail");
        assert!(partial.salvage().is_some());

        let other: Vec<u8> = (200u8..224).collect();
        let (mut tx2, mut rx2) = LoopbackLink::clean_pair(3);
        let report = resume_transfer(
            &mut tx2,
            &mut rx2,
            &p,
            &other,
            &partial,
            9,
            TransferConfig::default(),
        )
        .expect("loopback I/O cannot fail");
        assert_eq!(report.payload(), Some(&other[..]));
        assert_eq!(report.blocks_resumed, 0, "no salvage may survive the check");
    }

    /// A link that fails fatally on every operation.
    struct BrokenLink;

    impl Datagram for BrokenLink {
        fn send(&mut self, _buf: &[u8]) -> io::Result<()> {
            Err(io::Error::new(io::ErrorKind::BrokenPipe, "wire cut"))
        }
        fn recv(&mut self) -> io::Result<Option<Vec<u8>>> {
            Err(io::Error::new(io::ErrorKind::BrokenPipe, "wire cut"))
        }
    }

    #[test]
    fn fatal_io_error_returns_structured_error_with_report() {
        let p = params();
        let (_tx, mut rx) = LoopbackLink::clean_pair(0);
        let err = run_transfer(
            &mut BrokenLink,
            &mut rx,
            &p,
            b"doomed",
            1,
            TransferConfig::default(),
        )
        .expect_err("broken link must fail");
        assert!(matches!(err.kind, TransferErrorKind::Fatal(ref e)
            if e.kind() == io::ErrorKind::BrokenPipe));
        assert_eq!(err.report.outcome, TransferOutcome::Aborted);
        assert_eq!(err.report.rounds, 1, "failed inside the first round");
        assert!(err.to_string().contains("fatal"));
    }

    #[test]
    fn transient_errors_are_retried_within_budget() {
        // Every send fails transiently: the transfer must keep trying
        // (one transient per round) until the budget gives out, then
        // return a structured error still carrying the report.
        let p = params();
        let (tx, mut rx) = LoopbackLink::clean_pair(0);
        let plan = FaultPlan {
            send_err_prob: 1.0,
            ..FaultPlan::clean()
        };
        let mut tx = ChaosLink::new(tx, plan, 3);
        let cfg = TransferConfig {
            io_retry_budget: 10,
            // Backoff would pace out the failing polls and dilute the
            // error count below the budget; keep every round trying.
            backoff_after_silent: 0,
            ..TransferConfig::default()
        };
        let err = run_transfer(&mut tx, &mut rx, &p, b"hiccups", 1, cfg)
            .expect_err("budget must give out");
        assert!(matches!(err.kind, TransferErrorKind::RetryBudgetExhausted));
        assert_eq!(err.report.transient_io_errors, 11, "budget + 1");
        assert_eq!(err.report.outcome, TransferOutcome::Aborted);
        assert!(err.to_string().contains("11 transient"));
    }

    #[test]
    fn occasional_transient_errors_do_not_stop_delivery() {
        // A mildly flaky syscall layer: the retry budget absorbs it and
        // the payload still lands.
        let p = params();
        let payload = b"flaky but fine";
        let (tx, mut rx) = LoopbackLink::pair(
            NoiseModel::Awgn { snr_db: 15.0 },
            Impairments::clean(),
            Impairments::clean(),
            21,
        );
        let plan = FaultPlan {
            send_err_prob: 0.05,
            ..FaultPlan::clean()
        };
        let mut tx = ChaosLink::new(tx, plan, 21);
        let report = run_transfer(&mut tx, &mut rx, &p, payload, 1, TransferConfig::default())
            .expect("transients within budget");
        assert_eq!(report.payload(), Some(&payload[..]));
    }

    /// `drive_transfer`'s rounds on a one-thread service, with every
    /// decode attempt settled before the receiver handles the next
    /// datagram: the inline receiver loop (submit, wait, offer to the
    /// CRC) that the pipelined receiver must reproduce.
    fn inline_transfer(
        p: &CodeParams,
        payload: &[u8],
        cfg: TransferConfig,
        svc_cfg: ServiceConfig,
        (mut tx, mut rx): (LoopbackLink, LoopbackLink),
    ) -> TransferReport {
        const LOOPBACK: &str = "loopback I/O cannot fail";
        let mut sender = SpinalSender::new(p, payload, 1, cfg.sender());
        let service = DecodeService::new(1, svc_cfg);
        let mut receiver = SpinalReceiver::with_service(p, cfg.receiver(), service);
        let mut pump = |receiver: &mut SpinalReceiver| {
            while let Some(buf) = rx.recv().expect(LOOPBACK) {
                if let Some(pkt) = crate::wire::Packet::decode(&buf) {
                    receiver.handle(pkt);
                    receiver.blocks_decoded(); // settles the attempt
                }
            }
            if let Some(fb) = receiver.feedback() {
                rx.send(&fb.encode()).expect(LOOPBACK);
            }
        };
        let mut rounds = 0;
        while rounds < cfg.max_rounds {
            rounds += 1;
            sender.poll(&mut tx).expect(LOOPBACK);
            pump(&mut receiver);
            if sender.complete() {
                break;
            }
            if sender.exhausted() && !receiver.complete() {
                sender.drain_feedback(&mut tx).expect(LOOPBACK);
                break;
            }
        }
        pump(&mut receiver);
        sender.drain_feedback(&mut tx).expect(LOOPBACK);
        let stop = if sender.exhausted() {
            StopCause::PassBudget
        } else {
            StopCause::RoundBudget
        };
        let outcome = salvage_outcome(&mut receiver, stop);
        build_report(outcome, &sender, &mut receiver, rounds, 0)
    }

    /// The pipelined receiver's contract: on any pool width and any
    /// service configuration, each block gets the inline loop's attempts
    /// on the inline loop's buffers, so the whole report matches. Two
    /// tight configurations force the refuse, settle and retry paths:
    /// two sessions for five blocks refuses `open_session`, and one
    /// attempt running with a one-deep queue refuses `submit`. The
    /// unpunctured B = 64 set runs the beam ladder (a B/16 = 4 first
    /// rung), so escalations must match too; at B = 16 the ladder is
    /// off.
    #[test]
    fn pooled_receivers_report_exactly_what_the_inline_loop_does() {
        const SEEDS: u64 = if cfg!(debug_assertions) { 2 } else { 30 };
        let punctured = CodeParams::default().with_n(64).with_b(16);
        let unpunctured = CodeParams {
            puncturing: Puncturing::none(),
            ..punctured.clone()
        };
        let laddered = unpunctured.clone().with_b(64);
        let channels = [
            (NoiseModel::Awgn { snr_db: 4.0 }, Modulation::Symbols),
            (NoiseModel::Awgn { snr_db: 10.0 }, Modulation::Symbols),
            (NoiseModel::Awgn { snr_db: 20.0 }, Modulation::Symbols),
            (
                NoiseModel::Rayleigh {
                    snr_db: 12.0,
                    tau: 8,
                },
                Modulation::Symbols,
            ),
            (NoiseModel::Bsc { flip_p: 0.03 }, Modulation::Bits),
        ];
        let lossy = Impairments {
            loss: 0.1,
            dup: 0.05,
            reorder: 0.1,
            reorder_span: 3,
        };
        let few_sessions = ServiceConfig {
            max_sessions: 2,
            queue_capacity: 1,
            ..ServiceConfig::default()
        };
        let short_queue = ServiceConfig {
            queue_capacity: 1,
            max_inflight: 1,
            ..ServiceConfig::default()
        };
        let payload: Vec<u8> = (0u8..30).collect(); // 5 blocks of 6 bytes
        let (mut attempts, mut shed, mut rejected) = (0, 0, 0);
        let (mut ladder_attempts, mut escalations) = (0, 0);
        for p in [&punctured, &unpunctured, &laddered] {
            for (noise, modulation) in channels {
                let cfg = TransferConfig {
                    modulation,
                    max_passes: 12,
                    max_rounds: 120,
                    ..TransferConfig::default()
                };
                for seed in 0..SEEDS {
                    let link = || LoopbackLink::pair(noise, lossy, lossy, seed);
                    let ctx = format!("{:?} {noise:?} seed {seed}", p.puncturing);
                    for svc_cfg in [ServiceConfig::default(), few_sessions, short_queue] {
                        let inline = inline_transfer(p, &payload, cfg, svc_cfg, link());
                        attempts += inline.decode_attempts;
                        if p == &laddered {
                            ladder_attempts += inline.decode_attempts;
                            escalations += inline.escalations;
                        } else {
                            assert_eq!(inline.escalations, 0, "{ctx}: the ladder is off");
                        }
                        for threads in [1, 2, 3] {
                            let svc = DecodeService::new(threads, svc_cfg);
                            let mut receiver =
                                SpinalReceiver::with_service(p, cfg.receiver(), svc.clone());
                            let mut sender = SpinalSender::new(p, &payload, 1, cfg.sender());
                            let (mut tx, mut rx) = link();
                            let pooled =
                                drive_transfer(&mut sender, &mut receiver, &mut tx, &mut rx, cfg)
                                    .expect("loopback I/O cannot fail");
                            let ctx = format!("{ctx}: {threads} threads, {svc_cfg:?}");
                            assert_eq!(pooled, inline, "{ctx}");
                            let m = svc.metrics();
                            assert_eq!(m.submits, m.completions, "{ctx}: attempt left in flight");
                            assert_eq!(m.stale_completions, 0, "{ctx}");
                            shed += m.sessions_shed;
                            rejected += m.submits_rejected;
                        }
                    }
                    let (mut tx, mut rx) = link();
                    let own = run_transfer(&mut tx, &mut rx, p, &payload, 1, cfg)
                        .expect("loopback I/O cannot fail");
                    let inline =
                        inline_transfer(p, &payload, cfg, ServiceConfig::default(), link());
                    assert_eq!(own, inline, "{ctx}: run_transfer's own receiver");
                }
            }
        }
        eprintln!(
            "pooled = inline: {attempts} inline attempts matched; \
             {escalations} of {ladder_attempts} laddered attempts escalated; \
             {shed} sessions shed, {rejected} submits rejected"
        );
        assert!(attempts > 0);
        assert!(escalations > 0, "the ladder never escalated");
        assert!(
            escalations < ladder_attempts,
            "the B/16 rung never decoded a block"
        );
        assert!(shed > 0, "open_session was never refused");
        assert!(rejected > 0, "submit was never refused");
    }

    /// Receivers made by `SpinalReceiver::new` on several threads at
    /// once all decode on the process-wide pool, yet each transfer's
    /// report is the one it gets alone, and each receiver's service
    /// counts its own sessions and attempts: every submit completed,
    /// none stale, none refused. Each thread walks the whole list from
    /// its own offset, so different transfers overlap on the workers.
    #[test]
    fn concurrent_receivers_share_the_pool_and_stay_isolated() {
        const THREADS: usize = 3;
        const SEEDS: u64 = if cfg!(debug_assertions) { 2 } else { 8 };
        let punctured = CodeParams::default().with_n(64).with_b(16);
        let laddered = CodeParams {
            puncturing: Puncturing::none(),
            ..punctured.clone()
        }
        .with_b(64);
        let lossy = Impairments {
            loss: 0.1,
            dup: 0.05,
            reorder: 0.1,
            reorder_span: 3,
        };
        let cfg = TransferConfig {
            max_passes: 12,
            max_rounds: 120,
            ..TransferConfig::default()
        };
        let payload: Vec<u8> = (0u8..30).collect(); // 5 blocks of 6 bytes
        let link = |snr_db: f64, seed: u64| {
            LoopbackLink::pair(NoiseModel::Awgn { snr_db }, lossy, lossy, seed)
        };
        let mut transfers = Vec::new();
        for p in [&punctured, &laddered] {
            for snr_db in [6.0, 14.0] {
                for seed in 0..SEEDS {
                    let (mut tx, mut rx) = link(snr_db, seed);
                    let alone = run_transfer(&mut tx, &mut rx, p, &payload, 1, cfg)
                        .expect("loopback I/O cannot fail");
                    transfers.push((p, snr_db, seed, alone));
                }
            }
        }
        let start = std::sync::Barrier::new(THREADS);
        std::thread::scope(|scope| {
            for offset in 0..THREADS {
                let (transfers, start, payload) = (&transfers, &start, &payload);
                scope.spawn(move || {
                    start.wait();
                    for k in 0..transfers.len() {
                        let (p, snr_db, seed, alone) = &transfers[(k + offset) % transfers.len()];
                        let ctx = format!("{:?} {snr_db} dB seed {seed}", p.puncturing);
                        let mut sender = SpinalSender::new(p, payload, 1, cfg.sender());
                        let mut receiver = SpinalReceiver::new(p, cfg.receiver());
                        let (mut tx, mut rx) = link(*snr_db, *seed);
                        let report =
                            drive_transfer(&mut sender, &mut receiver, &mut tx, &mut rx, cfg)
                                .expect("loopback I/O cannot fail");
                        assert_eq!(&report, alone, "{ctx}: differs from the transfer alone");
                        let m = receiver.service().metrics();
                        assert_eq!(m.submits, m.completions, "{ctx}: attempt left in flight");
                        assert_eq!(m.submits as usize, report.decode_attempts, "{ctx}");
                        assert_eq!(m.stale_completions, 0, "{ctx}");
                        assert_eq!(m.sessions_shed + m.submits_rejected, 0, "{ctx}");
                    }
                });
            }
        });
    }

    #[test]
    fn chaos_transfer_is_deterministic_in_seed() {
        let p = params();
        let payload: Vec<u8> = (0u8..40).collect();
        let run = |seed: u64| {
            let (tx, mut rx) = LoopbackLink::pair(
                NoiseModel::Awgn { snr_db: 12.0 },
                Impairments::clean(),
                Impairments::clean(),
                seed,
            );
            let plan = FaultPlan {
                ge: Some(spinal_channel::GeParams {
                    p_good_to_bad: 0.05,
                    p_bad_to_good: 0.3,
                    loss_good: 0.02,
                    loss_bad: 0.9,
                }),
                dup_prob: 0.1,
                dup_max: 2,
                send_err_prob: 0.02,
                ..FaultPlan::clean()
            };
            let mut tx = ChaosLink::new(tx, plan, seed);
            let report = run_transfer(&mut tx, &mut rx, &p, &payload, 1, TransferConfig::default())
                .expect("within budget");
            (report, tx.trace().clone())
        };
        let (r1, t1) = run(33);
        let (r2, t2) = run(33);
        assert_eq!(r1, r2, "same seed ⇒ identical report");
        assert_eq!(t1, t2, "same seed ⇒ identical fault trace");
        let (r3, t3) = run(34);
        assert!(r1 != r3 || t1 != t3, "different seed must differ somewhere");
    }
}
