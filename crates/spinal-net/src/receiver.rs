//! The receiving side: reorder buffer, pipelined decode, feedback.
//!
//! Datagrams arrive late, twice, or never. Per block the receiver keeps
//! a reorder buffer keyed on the symbol `offset` each Data datagram
//! declares, and drains it *in schedule order* into the decoder's
//! receive buffer — the spine RNG indices only line up if observations
//! are folded in at their scheduled positions. A gap that outlives the
//! reordering horizon is declared lost and skipped
//! ([`RxSymbols::skip`]): the rateless stream compensates with later
//! symbols instead of retransmission (§7.1, the decoder "need not
//! generate the missing symbols"). A span that starts at or past the
//! pass budget can feed no attempt and is dropped on arrival.
//!
//! Decode attempts run at subpass boundaries (§5), each block through
//! its own [`Session`] on a [`DecodeService`]: the session owns the
//! receive buffer and the block's schedule position, and each attempt
//! builds its tables from the whole buffer on the per-core workspace of
//! the service thread that decodes it. All blocks of a transfer share
//! one decoder with the [`MetricProfile::Quantized`] metric (its BLER
//! is held to the exact profile's by the `quant_parity` oracle).
//!
//! That decoder carries the block CRC as its block check
//! ([`BubbleDecoder::with_block_check`]). On an unpunctured schedule
//! with `B ≥ 32` every attempt therefore climbs the decoder's beam
//! ladder inside its one service job: a `B/16` beam first, and the
//! configured `B` on the same tables only when the CRC rejects that
//! candidate. The top rung is the decode without a ladder, so a block
//! decodes at the same boundary or an earlier one, and an attempt's cost
//! depends on whether it escalated ([`SpinalReceiver::escalations`]).
//! Under puncturing the ladder is off.
//!
//! Attempts are pipelined. A block that crosses a boundary submits its
//! attempt and the receiver moves on, so every ready block decodes at
//! once on the service's workers. A receiver made by
//! [`SpinalReceiver::new`] runs a transfer of two or more blocks on
//! the process-wide decode pool ([`DecodeService::shared`]), whose
//! workers and their warm workspaces outlive the transfer, so a
//! transfer spawns and joins no thread; one block decodes inline on
//! the caller's thread. The attempt is *settled* later —
//! waited for, offered to the CRC, and its session closed if the CRC
//! accepts — before the same block takes in more data, and before
//! anything reads decode outcomes ([`SpinalReceiver::feedback`],
//! [`complete`](SpinalReceiver::complete),
//! [`payload`](SpinalReceiver::payload),
//! [`blocks_decoded`](SpinalReceiver::blocks_decoded),
//! [`partial_blocks`](SpinalReceiver::partial_blocks)). When the
//! service refuses an `open_session` or `submit`, the receiver settles
//! its own in-flight attempts and tries once more; settled, it holds
//! exactly the sessions a loop that waited on every attempt would hold.
//! So each block gets the same attempts on the same buffers as that
//! inline loop, on any service: only wall time changes.
//!
//! A block is done exactly when its CRC validates ([`FrameReassembly`],
//! §6). Feedback is a cumulative ACK bitmap; it keeps flowing after
//! completion so a sender that missed one feedback datagram still
//! learns to stop.
//!
//! A receiver holding salvaged bytes from an earlier interrupted
//! transfer ([`SpinalReceiver::seed_salvage`]) re-seeds those blocks the
//! moment an Init arrives whose resume bitmap claims them: the bytes are
//! re-framed, CRC-revalidated, and acknowledged immediately, so the
//! resumed transfer spends symbols only on the blocks that never
//! decoded.

use crate::link::Datagram;
use crate::wire::{Packet, Payload};
use spinal_core::{
    BubbleDecoder, CodeParams, DecodeService, FrameBuilder, FrameReassembly, Message,
    MetricProfile, RxBits, RxSymbols, Schedule, ServiceConfig, Session, SessionBuffer,
    SessionOptions,
};
use std::collections::BTreeMap;
use std::io;
use std::sync::Arc;

/// Receiver-side knobs.
#[derive(Debug, Clone, Copy)]
pub struct ReceiverConfig {
    /// Pass budget per block: decode attempts stop once this many
    /// passes' worth of subpass boundaries have been tried.
    pub max_passes: usize,
    /// A gap at the drain cursor is declared lost (and skipped) once
    /// buffered observations extend this many symbols past it. Must
    /// exceed the link's realistic reordering depth, in symbols.
    pub skip_horizon: usize,
    /// Cap on out-of-order spans buffered per block. A duplicating or
    /// hostile link can otherwise grow the reorder buffer without
    /// bound; past the cap the farthest-ahead span is evicted (the
    /// rateless stream re-covers it with later symbols) and counted in
    /// [`SpinalReceiver::reorder_evictions`].
    pub max_pending_spans: usize,
}

impl Default for ReceiverConfig {
    fn default() -> Self {
        ReceiverConfig {
            max_passes: 8,
            skip_horizon: 96,
            max_pending_spans: 64,
        }
    }
}

/// A fresh session buffer matching the payload kind of the first span.
fn buffer_for_payload(payload: &Payload, schedule: &Schedule) -> SessionBuffer {
    match payload {
        Payload::Bits(_) => SessionBuffer::Bits(RxBits::new(schedule.clone())),
        _ => SessionBuffer::Symbols(RxSymbols::new(schedule.clone())),
    }
}

fn buffer_skip(buf: &mut SessionBuffer, count: usize) {
    match buf {
        SessionBuffer::Symbols(rx) => rx.skip(count),
        SessionBuffer::Bits(rx) => rx.skip(count),
    }
}

/// Fold a span into the session buffer, minus its first `skip_within`
/// observations (already consumed at the cursor by an earlier
/// overlapping span). Returns false — folding nothing — if the payload
/// kind does not match the buffer (an alien or corrupted datagram).
fn buffer_push_tail(buf: &mut SessionBuffer, payload: &Payload, skip_within: usize) -> bool {
    match (buf, payload) {
        (SessionBuffer::Symbols(rx), Payload::Symbols(ys)) => match ys.get(skip_within..) {
            Some(tail) => {
                rx.push(tail);
                true
            }
            None => false,
        },
        (SessionBuffer::Symbols(rx), Payload::SymbolsCsi(pairs)) => {
            match pairs.get(skip_within..) {
                Some(tail) => {
                    let (ys, hs): (Vec<_>, Vec<_>) = tail.iter().copied().unzip();
                    rx.push_with_csi(&ys, &hs);
                    true
                }
                None => false,
            }
        }
        (SessionBuffer::Bits(rx), Payload::Bits(bits)) => match bits.get(skip_within..) {
            Some(tail) => {
                rx.push(tail);
                true
            }
            None => false,
        },
        _ => false,
    }
}

/// The block CRC as the decoder's block check: it lets the beam ladder
/// accept a narrow rung's candidate exactly when the receiver would.
fn block_crc(msg: &Message) -> bool {
    FrameBuilder::new(msg.len_bits()).validate(msg).is_some()
}

/// Per-block receive state.
struct BlockState {
    /// The block's decode session, opened from the first span's payload
    /// kind (it owns the observation buffer and subpass position; its
    /// attempts run on the service's workspaces).
    session: Option<Session>,
    /// Out-of-order spans waiting for the cursor, keyed by offset.
    pending: BTreeMap<u32, Payload>,
    /// Next schedule offset the buffer expects.
    cursor: u32,
    decoded: bool,
}

impl BlockState {
    fn new() -> Self {
        BlockState {
            session: None,
            pending: BTreeMap::new(),
            cursor: 0,
            decoded: false,
        }
    }

    /// Buffer an out-of-order span, holding the reorder buffer at
    /// `cap` entries. When full, the span farthest ahead of the cursor
    /// is discarded — it is the least likely to drain soon, and the
    /// rateless stream re-covers its observations with later symbols.
    /// Returns the number of spans evicted (0 or 1).
    fn stash(&mut self, offset: u32, payload: Payload, cap: usize) -> u64 {
        if self.pending.contains_key(&offset) {
            return 0; // duplicate of a buffered span
        }
        if self.pending.len() >= cap.max(1) {
            let Some((&farthest, _)) = self.pending.last_key_value() else {
                return 0;
            };
            if offset >= farthest {
                return 1; // incoming span is the farthest ahead: drop it
            }
            self.pending.remove(&farthest);
            self.pending.insert(offset, payload);
            return 1;
        }
        self.pending.insert(offset, payload);
        0
    }

    /// Move pending spans into the session's observation buffer in
    /// schedule order; returns true if any observations were folded in.
    /// Without a session (admission refused) or with an attempt in
    /// flight, the spans stay pending.
    fn drain(&mut self, skip_horizon: usize) -> bool {
        let Some(buf) = self.session.as_mut().and_then(Session::buffer_mut) else {
            return false;
        };
        let mut moved = false;
        loop {
            // In-order (or cursor-overlapping) spans first.
            while let Some((&off, _)) = self.pending.first_key_value() {
                if off > self.cursor {
                    break;
                }
                let Some(payload) = self.pending.remove(&off) else {
                    break;
                };
                let end = off as usize + payload.len();
                if end <= self.cursor as usize {
                    continue; // stale duplicate, fully behind the cursor
                }
                let skip_within = (self.cursor - off) as usize;
                if buffer_push_tail(buf, &payload, skip_within) {
                    self.cursor = end as u32;
                    moved = true;
                }
            }
            // A leading gap: declare it lost once buffered observations
            // extend far enough past the cursor that reordering can no
            // longer explain the hole.
            let Some((&first, _)) = self.pending.first_key_value() else {
                break;
            };
            let buffered_end = self
                .pending
                .iter()
                .map(|(&off, p)| off as usize + p.len())
                .max()
                .unwrap_or(0);
            if buffered_end < self.cursor as usize + skip_horizon {
                break; // the gap may still fill in; wait
            }
            let gap = (first - self.cursor) as usize;
            buffer_skip(buf, gap);
            self.cursor = first;
        }
        moved
    }
}

/// One in-progress transfer.
struct TransferState {
    transfer_id: u64,
    reassembly: FrameReassembly,
    blocks: Vec<BlockState>,
    /// One decoder shared by every block session for the transfer's
    /// lifetime — no per-attempt decoder clones.
    decoder: Arc<BubbleDecoder>,
    boundaries: Vec<usize>,
    datagrams_received: u32,
    /// Settled attempts whose beam ladder escalated.
    escalations: usize,
}

impl TransferState {
    fn session(&mut self, idx: usize) -> Option<&mut Session> {
        self.blocks.get_mut(idx)?.session.as_mut()
    }

    /// Settle block `idx`'s in-flight attempt, if any: wait for it,
    /// offer the message to the CRC, and close the session (releasing
    /// its admission slot) if the CRC accepts. A structured failure (a
    /// worker panic) ends the attempt without a result; the session has
    /// already recovered its resources, so the block keeps collecting
    /// symbols and retries at the next boundary.
    fn settle(&mut self, idx: usize) {
        let Some(Ok(result)) = self.session(idx).and_then(Session::wait) else {
            return;
        };
        self.escalations += usize::from(result.escalated);
        if self.reassembly.offer(idx, &result.message) {
            if let Some(state) = self.blocks.get_mut(idx) {
                state.decoded = true;
                state.pending.clear(); // block finished; drop leftover spans
                state.session = None;
            }
        }
    }

    fn settle_all(&mut self) {
        for idx in 0..self.blocks.len() {
            self.settle(idx);
        }
    }

    /// Open block `idx`'s session, keyed on the payload kind of its
    /// first buffered span, unless it has one or buffers nothing. If
    /// the service refuses, settle and try once more; if it refuses
    /// again, the spans stay pending and a later datagram retries.
    fn open_session(&mut self, idx: usize, service: &DecodeService, schedule: &Schedule) {
        let admit = |t: &mut Self| {
            let Some(state) = t.blocks.get_mut(idx).filter(|s| s.session.is_none()) else {
                return true;
            };
            let Some((_, probe)) = state.pending.first_key_value() else {
                return true;
            };
            let buffer = buffer_for_payload(probe, schedule);
            match service.open_session(&t.decoder, buffer, SessionOptions::default()) {
                Ok(s) => {
                    state.session = Some(s);
                    true
                }
                Err(_) => false,
            }
        };
        if !admit(self) {
            self.settle_all();
            admit(self);
        }
    }

    /// Submit block `idx`'s next attempt if its buffer has crossed the
    /// next subpass boundary; returns true if an attempt was submitted.
    /// A refused submit settles and tries once more; if it is refused
    /// again, the position stays put, so the same boundary is retried
    /// on the next datagram.
    fn try_decode(&mut self, idx: usize) -> bool {
        let Some((received, position)) = self
            .session(idx)
            .and_then(|s| Some((s.buffer()?.symbols_received(), s.position())))
        else {
            return false;
        };
        // Nothing new past the next boundary, or the pass budget is spent.
        if self.boundaries.get(position).is_none_or(|&b| received < b) {
            return false;
        }
        // Consume every boundary the buffer has already sailed past:
        // one attempt per drain is enough.
        let mut next = position;
        while self.boundaries.get(next).is_some_and(|&b| b <= received) {
            next += 1;
        }
        let submit = |t: &mut Self| t.session(idx).is_some_and(|s| s.submit().is_ok());
        let submitted = submit(self) || {
            self.settle_all();
            submit(self)
        };
        if !submitted {
            return false;
        }
        if let Some(s) = self.session(idx) {
            s.set_position(next);
        }
        true
    }
}

/// The service a receiver that owns its service decodes a transfer of
/// `n_blocks` blocks on: a fresh one per Init, so its metrics describe
/// that transfer alone. Two or more blocks run on the process-wide
/// pool, which spawns nothing per transfer; one block decodes inline on
/// the caller's thread, since it has no sibling to overlap with.
fn own_service(n_blocks: usize) -> DecodeService {
    if n_blocks > 1 {
        DecodeService::shared(ServiceConfig::default())
    } else {
        DecodeService::new(1, ServiceConfig::default())
    }
}

/// Rateless receiver (see the module docs). Construct once with the
/// agreed code parameters; transfer geometry (length, block count)
/// arrives in the Init datagram.
pub struct SpinalReceiver {
    params: CodeParams,
    schedule: Schedule,
    cfg: ReceiverConfig,
    service: DecodeService,
    /// True when `service` is this receiver's own, taken afresh at each
    /// Init ([`SpinalReceiver::new`]); a caller's service is never
    /// replaced.
    owns_service: bool,
    transfer: Option<TransferState>,
    decode_attempts: usize,
    /// Escalations of the transfers an Init replaced.
    escalations_retired: usize,
    reorder_evictions: u64,
    /// Salvaged per-block bytes from an earlier interrupted transfer,
    /// keyed by the transfer id they may resume under.
    salvage: Option<(u64, Vec<Option<Vec<u8>>>)>,
    resumed_blocks: usize,
}

impl SpinalReceiver {
    /// Create a receiver for links whose sender uses `params`, with a
    /// [`DecodeService`] of its own, taken afresh at every Init. A
    /// transfer of two or more blocks decodes on a
    /// [`DecodeService::shared`] service: its attempts run on the
    /// process-wide pool of one worker per core, spawned by the first
    /// such transfer in the process and kept, idle, after it, so no
    /// transfer spawns or joins a thread. A one-block transfer, and the
    /// receiver before its first Init, decode inline at submit on a
    /// 1-thread service. Either way the service's admission limit,
    /// queue and metrics are this receiver's alone.
    pub fn new(params: &CodeParams, cfg: ReceiverConfig) -> Self {
        let mut receiver = Self::with_service(params, cfg, own_service(1));
        receiver.owns_service = true;
        receiver
    }

    /// Create a receiver whose block sessions run on `service` — share
    /// one service (and its engine, queue, and metrics) across many
    /// receivers to get the many-session operating shape. The receiver
    /// keeps `service` for its whole life.
    pub fn with_service(params: &CodeParams, cfg: ReceiverConfig, service: DecodeService) -> Self {
        assert!(cfg.max_passes >= 1, "max_passes must be at least 1");
        assert!(cfg.skip_horizon >= 1, "skip_horizon must be at least 1");
        SpinalReceiver {
            params: params.clone(),
            schedule: Schedule::new(params.num_spines(), params.tail, params.puncturing),
            cfg,
            service,
            owns_service: false,
            transfer: None,
            decode_attempts: 0,
            escalations_retired: 0,
            reorder_evictions: 0,
            salvage: None,
            resumed_blocks: 0,
        }
    }

    /// Stage salvaged per-block bytes (the
    /// [`PartialDelivery`](crate::TransferOutcome::PartialDelivery)
    /// blocks of an interrupted transfer) for re-seeding when an Init
    /// for `transfer_id` arrives with a matching resume bitmap. The
    /// bytes are trusted — they were CRC-accepted when salvaged — and
    /// only blocks the Init's resume bitmap also claims are re-seeded;
    /// anything else decodes from symbols like any other block.
    pub fn seed_salvage(&mut self, transfer_id: u64, blocks: Vec<Option<Vec<u8>>>) {
        self.salvage = Some((transfer_id, blocks));
    }

    /// The decode service backing this receiver's block sessions. For a
    /// receiver made by [`SpinalReceiver::new`] it is the one taken at
    /// the latest Init, so its metrics count that transfer's sessions
    /// and attempts alone, even when its workers are the process-wide
    /// pool's.
    pub fn service(&self) -> &DecodeService {
        &self.service
    }

    /// Drain every queued datagram, then send one cumulative feedback
    /// datagram if a transfer is active. The usual per-round call.
    pub fn pump<L: Datagram>(&mut self, link: &mut L) -> io::Result<()> {
        while let Some(buf) = link.recv()? {
            if let Some(pkt) = Packet::decode(&buf) {
                self.handle(pkt);
            }
        }
        if let Some(fb) = self.feedback() {
            link.send(&fb.encode())?;
        }
        Ok(())
    }

    /// Apply one parsed datagram to receiver state.
    pub fn handle(&mut self, pkt: Packet) {
        match pkt {
            Packet::Init {
                transfer_id,
                payload_len,
                n_blocks,
                block_bits,
                resume,
            } => self.handle_init(transfer_id, payload_len, n_blocks, block_bits, &resume),
            Packet::Data {
                transfer_id,
                block,
                offset,
                payload,
                ..
            } => self.handle_data(transfer_id, block, offset, payload),
            // Feedback flows the other way; a looped-back one is noise.
            Packet::Feedback { .. } => {}
        }
    }

    fn handle_init(
        &mut self,
        transfer_id: u64,
        payload_len: u32,
        n_blocks: u16,
        block_bits: u32,
        resume: &[bool],
    ) {
        let builder = FrameBuilder::new(self.params.n);
        // Accept only the geometry `FrameBuilder::build` produces: any
        // other block count could never complete, or would complete
        // with the wrong length.
        let block_bytes = builder.payload_bits() / 8;
        if block_bits as usize != self.params.n
            || usize::from(n_blocks) != (payload_len as usize).div_ceil(block_bytes).max(1)
        {
            return; // geometry we cannot decode
        }
        if let Some(t) = &self.transfer {
            if t.transfer_id == transfer_id {
                return; // duplicate Init for the active transfer
            }
        }
        // A new transfer replaces the active one; settle its attempts so
        // none completes stale.
        if let Some(mut old) = self.transfer.take() {
            old.settle_all();
            self.escalations_retired += old.escalations;
        }
        if self.owns_service {
            self.service = own_service(usize::from(n_blocks));
        }
        let mut t = TransferState {
            transfer_id,
            reassembly: FrameReassembly::new(
                builder.clone(),
                0,
                n_blocks as usize,
                payload_len as usize,
            ),
            blocks: (0..n_blocks).map(|_| BlockState::new()).collect(),
            decoder: Arc::new(
                BubbleDecoder::new(&self.params)
                    .with_profile(MetricProfile::Quantized)
                    .with_block_check(block_crc),
            ),
            boundaries: self
                .schedule
                .subpass_boundaries(self.cfg.max_passes * self.schedule.symbols_per_pass()),
            datagrams_received: 0,
            escalations: 0,
        };
        // Resume: re-seed every block the sender pre-acknowledged from
        // the salvage staged for this transfer. The sender will emit no
        // symbols for these blocks, so the salvaged bytes are their
        // only source.
        if !resume.is_empty() {
            if let Some((salvage_id, staged)) = &self.salvage {
                if *salvage_id == transfer_id {
                    for (idx, bytes) in staged.iter().enumerate() {
                        let (Some(true), Some(bytes)) = (resume.get(idx).copied(), bytes) else {
                            continue;
                        };
                        // Re-frame the salvaged bytes exactly as the
                        // sender framed the original block (zero-padded
                        // payload + CRC) and offer it for reassembly.
                        let candidates = builder.build(bytes);
                        let Some(framed) = candidates.first() else {
                            continue;
                        };
                        if t.reassembly.offer(idx, framed) {
                            if let Some(state) = t.blocks.get_mut(idx) {
                                state.decoded = true;
                            }
                            self.resumed_blocks += 1;
                        }
                    }
                }
            }
        }
        self.transfer = Some(t);
    }

    fn handle_data(&mut self, transfer_id: u64, block: u16, offset: u32, payload: Payload) {
        let Some(t) = &mut self.transfer else {
            return; // Init not seen yet; the sender will re-send it
        };
        if t.transfer_id != transfer_id {
            return;
        }
        let idx = usize::from(block);
        if idx >= t.blocks.len() {
            return;
        }
        t.datagrams_received += 1;
        // A span at or past the pass budget can feed no attempt; buffered,
        // it would only make the gap skip step the schedule cursor once
        // per missing symbol, up to 2^32 times.
        let budget = t.boundaries.last().copied().unwrap_or(0);
        if payload.is_empty() || offset as usize >= budget {
            return;
        }
        // The block's in-flight attempt may have decoded it.
        t.settle(idx);
        let Some(state) = t.blocks.get_mut(idx) else {
            return;
        };
        if state.decoded {
            return;
        }
        // Stash the span unless it is entirely behind the cursor (a
        // duplicate of something already drained or skipped). The
        // reorder buffer is capped; overflow evicts the farthest span.
        if offset as usize + payload.len() > state.cursor as usize {
            self.reorder_evictions += state.stash(offset, payload, self.cfg.max_pending_spans);
        }
        t.open_session(idx, &self.service, &self.schedule);
        if t.blocks
            .get_mut(idx)
            .is_some_and(|state| state.drain(self.cfg.skip_horizon))
            && t.try_decode(idx)
        {
            self.decode_attempts += 1;
        }
    }

    /// The active transfer, with every in-flight attempt settled.
    fn settled(&mut self) -> Option<&TransferState> {
        let t = self.transfer.as_mut()?;
        t.settle_all();
        Some(t)
    }

    /// The cumulative feedback datagram for the active transfer, if any.
    /// Settles every in-flight attempt first.
    pub fn feedback(&mut self) -> Option<Packet> {
        let t = self.settled()?;
        Some(Packet::Feedback {
            transfer_id: t.transfer_id,
            received: t.datagrams_received,
            decoded: t.reassembly.ack_bitmap(),
        })
    }

    /// True once every block of the active transfer has decoded.
    /// Settles every in-flight attempt first.
    pub fn complete(&mut self) -> bool {
        self.settled().is_some_and(|t| t.reassembly.complete())
    }

    /// The delivered payload, once [`SpinalReceiver::complete`].
    /// Settles every in-flight attempt first.
    pub fn payload(&mut self) -> Option<Vec<u8>> {
        self.settled()
            .and_then(|t| t.reassembly.clone().into_datagram())
    }

    /// Decode attempts submitted so far (across all blocks) — the
    /// receiver's compute-cost counter. An attempt's cost depends on
    /// whether it escalated: one that did ran both rungs of the beam
    /// ladder, one that did not ran a single beam (see
    /// [`SpinalReceiver::escalations`]).
    pub fn decode_attempts(&self) -> usize {
        self.decode_attempts
    }

    /// Settled attempts whose beam ladder escalated: the block CRC
    /// rejected the `B/16` candidate, so the attempt also ran the
    /// configured beam. Each escalation is one more wrong candidate
    /// offered to the CRC. Always 0 on a punctured schedule or at
    /// `B < 32`, where the ladder is off. Settles every in-flight
    /// attempt first.
    pub fn escalations(&mut self) -> usize {
        let current = self.settled().map_or(0, |t| t.escalations);
        self.escalations_retired + current
    }

    /// Spans discarded because a block's reorder buffer hit
    /// [`ReceiverConfig::max_pending_spans`] — the memory-bound
    /// accounting surfaced in `TransferReport`.
    pub fn reorder_evictions(&self) -> u64 {
        self.reorder_evictions
    }

    /// Blocks re-seeded from staged salvage on a resumed transfer —
    /// these cost zero symbols and zero decode attempts.
    pub fn resumed_blocks(&self) -> usize {
        self.resumed_blocks
    }

    /// Out-of-order spans currently buffered across all blocks; bounded
    /// by `n_blocks × max_pending_spans` by construction. A block whose
    /// in-flight attempt decodes drops its spans when that attempt is
    /// settled.
    pub fn pending_spans(&self) -> usize {
        self.transfer
            .as_ref()
            .map(|t| t.blocks.iter().map(|b| b.pending.len()).sum())
            .unwrap_or(0)
    }

    /// Blocks whose CRC has validated so far. Settles every in-flight
    /// attempt first.
    pub fn blocks_decoded(&mut self) -> usize {
        self.settled().map_or(0, |t| t.reassembly.blocks_decoded())
    }

    /// Blocks in the active transfer (0 before Init arrives).
    pub fn n_blocks(&self) -> usize {
        self.transfer
            .as_ref()
            .map(|t| t.reassembly.n_blocks())
            .unwrap_or(0)
    }

    /// The CRC-accepted payload bytes per block (`None` = missing) —
    /// what a caller salvages when the transfer ends degraded. Empty
    /// before Init arrives. Settles every in-flight attempt first.
    pub fn partial_blocks(&mut self) -> Vec<Option<Vec<u8>>> {
        self.settled()
            .map(|t| t.reassembly.block_payloads())
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spinal_core::{Encoder, Message};

    fn params() -> CodeParams {
        CodeParams::default().with_n(64).with_b(32)
    }

    fn init_pkt(n_blocks: u16, payload_len: u32) -> Packet {
        Packet::Init {
            transfer_id: 1,
            payload_len,
            n_blocks,
            block_bits: 64,
            resume: vec![],
        }
    }

    /// Clean noiseless spans for one block of `payload`, chunked.
    fn spans(p: &CodeParams, msg: &Message, total: usize, chunk: usize) -> Vec<(u32, Payload)> {
        let mut enc = Encoder::new(p, msg);
        let mut out = Vec::new();
        let mut off = 0usize;
        while off < total {
            let count = chunk.min(total - off);
            out.push((off as u32, Payload::Symbols(enc.next_symbols(count))));
            off += count;
        }
        out
    }

    fn data_pkt(block: u16, off: u32, payload: Payload) -> Packet {
        Packet::Data {
            transfer_id: 1,
            seq: 0,
            block,
            offset: off,
            payload,
        }
    }

    #[test]
    fn in_order_delivery_decodes_and_acks() {
        let p = params();
        let payload = b"hello";
        let msg = FrameBuilder::new(p.n).build(payload).remove(0);
        let mut r = SpinalReceiver::new(&p, ReceiverConfig::default());
        r.handle(init_pkt(1, payload.len() as u32));
        let spp = Schedule::new(p.num_spines(), p.tail, p.puncturing).symbols_per_pass();
        for (off, span) in spans(&p, &msg, 2 * spp, 7) {
            r.handle(data_pkt(0, off, span));
        }
        assert!(r.complete(), "clean 2-pass delivery must decode");
        assert_eq!(r.payload().unwrap(), payload.to_vec());
        match r.feedback().unwrap() {
            Packet::Feedback { decoded, .. } => assert_eq!(decoded, vec![true]),
            other => panic!("unexpected {other:?}"),
        }
        assert!(r.decode_attempts() >= 1);
    }

    #[test]
    fn reordered_and_duplicated_spans_still_decode() {
        let p = params();
        let payload = b"reordr";
        let msg = FrameBuilder::new(p.n).build(payload).remove(0);
        let mut r = SpinalReceiver::new(&p, ReceiverConfig::default());
        r.handle(init_pkt(1, payload.len() as u32));
        let spp = Schedule::new(p.num_spines(), p.tail, p.puncturing).symbols_per_pass();
        let mut all = spans(&p, &msg, 2 * spp, 5);
        // Swap adjacent pairs and duplicate every third span.
        for i in (0..all.len() - 1).step_by(2) {
            all.swap(i, i + 1);
        }
        let dups: Vec<_> = all.iter().step_by(3).cloned().collect();
        all.extend(dups);
        for (off, span) in all {
            r.handle(data_pkt(0, off, span));
        }
        assert!(r.complete());
        assert_eq!(r.payload().unwrap(), payload.to_vec());
    }

    #[test]
    fn lost_span_is_skipped_after_horizon_and_later_passes_recover() {
        let p = params();
        let payload = b"lossy";
        let msg = FrameBuilder::new(p.n).build(payload).remove(0);
        let cfg = ReceiverConfig {
            skip_horizon: 16,
            ..ReceiverConfig::default()
        };
        let mut r = SpinalReceiver::new(&p, cfg);
        r.handle(init_pkt(1, payload.len() as u32));
        let spp = Schedule::new(p.num_spines(), p.tail, p.puncturing).symbols_per_pass();
        // Drop the second span of the first pass entirely; send three
        // passes so the rateless stream compensates.
        for (i, (off, span)) in spans(&p, &msg, 3 * spp, 5).into_iter().enumerate() {
            if i == 1 {
                continue;
            }
            r.handle(data_pkt(0, off, span));
        }
        assert!(r.complete(), "loss within budget must still decode");
        assert_eq!(r.payload().unwrap(), payload.to_vec());
    }

    #[test]
    fn data_before_init_is_ignored_until_init_arrives() {
        let p = params();
        let payload = b"init";
        let msg = FrameBuilder::new(p.n).build(payload).remove(0);
        let mut r = SpinalReceiver::new(&p, ReceiverConfig::default());
        let spp = Schedule::new(p.num_spines(), p.tail, p.puncturing).symbols_per_pass();
        let all = spans(&p, &msg, 2 * spp, 9);
        // First pass arrives before Init: dropped on the floor.
        for (off, span) in &all[..all.len() / 2] {
            r.handle(data_pkt(0, *off, span.clone()));
        }
        assert!(r.feedback().is_none());
        r.handle(init_pkt(1, payload.len() as u32));
        // The sender keeps streaming (and the receiver skips the part it
        // never buffered): replay everything from the start as a sender
        // re-sending passes would not — instead deliver the full stream.
        for (off, span) in all {
            r.handle(data_pkt(0, off, span));
        }
        assert!(r.complete());
        assert_eq!(r.payload().unwrap(), payload.to_vec());
    }

    #[test]
    fn reorder_buffer_is_capped_and_evictions_are_counted() {
        let p = params();
        let payload = b"capped";
        let msg = FrameBuilder::new(p.n).build(payload).remove(0);
        let cfg = ReceiverConfig {
            max_pending_spans: 4,
            skip_horizon: 1_000_000, // never skip: everything must buffer
            ..ReceiverConfig::default()
        };
        let mut r = SpinalReceiver::new(&p, cfg);
        r.handle(init_pkt(1, payload.len() as u32));
        let spp = Schedule::new(p.num_spines(), p.tail, p.puncturing).symbols_per_pass();
        // A hostile stream of far-ahead spans with a permanent gap at
        // the cursor: nothing drains, so the buffer must clamp at the
        // cap and count every overflow.
        let far = spans(&p, &msg, 2 * spp, 3);
        let n_far = far.len() - 1;
        for (off, span) in far.into_iter().skip(1) {
            r.handle(data_pkt(0, off, span));
        }
        assert!(n_far > 4, "need more spans than the cap");
        assert_eq!(r.pending_spans(), 4, "buffer must clamp at the cap");
        assert_eq!(r.reorder_evictions(), (n_far - 4) as u64);
        assert_eq!(r.blocks_decoded(), 0);
        assert!(r.partial_blocks().iter().all(|b| b.is_none()));
    }

    #[test]
    fn span_past_the_pass_budget_is_dropped_and_the_block_still_decodes() {
        let p = params();
        let payload = b"budget";
        let msg = FrameBuilder::new(p.n).build(payload).remove(0);
        let cfg = ReceiverConfig::default();
        let spp = Schedule::new(p.num_spines(), p.tail, p.puncturing).symbols_per_pass();
        let budget = (cfg.max_passes * spp) as u32;
        let hostile = spans(&p, &msg, 8, 8).remove(0).1;
        for offset in [budget, u32::MAX - 200] {
            let mut r = SpinalReceiver::new(&p, cfg);
            r.handle(init_pkt(1, payload.len() as u32));
            // A span no attempt can reach arrives first; skipping the gap
            // up to it would stall the receiver and ruin the block.
            r.handle(data_pkt(0, offset, hostile.clone()));
            for (off, span) in spans(&p, &msg, 3 * spp, 7) {
                r.handle(data_pkt(0, off, span));
            }
            assert!(r.complete(), "offset {offset}: clean stream must decode");
            assert_eq!(r.payload().unwrap(), payload.to_vec());
            assert_eq!(r.pending_spans(), 0, "offset {offset}");
        }
    }

    #[test]
    fn partial_blocks_salvages_decoded_prefix() {
        let p = params();
        // Two blocks; deliver only block 0's symbols.
        let payload: Vec<u8> = (0u8..10).collect(); // 6-byte blocks → 2 blocks
        let msgs = FrameBuilder::new(p.n).build(&payload);
        assert_eq!(msgs.len(), 2);
        let mut r = SpinalReceiver::new(&p, ReceiverConfig::default());
        r.handle(init_pkt(2, payload.len() as u32));
        let spp = Schedule::new(p.num_spines(), p.tail, p.puncturing).symbols_per_pass();
        for (off, span) in spans(&p, &msgs[0], 2 * spp, 7) {
            r.handle(data_pkt(0, off, span));
        }
        assert!(!r.complete());
        assert_eq!(r.blocks_decoded(), 1);
        assert_eq!(r.n_blocks(), 2);
        let blocks = r.partial_blocks();
        assert_eq!(blocks.len(), 2);
        assert_eq!(blocks[0].as_deref(), Some(&payload[..6]));
        assert!(blocks[1].is_none());
        assert!(r.payload().is_none(), "incomplete: no full payload");
    }

    #[test]
    fn mismatched_block_bits_rejects_transfer() {
        let p = params();
        let mut r = SpinalReceiver::new(&p, ReceiverConfig::default());
        r.handle(Packet::Init {
            transfer_id: 1,
            payload_len: 4,
            n_blocks: 1,
            block_bits: 128, // receiver expects 64
            resume: vec![],
        });
        assert!(r.feedback().is_none());
    }

    #[test]
    fn init_whose_length_does_not_fit_its_block_count_is_ignored() {
        // n = 64 carries 6 payload bytes per block.
        let p = params();
        for (payload_len, n_blocks) in [(1000, 1), (u32::MAX, 1), (6, 3)] {
            let mut r = SpinalReceiver::new(&p, ReceiverConfig::default());
            r.handle(init_pkt(n_blocks, payload_len));
            assert!(
                r.feedback().is_none(),
                "Init{{payload_len: {payload_len}, n_blocks: {n_blocks}}} was accepted"
            );
        }
    }

    #[test]
    fn staged_salvage_reseeds_resumed_blocks_on_init() {
        let p = params();
        let payload: Vec<u8> = (0u8..10).collect(); // 2 blocks of 6/4 bytes
        let mut r = SpinalReceiver::new(&p, ReceiverConfig::default());
        // Block 0 was salvaged from an earlier interrupted transfer.
        r.seed_salvage(2, vec![Some(payload[..6].to_vec()), None]);
        r.handle(Packet::Init {
            transfer_id: 2,
            payload_len: payload.len() as u32,
            n_blocks: 2,
            block_bits: 64,
            resume: vec![true, false],
        });
        assert_eq!(r.resumed_blocks(), 1);
        assert_eq!(r.blocks_decoded(), 1);
        assert_eq!(r.decode_attempts(), 0, "salvage costs no decode");
        let blocks = r.partial_blocks();
        assert_eq!(blocks[0].as_deref(), Some(&payload[..6]));
        assert!(blocks[1].is_none());
        // Feedback immediately ACKs the re-seeded block.
        match r.feedback().unwrap() {
            Packet::Feedback { decoded, .. } => assert_eq!(decoded, vec![true, false]),
            other => panic!("unexpected {other:?}"),
        }
        // Deliver block 1's symbols normally: the transfer completes.
        let msgs = FrameBuilder::new(p.n).build(&payload);
        let spp = Schedule::new(p.num_spines(), p.tail, p.puncturing).symbols_per_pass();
        for (off, span) in spans(&p, &msgs[1], 2 * spp, 7) {
            r.handle(Packet::Data {
                transfer_id: 2,
                seq: 0,
                block: 1,
                offset: off,
                payload: span,
            });
        }
        assert!(r.complete());
        assert_eq!(r.payload().unwrap(), payload);
    }

    #[test]
    fn resume_bits_without_staged_salvage_seed_nothing() {
        let p = params();
        let mut r = SpinalReceiver::new(&p, ReceiverConfig::default());
        r.handle(Packet::Init {
            transfer_id: 3,
            payload_len: 10,
            n_blocks: 2,
            block_bits: 64,
            resume: vec![true, true],
        });
        assert_eq!(r.resumed_blocks(), 0);
        assert_eq!(r.blocks_decoded(), 0);
        // Salvage staged under a different transfer id is ignored too.
        let mut r = SpinalReceiver::new(&p, ReceiverConfig::default());
        r.seed_salvage(99, vec![Some(vec![1, 2, 3]), None]);
        r.handle(Packet::Init {
            transfer_id: 3,
            payload_len: 10,
            n_blocks: 2,
            block_bits: 64,
            resume: vec![true, false],
        });
        assert_eq!(r.resumed_blocks(), 0);
    }
}
