//! The unified decode entry point: one request builder over every
//! dispatch combination.
//!
//! A decode is a decoder, observations, and one optional resource: a
//! caller-held [`DecodeWorkspace`]. [`DecodeRequest`] names them in one
//! builder:
//!
//! ```
//! use spinal_core::{BubbleDecoder, CodeParams, DecodeRequest, DecodeWorkspace};
//! # use spinal_core::{Encoder, Message, RxSymbols, Schedule};
//! # use spinal_channel::{AwgnChannel, Channel};
//! # let params = CodeParams::default().with_n(64);
//! # let message = Message::from_bytes(vec![1, 2, 3, 4, 5, 6, 7, 8], 64);
//! # let mut encoder = Encoder::new(&params, &message);
//! # let tx = encoder.next_symbols(2 * params.symbols_per_pass());
//! # let mut channel = AwgnChannel::new(15.0, 7);
//! # let schedule = Schedule::new(params.num_spines(), params.tail, params.puncturing);
//! # let mut rx = RxSymbols::new(schedule);
//! # rx.push(&channel.transmit(&tx));
//! let decoder = BubbleDecoder::new(&params);
//! let mut ws = DecodeWorkspace::new();
//!
//! // One-shot:
//! let out = DecodeRequest::new(&decoder, &rx).decode();
//!
//! // Hot loop: reuse the workspace's buffers on every attempt:
//! let again = DecodeRequest::new(&decoder, &rx).workspace(&mut ws).decode();
//! assert_eq!(out.message, again.message);
//! ```
//!
//! The observation kind is a value, not a method name:
//! [`RxObservations`] unifies [`RxSymbols`] (AWGN/fading, soft metric)
//! and [`RxBits`] (BSC, Hamming metric), and `DecodeRequest::new`
//! accepts either buffer directly through `Into`.
//!
//! # Dispatch semantics
//!
//! Every combination resolves to exactly one decoder code path; each
//! runs on a fresh workspace unless one is supplied, and all agree bit
//! for bit (the recorded decode corpus pins them):
//!
//! | request | resolves to |
//! |---------|-------------|
//! | symbols | workspace decode, its tables built from the buffer in one pass |
//! | bits | workspace Hamming decode |
//!
//! A request decodes one block on the calling thread. To decode many
//! blocks across cores, use a [`DecodeService`](crate::DecodeService):
//! hand it the blocks whole with
//! [`decode_batch`](crate::DecodeService::decode_batch), or stream them
//! through one session per block.

use crate::decoder::{BubbleDecoder, DecodeResult, DecodeWorkspace};
use crate::rx::{RxBits, RxSymbols};

/// A receive buffer of either observation kind: complex symbols
/// (AWGN/fading, Euclidean branch metric) or hard bits (BSC, Hamming
/// branch metric). [`DecodeRequest::new`] takes `impl Into<RxObservations>`,
/// so `&RxSymbols` and `&RxBits` are accepted directly.
#[derive(Debug, Clone, Copy)]
pub enum RxObservations<'a> {
    /// Complex observations (see [`RxSymbols`]).
    Symbols(&'a RxSymbols),
    /// Hard-bit observations (see [`RxBits`]).
    Bits(&'a RxBits),
}

impl RxObservations<'_> {
    /// Total observations received into the buffer.
    pub fn symbols_received(&self) -> usize {
        match self {
            RxObservations::Symbols(rx) => rx.symbols_received(),
            RxObservations::Bits(rx) => rx.symbols_received(),
        }
    }

    /// Number of spine values the buffer is organised around.
    pub fn n_spines(&self) -> usize {
        match self {
            RxObservations::Symbols(rx) => rx.n_spines(),
            RxObservations::Bits(rx) => rx.n_spines(),
        }
    }
}

impl<'a> From<&'a RxSymbols> for RxObservations<'a> {
    fn from(rx: &'a RxSymbols) -> Self {
        RxObservations::Symbols(rx)
    }
}

impl<'a> From<&'a RxBits> for RxObservations<'a> {
    fn from(rx: &'a RxBits) -> Self {
        RxObservations::Bits(rx)
    }
}

/// One decode, described declaratively: which decoder, which
/// observations, and which workspace the attempt may use. See the
/// [module docs](self) for the dispatch table.
#[must_use = "a DecodeRequest does nothing until .decode() is called"]
#[derive(Debug)]
pub struct DecodeRequest<'a> {
    decoder: &'a BubbleDecoder,
    rx: RxObservations<'a>,
    workspace: Option<&'a mut DecodeWorkspace>,
}

impl<'a> DecodeRequest<'a> {
    /// Start a request: decode `rx` (symbols or bits) with `decoder`.
    pub fn new(decoder: &'a BubbleDecoder, rx: impl Into<RxObservations<'a>>) -> Self {
        DecodeRequest {
            decoder,
            rx: rx.into(),
            workspace: None,
        }
    }

    /// Reuse the caller's buffers: zero decode-path allocation once `ws`
    /// is warm. Without this, the decode allocates (and drops) a fresh
    /// [`DecodeWorkspace`].
    pub fn workspace(mut self, ws: &'a mut DecodeWorkspace) -> Self {
        self.workspace = Some(ws);
        self
    }

    /// Run the decode through the code path the module-level dispatch
    /// table names.
    pub fn decode(self) -> DecodeResult {
        let DecodeRequest {
            decoder,
            rx,
            workspace,
        } = self;
        let mut local;
        let ws = match workspace {
            Some(ws) => ws,
            None => {
                local = DecodeWorkspace::new();
                &mut local
            }
        };
        match rx {
            RxObservations::Symbols(rx) => decoder.decode_symbols_impl(rx, ws),
            RxObservations::Bits(rx) => decoder.decode_bits_impl(rx, ws),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::Message;
    use crate::encoder::Encoder;
    use crate::params::CodeParams;
    use crate::puncturing::Schedule;
    use crate::quant::MetricProfile;
    use spinal_channel::{AwgnChannel, BitChannel, BscChannel, Channel};

    fn setup(n: usize, seed: u64) -> (CodeParams, Message, RxSymbols) {
        let params = CodeParams::default().with_n(n).with_b(32);
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let msg = Message::random(n, || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 56) as u8
        });
        let mut enc = Encoder::new(&params, &msg);
        let schedule = Schedule::new(params.num_spines(), params.tail, params.puncturing);
        let mut rx = RxSymbols::new(schedule);
        let mut ch = AwgnChannel::new(12.0, seed ^ 0xFEED);
        rx.push(&ch.transmit(&enc.next_symbols(3 * params.symbols_per_pass())));
        (params, msg, rx)
    }

    #[test]
    fn every_resource_combination_agrees() {
        let (params, msg, rx) = setup(64, 3);
        for profile in [MetricProfile::Exact, MetricProfile::Quantized] {
            let dec = BubbleDecoder::new(&params).with_profile(profile);
            let base = DecodeRequest::new(&dec, &rx).decode();
            assert_eq!(base.message, msg, "{profile:?}");

            // A fresh workspace, then the same one warm.
            let mut ws = DecodeWorkspace::new();
            let combos: [DecodeResult; 2] = [
                DecodeRequest::new(&dec, &rx).workspace(&mut ws).decode(),
                DecodeRequest::new(&dec, &rx).workspace(&mut ws).decode(),
            ];
            for (i, out) in combos.iter().enumerate() {
                assert_eq!(out.message, base.message, "{profile:?} combo {i}");
                assert_eq!(
                    out.cost.to_bits(),
                    base.cost.to_bits(),
                    "{profile:?} combo {i}"
                );
            }
        }
    }

    #[test]
    fn bits_requests_decode_through_a_workspace() {
        let params = CodeParams::default().with_n(64).with_b(32);
        let mut state = 0x5EEDu64;
        let msg = Message::random(64, || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 56) as u8
        });
        let mut enc = Encoder::new(&params, &msg);
        let schedule = Schedule::new(params.num_spines(), params.tail, params.puncturing);
        let mut rx = RxBits::new(schedule);
        let mut ch = BscChannel::new(0.02, 9);
        rx.push(&ch.transmit_bits(&enc.next_bits(8 * params.symbols_per_pass())));

        let dec = BubbleDecoder::new(&params);
        let base = DecodeRequest::new(&dec, &rx).decode();
        assert_eq!(base.message, msg);

        let mut ws = DecodeWorkspace::new();
        let reused = DecodeRequest::new(&dec, &rx).workspace(&mut ws).decode();
        assert_eq!(reused.message, base.message);
        assert_eq!(reused.cost.to_bits(), base.cost.to_bits());
    }

    #[test]
    fn observations_accessors_cover_both_kinds() {
        let (params, _, rx) = setup(64, 5);
        let obs: RxObservations = (&rx).into();
        assert_eq!(obs.symbols_received(), rx.symbols_received());
        assert_eq!(obs.n_spines(), params.num_spines());

        let schedule = Schedule::new(params.num_spines(), params.tail, params.puncturing);
        let mut bits = RxBits::new(schedule);
        bits.push(&[true, false, true]);
        let obs: RxObservations = (&bits).into();
        assert_eq!(obs.symbols_received(), 3);
        assert_eq!(obs.n_spines(), params.num_spines());
    }
}
