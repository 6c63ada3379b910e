//! # Spinal codes
//!
//! A from-scratch implementation of **spinal codes** — the rateless code
//! of Perry, Iannucci, Fleming, Balakrishnan & Shah (SIGCOMM 2012) — with
//! the paper's bubble decoder, puncturing schedules, and link-layer
//! framing.
//!
//! The key idea (§3): apply a hash function sequentially over k-bit groups
//! of the message to build a *spine* of pseudo-random states; seed an RNG
//! with each state to emit as many constellation symbols as the channel
//! requires. Two messages differing in any bit produce unrelated symbols
//! after the divergence point, and the decoder exploits the sequential
//! structure to search a tree of prefixes with a pruned beam (§4).
//!
//! ## Quick start
//!
//! ```
//! use spinal_core::{
//!     BubbleDecoder, CodeParams, DecodeRequest, Encoder, Message, RxSymbols, Schedule,
//! };
//! use spinal_channel::{AwgnChannel, Channel};
//!
//! let params = CodeParams::default().with_n(64); // n=64, k=4, c=6, B=256
//! let message = Message::from_bytes(vec![0xDE, 0xAD, 0xBE, 0xEF, 1, 2, 3, 4], 64);
//!
//! // Sender: stream symbols.
//! let mut encoder = Encoder::new(&params, &message);
//! let tx = encoder.next_symbols(2 * params.symbols_per_pass());
//!
//! // Channel: 15 dB AWGN.
//! let mut channel = AwgnChannel::new(15.0, 7);
//! let rx_symbols = channel.transmit(&tx);
//!
//! // Receiver: buffer and decode.
//! let schedule = Schedule::new(params.num_spines(), params.tail, params.puncturing);
//! let mut rx = RxSymbols::new(schedule);
//! rx.push(&rx_symbols);
//! let decoder = BubbleDecoder::new(&params);
//! let decoded = DecodeRequest::new(&decoder, &rx).decode();
//! assert_eq!(decoded.message, message);
//! ```
//!
//! ## Module map
//!
//! | module | paper | contents |
//! |--------|-------|----------|
//! | [`bits`] | §3 | message bit strings |
//! | [`hash`] | §3.2, §7.1 | one-at-a-time, lookup3, Salsa20 |
//! | [`spine`] | §3.1 | spine construction |
//! | [`symbols`] | §3.3, §7.1 | RNG + symbol regeneration |
//! | [`constellation`] | §3.3 | uniform & truncated-Gaussian maps |
//! | [`puncturing`] | §5 | strided subpass schedules |
//! | [`encoder`] | §3 | the rateless encoder |
//! | [`rx`] | §4.2 | receive buffers (AWGN/fading/BSC) |
//! | [`decoder`] | §4 | the bubble decoder |
//! | [`api`] | §4, §7.1 | [`DecodeRequest`]: the single decode entry point |
//! | [`quant`] | §7 | fixed-point metric profile: u16 tables, saturating u32 costs, radix selection |
//! | [`engine`] | §7 | multi-threaded decode engine: whole blocks across a worker pool (batch, submit/drain) |
//! | [`service`] | §7.1 | many-session decode service: per-session state, backpressure, metrics |
//! | [`ml`] | §4.1 | exhaustive exact-ML reference decoder |
//! | [`sequential`] | §4.3 | classical stack sequential decoder |
//! | [`bitmode`] | §3 | spinal over an existing PHY (coded bits + LLRs) |
//! | [`framing`] | §6 | CRC-16 code blocks, ACK bitmaps |
//!
//! Everything here is deterministic given its inputs; all randomness
//! (noise, message choice) lives with the caller — which is what makes the
//! encoder/decoder pair testable bit-for-bit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod bitmode;
pub mod bits;
pub mod constellation;
pub mod decoder;
pub mod encoder;
pub mod engine;
pub mod framing;
pub mod hash;
pub mod ml;
pub mod params;
pub mod puncturing;
pub mod quant;
pub mod rx;
pub mod sequential;
pub mod service;
pub mod spine;
pub mod symbols;
mod tables;

pub use api::{DecodeRequest, RxObservations};
pub use bitmode::{BitEncoder, BitModeDecoder, RxLlrs};
pub use bits::Message;
pub use constellation::{Constellation, MappingKind};
pub use decoder::{BubbleDecoder, DecodeResult, DecodeWorkspace};
pub use encoder::Encoder;
pub use engine::{DecodeEngine, DecodeFailure, EngineStats, WatchdogConfig, WatchdogPolicy};
pub use framing::{crc16, FrameBuilder, FrameReassembly, CRC_BITS};
pub use hash::HashKind;
pub use ml::MlDecoder;
pub use params::CodeParams;
pub use puncturing::{Puncturing, Schedule, ScheduleCursor, SymbolPosition};
pub use quant::MetricProfile;
pub use rx::{RxBits, RxEntry, RxSymbols};
pub use sequential::{StackDecoder, StackResult};
pub use service::{
    AdmitError, BreakerConfig, BreakerScope, BrownoutConfig, DecodeService, MetricsSnapshot,
    SchedulePolicy, ServiceConfig, Session, SessionBuffer, SessionOptions, SubmitError,
};
pub use symbols::SymbolGen;
pub use tables::TableCache;
