//! # spinal-codes — a full-system reproduction of *Spinal Codes* (SIGCOMM 2012)
//!
//! This facade crate re-exports the whole workspace:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`core`] | `spinal-core` | the paper's contribution: encoder, bubble decoder, puncturing, framing |
//! | [`channel`] | `spinal-channel` | AWGN / BSC / Rayleigh models + capacity math |
//! | [`bounds`] | `spinal-bounds` | analytic ML BLER upper bounds (AWGN, Rayleigh) + error floor |
//! | [`modem`] | `spinal-modem` | Gray QAM, soft demapping, FFT, OFDM PAPR |
//! | [`ldpc`] | `spinal-ldpc` | 802.11n-class QC-LDPC + 40-iteration BP (baseline) |
//! | [`raptor`] | `spinal-raptor` | RFC 5053 LT + rate-0.95 precode (baseline) |
//! | [`strider`] | `spinal-strider` | rate-1/5 turbo + 33-layer SIC (baseline) |
//! | [`sim`] | `spinal-sim` | the generic rateless execution engine + statistics |
//! | [`net`] | `spinal-net` | rateless UDP-style transport: wire format, feedback loop, reorder buffer |
//! | [`hw`] | `spinal-hw` | Appendix B hardware decoder cycle model |
//!
//! See `README.md` for a tour, `DESIGN.md` for the system inventory, and
//! `EXPERIMENTS.md` for paper-vs-measured results. Runnable examples live
//! in `examples/`; the per-figure reproduction binaries in `crates/bench`.

#![forbid(unsafe_code)]

pub use spinal_bounds as bounds;
pub use spinal_channel as channel;
pub use spinal_core as core;
pub use spinal_hw as hw;
pub use spinal_ldpc as ldpc;
pub use spinal_modem as modem;
pub use spinal_net as net;
pub use spinal_raptor as raptor;
pub use spinal_sim as sim;
pub use spinal_strider as strider;

// The types a typical user touches, flattened for convenience.
pub use spinal_bounds::{BoundChannel, SpinalBound};
pub use spinal_channel::{
    AwgnChannel, BscChannel, Channel, Complex, GeParams, GilbertElliott, RayleighChannel,
};
pub use spinal_core::{
    AdmitError, BubbleDecoder, CodeParams, DecodeRequest, DecodeService, DecodeWorkspace, Encoder,
    FrameBuilder, HashKind, MappingKind, Message, MetricsSnapshot, Puncturing, RxBits,
    RxObservations, RxSymbols, Schedule, ServiceConfig, Session, SessionBuffer, SessionOptions,
    SubmitError,
};
pub use spinal_sim::{LinkChannel, SpinalRun, Threads};
