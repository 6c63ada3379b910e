//! Rateless UDP-style transport for spinal codes.
//!
//! The paper's decoder consumes a growing buffer of noisy observations;
//! this crate supplies the missing piece between that buffer and an
//! actual unreliable packet network. It implements the §6/§7.1 system
//! loop as a wire protocol:
//!
//! * [`wire`] — a framed datagram format (`Init` geometry, sequence-
//!   numbered `Data` symbol spans, cumulative `Feedback` ACK bitmaps),
//!   bounds-checked on parse.
//! * [`link`] — the dumb I/O layer: a [`Datagram`] trait with an
//!   in-memory [`LoopbackLink`] that routes symbol payloads through
//!   `spinal-channel` noise (AWGN, Rayleigh-with-CSI, BSC) plus seeded
//!   datagram loss/duplication/reordering, and a real
//!   [`std::net::UdpSocket`] binding ([`UdpLink`]).
//! * [`sender`] — CRC-framed blocks ([`spinal_core::FrameBuilder`]),
//!   one rateless encoder per block, one subpass per feedback round for
//!   every unacknowledged block; nothing is ever retransmitted.
//! * [`receiver`] — a per-block reorder buffer drained in schedule
//!   order, permanent gaps skipped after a reordering horizon, and
//!   quantized-profile decode attempts at subpass boundaries, one
//!   [`spinal_core::Session`] per block on a pooled
//!   [`spinal_core::DecodeService`]: attempts of all ready blocks run at
//!   once and are settled before the block takes more data or feedback
//!   is built. CRC is the only success signal.
//! * [`transfer`] — round-loop drivers and the [`TransferReport`] cost
//!   accounting (symbols sent, passes, rounds, decode attempts).
//!
//! All intelligence lives in the sender/receiver scheduling layer; the
//! links only move buffers. That keeps every protocol decision
//! deterministic and testable offline: a seeded loopback transfer is
//! exactly reproducible, impairments and all.
//!
//! ```
//! use spinal_core::CodeParams;
//! use spinal_net::{run_loopback_transfer, Impairments, NoiseModel, TransferConfig};
//!
//! let params = CodeParams::default().with_n(64).with_b(32);
//! let payload = b"hello over a lossy link";
//! let report = run_loopback_transfer(
//!     &params,
//!     payload,
//!     NoiseModel::Awgn { snr_db: 15.0 },
//!     Impairments { loss: 0.1, dup: 0.05, reorder: 0.1, reorder_span: 3 },
//!     Impairments::clean(),
//!     42,
//!     TransferConfig::default(),
//! );
//! assert_eq!(report.payload(), Some(&payload[..]));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod link;
pub mod receiver;
pub mod sender;
pub mod transfer;
pub mod wire;

pub use chaos::{BlackoutWindow, ChaosLink, FaultEvent, FaultPlan, FaultTrace};
pub use link::{Datagram, LoopbackLink, NoiseModel, UdpLink};
pub use receiver::{ReceiverConfig, SpinalReceiver};
pub use sender::{Modulation, SenderConfig, SpinalSender};
pub use transfer::{
    resume_transfer, run_loopback_transfer, run_transfer, StopCause, TransferConfig, TransferError,
    TransferErrorKind, TransferOutcome, TransferReport,
};
pub use wire::{Packet, Payload, DATA_PAYLOAD_OFFSET};

// Re-exported so transfer callers can state impairments without naming
// spinal-channel directly.
pub use spinal_channel::Impairments;
