//! The generic rateless execution engine of §8.1.
//!
//! "To evaluate the different codes under the same conditions, we
//! integrated all codes into a single framework … a generic rateless
//! execution engine regulates the streaming of symbols across processing
//! elements from the encoder, through the mapper, channel simulator, and
//! demapper, to the decoder, and collects performance statistics."
//!
//! * [`spinal_run`] — spinal trials over AWGN / Rayleigh / BSC, with
//!   fault injection (frame erasures) and the feasibility-skip
//!   optimisation DESIGN.md documents.
//! * [`raptor_run`] — Raptor over dense QAM with exact soft demapping.
//! * [`strider_run`] — Strider and Strider+ with matched-filter SIC.
//! * [`ldpc_run`] — the 802.11n MCS envelope.
//! * [`rated`] — fixed-rate ("rated") spinal analysis for the hedging
//!   study (Fig 8-2).
//! * [`bler`] — fixed-symbol-budget block-error-rate measurement, the
//!   quantity the `spinal-bounds` analytic oracles are stated in.
//! * [`linklayer`] — the §6 half-duplex pause-point/feedback mechanism.
//! * [`stats`] — rate, gap-to-capacity, fraction-of-capacity, CDFs.
//! * [`sweep`] — scoped-thread parallel trial grids.
//! * [`csv`] — output plumbing for the experiment binaries.
//!
//! Success detection: trial runners compare the decoded message against
//! the transmitted one ("genie" validation). This is operationally
//! identical to the 16-bit CRC framing of §6 — `spinal_core::framing`
//! implements the real thing, and the examples use it — while keeping
//! sweep measurements free of CRC overhead bookkeeping, exactly like the
//! paper's simulation framework.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bler;
pub mod csv;
pub mod ldpc_run;
pub mod linklayer;
pub mod raptor_run;
pub mod rated;
pub mod spinal_run;
pub mod stats;
pub mod strider_run;
pub mod sweep;
pub mod threads;

pub use bler::{BlerEstimate, BlerRun};
pub use linklayer::{LinkLayerRun, LinkOutcome};
pub use raptor_run::RaptorRun;
pub use spinal_run::{
    run_bsc_trial, run_bsc_trial_with_profile, run_bsc_trial_with_workspace, LinkChannel, SpinalRun,
};
pub use stats::{mean_fraction_of_capacity, summarize, summarize_vs_capacity, PointSummary, Trial};
pub use strider_run::{StriderChannel, StriderRun};
pub use sweep::{
    default_threads, overlay_csv_header, overlay_csv_row, run_overlay_with, run_parallel,
    run_parallel_with, OverlayPoint, SweepMode,
};
pub use threads::Threads;
