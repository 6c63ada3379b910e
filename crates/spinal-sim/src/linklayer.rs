//! Link-layer pause-point simulation (§6).
//!
//! A rateless sender over a half-duplex radio cannot hear feedback while
//! transmitting: it sends a burst of symbols, pauses, and the receiver
//! ACKs (costing channel time). Too-small bursts drown in feedback
//! overhead; too-large bursts overshoot the decoding point. The paper
//! defers the full algorithm to follow-on work (thesis ref. \[16\]); this module
//! implements the mechanism so the trade-off itself is measurable.

use crate::spinal_run::SpinalRun;
use crate::stats::Trial;
use spinal_core::DecodeWorkspace;

/// Configuration of the half-duplex feedback loop.
#[derive(Debug, Clone)]
pub struct LinkLayerRun {
    /// The underlying rateless spinal run (code + channel).
    pub run: SpinalRun,
    /// Burst length in symbols between pauses.
    pub burst_symbols: usize,
    /// Channel time consumed by each pause + ACK, in symbol durations
    /// (SIFS + ACK at base rate; a handful of OFDM symbols in 802.11
    /// terms).
    pub feedback_symbols: usize,
}

/// Outcome of one framed transfer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkOutcome {
    /// Data symbols actually transmitted.
    pub data_symbols: usize,
    /// Feedback rounds used.
    pub rounds: usize,
    /// Effective throughput: message bits over (data + feedback) time.
    pub effective_rate: f64,
    /// Whether the block decoded within the give-up cap.
    pub delivered: bool,
}

impl LinkLayerRun {
    /// Simulate one block transfer at `snr_db`.
    ///
    /// The sender transmits bursts; the receiver can only signal
    /// completion at a pause. The decode point is whatever the
    /// underlying rateless trial measures; the burst structure rounds it
    /// *up* to the end of the burst in which decoding happened.
    pub fn run_trial(&self, snr_db: f64, seed: u64) -> LinkOutcome {
        self.run_trial_with_workspace(snr_db, seed, &mut DecodeWorkspace::new())
    }

    /// [`LinkLayerRun::run_trial`] decoding through the caller's
    /// workspace (one per worker thread in sweeps).
    pub fn run_trial_with_workspace(
        &self,
        snr_db: f64,
        seed: u64,
        ws: &mut DecodeWorkspace,
    ) -> LinkOutcome {
        let trial = self.run.run_trial_with_workspace(snr_db, seed, ws);
        self.frame_outcome(trial)
    }

    /// Fold a rateless trial into the burst/feedback frame accounting.
    fn frame_outcome(&self, trial: Trial) -> LinkOutcome {
        assert!(self.burst_symbols > 0);
        match trial.symbols {
            Some(decode_point) => {
                let rounds = decode_point.div_ceil(self.burst_symbols);
                let data_symbols = rounds * self.burst_symbols;
                let total = data_symbols + rounds * self.feedback_symbols;
                LinkOutcome {
                    data_symbols,
                    rounds,
                    effective_rate: trial.n_bits as f64 / total as f64,
                    delivered: true,
                }
            }
            None => {
                let rounds = trial.spent_on_failure.div_ceil(self.burst_symbols).max(1);
                LinkOutcome {
                    data_symbols: rounds * self.burst_symbols,
                    rounds,
                    effective_rate: 0.0,
                    delivered: false,
                }
            }
        }
    }

    /// The idealised rate with free, instantaneous feedback (the number
    /// every figure in §8 reports).
    pub fn ideal_rate(&self, snr_db: f64, seed: u64) -> f64 {
        self.ideal_rate_with_workspace(snr_db, seed, &mut DecodeWorkspace::new())
    }

    /// [`LinkLayerRun::ideal_rate`] decoding through the caller's
    /// workspace.
    pub fn ideal_rate_with_workspace(
        &self,
        snr_db: f64,
        seed: u64,
        ws: &mut DecodeWorkspace,
    ) -> f64 {
        match self.run.run_trial_with_workspace(snr_db, seed, ws).symbols {
            Some(s) => self.run.params.n as f64 / s as f64,
            None => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spinal_core::CodeParams;

    fn base() -> SpinalRun {
        SpinalRun::new(CodeParams::default().with_n(96).with_b(64))
    }

    #[test]
    fn feedback_overhead_reduces_rate() {
        let ll = LinkLayerRun {
            run: base(),
            burst_symbols: 16,
            feedback_symbols: 4,
        };
        let out = ll.run_trial(15.0, 3);
        assert!(out.delivered);
        let ideal = ll.ideal_rate(15.0, 3);
        assert!(
            out.effective_rate < ideal,
            "feedback must cost something: {} vs {ideal}",
            out.effective_rate
        );
        assert!(
            out.effective_rate > 0.5 * ideal,
            "overhead implausibly high"
        );
    }

    #[test]
    fn burst_size_trade_off_exists() {
        // Tiny bursts pay feedback per round; huge bursts overshoot the
        // decode point. Both must underperform a moderate burst.
        let snr = 15.0;
        let mk = |burst| LinkLayerRun {
            run: base(),
            burst_symbols: burst,
            feedback_symbols: 6,
        };
        let avg = |burst: usize| -> f64 {
            (0..6)
                .map(|s| mk(burst).run_trial(snr, s).effective_rate)
                .sum::<f64>()
                / 6.0
        };
        let tiny = avg(2);
        let moderate = avg(24);
        let huge = avg(2000);
        assert!(
            moderate > tiny,
            "moderate {moderate} should beat tiny-burst {tiny}"
        );
        assert!(
            moderate > huge,
            "moderate {moderate} should beat huge-burst {huge}"
        );
    }

    #[test]
    fn failure_reports_zero_rate_but_charges_time() {
        let ll = LinkLayerRun {
            run: base().with_max_passes(3),
            burst_symbols: 16,
            feedback_symbols: 4,
        };
        let out = ll.run_trial(-15.0, 1);
        assert!(!out.delivered);
        assert_eq!(out.effective_rate, 0.0);
        assert!(out.data_symbols > 0);
    }

    #[test]
    fn rounds_count_matches_bursts() {
        let ll = LinkLayerRun {
            run: base(),
            burst_symbols: 10,
            feedback_symbols: 0,
        };
        let out = ll.run_trial(20.0, 5);
        assert_eq!(out.data_symbols, out.rounds * 10);
    }
}
