//! Rateless trial runner for spinal codes: the §8.1 engine loop of
//! stream → channel → buffer → attempt, measuring symbols-to-decode.

use crate::stats::Trial;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spinal_channel::capacity::{awgn_capacity_db, bsc_capacity, rayleigh_ergodic_capacity_db};
use spinal_channel::{AwgnChannel, BitChannel, BscChannel, Channel, RayleighChannel};
use spinal_core::{
    BubbleDecoder, CodeParams, DecodeRequest, DecodeWorkspace, Encoder, Message, MetricProfile,
    RxBits, RxSymbols, Schedule,
};

/// Which link model a spinal trial runs over.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LinkChannel {
    /// Pure AWGN (§8.2).
    Awgn,
    /// Rayleigh block fading with coherence `tau`; `csi` selects whether
    /// the decoder receives the exact coefficients (Fig 8-4) or decodes
    /// blind with the AWGN metric (Fig 8-5).
    Rayleigh {
        /// Coherence time in symbols.
        tau: usize,
        /// Give the decoder exact channel-state information.
        csi: bool,
    },
}

/// Configuration of a spinal rateless run.
#[derive(Debug, Clone)]
pub struct SpinalRun {
    /// Code parameters.
    pub params: CodeParams,
    /// Channel model.
    pub channel: LinkChannel,
    /// Give-up cap in passes.
    pub max_passes: usize,
    /// Skip decode attempts that are information-theoretically hopeless
    /// (rate implied > capacity/0.6). Never affects the measured symbol
    /// count at success — attempts still happen at every subpass boundary
    /// inside the feasible region. Disable to validate (see DESIGN.md).
    pub oracle_skip: bool,
    /// Fault injection: probability that a whole subpass transmission is
    /// erased (lost frame). The receiver skips the schedule positions.
    pub erasure_prob: f64,
    /// Attempt thinning for sweeps: after a failed attempt, wait until
    /// this factor more symbols have arrived before attempting again.
    /// `1.0` (default) attempts at every subpass boundary, as the paper
    /// does; `1.02` changes measured symbol counts by at most 2% while
    /// cutting low-SNR sweep time by an order of magnitude.
    pub attempt_growth: f64,
    /// Metric profile for every decode attempt: exact `f64` (default)
    /// or the quantized integer fast path (statistically equivalent,
    /// ~1.7× faster decodes on the recording host — see the
    /// `spinal-core::quant` docs and the committed bench baselines).
    pub profile: MetricProfile,
}

impl SpinalRun {
    /// A run with the paper's defaults over AWGN.
    pub fn new(params: CodeParams) -> Self {
        SpinalRun {
            params,
            channel: LinkChannel::Awgn,
            max_passes: 48,
            oracle_skip: true,
            erasure_prob: 0.0,
            attempt_growth: 1.0,
            profile: MetricProfile::Exact,
        }
    }

    /// Select the decode metric profile (see [`SpinalRun::profile`]).
    pub fn with_profile(mut self, profile: MetricProfile) -> Self {
        self.profile = profile;
        self
    }

    /// Set the attempt-thinning factor (see [`SpinalRun::attempt_growth`]).
    pub fn with_attempt_growth(mut self, g: f64) -> Self {
        assert!(g >= 1.0);
        self.attempt_growth = g;
        self
    }

    /// Select the channel model.
    pub fn with_channel(mut self, channel: LinkChannel) -> Self {
        self.channel = channel;
        self
    }

    /// Set the give-up cap.
    pub fn with_max_passes(mut self, p: usize) -> Self {
        self.max_passes = p;
        self
    }

    /// Enable/disable the feasibility skip.
    pub fn with_oracle_skip(mut self, on: bool) -> Self {
        self.oracle_skip = on;
        self
    }

    /// Enable frame-erasure fault injection.
    pub fn with_erasures(mut self, p: f64) -> Self {
        assert!((0.0..1.0).contains(&p));
        self.erasure_prob = p;
        self
    }

    /// Capacity bound used for feasibility skipping and fraction-of-
    /// capacity accounting.
    pub fn capacity(&self, snr_db: f64) -> f64 {
        match self.channel {
            LinkChannel::Awgn => awgn_capacity_db(snr_db),
            LinkChannel::Rayleigh { .. } => rayleigh_ergodic_capacity_db(snr_db),
        }
    }

    /// Run one message trial at `snr_db`; deterministic in `seed`.
    ///
    /// Allocates a fresh [`DecodeWorkspace`] for the trial (reused across
    /// the trial's decode attempts). Sweeps issuing many trials should
    /// hold one workspace per worker and call
    /// [`SpinalRun::run_trial_with_workspace`].
    pub fn run_trial(&self, snr_db: f64, seed: u64) -> Trial {
        self.run_trial_with_workspace(snr_db, seed, &mut DecodeWorkspace::new())
    }

    /// [`SpinalRun::run_trial`] decoding through the caller's workspace,
    /// so the §7.1 attempt loop — and, across calls, a whole sweep —
    /// performs no decode-path allocation after warm-up.
    pub fn run_trial_with_workspace(
        &self,
        snr_db: f64,
        seed: u64,
        ws: &mut DecodeWorkspace,
    ) -> Trial {
        let p = &self.params;
        let mut rng = StdRng::seed_from_u64(seed);
        let msg = Message::random(p.n, || rng.gen());
        let mut enc = Encoder::new(p, &msg);
        let schedule = Schedule::new(p.num_spines(), p.tail, p.puncturing);
        let mut rx = RxSymbols::new(schedule.clone());
        // Each attempt builds its branch-metric tables from the whole
        // buffer in one pass, into the caller's workspace.
        let decoder = BubbleDecoder::new(p).with_profile(self.profile);

        let max_symbols = self.max_passes * schedule.symbols_per_pass();
        let boundaries = schedule.subpass_boundaries(max_symbols);
        let min_attempt = if self.oracle_skip {
            (p.n as f64 / self.capacity(snr_db) * 0.6) as usize
        } else {
            0
        };

        let mut awgn;
        let mut rayleigh;
        let (ch, csi): (&mut dyn Channel, bool) = match self.channel {
            LinkChannel::Awgn => {
                awgn = AwgnChannel::new(snr_db, seed.wrapping_add(0xC11A));
                (&mut awgn, false)
            }
            LinkChannel::Rayleigh { tau, csi } => {
                rayleigh = RayleighChannel::new(snr_db, tau, seed.wrapping_add(0xC11A));
                (&mut rayleigh, csi)
            }
        };

        let mut sent = 0usize;
        let mut tx_index = 0usize; // symbols transmitted, for CSI lookup
        let mut next_attempt = 0usize;
        // Per-trial scratch reused across subpasses: the CSI vector and
        // the phase-rotated symbol vector would otherwise be collected
        // fresh on every subpass of every trial.
        let mut hs_buf: Vec<spinal_channel::Complex> = Vec::new();
        let mut rot_buf: Vec<spinal_channel::Complex> = Vec::new();
        for &boundary in &boundaries {
            let chunk = boundary - sent;
            let tx = enc.next_symbols(chunk);
            sent = boundary;
            if self.erasure_prob > 0.0 && rng.gen::<f64>() < self.erasure_prob {
                // Whole subpass lost before the receiver; positions skip.
                tx_index += chunk;
                rx.skip(chunk);
                // Still a legitimate attempt point for what has arrived.
            } else {
                let ys = ch.transmit(&tx);
                if csi {
                    hs_buf.clear();
                    hs_buf.extend(
                        (0..ys.len()).map(|i| ch.csi(tx_index + i).expect("csi for sent symbol")),
                    );
                    rx.push_with_csi(&ys, &hs_buf);
                } else if matches!(self.channel, LinkChannel::Rayleigh { .. }) {
                    // "No fading information" (Fig 8-5) still assumes the
                    // PHY's carrier recovery locks phase — with a
                    // uniform-phase h and no phase reference, *no*
                    // decoder can extract information. The decoder stays
                    // amplitude-blind: plain AWGN metric on the
                    // phase-corrected observations.
                    rot_buf.clear();
                    rot_buf.extend(ys.iter().enumerate().map(|(i, y)| {
                        let h = ch.csi(tx_index + i).expect("phase reference");
                        *y * h.conj() / h.abs()
                    }));
                    rx.push(&rot_buf);
                } else {
                    rx.push(&ys);
                }
                tx_index += chunk;
            }

            if sent < min_attempt || rx.symbols_received() == 0 {
                continue;
            }
            if sent < next_attempt {
                continue;
            }
            let decoded = DecodeRequest::new(&decoder, &rx).workspace(ws).decode();
            if decoded.message == msg {
                return Trial::success(p.n, sent);
            }
            next_attempt = ((sent as f64) * self.attempt_growth) as usize;
        }
        Trial::failure(p.n, sent)
    }
}

/// One BSC trial: same loop over hard bits (§4, decode with Hamming
/// metric).
pub fn run_bsc_trial(
    params: &CodeParams,
    flip_p: f64,
    max_passes: usize,
    oracle_skip: bool,
    seed: u64,
) -> Trial {
    run_bsc_trial_with_workspace(
        params,
        flip_p,
        max_passes,
        oracle_skip,
        seed,
        &mut DecodeWorkspace::new(),
    )
}

/// [`run_bsc_trial`] decoding through the caller's workspace (see
/// [`SpinalRun::run_trial_with_workspace`]).
pub fn run_bsc_trial_with_workspace(
    params: &CodeParams,
    flip_p: f64,
    max_passes: usize,
    oracle_skip: bool,
    seed: u64,
    ws: &mut DecodeWorkspace,
) -> Trial {
    run_bsc_trial_with_profile(
        params,
        flip_p,
        max_passes,
        oracle_skip,
        seed,
        MetricProfile::Exact,
        ws,
    )
}

/// [`run_bsc_trial_with_workspace`] under an explicit metric profile
/// (the `--metric` flag of the BSC experiment binaries).
pub fn run_bsc_trial_with_profile(
    params: &CodeParams,
    flip_p: f64,
    max_passes: usize,
    oracle_skip: bool,
    seed: u64,
    profile: MetricProfile,
    ws: &mut DecodeWorkspace,
) -> Trial {
    let mut rng = StdRng::seed_from_u64(seed);
    let msg = Message::random(params.n, || rng.gen());
    let mut enc = Encoder::new(params, &msg);
    let schedule = Schedule::new(params.num_spines(), params.tail, params.puncturing);
    let mut rx = RxBits::new(schedule.clone());
    let decoder = BubbleDecoder::new(params).with_profile(profile);
    let mut ch = BscChannel::new(flip_p, seed.wrapping_add(0xB5C));

    let max_symbols = max_passes * schedule.symbols_per_pass();
    let boundaries = schedule.subpass_boundaries(max_symbols);
    let min_attempt = if oracle_skip {
        (params.n as f64 / bsc_capacity(flip_p).max(1e-3) * 0.6) as usize
    } else {
        0
    };

    let mut sent = 0usize;
    for &boundary in &boundaries {
        let chunk = boundary - sent;
        let tx = enc.next_bits(chunk);
        rx.push(&ch.transmit_bits(&tx));
        sent = boundary;
        if sent < min_attempt {
            continue;
        }
        if DecodeRequest::new(&decoder, &rx)
            .workspace(ws)
            .decode()
            .message
            == msg
        {
            return Trial::success(params.n, sent);
        }
    }
    Trial::failure(params.n, sent)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::summarize;

    fn fast_params() -> CodeParams {
        CodeParams::default().with_n(96).with_b(64)
    }

    #[test]
    fn awgn_trial_succeeds_and_rate_is_sane() {
        let run = SpinalRun::new(fast_params());
        let trials: Vec<Trial> = (0..4).map(|s| run.run_trial(15.0, s)).collect();
        let sum = summarize(15.0, &trials);
        assert_eq!(sum.successes, 4);
        // At 15 dB capacity is 5.03; spinal with k=4 should land between
        // 2 and 5.03 bits/symbol.
        assert!(
            sum.rate > 2.0 && sum.rate < 5.03,
            "rate {} out of band",
            sum.rate
        );
    }

    #[test]
    fn rate_increases_with_snr() {
        let run = SpinalRun::new(fast_params());
        let lo = summarize(
            0.0,
            &(0..3).map(|s| run.run_trial(0.0, s)).collect::<Vec<_>>(),
        );
        let hi = summarize(
            20.0,
            &(0..3).map(|s| run.run_trial(20.0, s)).collect::<Vec<_>>(),
        );
        assert!(hi.rate > lo.rate, "hi {} vs lo {}", hi.rate, lo.rate);
    }

    #[test]
    fn oracle_skip_does_not_change_outcome() {
        let with = SpinalRun::new(fast_params()).with_oracle_skip(true);
        let without = SpinalRun::new(fast_params()).with_oracle_skip(false);
        for seed in 0..3 {
            let a = with.run_trial(12.0, seed);
            let b = without.run_trial(12.0, seed);
            assert_eq!(a, b, "seed {seed}");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let run = SpinalRun::new(fast_params());
        assert_eq!(run.run_trial(8.0, 7), run.run_trial(8.0, 7));
    }

    #[test]
    fn quantized_profile_trials_decode_and_are_dispatch_invariant() {
        // The quantized fast path must (a) actually decode at sane
        // rates and (b) measure identical trials through a fresh and a
        // caller-held workspace.
        let run = SpinalRun::new(fast_params()).with_profile(MetricProfile::Quantized);
        let mut ws = DecodeWorkspace::new();
        let mut ok = 0;
        for (snr, seed) in [(15.0, 1u64), (8.0, 2), (12.0, 3)] {
            let base = run.run_trial(snr, seed);
            if base.symbols.is_some() {
                ok += 1;
            }
            assert_eq!(base, run.run_trial_with_workspace(snr, seed, &mut ws));
        }
        assert_eq!(ok, 3, "quantized trials should decode at these SNRs");
        // BSC: quantized Hamming is the same integer computation.
        let p = fast_params();
        for seed in 0..2 {
            assert_eq!(
                run_bsc_trial_with_profile(
                    &p,
                    0.03,
                    30,
                    true,
                    seed,
                    MetricProfile::Quantized,
                    &mut ws
                ),
                run_bsc_trial(&p, 0.03, 30, true, seed),
                "bsc seed {seed}"
            );
        }
    }

    #[test]
    fn workspace_reuse_across_trials_matches_fresh() {
        // One workspace carried across heterogeneous trials (different
        // SNRs and seeds, AWGN and BSC) must change nothing.
        let run = SpinalRun::new(fast_params());
        let mut ws = DecodeWorkspace::new();
        for (snr, seed) in [(15.0, 1u64), (8.0, 2), (20.0, 3), (6.0, 4)] {
            assert_eq!(
                run.run_trial_with_workspace(snr, seed, &mut ws),
                run.run_trial(snr, seed),
                "snr {snr} seed {seed}"
            );
        }
        let p = fast_params();
        for seed in 0..3 {
            assert_eq!(
                run_bsc_trial_with_workspace(&p, 0.03, 30, true, seed, &mut ws),
                run_bsc_trial(&p, 0.03, 30, true, seed),
                "bsc seed {seed}"
            );
        }
    }

    #[test]
    fn fading_with_csi_decodes() {
        let run = SpinalRun::new(fast_params())
            .with_channel(LinkChannel::Rayleigh { tau: 10, csi: true });
        let t = run.run_trial(20.0, 3);
        assert!(t.symbols.is_some(), "fading trial failed");
    }

    #[test]
    fn csi_beats_blind_decoding() {
        let csi = SpinalRun::new(fast_params())
            .with_channel(LinkChannel::Rayleigh { tau: 10, csi: true });
        let blind = SpinalRun::new(fast_params()).with_channel(LinkChannel::Rayleigh {
            tau: 10,
            csi: false,
        });
        let mut csi_syms = 0usize;
        let mut blind_syms = 0usize;
        let mut csi_fail = 0;
        let mut blind_fail = 0;
        for seed in 0..6 {
            match csi.run_trial(15.0, seed).symbols {
                Some(s) => csi_syms += s,
                None => csi_fail += 1,
            }
            match blind.run_trial(15.0, seed).symbols {
                Some(s) => blind_syms += s,
                None => blind_fail += 1,
            }
        }
        assert!(
            blind_fail > csi_fail || blind_syms > csi_syms,
            "CSI should help: csi=({csi_syms},{csi_fail}) blind=({blind_syms},{blind_fail})"
        );
    }

    #[test]
    fn erasures_cost_symbols_but_not_correctness() {
        let run = SpinalRun::new(fast_params()).with_erasures(0.3);
        let clean = SpinalRun::new(fast_params());
        let mut lossy_total = 0usize;
        let mut clean_total = 0usize;
        let mut ok = 0;
        for seed in 0..5 {
            if let Some(s) = run.run_trial(15.0, seed).symbols {
                ok += 1;
                lossy_total += s;
            }
            clean_total += clean.run_trial(15.0, seed).symbols.unwrap();
        }
        assert!(ok >= 4, "erasures should not prevent decoding");
        assert!(
            lossy_total > clean_total,
            "erasures must cost channel time: {lossy_total} vs {clean_total}"
        );
    }

    #[test]
    fn attempt_thinning_changes_symbols_only_slightly() {
        let dense = SpinalRun::new(fast_params());
        let thin = SpinalRun::new(fast_params()).with_attempt_growth(1.05);
        for seed in 0..3 {
            let a = dense.run_trial(10.0, seed).symbols.unwrap() as f64;
            let b = thin.run_trial(10.0, seed).symbols.unwrap() as f64;
            assert!(b >= a, "thinning can only delay detection");
            assert!(b <= a * 1.12 + 12.0, "seed {seed}: {a} vs {b}");
        }
    }

    #[test]
    fn bsc_trial_decodes() {
        let p = fast_params();
        // Capacity at p=0.05 is 0.71 bits/use. A single 96-bit block can
        // "beat" that with a lucky noise draw (capacity is asymptotic),
        // so assert on the mean rate across seeds instead of one trial.
        let mut decoded_bits = 0usize;
        let mut used_symbols = 0usize;
        let mut ok = 0;
        for seed in 0..8 {
            if let Some(s) = run_bsc_trial(&p, 0.05, 40, true, seed).symbols {
                ok += 1;
                decoded_bits += 96;
                used_symbols += s;
            }
        }
        assert!(ok >= 6, "BSC trials should mostly decode ({ok}/8)");
        let mean_rate = decoded_bits as f64 / used_symbols as f64;
        assert!(
            mean_rate <= 0.72,
            "mean rate {mean_rate} beats BSC capacity"
        );
    }

    #[test]
    fn gives_up_below_minus_ten_db_quickly() {
        let run = SpinalRun::new(fast_params()).with_max_passes(4);
        let t = run.run_trial(-15.0, 1);
        assert!(t.symbols.is_none(), "cannot decode at −15 dB in 4 passes");
    }
}
