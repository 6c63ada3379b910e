//! Fixed-budget block-error-rate measurement.
//!
//! The rateless runners in [`crate::spinal_run`] measure *symbols to
//! decode*; the analytic upper bounds of `spinal-bounds` are stated the
//! other way around — block-error probability after a *fixed* number of
//! received symbols. This module runs that experiment: transmit exactly
//! `total_symbols` scheduled symbols, decode once, and count a block
//! error when the decoder's message differs from the transmitted one
//! (the same "genie" success test the sweep engine uses). The trial
//! construction mirrors [`crate::spinal_run::SpinalRun::run_trial`] —
//! same seed derivation, same channel wiring — so a BLER point and a
//! rateless point at equal seeds see identical noise.

use crate::spinal_run::LinkChannel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spinal_channel::{AwgnChannel, Channel, Complex, RayleighChannel};
use spinal_core::{
    BubbleDecoder, CodeParams, DecodeRequest, DecodeService, DecodeWorkspace, Encoder, Message,
    MetricProfile, RxSymbols, Schedule, SessionBuffer,
};
use std::sync::Arc;

/// Fixed-budget BLER experiment configuration.
#[derive(Debug, Clone)]
pub struct BlerRun {
    /// Code parameters.
    pub params: CodeParams,
    /// Channel model (AWGN or Rayleigh, with or without CSI).
    pub channel: LinkChannel,
    /// Metric profile for every decode (exact `f64` by default, or the
    /// quantized integer fast path).
    pub profile: MetricProfile,
}

/// A measured BLER point: `errors / trials`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlerEstimate {
    /// Trials run.
    pub trials: usize,
    /// Trials whose decoded message differed from the transmitted one.
    pub errors: usize,
}

impl BlerEstimate {
    /// The empirical block-error rate.
    pub fn bler(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.errors as f64 / self.trials as f64
        }
    }
}

impl BlerRun {
    /// A BLER run over AWGN with the given code parameters.
    pub fn new(params: CodeParams) -> Self {
        params.validate();
        BlerRun {
            params,
            channel: LinkChannel::Awgn,
            profile: MetricProfile::Exact,
        }
    }

    /// Select the channel model.
    pub fn with_channel(mut self, channel: LinkChannel) -> Self {
        self.channel = channel;
        self
    }

    /// Select the decode metric profile (see [`BlerRun::profile`]).
    pub fn with_profile(mut self, profile: MetricProfile) -> Self {
        self.profile = profile;
        self
    }

    /// The transmission schedule this run follows.
    pub fn schedule(&self) -> Schedule {
        Schedule::new(
            self.params.num_spines(),
            self.params.tail,
            self.params.puncturing,
        )
    }

    /// Construct one trial's transmitted message and received buffer
    /// (deterministic in `seed`): encode a random message, send exactly
    /// `total_symbols` symbols through the channel. One implementation
    /// feeds both the serial and the service-batched measurement paths,
    /// so they see identical noise realisations. `csi_scratch` is a
    /// reusable buffer for the per-trial CSI / phase-rotation vector
    /// (the same scratch-reuse discipline as the rateless trial loop).
    fn build_trial(
        &self,
        snr_db: f64,
        total_symbols: usize,
        seed: u64,
        csi_scratch: &mut Vec<Complex>,
    ) -> (Message, RxSymbols) {
        let p = &self.params;
        let mut rng = StdRng::seed_from_u64(seed);
        let msg = Message::random(p.n, || rng.gen());
        let mut enc = Encoder::new(p, &msg);
        let mut rx = RxSymbols::new(self.schedule());
        let tx = enc.next_symbols(total_symbols);

        match self.channel {
            LinkChannel::Awgn => {
                let mut ch = AwgnChannel::new(snr_db, seed.wrapping_add(0xC11A));
                rx.push(&ch.transmit(&tx));
            }
            LinkChannel::Rayleigh { tau, csi } => {
                let mut ch = RayleighChannel::new(snr_db, tau, seed.wrapping_add(0xC11A));
                let ys = ch.transmit(&tx);
                csi_scratch.clear();
                if csi {
                    csi_scratch
                        .extend((0..ys.len()).map(|i| ch.csi(i).expect("csi for sent symbol")));
                    rx.push_with_csi(&ys, csi_scratch);
                } else {
                    // Phase-corrected amplitude-blind reception, as in
                    // the Fig 8-5 runner.
                    csi_scratch.extend(ys.iter().enumerate().map(|(i, y)| {
                        let h = ch.csi(i).expect("phase reference");
                        *y * h.conj() / h.abs()
                    }));
                    rx.push(csi_scratch);
                }
            }
        }
        (msg, rx)
    }

    /// The decoder every measurement path uses (profile applied).
    fn decoder(&self) -> BubbleDecoder {
        BubbleDecoder::new(&self.params).with_profile(self.profile)
    }

    /// Run one trial: encode, transmit, decode once. Returns `true` on a
    /// block error.
    pub fn block_error_with_workspace(
        &self,
        snr_db: f64,
        total_symbols: usize,
        seed: u64,
        ws: &mut DecodeWorkspace,
    ) -> bool {
        let (msg, rx) = self.build_trial(snr_db, total_symbols, seed, &mut Vec::new());
        DecodeRequest::new(&self.decoder(), &rx)
            .workspace(ws)
            .decode()
            .message
            != msg
    }

    /// [`BlerRun::block_error_with_workspace`] with a throwaway workspace.
    pub fn block_error(&self, snr_db: f64, total_symbols: usize, seed: u64) -> bool {
        self.block_error_with_workspace(snr_db, total_symbols, seed, &mut DecodeWorkspace::new())
    }

    /// Measure BLER over `trials` seeded trials (`seed_base + i`),
    /// reusing one workspace across them.
    pub fn measure(
        &self,
        snr_db: f64,
        total_symbols: usize,
        trials: usize,
        seed_base: u64,
        ws: &mut DecodeWorkspace,
    ) -> BlerEstimate {
        let decoder = self.decoder();
        let mut scratch = Vec::new();
        let errors = (0..trials)
            .filter(|&i| {
                let (msg, rx) =
                    self.build_trial(snr_db, total_symbols, seed_base + i as u64, &mut scratch);
                DecodeRequest::new(&decoder, &rx)
                    .workspace(ws)
                    .decode()
                    .message
                    != msg
            })
            .count();
        BlerEstimate { trials, errors }
    }

    /// [`BlerRun::measure`] as a batched block pipeline: receive
    /// buffers are constructed in chunks (encode + channel are a small
    /// fraction of decode cost) and each chunk handed, by value, to
    /// [`DecodeService::decode_batch`], which decodes it across the
    /// service's workers, each on its per-core workspace. Chunking
    /// bounds peak memory at a few dozen buffers regardless of
    /// `trials`, while keeping every worker busy. Identical estimate to
    /// the serial [`BlerRun::measure`] at every thread count (same
    /// seeds, same noise, bit-identical decodes).
    ///
    /// # Panics
    ///
    /// If a decode worker panics: the trial has no outcome to count.
    pub fn measure_with_service(
        &self,
        snr_db: f64,
        total_symbols: usize,
        trials: usize,
        seed_base: u64,
        svc: &DecodeService,
    ) -> BlerEstimate {
        // Several blocks in flight per worker hides the once-per-chunk
        // serial construction phase.
        let chunk_size = (svc.threads() * 8).clamp(8, 128);
        let decoder = Arc::new(self.decoder());
        let mut errors = 0usize;
        let mut start = 0usize;
        let mut scratch = Vec::new();
        while start < trials {
            let end = (start + chunk_size).min(trials);
            let mut msgs = Vec::with_capacity(end - start);
            let mut buffers = Vec::with_capacity(end - start);
            for i in start..end {
                let (msg, rx) =
                    self.build_trial(snr_db, total_symbols, seed_base + i as u64, &mut scratch);
                msgs.push(msg);
                buffers.push(SessionBuffer::Symbols(rx));
            }
            let outs = svc.decode_batch(&decoder, buffers);
            for (msg, out) in msgs.iter().zip(outs) {
                let out = out.unwrap_or_else(|failure| panic!("BLER trial: {failure}"));
                errors += usize::from(out.message != *msg);
            }
            start = end;
        }
        BlerEstimate { trials, errors }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spinal_core::ServiceConfig;

    fn fast_params() -> CodeParams {
        CodeParams::default().with_n(64).with_b(64)
    }

    #[test]
    fn high_snr_two_passes_decodes_cleanly() {
        let run = BlerRun::new(fast_params());
        let symbols = 2 * run.schedule().symbols_per_pass();
        let mut ws = DecodeWorkspace::new();
        let est = run.measure(20.0, symbols, 20, 0, &mut ws);
        assert_eq!(est.errors, 0, "bler {}", est.bler());
    }

    #[test]
    fn low_snr_one_pass_fails() {
        let run = BlerRun::new(fast_params());
        let symbols = run.schedule().symbols_per_pass();
        let mut ws = DecodeWorkspace::new();
        let est = run.measure(-10.0, symbols, 10, 0, &mut ws);
        assert!(est.errors >= 9, "bler {} should be ~1", est.bler());
    }

    #[test]
    fn bler_is_monotone_in_snr_on_average() {
        let run = BlerRun::new(fast_params());
        let symbols = 2 * run.schedule().symbols_per_pass();
        let mut ws = DecodeWorkspace::new();
        let lo = run.measure(2.0, symbols, 30, 7, &mut ws);
        let hi = run.measure(14.0, symbols, 30, 7, &mut ws);
        assert!(
            hi.errors <= lo.errors,
            "hi {} > lo {}",
            hi.bler(),
            lo.bler()
        );
    }

    #[test]
    fn deterministic_in_seed_and_workspace_free() {
        let run = BlerRun::new(fast_params());
        let symbols = 2 * run.schedule().symbols_per_pass();
        let mut ws = DecodeWorkspace::new();
        for seed in 0..4 {
            assert_eq!(
                run.block_error_with_workspace(6.0, symbols, seed, &mut ws),
                run.block_error(6.0, symbols, seed),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn service_measure_matches_serial_measure() {
        // The batched pipeline is an execution strategy, not a different
        // experiment: estimates must be identical at every thread count,
        // on AWGN and fading alike.
        let runs = [
            BlerRun::new(fast_params()),
            BlerRun::new(fast_params()).with_channel(LinkChannel::Rayleigh { tau: 4, csi: true }),
        ];
        for run in &runs {
            let symbols = 2 * run.schedule().symbols_per_pass();
            let mut ws = DecodeWorkspace::new();
            let serial = run.measure(6.0, symbols, 12, 9, &mut ws);
            for threads in [1, 2, 4] {
                let svc = DecodeService::new(threads, ServiceConfig::default());
                let parallel = run.measure_with_service(6.0, symbols, 12, 9, &svc);
                assert_eq!(serial, parallel, "threads {threads}");
            }
        }
    }

    #[test]
    fn quantized_profile_measures_identically_across_services() {
        // The quantized profile is deterministic across dispatch paths:
        // serial and service-batched BLER estimates must agree exactly at
        // every thread count, on AWGN and fading alike.
        let runs = [
            BlerRun::new(fast_params()).with_profile(MetricProfile::Quantized),
            BlerRun::new(fast_params())
                .with_profile(MetricProfile::Quantized)
                .with_channel(LinkChannel::Rayleigh { tau: 4, csi: true }),
        ];
        for run in &runs {
            let symbols = 2 * run.schedule().symbols_per_pass();
            let mut ws = DecodeWorkspace::new();
            let serial = run.measure(6.0, symbols, 12, 9, &mut ws);
            for threads in [1, 2, 4] {
                let svc = DecodeService::new(threads, ServiceConfig::default());
                assert_eq!(
                    serial,
                    run.measure_with_service(6.0, symbols, 12, 9, &svc),
                    "threads {threads}"
                );
            }
        }
    }

    #[test]
    fn rayleigh_csi_and_blind_both_run() {
        let csi =
            BlerRun::new(fast_params()).with_channel(LinkChannel::Rayleigh { tau: 1, csi: true });
        let blind =
            BlerRun::new(fast_params()).with_channel(LinkChannel::Rayleigh { tau: 1, csi: false });
        let symbols = 3 * csi.schedule().symbols_per_pass();
        let mut ws = DecodeWorkspace::new();
        let a = csi.measure(18.0, symbols, 20, 3, &mut ws);
        let b = blind.measure(18.0, symbols, 20, 3, &mut ws);
        // CSI can only help (same seeds, same noise realisations).
        assert!(a.errors <= b.errors, "csi {} blind {}", a.errors, b.errors);
    }

    #[test]
    fn empty_estimate_is_zero() {
        assert_eq!(
            BlerEstimate {
                trials: 0,
                errors: 0
            }
            .bler(),
            0.0
        );
    }
}
