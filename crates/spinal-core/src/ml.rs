//! Exact maximum-likelihood decoding by exhaustive search (§4.1).
//!
//! Exponential in `n`, so only usable for tiny blocks — which is exactly
//! its purpose: validating that the bubble decoder approximates the ML
//! rule (§4: "the shortest path is an exact ML decoding"). Tests compare
//! the two decoders' outputs and costs on blocks small enough to
//! enumerate.

use crate::bits::Message;
use crate::decoder::DecodeResult;
use crate::params::CodeParams;
use crate::rx::{RxBits, RxSymbols};
use crate::spine::spine_step;
use crate::symbols::SymbolGen;

/// Exhaustive ML decoder. Refuses blocks longer than `MAX_N` bits.
#[derive(Debug, Clone)]
pub struct MlDecoder {
    params: CodeParams,
    gen: SymbolGen,
}

/// Largest block the exhaustive decoder will attempt (2^24 paths ≈ a few
/// seconds; anything more is a mistake).
pub const MAX_N: usize = 24;

impl MlDecoder {
    /// Build an exhaustive decoder for `params` (requires `n ≤ MAX_N`).
    pub fn new(params: &CodeParams) -> Self {
        params.validate();
        assert!(
            params.n <= MAX_N,
            "exhaustive ML over n={} bits is intractable (max {MAX_N})",
            params.n
        );
        MlDecoder {
            params: params.clone(),
            gen: SymbolGen::new(params),
        }
    }

    /// Exact ML decode over complex observations: the message whose
    /// encoding minimises `Σ|y − h·x|²` (eq. 4.1).
    pub fn decode(&self, rx: &RxSymbols) -> DecodeResult {
        self.search(|state, spine_idx| {
            let mut cost = 0.0;
            for e in rx.spine_entries(spine_idx) {
                cost += e.y.dist_sq(e.h * self.gen.complex(state, e.rng_index));
            }
            cost
        })
    }

    /// Exact ML decode over the BSC (minimum Hamming distance).
    pub fn decode_bsc(&self, rx: &RxBits) -> DecodeResult {
        self.search(|state, spine_idx| {
            rx.spine_entries(spine_idx)
                .iter()
                .filter(|&&(t, y)| self.gen.bit(state, t) != y)
                .count() as f64
        })
    }

    fn search<F: Fn(u32, usize) -> f64>(&self, branch: F) -> DecodeResult {
        let p = &self.params;
        let ns = p.num_spines();
        let mut best_cost = f64::INFINITY;
        let mut best_msg = 0u64;
        // Depth-first over all 2^n messages with prefix-cost memoisation
        // via an explicit stack of (depth, state, cost) — the shared-
        // prefix structure makes this a full tree walk, not 2^n restarts.
        let mut stack: Vec<(usize, u32, f64, u64)> = vec![(0, p.s0, 0.0, 0)];
        while let Some((depth, state, cost, prefix)) = stack.pop() {
            if cost >= best_cost {
                continue; // branch-and-bound prune
            }
            if depth == ns {
                best_cost = cost;
                best_msg = prefix;
                continue;
            }
            for edge in 0..(1u32 << p.k) {
                let next = spine_step(p.hash, state, edge);
                let c = cost + branch(next, depth);
                stack.push((depth + 1, next, c, (prefix << p.k) | edge as u64));
            }
        }

        let mut msg = Message::zeros(p.n);
        for i in 0..ns {
            let shift = (ns - 1 - i) * p.k;
            msg.set_bits(
                i * p.k,
                p.k,
                ((best_msg >> shift) & ((1 << p.k) - 1)) as u32,
            );
        }
        DecodeResult {
            message: msg,
            cost: best_cost,
            escalated: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::DecodeRequest;
    use crate::decoder::BubbleDecoder;
    use crate::encoder::Encoder;
    use crate::puncturing::Schedule;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use spinal_channel::{AwgnChannel, Channel};

    fn tiny_params() -> CodeParams {
        CodeParams::default().with_n(16)
    }

    fn rx_for(
        params: &CodeParams,
        msg: &Message,
        snr_db: f64,
        passes: usize,
        seed: u64,
    ) -> RxSymbols {
        let mut enc = Encoder::new(params, msg);
        let schedule = Schedule::new(params.num_spines(), params.tail, params.puncturing);
        let mut rx = RxSymbols::new(schedule.clone());
        let mut ch = AwgnChannel::new(snr_db, seed);
        let tx = enc.next_symbols(passes * schedule.symbols_per_pass());
        rx.push(&ch.transmit(&tx));
        rx
    }

    #[test]
    fn ml_decodes_clean_channel() {
        let p = tiny_params();
        let mut rng = StdRng::seed_from_u64(3);
        let msg = Message::random(16, || rng.gen());
        let rx = rx_for(&p, &msg, 100.0, 1, 9);
        let out = MlDecoder::new(&p).decode(&rx);
        assert_eq!(out.message, msg);
    }

    #[test]
    fn ml_cost_lower_bounds_every_bubble_configuration() {
        // ML minimises the cost exactly; no pruned decoder can do better.
        let p = tiny_params();
        let mut rng = StdRng::seed_from_u64(5);
        for trial in 0..5 {
            let msg = Message::random(16, || rng.gen());
            let rx = rx_for(&p, &msg, 4.0, 3, 100 + trial);
            let ml = MlDecoder::new(&p).decode(&rx);
            for b in [1usize, 4, 64] {
                let bub =
                    DecodeRequest::new(&BubbleDecoder::new(&p.clone().with_b(b)), &rx).decode();
                assert!(
                    ml.cost <= bub.cost + 1e-9,
                    "trial {trial} B={b}: ML {} > bubble {}",
                    ml.cost,
                    bub.cost
                );
            }
        }
    }

    #[test]
    fn wide_bubble_matches_ml_exactly() {
        // With B ≥ the number of leaves the beam never prunes, so the
        // bubble decoder IS the ML decoder (§4.3: "we recover the full ML
        // decoder").
        let p = CodeParams::default().with_n(12).with_b(1 << 12);
        let mut rng = StdRng::seed_from_u64(7);
        for trial in 0..5 {
            let msg = Message::random(12, || rng.gen());
            let rx = rx_for(&p, &msg, 2.0, 2, 300 + trial);
            let ml = MlDecoder::new(&p).decode(&rx);
            let bub = DecodeRequest::new(&BubbleDecoder::new(&p), &rx).decode();
            assert_eq!(ml.message, bub.message, "trial {trial}");
            assert!((ml.cost - bub.cost).abs() < 1e-9);
        }
    }

    #[test]
    fn practical_beam_agrees_with_ml_most_of_the_time() {
        // §4.3's claim: B=256 approximates ML well above the feasible
        // rate point. At 10 dB with 2 passes of a 16-bit block, B=64
        // should agree with ML nearly always.
        let p = tiny_params().with_b(64);
        let mut rng = StdRng::seed_from_u64(11);
        let mut agree = 0;
        let total = 10;
        for trial in 0..total {
            let msg = Message::random(16, || rng.gen());
            let rx = rx_for(&p, &msg, 10.0, 2, 500 + trial);
            let ml = MlDecoder::new(&p).decode(&rx);
            let bub = DecodeRequest::new(&BubbleDecoder::new(&p), &rx).decode();
            if ml.message == bub.message {
                agree += 1;
            }
        }
        assert!(agree >= 8, "bubble agreed with ML only {agree}/{total}");
    }

    #[test]
    fn bsc_ml_is_minimum_hamming() {
        use spinal_channel::{BitChannel, BscChannel};
        let p = tiny_params();
        let mut rng = StdRng::seed_from_u64(13);
        let msg = Message::random(16, || rng.gen());
        let mut enc = Encoder::new(&p, &msg);
        let schedule = Schedule::new(p.num_spines(), p.tail, p.puncturing);
        let mut rx = RxBits::new(schedule.clone());
        let mut ch = BscChannel::new(0.02, 5);
        rx.push(&ch.transmit_bits(&enc.next_bits(8 * schedule.symbols_per_pass())));
        let out = MlDecoder::new(&p).decode_bsc(&rx);
        assert_eq!(out.message, msg);
    }

    #[test]
    #[should_panic]
    fn refuses_large_blocks() {
        MlDecoder::new(&CodeParams::default().with_n(64));
    }
}
