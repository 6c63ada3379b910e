//! Spinal codes over an existing physical layer (§3: "they can produce a
//! sequence of coded bits to be transmitted using any pre-existing
//! symbol set… Even without control over the physical layer, spinal
//! codes may be useful over an existing physical layer modulation").
//!
//! In bit mode the encoder emits the RNG output as coded *bits*; the PHY
//! maps them onto its own constellation (e.g. Gray QAM), and the
//! receiver's demapper hands back per-bit LLRs. The decoder's branch
//! cost for a candidate spine value is the negative log-likelihood of
//! its predicted coded bits under those LLRs:
//! `cost = Σ_j ln(1 + exp(−(±1)·L_j))` — zero when the LLRs confidently
//! agree, large when they confidently disagree, `ln 2` per bit when the
//! channel says nothing. This reduces exactly to a scaled Hamming
//! distance for hard LLRs, so BSC operation is the special case.

use crate::bits::Message;
use crate::decoder::DecodeResult;
use crate::params::CodeParams;
use crate::puncturing::{Schedule, ScheduleCursor};
use crate::spine::{compute_spine, spine_step};
use crate::symbols::SymbolGen;

/// How many coded bits each (spine, RNG index) position contributes in
/// bit mode: the top `BITS_PER_POSITION` bits of the RNG word. Using 8
/// keeps one schedule position = one byte, which packs evenly into
/// QAM-16/64/256 symbols.
pub const BITS_PER_POSITION: usize = 8;

/// Bit-mode encoder: emits coded bits for an external modulator.
#[derive(Debug, Clone)]
pub struct BitEncoder {
    spine: Vec<u32>,
    gen: SymbolGen,
    cursor: ScheduleCursor,
}

impl BitEncoder {
    /// Encode `msg` under `params` for bit-mode transmission.
    pub fn new(params: &CodeParams, msg: &Message) -> Self {
        params.validate();
        BitEncoder {
            spine: compute_spine(params, msg),
            gen: SymbolGen::new(params),
            cursor: ScheduleCursor::new(Schedule::new(
                params.num_spines(),
                params.tail,
                params.puncturing,
            )),
        }
    }

    /// Emit the next `count` coded bits (multiples of
    /// [`BITS_PER_POSITION`] advance the schedule cleanly; other counts
    /// are rounded up internally by the caller supplying buffer space).
    pub fn next_bits(&mut self, positions: usize) -> Vec<bool> {
        let mut out = Vec::with_capacity(positions * BITS_PER_POSITION);
        for _ in 0..positions {
            let pos = self.cursor.next_position();
            let word = self.gen.word(self.spine[pos.spine], pos.rng_index);
            for j in 0..BITS_PER_POSITION {
                out.push((word >> (31 - j)) & 1 == 1);
            }
        }
        out
    }
}

/// Receive buffer of per-bit LLRs grouped by spine value.
#[derive(Debug, Clone)]
pub struct RxLlrs {
    per_spine: Vec<Vec<(u32, [f64; BITS_PER_POSITION])>>,
    cursor: ScheduleCursor,
    count: usize,
}

impl RxLlrs {
    /// Empty buffer following `schedule`.
    pub fn new(schedule: Schedule) -> Self {
        let n = schedule.n_spines();
        RxLlrs {
            per_spine: vec![Vec::new(); n],
            cursor: ScheduleCursor::new(schedule),
            count: 0,
        }
    }

    /// Push demapped LLRs (positive ⇒ bit 0), in transmission order,
    /// `BITS_PER_POSITION` per schedule position.
    pub fn push(&mut self, llrs: &[f64]) {
        assert!(llrs.len().is_multiple_of(BITS_PER_POSITION));
        for chunk in llrs.chunks(BITS_PER_POSITION) {
            let pos = self.cursor.next_position();
            let mut arr = [0.0; BITS_PER_POSITION];
            arr.copy_from_slice(chunk);
            self.per_spine[pos.spine].push((pos.rng_index, arr));
            self.count += 1;
        }
    }

    /// Schedule positions received.
    pub fn positions_received(&self) -> usize {
        self.count
    }
}

/// Bit-mode bubble decoder (same beam search, LLR branch metric).
#[derive(Debug, Clone)]
pub struct BitModeDecoder {
    params: CodeParams,
    gen: SymbolGen,
}

impl BitModeDecoder {
    /// Build for `params` (must match the encoder's).
    pub fn new(params: &CodeParams) -> Self {
        params.validate();
        BitModeDecoder {
            params: params.clone(),
            gen: SymbolGen::new(params),
        }
    }

    /// Decode from buffered LLRs. Beam search with `d = params.d = 1`
    /// supported (bit mode is an overlay; the depth generalisation lives
    /// in the main decoder).
    pub fn decode(&self, rx: &RxLlrs) -> DecodeResult {
        let p = &self.params;
        assert_eq!(p.d, 1, "bit-mode decoder implements d = 1 (M-algorithm)");
        let ns = p.num_spines();
        let fanout = 1u32 << p.k;

        let branch = |state: u32, spine_idx: usize| -> f64 {
            let mut cost = 0.0;
            for (t, llrs) in &rx.per_spine[spine_idx] {
                let word = self.gen.word(state, *t);
                for (j, &l) in llrs.iter().enumerate() {
                    let bit_one = (word >> (31 - j)) & 1 == 1;
                    // −ln P(bit | LLR): ln(1+e^{−L}) for bit 0, ln(1+e^{L}) for bit 1.
                    let s = if bit_one { l } else { -l };
                    cost += if s > 30.0 { s } else { (1.0 + s.exp()).ln() };
                }
            }
            cost
        };

        // Plain beam search with arena backtracking.
        const NO_PARENT: u32 = u32::MAX;
        let mut arena: Vec<(u32, u32)> = Vec::new();
        let mut beam: Vec<(u32, f64, u32)> = vec![(p.s0, 0.0, NO_PARENT)]; // (state, cost, arena id)
        let mut cand: Vec<(u32, f64, u32, u32)> = Vec::new();
        for depth in 0..ns {
            cand.clear();
            for &(state, cost, parent) in &beam {
                for edge in 0..fanout {
                    let next = spine_step(p.hash, state, edge);
                    cand.push((next, cost + branch(next, depth), parent, edge));
                }
            }
            // total_cmp: a NaN LLR cost must not panic the comparator
            // (same NaN policy as the main bubble decoder).
            cand.sort_unstable_by(|a, b| a.1.total_cmp(&b.1));
            cand.truncate(p.b);
            beam.clear();
            for &(state, cost, parent, edge) in &cand {
                arena.push((parent, edge));
                beam.push((state, cost, (arena.len() - 1) as u32));
            }
        }

        let &(_, cost, mut node) = beam
            .iter()
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("beam never empty");
        let mut msg = Message::zeros(p.n);
        let mut depth = ns;
        while node != NO_PARENT {
            let (parent, edge) = arena[node as usize];
            depth -= 1;
            msg.set_bits(depth * p.k, p.k, edge);
            node = parent;
        }
        debug_assert_eq!(depth, 0);
        DecodeResult {
            message: msg,
            cost,
            escalated: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn hard_llrs(bits: &[bool], mag: f64) -> Vec<f64> {
        bits.iter().map(|&b| if b { -mag } else { mag }).collect()
    }

    #[test]
    fn decodes_perfect_llrs() {
        let p = CodeParams::default().with_n(64);
        let mut rng = StdRng::seed_from_u64(1);
        let msg = Message::random(64, || rng.gen());
        let mut enc = BitEncoder::new(&p, &msg);
        let schedule = Schedule::new(p.num_spines(), p.tail, p.puncturing);
        let mut rx = RxLlrs::new(schedule.clone());
        let positions = 2 * schedule.symbols_per_pass();
        rx.push(&hard_llrs(&enc.next_bits(positions), 12.0));
        let out = BitModeDecoder::new(&p).decode(&rx);
        assert_eq!(out.message, msg);
        assert!(out.cost < 0.05, "cost {}", out.cost); // Σ ln(1+e^−12) over ~1k bits
    }

    #[test]
    fn decodes_noisy_llrs_from_flipped_bits() {
        // 5% hard flips with honest LLR magnitude ln(0.95/0.05).
        let p = CodeParams::default().with_n(64).with_b(64);
        let mut rng = StdRng::seed_from_u64(2);
        let msg = Message::random(64, || rng.gen());
        let mut enc = BitEncoder::new(&p, &msg);
        let schedule = Schedule::new(p.num_spines(), p.tail, p.puncturing);
        let mut rx = RxLlrs::new(schedule.clone());
        let positions = 3 * schedule.symbols_per_pass();
        let bits = enc.next_bits(positions);
        let mag = (0.95f64 / 0.05).ln();
        let llrs: Vec<f64> = bits
            .iter()
            .map(|&b| {
                let flipped = rng.gen::<f64>() < 0.05;
                let seen = b ^ flipped;
                if seen {
                    -mag
                } else {
                    mag
                }
            })
            .collect();
        rx.push(&llrs);
        let out = BitModeDecoder::new(&p).decode(&rx);
        assert_eq!(out.message, msg);
    }

    #[test]
    fn zero_llrs_carry_no_information() {
        // All-zero LLRs: every candidate ties at (bits·ln2); the decoder
        // returns *something* but a single confident pass then fixes it.
        let p = CodeParams::default().with_n(32).with_b(8);
        let mut rng = StdRng::seed_from_u64(3);
        let msg = Message::random(32, || rng.gen());
        let mut enc = BitEncoder::new(&p, &msg);
        let schedule = Schedule::new(p.num_spines(), p.tail, p.puncturing);
        let mut rx = RxLlrs::new(schedule.clone());
        let positions = schedule.symbols_per_pass();
        let bits = enc.next_bits(positions);
        rx.push(&vec![0.0; positions * BITS_PER_POSITION]);
        rx.push(&hard_llrs(&enc.next_bits(positions), 10.0));
        let _ = bits;
        let out = BitModeDecoder::new(&p).decode(&rx);
        assert_eq!(out.message, msg);
    }

    #[test]
    fn works_through_real_qam_demapping() {
        // The full §3 overlay: bit-mode spinal → Gray QAM-16 → AWGN →
        // soft demap → bit-mode decode.
        use spinal_channel::{AwgnChannel, Channel};
        use spinal_modem::{Demapper, Qam};
        let p = CodeParams::default().with_n(64).with_b(64);
        let mut rng = StdRng::seed_from_u64(4);
        let msg = Message::random(64, || rng.gen());
        let mut enc = BitEncoder::new(&p, &msg);
        let schedule = Schedule::new(p.num_spines(), p.tail, p.puncturing);
        let mut rx = RxLlrs::new(schedule.clone());
        let demapper = Demapper::new(Qam::new(4));
        let mut ch = AwgnChannel::new(14.0, 9);
        // 4 passes of positions; 8 bits/position over QAM-16 = 2 symbols.
        let positions = 4 * schedule.symbols_per_pass();
        let bits = enc.next_bits(positions);
        let tx = demapper.qam().modulate(&bits);
        let noisy = ch.transmit(&tx);
        rx.push(&demapper.llrs_block(&noisy, 1.0 / ch.snr()));
        let out = BitModeDecoder::new(&p).decode(&rx);
        assert_eq!(out.message, msg);
    }

    #[test]
    fn prefix_property_in_bit_mode() {
        let p = CodeParams::default().with_n(64);
        let mut rng = StdRng::seed_from_u64(5);
        let msg = Message::random(64, || rng.gen());
        let mut a = BitEncoder::new(&p, &msg);
        let mut b = BitEncoder::new(&p, &msg);
        let long = a.next_bits(100);
        let mut parts = b.next_bits(37);
        parts.extend(b.next_bits(63));
        assert_eq!(long, parts);
    }
}
