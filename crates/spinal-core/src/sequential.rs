//! Classical stack (Zigangirov–Jelinek) sequential decoding, the
//! algorithm family §4.3 positions the bubble decoder against ("our
//! bubble decoder may be viewed as a generalization of the classical
//! sequential decoding algorithm as well as the M-algorithm").
//!
//! The stack decoder keeps a priority queue of partial paths ordered by
//! a depth-adjusted (Fano-style) metric and always extends the best one.
//! Unlike the beam search it has no fixed work bound: at high SNR it
//! explores almost nothing, at low SNR it can thrash — which is exactly
//! why the paper prefers the bubble decoder's hardware-friendly constant
//! shape. Tests compare the two, and the `node budget` knob makes the
//! comparison fair.

use crate::bits::Message;
use crate::decoder::DecodeResult;
use crate::params::CodeParams;
use crate::rx::RxSymbols;
use crate::spine::spine_step;
use crate::symbols::SymbolGen;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A partial path on the stack.
#[derive(Debug, Clone)]
struct Path {
    /// Fano-adjusted metric (lower is better).
    metric: f64,
    /// Raw accumulated cost (for the final report).
    cost: f64,
    depth: usize,
    state: u32,
    /// Edges from the root, k bits each, oldest in the high bits.
    bits: u128,
}

impl PartialEq for Path {
    fn eq(&self, other: &Self) -> bool {
        // Consistent with the `total_cmp`-based `Ord` below (IEEE `==`
        // would disagree with it on ±0.0 and NaN).
        self.metric.total_cmp(&other.metric) == Ordering::Equal
    }
}
impl Eq for Path {}
impl PartialOrd for Path {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Path {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for min-metric-first.
        // `total_cmp` (not `partial_cmp(..).unwrap_or(Equal)`): mapping
        // incomparable metrics to Equal silently corrupts the heap's
        // priority order under NaN. Under the total order a (positive)
        // NaN metric sorts above +∞, i.e. a NaN path is explored last —
        // the same "degenerate = worst" policy as the bubble decoder.
        other.metric.total_cmp(&self.metric)
    }
}

/// Outcome of a stack decode.
#[derive(Debug, Clone)]
pub struct StackResult {
    /// Best full-depth message found, if the budget sufficed.
    pub result: Option<DecodeResult>,
    /// Tree nodes expanded (the work actually done).
    pub nodes_expanded: usize,
}

/// The stack sequential decoder.
#[derive(Debug, Clone)]
pub struct StackDecoder {
    params: CodeParams,
    gen: SymbolGen,
    /// Per-depth metric bias: subtracting `bias` per level rewards deeper
    /// paths (the Fano metric's role). Calibrated to the expected
    /// per-spine cost of the *correct* path so wrong shallow paths don't
    /// starve deep ones.
    bias: f64,
    /// Node expansion budget before giving up.
    pub max_nodes: usize,
}

impl StackDecoder {
    /// Build a stack decoder; `bias` should approximate the expected
    /// branch cost of the true path (for AWGN with L observed symbols
    /// per spine: `L·σ²` — callers know both).
    pub fn new(params: &CodeParams, bias: f64) -> Self {
        params.validate();
        assert!(
            params.n <= 128 / params.k * params.k,
            "path bits exceed u128"
        );
        StackDecoder {
            params: params.clone(),
            gen: SymbolGen::new(params),
            bias,
            max_nodes: 1_000_000,
        }
    }

    /// Cap the node budget.
    pub fn with_max_nodes(mut self, max_nodes: usize) -> Self {
        self.max_nodes = max_nodes;
        self
    }

    /// Decode from complex observations.
    pub fn decode(&self, rx: &RxSymbols) -> StackResult {
        let p = &self.params;
        let ns = p.num_spines();
        let fanout = 1u32 << p.k;

        let branch = |state: u32, spine_idx: usize| -> f64 {
            let mut cost = 0.0;
            for e in rx.spine_entries(spine_idx) {
                cost += e.y.dist_sq(e.h * self.gen.complex(state, e.rng_index));
            }
            cost
        };

        let mut heap = BinaryHeap::new();
        heap.push(Path {
            metric: 0.0,
            cost: 0.0,
            depth: 0,
            state: p.s0,
            bits: 0,
        });
        let mut expanded = 0usize;

        while let Some(path) = heap.pop() {
            if path.depth == ns {
                let mut msg = Message::zeros(p.n);
                for i in 0..ns {
                    let shift = (ns - 1 - i) * p.k;
                    msg.set_bits(
                        i * p.k,
                        p.k,
                        ((path.bits >> shift) & ((1 << p.k) - 1)) as u32,
                    );
                }
                return StackResult {
                    result: Some(DecodeResult {
                        message: msg,
                        cost: path.cost,
                        escalated: false,
                    }),
                    nodes_expanded: expanded,
                };
            }
            if expanded >= self.max_nodes {
                return StackResult {
                    result: None,
                    nodes_expanded: expanded,
                };
            }
            expanded += 1;
            for edge in 0..fanout {
                let state = spine_step(p.hash, path.state, edge);
                let c = branch(state, path.depth);
                heap.push(Path {
                    metric: path.metric + c - self.bias,
                    cost: path.cost + c,
                    depth: path.depth + 1,
                    state,
                    bits: (path.bits << p.k) | edge as u128,
                });
            }
        }
        StackResult {
            result: None,
            nodes_expanded: expanded,
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

    fn setup(
        n: usize,
        snr_db: f64,
        passes: usize,
        seed: u64,
    ) -> (CodeParams, Message, RxSymbols, f64) {
        let p = CodeParams::default().with_n(n);
        let mut rng = StdRng::seed_from_u64(seed);
        let msg = Message::random(n, || rng.gen());
        let mut enc = Encoder::new(&p, &msg);
        let schedule = Schedule::new(p.num_spines(), p.tail, p.puncturing);
        let mut rx = RxSymbols::new(schedule.clone());
        let mut ch = AwgnChannel::new(snr_db, seed + 1);
        let tx = enc.next_symbols(passes * schedule.symbols_per_pass());
        rx.push(&ch.transmit(&tx));
        let sigma2 = 1.0 / ch.snr();
        let bias = passes as f64 * sigma2; // E[cost] of the true branch
        (p, msg, rx, bias)
    }

    #[test]
    fn stack_decodes_at_high_snr_with_tiny_work() {
        let (p, msg, rx, bias) = setup(64, 20.0, 2, 1);
        let out = StackDecoder::new(&p, bias).decode(&rx);
        let res = out.result.expect("stack should finish");
        assert_eq!(res.message, msg);
        // Near-noiseless: the stack walks almost straight down.
        assert!(
            out.nodes_expanded < 4 * p.num_spines(),
            "{} nodes for {} spines",
            out.nodes_expanded,
            p.num_spines()
        );
    }

    #[test]
    fn stack_work_explodes_as_snr_falls() {
        // The §4.3 motivation for the bubble decoder: variable-work
        // sequential decoding thrashes near capacity.
        let (p_hi, _, rx_hi, bias_hi) = setup(64, 18.0, 2, 3);
        let (p_lo, _, rx_lo, bias_lo) = setup(64, 4.0, 2, 3);
        let hi = StackDecoder::new(&p_hi, bias_hi).decode(&rx_hi);
        let lo = StackDecoder::new(&p_lo, bias_lo).decode(&rx_lo);
        assert!(
            lo.nodes_expanded > 3 * hi.nodes_expanded,
            "lo {} vs hi {}",
            lo.nodes_expanded,
            hi.nodes_expanded
        );
    }

    #[test]
    fn stack_and_bubble_agree_when_both_comfortable() {
        for seed in 0..3 {
            let (p, msg, rx, bias) = setup(48, 15.0, 2, 10 + seed);
            let stack = StackDecoder::new(&p, bias).decode(&rx);
            let bubble = DecodeRequest::new(&BubbleDecoder::new(&p), &rx).decode();
            assert_eq!(stack.result.expect("finished").message, msg);
            assert_eq!(bubble.message, msg);
        }
    }

    #[test]
    fn nan_metric_does_not_corrupt_stack_order() {
        // Degenerate CSI produces NaN branch costs; the old
        // `partial_cmp(..).unwrap_or(Equal)` comparator made NaN paths
        // compare Equal to everything, scrambling the heap. With
        // `total_cmp` NaN sorts worst, so a NaN-cost observation leaves
        // the decoder functional: it terminates within budget and reports
        // its work honestly.
        use spinal_channel::Complex;
        let p = CodeParams::default().with_n(32);
        let msg = crate::bits::Message::zeros(32);
        let mut enc = crate::encoder::Encoder::new(&p, &msg);
        let schedule = Schedule::new(p.num_spines(), p.tail, p.puncturing);
        let mut rx = RxSymbols::new(schedule);
        let tx = enc.next_symbols(2 * p.symbols_per_pass());
        let hs: Vec<Complex> = (0..tx.len())
            .map(|i| {
                if i == 3 {
                    Complex::new(f64::INFINITY, 0.0)
                } else {
                    Complex::ONE
                }
            })
            .collect();
        rx.push_with_csi(&tx, &hs);
        let out = StackDecoder::new(&p, 0.0)
            .with_max_nodes(50_000)
            .decode(&rx);
        assert!(out.nodes_expanded <= 50_000);
        if let Some(res) = out.result {
            assert_eq!(res.message.len_bits(), 32);
        }
    }

    #[test]
    fn budget_exhaustion_reports_none() {
        // Fewer expansions than spine steps can never reach a leaf.
        let (p, _, rx, bias) = setup(64, 10.0, 1, 7);
        let out = StackDecoder::new(&p, bias).with_max_nodes(10).decode(&rx);
        assert!(out.result.is_none());
        assert_eq!(out.nodes_expanded, 10);
    }

    #[test]
    fn bias_matters_for_efficiency() {
        // A grossly wrong (zero) bias forces breadth-first behaviour and
        // much more work at the same SNR.
        let (p, msg, rx, bias) = setup(48, 12.0, 2, 21);
        let tuned = StackDecoder::new(&p, bias).decode(&rx);
        let untuned = StackDecoder::new(&p, 0.0)
            .with_max_nodes(200_000)
            .decode(&rx);
        assert_eq!(tuned.result.expect("tuned finishes").message, msg);
        assert!(
            untuned.nodes_expanded > tuned.nodes_expanded,
            "untuned {} should exceed tuned {}",
            untuned.nodes_expanded,
            tuned.nodes_expanded
        );
    }
}
