//! The bubble decoder (§4, Figure 4-1): approximate maximum-likelihood
//! decoding by pruned breadth-first search over the tree of message
//! prefixes.
//!
//! The beam holds `B` subtree roots. At the start of a step each root
//! carries its partial subtree grown to depth `d−1` (represented as a flat
//! *frontier* of leaves). A step (Figure 4-1):
//!
//! 1. grow every frontier leaf one level (exploring `B·2^(kd)` nodes —
//!    the cost §4.5 states),
//! 2. propagate minimum leaf cost up to each root's children,
//! 3. keep the best `B` children as the new roots (ties broken
//!    deterministically by key index), discarding the rest.
//!
//! With `d = 1` this is exactly the classical M-algorithm / beam search;
//! growing `d` trades beam diversity for fewer, cheaper pruning decisions
//! (Figure 8-7).
//!
//! Committed decisions are recorded in an append-only arena of
//! `(parent, edge)` records, so memory for history is `O(B·n/k)` per
//! attempt rather than the full tree. The decoder rebuilds its tree and
//! its branch-metric tables from the receive buffer on every attempt
//! (§7.1): one walk over the buffer writes every observation's exact
//! tables into one flat slab, which the exact profile decodes from and
//! the quantized profile quantizes (see [`crate::quant`]).
//!
//! # Metric profiles
//!
//! Every decode runs under a [`MetricProfile`]:
//!
//! * [`MetricProfile::Exact`] — `f64` branch metrics, the reference
//!   profile whose outputs the decode corpus pins bit for bit.
//! * [`MetricProfile::Quantized`] — the integer fast path: per-table
//!   affine `u16` quantization (order-preserving within each
//!   observation), flat L1-resident tables, saturating `u32` path costs,
//!   and radix selection. Deterministic at every thread count (ties use
//!   the same canonical order), statistically — not bitwise — equivalent
//!   to `Exact`. See the [`crate::quant`] module docs.
//!
//! Both profiles share one generic beam search over a [`CostKind`]; the
//! exact instantiation compiles to the same operations as before the
//! profile split.
//!
//! # Beam ladder
//!
//! A decode's work is `B·2^k` per step (§4), yet on unpunctured passes
//! a much narrower beam usually finds the same message. A decoder given
//! a block check ([`BubbleDecoder::with_block_check`], the CRC for
//! framed blocks) climbs a two-rung ladder when its schedule is
//! unpunctured and `B/16 ≥ 2`:
//!
//! 1. run a `B/16` beam over the attempt's tables, and return its
//!    candidate if the check accepts it;
//! 2. otherwise run the configured `B` over the same tables (built once
//!    per attempt), which is exactly the decode without a ladder, and
//!    mark the result [`escalated`](DecodeResult::escalated).
//!
//! Every entry point — symbols and bits, under both profiles — goes
//! through the one ladder helper, so requests, service batches and
//! service sessions stay bit-identical. A rung of width `w` equals a
//! fresh decoder built from `params.with_b(w)`, bit for bit. The top
//! rung is `B`, so a block decodes at the same subpass boundary as
//! without the ladder, or an earlier one; the exception is a check that
//! falsely accepts a wrong first-rung candidate. Each escalation is one
//! more wrong candidate offered to the check.
//!
//! The rung and the gate are derived, not configured. They rest on
//! replays of the transport benchmark's transfers through `spinal-net`
//! (n = 256, k = 4, B = 256, quantized, on a 2-core x86-64 host):
//!
//! * On unpunctured passes, `B/16` escalated only at boundaries where
//!   `B = 256` failed too: 1, 0, 1 and 1 times over the short
//!   (3,000 transfers) and bulk (60 transfers) workloads at seeds 1 and
//!   7919. So the ladder at most doubles the wrong candidates there, and
//!   every transfer sent the same symbols as without it.
//! * A `B/32 = 8` first rung escalated 20 times on the short workload
//!   at seed 1, mostly where `B = 256` decoded. It gave 1.28–1.33× the
//!   goodput of `B/16` over five pairs of 10 s runs, but its escalations
//!   outnumber the full beam's failures; `B/16` is the narrowest rung
//!   measured that keeps them below.
//! * Under the default 8-way puncturing (short workload at 18 dB, 400
//!   transfers), first rungs of width 8, 16 and 32 escalated on 86–92%
//!   of attempts. They cut the replay's wall time by only 7–19% in
//!   single runs, and more than doubled the wrong candidates per
//!   delivered block (3.52 to 7.41–7.67). So a punctured schedule never
//!   takes the ladder.
//!
//! # Hot-path organisation
//!
//! The inner loop is engineered around three observations:
//!
//! * **Branch-metric tables.** The AWGN/fading branch cost
//!   `|y − h·x|²` separates per I/Q dimension:
//!   `|y|² + (|h|²·x_I² − 2·Re(y·h̄)·x_I) + (|h|²·x_Q² − 2·Im(y·h̄)·x_Q)`.
//!   Everything except the constellation point is fixed per received
//!   symbol, so each attempt builds two `2^c`-entry lookup tables per
//!   observation and the per-candidate cost collapses to two table loads
//!   indexed by the symbol bits of the RNG word. The BSC analogue is a
//!   2-entry table per received bit. Non-finite table values (degenerate
//!   CSI such as `h = ∞` producing `∞ − ∞ = NaN`) are clamped to `+∞`:
//!   a broken observation is *uninformative*, never a panic and never a
//!   `−∞` free lunch.
//! * **Batched, structure-of-arrays expansion.** Frontier leaves live in
//!   a [`Frontier`] of parallel arrays (`state`, `cost`, `tree`,
//!   `rel_path`) and children are produced edge-major, so spine hashing
//!   and RNG hashing run as
//!   [`HashKind::hash_many`](crate::hash::HashKind::hash_many) batches
//!   the CPU can pipeline (~8× faster than a dependent hash chain).
//! * **Partial selection, reusable buffers.** The best-`B` cut uses
//!   `select_nth_unstable_by` (O(candidates)) under the exact profile and
//!   a radix bucket prune (O(candidates + buckets), no comparator) under
//!   the quantized one, with `f64::total_cmp` so a NaN cost can never
//!   panic the comparator. All buffers live in a [`DecodeWorkspace`];
//!   repeated attempts (§7.1's retry loop) allocate nothing after
//!   warm-up.
//!
//! # Order-independent reductions
//!
//! Every reduction over frontier leaves is *insensitive to enumeration
//! order*: per-key minima are plain minima (no NaN can enter them —
//! table entries are clamped finite-or-`+∞`, and integer minima are
//! exact), key selection ties break on the key index, and the final
//! winner is the minimum under the **total** order
//! `(cost, tree index, relative path)`, which names a unique leaf
//! regardless of where it sits in the frontier arrays. This is what
//! lets the specialised quantized `d = 1` kernel, which lays its
//! frontier out leaf-major and scores it block by block, agree bit for
//! bit with the generic beam, even when every leaf ties at `+∞`. The
//! one order that does matter is within a path cost: saturating adds
//! are not associative, so wherever a sum could saturate the kernel
//! adds each child's observations one at a time in the generic beam's
//! order.

use crate::bits::Message;
use crate::params::CodeParams;
use crate::quant::{pair_delta, radix_select_keys, radix_threshold, MetricProfile, QuantTables};
use crate::rx::{RxBits, RxEntry, RxSymbols};
use crate::symbols::SymbolGen;
use std::cmp::Ordering;

/// Result of one decode attempt.
#[derive(Debug, Clone)]
pub struct DecodeResult {
    /// The decoded message (best candidate). Validate with the framing
    /// CRC — the bubble decoder itself cannot know whether it succeeded.
    pub message: Message,
    /// Path cost of the winning leaf (`Σ‖ȳᵢ − x̄ᵢ‖²` for AWGN, Hamming
    /// distance for BSC). Under the quantized profile this is the
    /// integer path cost mapped back to exact-metric units through the
    /// decode's affine quantization map (`u32::MAX` ⇒ `+∞`).
    pub cost: f64,
    /// True when the [beam ladder](self#beam-ladder) ran the configured
    /// beam because the block check rejected the narrow first rung's
    /// candidate. Always false for a decoder whose ladder is off.
    pub escalated: bool,
}

/// The arithmetic of one metric profile: how path costs accumulate,
/// compare, select, and report. Two instantiations exist — `f64` (the
/// exact profile) and `u32` (the quantized profile, with `u16` table
/// entries and saturating accumulation).
trait CostKind: Copy + Send + Sync + Default + PartialEq + std::fmt::Debug + 'static {
    /// Branch-metric table entry type (`f64` exact, `u16` quantized).
    type Entry: Copy + Send + Sync + Default + std::fmt::Debug + 'static;
    /// The root cost.
    const ZERO: Self;
    /// The uninformative / saturated cost.
    const INF: Self;
    /// Accumulate one observation's I and Q table entries.
    fn add_pair(self, i: Self::Entry, q: Self::Entry) -> Self;
    /// Accumulate one hard-bit observation (Hamming metric).
    fn add_bit(self, mismatch: bool) -> Self;
    /// The reduction order for per-key minima folds (associative,
    /// NaN-free by table clamping).
    fn min_less(a: Self, b: Self) -> bool;
    /// Total order for canonical tie-breaking (`total_cmp` for `f64`).
    fn total_cmp(a: Self, b: Self) -> Ordering;
    /// Keep the best `b` keys (ties by key index) in ascending key
    /// order. `scratch` is reusable working memory (the radix prune's
    /// candidate list; unused by the exact profile).
    fn select(key_min: &[Self], b: usize, order: &mut Vec<u32>, scratch: &mut Vec<u32>);
    /// Report the winning cost in exact-metric units via the profile's
    /// `(scale, offset)` dequantization map.
    fn to_cost_f64(self, dequant: (f64, f64)) -> f64;
}

impl CostKind for f64 {
    type Entry = f64;
    const ZERO: f64 = 0.0;
    const INF: f64 = f64::INFINITY;
    #[inline]
    fn add_pair(self, i: f64, q: f64) -> f64 {
        // Same association as the pre-profile code: cost + (ti + tq).
        self + (i + q)
    }
    #[inline]
    fn add_bit(self, mismatch: bool) -> f64 {
        self + f64::from(mismatch)
    }
    #[inline]
    fn min_less(a: f64, b: f64) -> bool {
        // Plain `<`: a NaN cost (possible only from exotic caller-built
        // buffers) loses every comparison, leaving the fold at +∞ —
        // ordered, never panicking.
        a < b
    }
    #[inline]
    fn total_cmp(a: f64, b: f64) -> Ordering {
        f64::total_cmp(&a, &b)
    }
    fn select(key_min: &[f64], b: usize, order: &mut Vec<u32>, _scratch: &mut Vec<u32>) {
        select_keys(key_min, b, order);
    }
    #[inline]
    fn to_cost_f64(self, _dequant: (f64, f64)) -> f64 {
        self
    }
}

impl CostKind for u32 {
    type Entry = u16;
    const ZERO: u32 = 0;
    const INF: u32 = u32::MAX;
    #[inline]
    fn add_pair(self, i: u16, q: u16) -> u32 {
        // Saturating: a Q_INF sentinel pins the pair delta (and so the
        // path) at u32::MAX; honest overflow saturates, never wraps.
        self.saturating_add(pair_delta(i, q))
    }
    #[inline]
    fn add_bit(self, mismatch: bool) -> u32 {
        self.saturating_add(u32::from(mismatch))
    }
    #[inline]
    fn min_less(a: u32, b: u32) -> bool {
        a < b
    }
    #[inline]
    fn total_cmp(a: u32, b: u32) -> Ordering {
        a.cmp(&b)
    }
    fn select(key_min: &[u32], b: usize, order: &mut Vec<u32>, scratch: &mut Vec<u32>) {
        radix_select_keys(key_min, b, order, scratch);
    }
    #[inline]
    fn to_cost_f64(self, (scale, offset): (f64, f64)) -> f64 {
        if self == u32::MAX {
            f64::INFINITY
        } else {
            f64::from(self) * scale + offset
        }
    }
}

/// The frontier of one beam-search attempt: leaves in
/// structure-of-arrays form, plus the double-buffer halves and
/// hashing scratch one expansion step needs. Generic over the metric
/// profile's cost type.
#[derive(Debug, Clone, Default)]
struct Frontier<C: CostKind> {
    states: Vec<u32>,
    costs: Vec<C>,
    trees: Vec<u32>,
    paths: Vec<u64>,
    // Expansion target (swapped with the frontier every step).
    next_states: Vec<u32>,
    next_costs: Vec<C>,
    next_trees: Vec<u32>,
    next_paths: Vec<u64>,
    // RNG-word scratch for branch-metric accumulation.
    words: Vec<u32>,
}

/// The branch metric of one decode step, in table form. Tables are
/// built once per (step, observation) and are read-only during
/// expansion.
#[derive(Debug, Clone, Copy)]
enum StepMetric<'a, C: CostKind> {
    /// Complex symbols: per-entry `[I table (m), Q table (m)]`
    /// concatenated in `tables`, with the entry's RNG index in `rngs`.
    Symbols {
        rngs: &'a [u32],
        tables: &'a [C::Entry],
        m: usize,
        i_shift: usize,
        q_shift: usize,
    },
    /// Hard bits: `(rng_index, received_bit)` per observation.
    Bits { entries: &'a [(u32, bool)] },
}

impl<C: CostKind> Frontier<C> {
    /// Reset to the single root leaf `s0` (cost 0, tree 0, empty path).
    fn reset_root(&mut self, s0: u32) {
        self.clear();
        self.states.push(s0);
        self.costs.push(C::ZERO);
        self.trees.push(0);
        self.paths.push(0);
    }

    /// Drop all leaves (capacity retained).
    fn clear(&mut self) {
        self.states.clear();
        self.costs.clear();
        self.trees.clear();
        self.paths.clear();
    }

    /// One expansion step: grow every leaf by one level (edge-major,
    /// batched hashing) and add the branch costs of `metric` from its
    /// pre-built tables.
    fn expand(&mut self, hash: crate::hash::HashKind, k: usize, metric: &StepMetric<'_, C>) {
        let fanout = 1usize << k;
        let f = self.states.len();
        let ef = f << k;

        // Grow: child (edge, leaf) lives at index edge·F + leaf.
        self.next_states.resize(ef, 0);
        self.next_costs.resize(ef, C::ZERO);
        self.next_trees.resize(ef, 0);
        self.next_paths.resize(ef, 0);
        for edge in 0..fanout {
            let base = edge * f;
            hash.hash_many(
                &self.states,
                edge as u32,
                &mut self.next_states[base..base + f],
            );
            self.next_costs[base..base + f].copy_from_slice(&self.costs);
            self.next_trees[base..base + f].copy_from_slice(&self.trees);
            for (np, &path) in self.next_paths[base..base + f].iter_mut().zip(&self.paths) {
                *np = (path << k) | edge as u64;
            }
        }

        // Accumulate branch costs from the per-observation metric tables.
        self.words.resize(ef, 0);
        match metric {
            StepMetric::Symbols {
                rngs,
                tables,
                m,
                i_shift,
                q_shift,
            } => {
                let bits_mask = m - 1;
                for (ei, &rng) in rngs.iter().enumerate() {
                    hash.hash_many(&self.next_states, rng, &mut self.words);
                    let table = &tables[ei * 2 * m..(ei + 1) * 2 * m];
                    let (ti, tq) = table.split_at(*m);
                    for (cost, &word) in self.next_costs.iter_mut().zip(&self.words) {
                        *cost = cost.add_pair(
                            ti[(word >> i_shift) as usize],
                            tq[(word >> q_shift) as usize & bits_mask],
                        );
                    }
                }
            }
            StepMetric::Bits { entries } => {
                for &(t, y) in *entries {
                    hash.hash_many(&self.next_states, t, &mut self.words);
                    // Hamming cost: the transmitted bit is the RNG
                    // word's top bit; mismatch with the received bit y.
                    for (cost, &word) in self.next_costs.iter_mut().zip(&self.words) {
                        *cost = cost.add_bit((word >> 31 != 0) != y);
                    }
                }
            }
        }

        std::mem::swap(&mut self.states, &mut self.next_states);
        std::mem::swap(&mut self.costs, &mut self.next_costs);
        std::mem::swap(&mut self.trees, &mut self.next_trees);
        std::mem::swap(&mut self.paths, &mut self.next_paths);
    }

    /// Fold this frontier's leaves into the per-key minima. `key_min`
    /// must be sized `n_keys` and initialised to `INF`; the fold is
    /// order-independent (no NaN can reach a cost — table entries are
    /// clamped finite-or-`+∞`).
    fn accumulate_key_min(&self, k: usize, shift: u32, key_min: &mut [C]) {
        let edge_mask = (1usize << k) - 1;
        for ((&tree, &path), &cost) in self.trees.iter().zip(&self.paths).zip(&self.costs) {
            let key = ((tree as usize) << k) | ((path >> shift) as usize & edge_mask);
            if C::min_less(cost, key_min[key]) {
                key_min[key] = cost;
            }
        }
    }

    /// Re-root surviving leaves in place: drop the committed eldest edge
    /// and renumber trees, keeping leaves whose key survived selection.
    fn compact_in_place(&mut self, k: usize, shift: u32, key_to_new: &[u32]) {
        let edge_mask = (1usize << k) - 1;
        let strip_mask = strip_mask(shift);
        let mut w = 0usize;
        for r in 0..self.states.len() {
            let key =
                ((self.trees[r] as usize) << k) | ((self.paths[r] >> shift) as usize & edge_mask);
            let new_tree = key_to_new[key];
            if new_tree != u32::MAX {
                self.states[w] = self.states[r];
                self.costs[w] = self.costs[r];
                self.trees[w] = new_tree;
                self.paths[w] = self.paths[r] & strip_mask;
                w += 1;
            }
        }
        self.states.truncate(w);
        self.costs.truncate(w);
        self.trees.truncate(w);
        self.paths.truncate(w);
    }

    /// The winning leaf as `(cost, tree, rel_path)` — minimal under the
    /// canonical total order [`leaf_before`], which names a unique leaf
    /// independent of array order. `None` on an empty frontier.
    fn best_leaf(&self) -> Option<(C, u32, u64)> {
        let mut best: Option<(C, u32, u64)> = None;
        for ((&cost, &tree), &path) in self.costs.iter().zip(&self.trees).zip(&self.paths) {
            let cand = (cost, tree, path);
            best = Some(match best {
                Some(cur) if !leaf_before(&cand, &cur) => cur,
                _ => cand,
            });
        }
        best
    }
}

/// Mask keeping the low `shift` path bits (the part below the committed
/// eldest edge).
#[inline]
fn strip_mask(shift: u32) -> u64 {
    if shift == 0 {
        0
    } else {
        (1u64 << shift) - 1
    }
}

/// Canonical leaf order: cost (total order), then tree index, then
/// relative path. Total, so the minimum is unique and independent of
/// enumeration order — the generic beam and the `d = 1` kernel agree
/// even when several leaves tie on cost (e.g. all-`+∞` degenerate
/// observations, or the many exact ties integer metrics produce).
#[inline]
fn leaf_before<C: CostKind>(a: &(C, u32, u64), b: &(C, u32, u64)) -> bool {
    C::total_cmp(a.0, b.0)
        .then(a.1.cmp(&b.1))
        .then(a.2.cmp(&b.2))
        == Ordering::Less
}

/// Write one received symbol's `[I table | Q table]` branch metrics
/// into `out` (`2m` entries for `m` levels): the one expression of the
/// table build both profiles decode from
/// ([`QuantTables::build_exact`]).
#[inline]
pub(crate) fn observation_tables(levels: &[f64], e: &RxEntry, out: &mut [f64]) {
    let z = e.y * e.h.conj();
    let h2 = e.h.norm_sq();
    let y2 = e.y.norm_sq();
    let (ti, tq) = out.split_at_mut(levels.len());
    // The constant |y|² folds into the I table.
    for ((i, q), &lv) in ti.iter_mut().zip(tq).zip(levels) {
        *i = finite_or_inf(h2 * lv * lv - 2.0 * z.re * lv + y2);
        *q = finite_or_inf(h2 * lv * lv - 2.0 * z.im * lv);
    }
}

/// Keep the best `b` keys of `key_min` in `order` (all keys when
/// `b ≥ n_keys`): an O(n) partial selection instead of a full sort, with
/// ties broken by key index so the kept set is deterministic, then
/// re-sorted so tree numbering is canonical (independent of pivots —
/// and of how the key minima were accumulated). The quantized profile's
/// integer analogue is [`radix_select_keys`].
fn select_keys(key_min: &[f64], b: usize, order: &mut Vec<u32>) {
    let n_keys = key_min.len();
    order.clear();
    order.extend(0..n_keys as u32);
    let keep = b.min(n_keys);
    if keep < n_keys {
        order.select_nth_unstable_by(keep - 1, |&a, &b| {
            key_min[a as usize]
                .total_cmp(&key_min[b as usize])
                .then(a.cmp(&b))
        });
        order.truncate(keep);
        order.sort_unstable();
    }
}

/// Commit the selected keys: append each kept child to the arena, build
/// the key → new tree index map, and advance `tree_roots`.
fn commit_selection(
    order: &[u32],
    k: usize,
    tree_roots: &mut Vec<u32>,
    new_roots: &mut Vec<u32>,
    arena: &mut Vec<(u32, u32)>,
    key_to_new: &mut Vec<u32>,
    n_keys: usize,
) {
    let edge_mask = (1u32 << k) - 1;
    key_to_new.clear();
    key_to_new.resize(n_keys, u32::MAX);
    new_roots.clear();
    for (new_tree, &key) in order.iter().enumerate() {
        let tree = (key as usize) >> k;
        let edge = key & edge_mask;
        arena.push((tree_roots[tree], edge));
        key_to_new[key as usize] = new_tree as u32;
        new_roots.push((arena.len() - 1) as u32);
    }
    std::mem::swap(tree_roots, new_roots);
}

/// Rebuild the message from the winning leaf: its relative edges cover
/// the last `d−1` spine steps, the arena walk from `root` the rest.
fn reconstruct_message(
    p: &CodeParams,
    d: usize,
    arena: &[(u32, u32)],
    root: u32,
    best_path: u64,
) -> Message {
    let ns = p.num_spines();
    let k = p.k;
    let edge_mask = (1usize << k) - 1;
    let mut msg = Message::zeros(p.n);
    for j in 0..(d - 1) {
        let edge = (best_path >> ((d - 2 - j) * k)) as usize & edge_mask;
        msg.set_bits((ns - (d - 1) + j) * k, k, edge as u32);
    }
    let mut node = root;
    let mut step = ns - d; // spine step the current arena node decides
    loop {
        let (parent, edge) = arena[node as usize];
        msg.set_bits(step * k, k, edge);
        if parent == NO_PARENT {
            break;
        }
        node = parent;
        step -= 1;
    }
    debug_assert_eq!(step, 0);
    msg
}

// ---------------------------------------------------------------------
// Metric sources + the shared beam-search driver
// ---------------------------------------------------------------------

/// Supplies the branch metric of each decode step to [`beam_search`].
trait MetricSource<C: CostKind> {
    /// The metric of spine step `spine_idx` (tables may be built lazily).
    fn step(&mut self, spine_idx: usize) -> StepMetric<'_, C>;
}

/// One attempt's flat table slab with per-spine spans: the exact `f64`
/// entries or their quantized `u16` image.
struct PreparedSymbols<'a, C: CostKind> {
    tables: &'a [C::Entry],
    rngs: &'a [u32],
    spans: &'a [(u32, u32)],
    m: usize,
    i_shift: usize,
    q_shift: usize,
}

impl<C: CostKind> MetricSource<C> for PreparedSymbols<'_, C> {
    fn step(&mut self, spine_idx: usize) -> StepMetric<'_, C> {
        let (lo, hi) = self.spans[spine_idx];
        let (lo, hi) = (lo as usize, hi as usize);
        StepMetric::Symbols {
            rngs: &self.rngs[lo..hi],
            tables: &self.tables[lo * 2 * self.m..hi * 2 * self.m],
            m: self.m,
            i_shift: self.i_shift,
            q_shift: self.q_shift,
        }
    }
}

/// Hard-bit observations straight from the receive buffer (both
/// profiles: Hamming distance is already an integer metric).
struct BitsSource<'a> {
    rx: &'a RxBits,
}

impl<C: CostKind> MetricSource<C> for BitsSource<'_> {
    fn step(&mut self, spine_idx: usize) -> StepMetric<'_, C> {
        StepMetric::Bits {
            entries: self.rx.spine_entries(spine_idx),
        }
    }
}

/// The mutable buffers one beam search borrows from a workspace.
struct BeamScratch<'a, C: CostKind> {
    fr: &'a mut Frontier<C>,
    key_min: &'a mut Vec<C>,
    order: &'a mut Vec<u32>,
    key_to_new: &'a mut Vec<u32>,
    new_roots: &'a mut Vec<u32>,
    arena: &'a mut Vec<(u32, u32)>,
    tree_roots: &'a mut Vec<u32>,
    sel_scratch: &'a mut Vec<u32>,
}

/// The serial beam search of width `b`, shared by every profile and
/// table source. Mirrors the original `decode_inner` step for step;
/// returns the winning `(cost, tree, rel_path)` leaf, leaving the arena
/// and tree roots in `sc` for message reconstruction.
fn beam_search<C: CostKind, S: MetricSource<C>>(
    p: &CodeParams,
    src: &mut S,
    sc: &mut BeamScratch<'_, C>,
    b: usize,
) -> (C, u32, u64) {
    let ns = p.num_spines();
    let k = p.k;
    let d = p.d.min(ns);

    // Reset per-attempt state (capacity is retained).
    sc.arena.clear();
    sc.tree_roots.clear();
    sc.tree_roots.push(NO_PARENT);
    sc.fr.reset_root(p.s0);

    // Initial frontier: expand s0 to depth d−1 (spine indices 0..d−1).
    for depth in 1..d {
        let metric = src.step(depth - 1);
        sc.fr.expand(p.hash, k, &metric);
    }

    // Main loop: iteration i advances roots from depth i−1 to i;
    // the expansion consumes spine index i+d−2 (leaves reach absolute
    // depth i+d−1). After expansion a leaf's rel_path holds d·k bits;
    // the eldest edge (the root's child being judged) sits at bit
    // (d−1)·k.
    let shift = ((d - 1) * k) as u32;
    for i in 1..=(ns + 1 - d) {
        let metric = src.step(i + d - 2);
        sc.fr.expand(p.hash, k, &metric);

        // Score candidates: key = (tree, eldest edge of rel_path).
        let n_keys = sc.tree_roots.len() << k;
        sc.key_min.clear();
        sc.key_min.resize(n_keys, C::INF);
        sc.fr.accumulate_key_min(k, shift, sc.key_min);

        // Keep the best b keys. Every key is populated (expansion is
        // total over edges), so selection runs over all of them.
        C::select(sc.key_min, b, sc.order, sc.sel_scratch);
        commit_selection(
            sc.order,
            k,
            sc.tree_roots,
            sc.new_roots,
            sc.arena,
            sc.key_to_new,
            n_keys,
        );
        sc.fr.compact_in_place(k, shift, sc.key_to_new);
    }

    sc.fr.best_leaf().expect("frontier cannot be empty")
}

/// Reusable decode buffers: the frontier double buffers (structure of
/// arrays, one per metric profile), the attempt's branch-metric tables
/// (one [`QuantTables`], whose exact slab both profiles read), selection
/// scratch, and the committed history arena.
///
/// A workspace is parameter- and profile-agnostic — buffers grow to fit
/// whatever decode uses them — and intentionally cheap to create empty.
/// Reuse one per worker thread (or per batch of blocks decoded back to
/// back) so that the §7.1 attempt loop performs no heap allocation after
/// the first decode warms the buffers up.
#[derive(Debug, Clone, Default)]
pub struct DecodeWorkspace {
    fr: Frontier<f64>,
    qfr: Frontier<u32>,
    key_min: Vec<f64>,
    qkey_min: Vec<u32>,
    // The attempt's tables, built from the receive buffer on every
    // attempt: the exact slab alone for the exact profile, quantized
    // too for the quantized one.
    quant: QuantTables,
    // Selection scratch + committed root advancements, shared across
    // profiles.
    order: Vec<u32>,
    key_to_new: Vec<u32>,
    new_roots: Vec<u32>,
    arena: Vec<(u32, u32)>,
    tree_roots: Vec<u32>,
    sel_scratch: Vec<u32>,
    // The quantized d=1 kernel's second block of RNG words, beside
    // `qfr.words`: its sweeps fold a spine's observations in pairs.
    qwords2: Vec<u32>,
}

impl DecodeWorkspace {
    /// An empty workspace; buffers are allocated lazily by the first
    /// decode that uses it.
    pub fn new() -> Self {
        Self::default()
    }

    /// The exact profile's beam buffers, with the attempt's tables.
    fn exact_parts(&mut self) -> (BeamScratch<'_, f64>, &QuantTables) {
        let DecodeWorkspace {
            fr,
            key_min,
            quant,
            order,
            key_to_new,
            new_roots,
            arena,
            tree_roots,
            sel_scratch,
            ..
        } = self;
        let sc = BeamScratch {
            fr,
            key_min,
            order,
            key_to_new,
            new_roots,
            arena,
            tree_roots,
            sel_scratch,
        };
        (sc, quant)
    }

    /// The quantized profile's beam buffers, with the prepared
    /// quantized tables.
    fn quant_parts(&mut self) -> (BeamScratch<'_, u32>, &QuantTables) {
        let DecodeWorkspace {
            qfr,
            qkey_min,
            quant,
            order,
            key_to_new,
            new_roots,
            arena,
            tree_roots,
            sel_scratch,
            ..
        } = self;
        let sc = BeamScratch {
            fr: qfr,
            key_min: qkey_min,
            order,
            key_to_new,
            new_roots,
            arena,
            tree_roots,
            sel_scratch,
        };
        (sc, quant)
    }
}

const NO_PARENT: u32 = u32::MAX;

/// Cache block, in children, of the quantized `d = 1` kernel: each
/// spine is grown, hashed and scored a block of whole parents at a
/// time, one parent's children when `2^k` exceeds this. The block's
/// two RNG-word buffers are the workspace's `qfr.words` and `qwords2`,
/// L1-resident at this size, instead of full-frontier arrays.
const BLK: usize = 512;

/// One sweep of the quantized `d = 1` kernel over a block's children:
/// add one observation's branch metric to each child's cost, or two
/// with `PAIR`, gathered from the sweep's `[I | Q]` tables by the RNG
/// words `wa` (and `wb`). The `FIRST` sweep of a spine starts from the
/// parents' costs `bases`, `2^k` children each; later sweeps add to
/// the costs the one before wrote. With `PLAIN` the adds are plain
/// `u32` sums (see `BubbleDecoder::decode_quant_prepared`); otherwise
/// each observation saturates, in the generic beam's order.
///
/// With `2^c` levels per dimension, a word's I index is its top `c`
/// bits and its Q index the `c` bits below bit 16, so one variable
/// shift serves both. Each table is sliced to exactly `2^c` entries
/// and the masks keep each index below that, so the gathers carry no
/// bounds checks.
fn sweep<const FIRST: bool, const PAIR: bool, const PLAIN: bool>(
    costs: &mut [u32],
    bases: &[u32],
    (wa, wb): (&[u32], &[u32]),
    tables: &[u16],
    c: usize,
) {
    let m = 1usize << c;
    let (ti0, rest) = tables.split_at(m);
    let (tq0, rest) = rest.split_at(m);
    let (ti1, tq1) = if PAIR {
        (&rest[..m], &rest[m..2 * m])
    } else {
        (ti0, tq0)
    };
    let add = |cost: u32, word: u32, ti: &[u16], tq: &[u16]| {
        let word = (word >> (16 - c)) as usize;
        let i = ti[(word >> 16) & (m - 1)];
        let q = tq[word & (m - 1)];
        if PLAIN {
            cost + u32::from(i) + u32::from(q)
        } else {
            cost.saturating_add(pair_delta(i, q))
        }
    };
    let score = |cost: u32, a: u32, b: u32| {
        let cost = add(cost, a, ti0, tq0);
        if PAIR {
            add(cost, b, ti1, tq1)
        } else {
            cost
        }
    };
    if FIRST {
        let fanout = costs.len() / bases.len();
        for (((children, wa), wb), &base) in costs
            .chunks_exact_mut(fanout)
            .zip(wa.chunks_exact(fanout))
            .zip(wb.chunks_exact(fanout))
            .zip(bases)
        {
            for ((cost, &a), &b) in children.iter_mut().zip(wa).zip(wb) {
                *cost = score(base, a, b);
            }
        }
    } else {
        for ((cost, &a), &b) in costs.iter_mut().zip(wa).zip(wb) {
            *cost = score(*cost, a, b);
        }
    }
}

/// Degenerate observations (NaN / ±∞ metric contributions from broken
/// CSI or non-finite samples) are treated as uninformative: infinite
/// cost for every candidate, rather than a NaN that poisons comparisons.
#[inline]
fn finite_or_inf(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        f64::INFINITY
    }
}

/// Process-wide count of [`BubbleDecoder`] clones, for pinning "no
/// decoder clone on the hot path" contracts (see
/// [`BubbleDecoder::clones_total`]).
static DECODER_CLONES: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// The bubble decoder. Stateless across attempts: all received data lives
/// in the [`RxSymbols`]/[`RxBits`] buffer.
#[derive(Debug)]
pub struct BubbleDecoder {
    params: CodeParams,
    gen: SymbolGen,
    profile: MetricProfile,
    check: Option<fn(&Message) -> bool>,
}

impl Clone for BubbleDecoder {
    /// Cloning a decoder copies its parameter set and RNG tables — cheap
    /// but not free. The session/service layers hold one decoder in an
    /// `Arc` per session instead of cloning per submission; every clone
    /// bumps a process-wide counter ([`BubbleDecoder::clones_total`]) so
    /// tests can pin that contract.
    fn clone(&self) -> Self {
        DECODER_CLONES.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        BubbleDecoder {
            params: self.params.clone(),
            gen: self.gen.clone(),
            profile: self.profile,
            check: self.check,
        }
    }
}

impl BubbleDecoder {
    /// Build a decoder for `params` (must match the encoder's), using
    /// the default [`MetricProfile::Exact`].
    pub fn new(params: &CodeParams) -> Self {
        params.validate();
        assert!(
            params.k * (params.d + 1) <= 64,
            "k·(d+1) must fit in a 64-bit relative path"
        );
        BubbleDecoder {
            params: params.clone(),
            gen: SymbolGen::new(params),
            profile: MetricProfile::Exact,
            check: None,
        }
    }

    /// Process-wide number of [`BubbleDecoder`] clones since program
    /// start (monotone, relaxed ordering). Diagnostic: lets tests pin
    /// hot paths as clone-free — e.g. a decode session must clone the
    /// decoder at most once for its whole lifetime, never per submit.
    pub fn clones_total() -> u64 {
        DECODER_CLONES.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Select the metric profile (builder style). See
    /// [`MetricProfile`] for the exact-vs-quantized contract.
    pub fn with_profile(mut self, profile: MetricProfile) -> Self {
        self.profile = profile;
        self
    }

    /// The metric profile this decoder runs under.
    pub fn profile(&self) -> MetricProfile {
        self.profile
    }

    /// Give the decoder the caller's block check (builder style) — for
    /// framed blocks, the CRC. It turns on the
    /// [beam ladder](self#beam-ladder) where the gate allows: every
    /// decode then tries a `B/16` beam first and runs the configured
    /// `B` only when `check` rejects that candidate.
    pub fn with_block_check(mut self, check: fn(&Message) -> bool) -> Self {
        self.check = Some(check);
        self
    }

    /// The decoder's code parameters.
    pub(crate) fn params_ref(&self) -> &CodeParams {
        &self.params
    }

    /// Constellation amplitude levels (for branch-metric table building).
    fn levels(&self) -> &[f64] {
        self.gen.constellation().levels()
    }

    /// Bits per constellation dimension.
    fn c_bits(&self) -> usize {
        self.gen.constellation().c() as usize
    }

    /// The symbol-observation decode under this decoder's metric
    /// profile — the computation every symbol form of
    /// [`DecodeRequest`](crate::DecodeRequest) resolves to. The branch
    /// metric is `Σ_t |y_t − h_t·x_t(s)|²` over the symbols received for
    /// each spine value (§4.1, extended with CSI when the buffer carries
    /// it). Both profiles build the attempt's tables from `rx` once, then
    /// climb the ladder over them: the exact profile over the `f64` slab
    /// of [`QuantTables::build_exact`], the quantized one over its `u16`
    /// image.
    pub(crate) fn decode_symbols_impl(
        &self,
        rx: &RxSymbols,
        ws: &mut DecodeWorkspace,
    ) -> DecodeResult {
        assert_eq!(rx.n_spines(), self.params.num_spines());
        match self.profile {
            MetricProfile::Exact => {
                ws.quant.build_exact(self.levels(), rx);
                self.climb(|b| {
                    let (mut sc, slab) = ws.exact_parts();
                    let mut src = self.prepared(&slab.exact, slab);
                    self.run_beam(&mut src, &mut sc, b, (1.0, 0.0))
                })
            }
            MetricProfile::Quantized => {
                ws.quant.build(self.levels(), rx);
                self.climb(|b| self.decode_quant_prepared(ws, b))
            }
        }
    }

    /// The hard-bit (Hamming metric) decode — the computation every bit
    /// form of [`DecodeRequest`](crate::DecodeRequest) resolves to.
    pub(crate) fn decode_bits_impl(&self, rx: &RxBits, ws: &mut DecodeWorkspace) -> DecodeResult {
        assert_eq!(rx.n_spines(), self.params.num_spines());
        let mut src = BitsSource { rx };
        self.climb(|b| match self.profile {
            MetricProfile::Exact => self.run_beam(&mut src, &mut ws.exact_parts().0, b, (1.0, 0.0)),
            MetricProfile::Quantized => {
                self.run_beam(&mut src, &mut ws.quant_parts().0, b, (1.0, 0.0))
            }
        })
    }

    /// The beam's view of one attempt's `tables` — `slab`'s exact
    /// entries or their quantized image — with `slab`'s spans and RNG
    /// indices.
    fn prepared<'a, C: CostKind>(
        &self,
        tables: &'a [C::Entry],
        slab: &'a QuantTables,
    ) -> PreparedSymbols<'a, C> {
        let c = self.c_bits();
        PreparedSymbols {
            tables,
            rngs: &slab.rngs,
            spans: &slab.spans,
            m: self.levels().len(),
            i_shift: 32 - c,
            q_shift: 16 - c,
        }
    }

    /// The [beam ladder](self#beam-ladder) every entry point goes
    /// through. `decode_at(w)` runs one beam of width `w` over the
    /// attempt's prepared tables. When the decoder carries a block
    /// check, its schedule is unpunctured and `B/16 ≥ 2`, the ladder
    /// calls it at `B/16` first; otherwise, or if the check rejects that
    /// candidate, it calls it at the configured `B` — exactly the decode
    /// a decoder without the ladder runs.
    fn climb(&self, mut decode_at: impl FnMut(usize) -> DecodeResult) -> DecodeResult {
        let rung = self.params.b / 16;
        let gate = self.params.puncturing.ways() == 1 && rung >= 2;
        let Some(check) = self.check.filter(|_| gate) else {
            return decode_at(self.params.b);
        };
        let first = decode_at(rung);
        if check(&first.message) {
            return first;
        }
        DecodeResult {
            escalated: true,
            ..decode_at(self.params.b)
        }
    }

    /// Quantized beam of width `b` over the workspace's prepared
    /// quantized tables.
    fn decode_quant_prepared(&self, ws: &mut DecodeWorkspace, b: usize) -> DecodeResult {
        if self.params.d.min(self.params.num_spines()) == 1 {
            // With neither a Q_INF sentinel anywhere in the tables nor
            // enough observations for 15-bit entries to overflow 32
            // bits, plain adds provably equal the saturating ones — the
            // kernel drops the pin-and-saturate logic.
            let plain_adds = !ws.quant.has_inf && ws.quant.rngs.len() < (1 << 16);
            return if plain_adds {
                self.decode_quant_d1::<true>(ws, b)
            } else {
                self.decode_quant_d1::<false>(ws, b)
            };
        }
        let (mut sc, quant) = ws.quant_parts();
        let mut src = self.prepared(&quant.tables, quant);
        self.run_beam(&mut src, &mut sc, b, quant.dequant())
    }

    /// The quantized profile's specialised `d = 1` kernel (the paper's
    /// default bubble depth). With a depth-1 bubble every selection key
    /// names exactly one child, so the per-key minimum fold, the
    /// tree/path bookkeeping arrays, and the separate compaction pass
    /// all collapse: the radix threshold is taken over the child costs
    /// directly and selection *rebuilds the frontier in key order* in
    /// one scan. Hashing is split-prefix ([`crate::hash`]): the state
    /// bytes of each parent are absorbed once and shared across all
    /// `2^k` edges, and each child's prefix once across all of the
    /// step's RNG indices.
    ///
    /// Every spine, whatever its observation count, runs one loop over
    /// blocks of whole parents (`BLK`): grow the block's children, fold
    /// the spine's observations into their costs two per `sweep`, a
    /// trailing single one last (an empty spine copies the parents'
    /// costs), and take the block's cost bounds for the radix
    /// threshold. `PLAIN` picks plain or saturating adds for the whole
    /// decode (see [`decode_quant_prepared`](Self::decode_quant_prepared)).
    ///
    /// Bit-identical to the generic quantized beam at `d = 1` — same
    /// saturating adds in the same order, same radix threshold, same
    /// ascending-key tie-break, same arena contents; the
    /// `quant_d1_kernel_matches_generic_quantized_beam` test pins that
    /// for every observation count, both add modes and the blocks'
    /// edges.
    fn decode_quant_d1<const PLAIN: bool>(
        &self,
        ws: &mut DecodeWorkspace,
        b: usize,
    ) -> DecodeResult {
        let p = &self.params;
        let k = p.k;
        let fanout = 1usize << k;
        let hash = p.hash;
        let m = self.levels().len();
        let c = self.c_bits();
        let DecodeWorkspace {
            qfr,
            quant,
            arena,
            tree_roots,
            new_roots,
            qwords2,
            sel_scratch,
            ..
        } = ws;

        arena.clear();
        tree_roots.clear();
        tree_roots.push(NO_PARENT);
        // The d=1 frontier carries each leaf's hash *prefix* instead of
        // its raw state: reconstruction walks the arena, and both the
        // RNG metric hashes and the next expansion level consume only
        // the prefix, so states are never materialised at all.
        qfr.clear();
        qfr.states.push(hash.prefix(p.s0));
        qfr.costs.push(0u32);
        // A block is `ppb` parents' children; its RNG words live in
        // `qfr.words` and `qwords2`.
        let ppb = (BLK >> k).max(1);
        qfr.words.resize(ppb << k, 0);
        qwords2.resize(ppb << k, 0);

        for &(lo, hi) in &quant.spans {
            let (lo, hi) = (lo as usize, hi as usize);
            let rngs = &quant.rngs[lo..hi];
            let tables = &quant.tables[lo * 2 * m..hi * 2 * m];
            let ef = qfr.states.len() << k;
            qfr.next_states.resize(ef, 0);
            qfr.next_costs.resize(ef, 0);

            // Grow, leaf-major (children of a leaf adjacent, so the
            // selection scan below is sequential and already in
            // canonical key order), and score block by block, so the
            // child prefixes, RNG words and costs stay L1-hot from the
            // fused fan-out hash to the bounds.
            let (mut cost_lo, mut cost_hi) = (u32::MAX, 0u32);
            for (((parents, bases), pfx), costs) in qfr
                .states
                .chunks(ppb)
                .zip(qfr.costs.chunks(ppb))
                .zip(qfr.next_states.chunks_mut(ppb << k))
                .zip(qfr.next_costs.chunks_mut(ppb << k))
            {
                hash.fanout_prefix_many(parents, k, pfx);
                let (wa, wb) = (&mut qfr.words[..pfx.len()], &mut qwords2[..pfx.len()]);
                if rngs.is_empty() {
                    for (chunk, &base) in costs.chunks_exact_mut(fanout).zip(bases) {
                        chunk.fill(base);
                    }
                }
                for (s, (obs, t)) in rngs.chunks(2).zip(tables.chunks(4 * m)).enumerate() {
                    let pair = obs.len() == 2;
                    if pair {
                        hash.finish2_many(pfx, obs[0], obs[1], wa, wb);
                    } else {
                        hash.finish_many(pfx, obs[0], wa);
                    }
                    let run = match (s == 0, pair) {
                        (true, true) => sweep::<true, true, PLAIN>,
                        (true, false) => sweep::<true, false, PLAIN>,
                        (false, true) => sweep::<false, true, PLAIN>,
                        (false, false) => sweep::<false, false, PLAIN>,
                    };
                    run(costs, bases, (wa, if pair { wb } else { wa }), t, c);
                }
                for &cost in costs.iter() {
                    cost_lo = cost_lo.min(cost);
                    cost_hi = cost_hi.max(cost);
                }
            }

            // Select-and-rebuild: one sequential scan in ascending key
            // order (key = leaf·2^k + edge = child index) emits the
            // survivors straight into the new frontier.
            let keep = b.min(ef);
            new_roots.clear();
            let edge_mask = (fanout - 1) as u32;
            if keep == ef {
                qfr.states.clear();
                qfr.costs.clear();
                for (idx, (&pfx, &cost)) in qfr.next_states.iter().zip(&qfr.next_costs).enumerate()
                {
                    qfr.states.push(pfx);
                    qfr.costs.push(cost);
                    arena.push((tree_roots[idx >> k], idx as u32 & edge_mask));
                    new_roots.push((arena.len() - 1) as u32);
                }
            } else {
                let bounds = Some((cost_lo, cost_hi));
                let (t, mut ties) = radix_threshold(&qfr.next_costs, keep, sel_scratch, bounds);
                // Pre-size the outputs (the kept count is known) so the
                // scan writes through plain counters, no push checks.
                qfr.states.resize(keep, 0);
                qfr.costs.resize(keep, 0);
                new_roots.resize(keep, 0);
                let arena_base = arena.len();
                arena.resize(arena_base + keep, (0, 0));
                let mut w = 0usize;
                for (idx, (&pfx, &cost)) in qfr.next_states.iter().zip(&qfr.next_costs).enumerate()
                {
                    if cost < t || (cost == t && ties > 0) {
                        ties -= usize::from(cost == t);
                        qfr.states[w] = pfx;
                        qfr.costs[w] = cost;
                        arena[arena_base + w] = (tree_roots[idx >> k], idx as u32 & edge_mask);
                        new_roots[w] = (arena_base + w) as u32;
                        w += 1;
                    }
                }
                debug_assert_eq!(w, keep);
            }
            std::mem::swap(tree_roots, new_roots);
        }

        // Winner under the canonical (cost, tree, path) order: path is
        // always 0 at d = 1 and tree is the frontier position, so the
        // first strict minimum is the canonical one.
        let mut best = (qfr.costs[0], 0u32);
        for (i, &cost) in qfr.costs.iter().enumerate().skip(1) {
            if cost < best.0 {
                best = (cost, i as u32);
            }
        }
        let message = reconstruct_message(p, 1, arena, tree_roots[best.1 as usize], 0);
        DecodeResult {
            message,
            cost: best.0.to_cost_f64(quant.dequant()),
            escalated: false,
        }
    }

    /// Run the beam of width `b` over `src`, then rebuild the winner's
    /// message and report its cost in exact-metric units through the
    /// profile's `dequant` map.
    fn run_beam<C: CostKind, S: MetricSource<C>>(
        &self,
        src: &mut S,
        sc: &mut BeamScratch<'_, C>,
        b: usize,
        dequant: (f64, f64),
    ) -> DecodeResult {
        let (cost, tree, path) = beam_search(&self.params, src, sc, b);
        let d = self.params.d.min(self.params.num_spines());
        let root = sc.tree_roots[tree as usize];
        DecodeResult {
            message: reconstruct_message(&self.params, d, sc.arena, root, path),
            cost: cost.to_cost_f64(dequant),
            escalated: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::DecodeRequest;
    use crate::encoder::Encoder;
    use crate::puncturing::Schedule;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use spinal_channel::{AwgnChannel, BitChannel, BscChannel, Channel, Complex};

    fn rand_msg(n: usize, seed: u64) -> Message {
        let mut rng = StdRng::seed_from_u64(seed);
        Message::random(n, || rng.gen())
    }

    fn roundtrip(params: &CodeParams, snr_db: f64, passes: usize, seed: u64) -> bool {
        roundtrip_profiled(params, snr_db, passes, seed, MetricProfile::Exact)
    }

    fn roundtrip_profiled(
        params: &CodeParams,
        snr_db: f64,
        passes: usize,
        seed: u64,
        profile: MetricProfile,
    ) -> bool {
        let msg = rand_msg(params.n, seed);
        let mut enc = Encoder::new(params, &msg);
        let schedule = Schedule::new(params.num_spines(), params.tail, params.puncturing);
        let mut rx = RxSymbols::new(schedule);
        let mut ch = AwgnChannel::new(snr_db, seed.wrapping_add(1));
        let tx = enc.next_symbols(passes * params.symbols_per_pass());
        rx.push(&ch.transmit(&tx));
        let dec = BubbleDecoder::new(params).with_profile(profile);
        DecodeRequest::new(&dec, &rx).decode().message == msg
    }

    #[test]
    fn decodes_noiseless_channel_one_pass() {
        let p = CodeParams::default().with_n(64);
        let msg = rand_msg(64, 42);
        let mut enc = Encoder::new(&p, &msg);
        let schedule = Schedule::new(p.num_spines(), p.tail, p.puncturing);
        let mut rx = RxSymbols::new(schedule);
        rx.push(&enc.next_symbols(p.symbols_per_pass()));
        let out = DecodeRequest::new(&BubbleDecoder::new(&p), &rx).decode();
        assert_eq!(out.message, msg);
        assert!(out.cost < 1e-12, "noiseless cost {}", out.cost);
    }

    #[test]
    fn decodes_high_snr_awgn() {
        let p = CodeParams::default().with_n(96);
        assert!(roundtrip(&p, 20.0, 2, 7));
    }

    #[test]
    fn decodes_low_snr_with_many_passes() {
        // 0 dB: capacity = 1 bit/symbol; k=4 needs ≥ 4 passes; use 8.
        let p = CodeParams::default().with_n(96).with_b(64);
        assert!(roundtrip(&p, 0.0, 8, 21));
    }

    #[test]
    fn decodes_with_depth_two_bubble() {
        let p = CodeParams::default()
            .with_n(96)
            .with_k(3)
            .with_b(16)
            .with_d(2);
        assert!(roundtrip(&p, 12.0, 2, 3));
    }

    #[test]
    fn decodes_with_depth_three_bubble() {
        let p = CodeParams::default()
            .with_n(90)
            .with_k(3)
            .with_b(4)
            .with_d(3);
        assert!(roundtrip(&p, 15.0, 2, 5));
    }

    #[test]
    fn decodes_with_beam_one_deep_bubble() {
        // B=1, d=4 from Figure 8-7's sweep: the bubble *is* the beam.
        let p = CodeParams::default()
            .with_n(60)
            .with_k(3)
            .with_b(1)
            .with_d(4);
        assert!(roundtrip(&p, 18.0, 2, 11));
    }

    #[test]
    fn decodes_k1_binary_tree() {
        let p = CodeParams::default().with_n(64).with_k(1).with_b(32);
        assert!(roundtrip(&p, 10.0, 2, 13));
    }

    #[test]
    fn decodes_bsc() {
        let p = CodeParams::default().with_n(64).with_b(64);
        let msg = rand_msg(64, 99);
        let mut enc = Encoder::new(&p, &msg);
        let schedule = Schedule::new(p.num_spines(), p.tail, p.puncturing);
        let mut rx = RxBits::new(schedule);
        let mut ch = BscChannel::new(0.05, 5);
        // p=0.05 → capacity ≈ 0.71 bits/use; k=4 → need ≥ 6 passes. Use 12.
        let tx = enc.next_bits(12 * p.symbols_per_pass());
        rx.push(&ch.transmit_bits(&tx));
        let out = DecodeRequest::new(&BubbleDecoder::new(&p), &rx).decode();
        assert_eq!(out.message, msg);
    }

    #[test]
    fn decodes_noiseless_bsc_exactly() {
        let p = CodeParams::default().with_n(64);
        let msg = rand_msg(64, 123);
        let mut enc = Encoder::new(&p, &msg);
        let schedule = Schedule::new(p.num_spines(), p.tail, p.puncturing);
        let mut rx = RxBits::new(schedule);
        // Noiseless BSC still needs several passes: one bit per symbol
        // carries k=4 bits of message per spine step only after ≥ 4
        // passes of accumulated evidence.
        rx.push(&enc.next_bits(10 * p.symbols_per_pass()));
        let out = DecodeRequest::new(&BubbleDecoder::new(&p), &rx).decode();
        assert_eq!(out.message, msg);
        assert_eq!(out.cost, 0.0);
    }

    #[test]
    fn punctured_subpass_decode_succeeds_at_high_snr() {
        // §5: with 8-way puncturing and B=256, decoding can succeed from a
        // partial pass at high SNR (rate > k).
        let p = CodeParams::default().with_n(256);
        let msg = rand_msg(256, 1000);
        let mut enc = Encoder::new(&p, &msg);
        let schedule = Schedule::new(p.num_spines(), p.tail, p.puncturing);
        let mut rx = RxSymbols::new(schedule.clone());
        let mut ch = AwgnChannel::new(30.0, 77);
        // Half a pass: 4 of 8 subpasses → covered spines ≡ {0,4,2,6} mod 8.
        let boundaries = schedule.subpass_boundaries(schedule.symbols_per_pass());
        let half = boundaries[3];
        let tx = enc.next_symbols(half);
        rx.push(&ch.transmit(&tx));
        let out = DecodeRequest::new(&BubbleDecoder::new(&p), &rx).decode();
        assert_eq!(
            out.message,
            msg,
            "rate achieved would be {}",
            256.0 / half as f64
        );
        assert!(
            256.0 / half as f64 > p.k as f64,
            "test should exercise rate > k"
        );
    }

    #[test]
    fn fading_csi_decode() {
        use spinal_channel::RayleighChannel;
        let p = CodeParams::default().with_n(64);
        let msg = rand_msg(64, 31);
        let mut enc = Encoder::new(&p, &msg);
        let schedule = Schedule::new(p.num_spines(), p.tail, p.puncturing);
        let mut rx = RxSymbols::new(schedule);
        let mut ch = RayleighChannel::new(25.0, 10, 13);
        let tx = enc.next_symbols(4 * p.symbols_per_pass());
        let ys = ch.transmit(&tx);
        let hs: Vec<_> = (0..ys.len()).map(|i| ch.csi(i).unwrap()).collect();
        rx.push_with_csi(&ys, &hs);
        let out = DecodeRequest::new(&BubbleDecoder::new(&p), &rx).decode();
        assert_eq!(out.message, msg);
    }

    #[test]
    fn wrong_beam_width_fails_where_wide_succeeds() {
        // The compute/performance knob (§7): at a marginal SNR, B=1
        // should fail where B=256 succeeds. Statistical, so use a seed
        // known to need beam diversity.
        let base = CodeParams::default().with_n(96);
        let narrow = base.clone().with_b(1);
        let mut wide_ok = 0;
        let mut narrow_ok = 0;
        for seed in 0..8 {
            if roundtrip(&base, 6.0, 3, seed) {
                wide_ok += 1;
            }
            if roundtrip(&narrow, 6.0, 3, seed) {
                narrow_ok += 1;
            }
        }
        assert!(
            wide_ok > narrow_ok,
            "wide {wide_ok} vs narrow {narrow_ok} successes"
        );
    }

    #[test]
    fn cost_is_monotone_in_received_noise() {
        // More noise → higher best-path cost on average.
        let p = CodeParams::default().with_n(64);
        let msg = rand_msg(64, 1);
        let schedule = Schedule::new(p.num_spines(), p.tail, p.puncturing);
        let mut total_low = 0.0;
        let mut total_high = 0.0;
        for seed in 0..4 {
            for (snr, acc) in [(25.0, &mut total_low), (5.0, &mut total_high)] {
                let mut enc = Encoder::new(&p, &msg);
                let mut rx = RxSymbols::new(schedule.clone());
                let mut ch = AwgnChannel::new(snr, seed);
                let tx = enc.next_symbols(2 * p.symbols_per_pass());
                rx.push(&ch.transmit(&tx));
                *acc += DecodeRequest::new(&BubbleDecoder::new(&p), &rx)
                    .decode()
                    .cost;
            }
        }
        assert!(total_high > total_low);
    }

    #[test]
    fn workspace_decode_matches_plain_decode() {
        let p = CodeParams::default().with_n(96).with_b(32);
        let msg = rand_msg(96, 17);
        let mut enc = Encoder::new(&p, &msg);
        let schedule = Schedule::new(p.num_spines(), p.tail, p.puncturing);
        let mut rx = RxSymbols::new(schedule);
        let mut ch = AwgnChannel::new(8.0, 18);
        rx.push(&ch.transmit(&enc.next_symbols(3 * p.symbols_per_pass())));
        for profile in [MetricProfile::Exact, MetricProfile::Quantized] {
            let dec = BubbleDecoder::new(&p).with_profile(profile);
            let plain = DecodeRequest::new(&dec, &rx).decode();
            let mut ws = DecodeWorkspace::new();
            let with_ws = DecodeRequest::new(&dec, &rx).workspace(&mut ws).decode();
            assert_eq!(plain.message, with_ws.message, "{profile:?}");
            assert_eq!(plain.cost.to_bits(), with_ws.cost.to_bits(), "{profile:?}");
        }
    }

    #[test]
    fn workspace_reuse_across_attempts_matches_fresh() {
        // The §7.1 retry loop: decode, receive more symbols, decode again —
        // all through ONE workspace. Every attempt must match a fresh-
        // workspace decode bit for bit, including reuse across parameter
        // sets, across the AWGN/BSC metric kinds, AND across metric
        // profiles (the workspace is profile-agnostic).
        let p = CodeParams::default().with_n(64).with_b(16);
        let msg = rand_msg(64, 5);
        let mut enc = Encoder::new(&p, &msg);
        let schedule = Schedule::new(p.num_spines(), p.tail, p.puncturing);
        let mut rx = RxSymbols::new(schedule);
        let mut ch = AwgnChannel::new(6.0, 6);
        let dec = BubbleDecoder::new(&p);
        let qdec = BubbleDecoder::new(&p).with_profile(MetricProfile::Quantized);
        let mut ws = DecodeWorkspace::new();
        for _attempt in 0..4 {
            rx.push(&ch.transmit(&enc.next_symbols(p.symbols_per_pass())));
            let reused = DecodeRequest::new(&dec, &rx).workspace(&mut ws).decode();
            let fresh = DecodeRequest::new(&dec, &rx).decode();
            assert_eq!(reused.message, fresh.message);
            assert_eq!(reused.cost.to_bits(), fresh.cost.to_bits());
            // The same workspace alternates to the quantized profile.
            let q_reused = DecodeRequest::new(&qdec, &rx).workspace(&mut ws).decode();
            let q_fresh = DecodeRequest::new(&qdec, &rx).decode();
            assert_eq!(q_reused.message, q_fresh.message);
            assert_eq!(q_reused.cost.to_bits(), q_fresh.cost.to_bits());
        }
        // Both profiles share the workspace's one slab: an exact attempt
        // over a shorter buffer must not read what the longer attempts
        // left behind.
        let mut short = RxSymbols::new(Schedule::new(p.num_spines(), p.tail, p.puncturing));
        let mut ch_short = AwgnChannel::new(12.0, 9);
        short.push(&ch_short.transmit(&Encoder::new(&p, &msg).next_symbols(p.symbols_per_pass())));
        let reused = DecodeRequest::new(&dec, &short).workspace(&mut ws).decode();
        let fresh = DecodeRequest::new(&dec, &short).decode();
        assert_eq!(reused.message, fresh.message);
        assert_eq!(reused.cost.to_bits(), fresh.cost.to_bits());
        // The same workspace then serves a different code and metric.
        let p2 = CodeParams::default()
            .with_n(60)
            .with_k(3)
            .with_b(8)
            .with_d(2);
        let msg2 = rand_msg(60, 7);
        let mut enc2 = Encoder::new(&p2, &msg2);
        let schedule2 = Schedule::new(p2.num_spines(), p2.tail, p2.puncturing);
        let mut rx2 = RxBits::new(schedule2);
        let mut ch2 = BscChannel::new(0.02, 8);
        rx2.push(&ch2.transmit_bits(&enc2.next_bits(10 * p2.symbols_per_pass())));
        let dec2 = BubbleDecoder::new(&p2);
        let reused = DecodeRequest::new(&dec2, &rx2).workspace(&mut ws).decode();
        let fresh = DecodeRequest::new(&dec2, &rx2).decode();
        assert_eq!(reused.message, fresh.message);
        assert_eq!(reused.cost.to_bits(), fresh.cost.to_bits());
    }

    #[test]
    fn decode_batch_matches_individual_decodes() {
        let p = CodeParams::default().with_n(64).with_b(16);
        let schedule = Schedule::new(p.num_spines(), p.tail, p.puncturing);
        let rxs: Vec<RxSymbols> = (0..3)
            .map(|seed| {
                let msg = rand_msg(64, 100 + seed);
                let mut enc = Encoder::new(&p, &msg);
                let mut rx = RxSymbols::new(schedule.clone());
                let mut ch = AwgnChannel::new(10.0, 200 + seed);
                rx.push(&ch.transmit(&enc.next_symbols(2 * p.symbols_per_pass())));
                rx
            })
            .collect();
        for profile in [MetricProfile::Exact, MetricProfile::Quantized] {
            let dec = BubbleDecoder::new(&p).with_profile(profile);
            // One shared workspace across the batch.
            let mut ws = DecodeWorkspace::new();
            let batch: Vec<DecodeResult> = rxs
                .iter()
                .map(|rx| DecodeRequest::new(&dec, rx).workspace(&mut ws).decode())
                .collect();
            assert_eq!(batch.len(), 3);
            for (rx, out) in rxs.iter().zip(&batch) {
                let single = DecodeRequest::new(&dec, rx).decode();
                assert_eq!(single.message, out.message, "{profile:?}");
                assert_eq!(single.cost.to_bits(), out.cost.to_bits(), "{profile:?}");
            }
        }
    }

    #[test]
    fn nan_cost_observation_does_not_panic() {
        // Regression: degenerate CSI (h = ∞ ⇒ ∞ − ∞ = NaN in the fading
        // metric) used to panic inside the selection comparator
        // (`partial_cmp().unwrap()`). The NaN policy now clamps broken
        // observations to +∞ cost and the comparators are total, so the
        // decode completes — under either profile (the quantized one
        // saturates at the integer infinity instead).
        let p = CodeParams::default().with_n(64).with_b(8);
        let msg = rand_msg(64, 3);
        let mut enc = Encoder::new(&p, &msg);
        let schedule = Schedule::new(p.num_spines(), p.tail, p.puncturing);
        let mut rx = RxSymbols::new(schedule);
        let tx = enc.next_symbols(2 * p.symbols_per_pass());
        let hs: Vec<Complex> = (0..tx.len())
            .map(|i| {
                if i == 5 {
                    Complex::new(f64::INFINITY, 0.0)
                } else {
                    Complex::ONE
                }
            })
            .collect();
        rx.push_with_csi(&tx, &hs);
        for profile in [MetricProfile::Exact, MetricProfile::Quantized] {
            let out =
                DecodeRequest::new(&BubbleDecoder::new(&p).with_profile(profile), &rx).decode();
            // The degenerate observation hits one spine; every candidate
            // paid +∞ there, so the winning cost is +∞ — but decoding
            // finished and every *other* spine still steered the search.
            assert!(
                out.cost.is_infinite() && out.cost > 0.0,
                "{profile:?}: cost {}",
                out.cost
            );
            assert_eq!(out.message.len_bits(), 64, "{profile:?}");
        }
    }

    #[test]
    fn all_nan_observations_still_terminate() {
        // Even if EVERY observation is broken the decoder must return
        // (garbage, +∞) rather than panic, hang — or, quantized, wrap
        // around to a small cost.
        let p = CodeParams::default().with_n(64).with_b(4);
        let schedule = Schedule::new(p.num_spines(), p.tail, p.puncturing);
        let mut rx = RxSymbols::new(schedule);
        let nan = Complex::new(f64::NAN, f64::NAN);
        let ys = vec![nan; p.symbols_per_pass()];
        rx.push(&ys);
        for profile in [MetricProfile::Exact, MetricProfile::Quantized] {
            let out =
                DecodeRequest::new(&BubbleDecoder::new(&p).with_profile(profile), &rx).decode();
            assert!(out.cost.is_infinite(), "{profile:?}: cost {}", out.cost);
        }
    }

    #[test]
    fn leaf_order_is_total_and_canonical() {
        // Cost dominates; tree and path break exact-cost ties, so the
        // minimum is unique even when every cost is +∞ (the degenerate-
        // observation case).
        let a = (1.0f64, 5u32, 9u64);
        let b = (2.0f64, 0u32, 0u64);
        assert!(leaf_before(&a, &b) && !leaf_before(&b, &a));
        let inf1 = (f64::INFINITY, 1u32, 7u64);
        let inf2 = (f64::INFINITY, 1u32, 8u64);
        let inf3 = (f64::INFINITY, 2u32, 0u64);
        assert!(leaf_before(&inf1, &inf2));
        assert!(leaf_before(&inf2, &inf3));
        assert!(!leaf_before(&inf1, &inf1));
        // Integer costs follow the same canonical order.
        let qa = (7u32, 0u32, 0u64);
        let qb = (u32::MAX, 0u32, 0u64);
        assert!(leaf_before(&qa, &qb) && !leaf_before(&qb, &qa));
        assert!(leaf_before(&(7u32, 1, 2), &(7u32, 1, 3)));
    }

    /// The generic quantized beam ([`beam_search`] over the prepared
    /// `u16` tables, the way [`BubbleDecoder::run_beam`] decodes bits):
    /// the reference the specialised `d = 1` kernel must reproduce.
    fn generic_quant_decode(dec: &BubbleDecoder, rx: &RxSymbols) -> DecodeResult {
        let mut quant = QuantTables::new();
        quant.build(dec.levels(), rx);
        let mut src = dec.prepared(&quant.tables, &quant);
        let mut ws = DecodeWorkspace::new();
        let b = dec.params_ref().b;
        dec.run_beam(&mut src, &mut ws.quant_parts().0, b, quant.dequant())
    }

    #[test]
    fn quant_d1_kernel_matches_generic_quantized_beam() {
        // `decode_quant_d1` against the generic beam at d = 1, over
        // every observation count per spine, both add modes and the
        // edges of its blocks: message and cost bits must agree,
        // including the all-tie degenerate inputs where only the
        // canonical winner order decides.
        let awgn = |p: &CodeParams, symbols: usize, snr: f64, seed: u64| {
            let mut enc = Encoder::new(p, &rand_msg(p.n, seed));
            let schedule = Schedule::new(p.num_spines(), p.tail, p.puncturing);
            let mut rx = RxSymbols::new(schedule);
            let mut ch = AwgnChannel::new(snr, seed.wrapping_add(1));
            rx.push(&ch.transmit(&enc.next_symbols(symbols)));
            rx
        };
        let mut cases: Vec<(String, CodeParams, RxSymbols)> = Vec::new();

        // ∞-CSI (B = 8): one broken observation pins every path at the
        // Q_INF sentinel, so the whole decode adds with saturation.
        let p = CodeParams::default().with_n(64).with_b(8);
        let mut enc = Encoder::new(&p, &rand_msg(64, 0x1234));
        let tx = enc.next_symbols(2 * p.symbols_per_pass());
        let hs: Vec<Complex> = (0..tx.len())
            .map(|i| {
                if i == 5 {
                    Complex::new(f64::INFINITY, 0.0)
                } else {
                    Complex::ONE
                }
            })
            .collect();
        let mut rx = RxSymbols::new(Schedule::new(p.num_spines(), p.tail, p.puncturing));
        rx.push_with_csi(&tx, &hs);
        cases.push(("inf-CSI".into(), p, rx));

        // All-NaN (B = 4): every table entry clamps to +∞.
        let p = CodeParams::default().with_n(64).with_b(4);
        let mut rx = RxSymbols::new(Schedule::new(p.num_spines(), p.tail, p.puncturing));
        rx.push(&vec![
            Complex::new(f64::NAN, f64::NAN);
            2 * p.symbols_per_pass()
        ]);
        cases.push(("all-NaN".into(), p, rx));

        // Block edges: k = 10 is a fanout of 1,024 > BLK, so every
        // block holds one parent's children; with k = 4 and B = 48 the
        // 48 parents make a full block of 32 and then a partial one of
        // 16.
        for (k, b) in [
            (4usize, 16usize),
            (3, 64),
            (4, 256),
            (2, 8),
            (10, 4),
            (4, 48),
        ] {
            let p = CodeParams::default().with_n(24 * k).with_k(k).with_b(b);
            let pass = p.symbols_per_pass();
            // Two observations per spine: one pair sweep.
            cases.push((
                format!("k{k} B{b} 2 passes"),
                p.clone(),
                awgn(&p, 2 * pass, 8.0, 1),
            ));
            // Three to five per spine: a second sweep after the first,
            // with and without a trailing single observation.
            for passes in [3, 4, 5] {
                cases.push((
                    format!("k{k} B{b} {passes} passes"),
                    p.clone(),
                    awgn(&p, passes * pass, 2.0, 2),
                ));
            }
            // One observation per spine: one single sweep.
            cases.push((
                format!("k{k} B{b} one pass"),
                p.clone(),
                awgn(&p, pass, 14.0, 3),
            ));
            // A partial pass: punctured spines with no observation yet
            // copy their parents' costs, next to spines with one.
            let schedule = Schedule::new(p.num_spines(), p.tail, p.puncturing);
            let partial = schedule.subpass_boundaries(pass)[2];
            cases.push((
                format!("k{k} B{b} partial pass"),
                p.clone(),
                awgn(&p, partial, 25.0, 4),
            ));
        }

        for (name, p, rx) in &cases {
            assert_eq!(p.d, 1, "{name}");
            let dec = BubbleDecoder::new(p).with_profile(MetricProfile::Quantized);
            let kernel = DecodeRequest::new(&dec, rx).decode();
            let generic = generic_quant_decode(&dec, rx);
            assert_eq!(kernel.message, generic.message, "{name}: message");
            assert_eq!(
                kernel.cost.to_bits(),
                generic.cost.to_bits(),
                "{name}: cost bits"
            );
        }
    }

    #[test]
    fn quantized_profile_decodes_real_channels() {
        // The quantized fast path is a *decoder*, not just arithmetic:
        // it must recover messages wherever the exact profile does, on
        // AWGN across depths and beams.
        for (n, k, b, d, snr, passes, seed) in [
            (96usize, 4usize, 64usize, 1usize, 15.0, 2usize, 7u64),
            (96, 3, 16, 2, 12.0, 2, 3),
            (60, 3, 4, 3, 15.0, 2, 5),
            (64, 1, 32, 1, 10.0, 2, 13),
        ] {
            let p = CodeParams::default()
                .with_n(n)
                .with_k(k)
                .with_b(b)
                .with_d(d);
            assert!(
                roundtrip_profiled(&p, snr, passes, seed, MetricProfile::Quantized),
                "quantized decode failed at n{n} k{k} B{b} d{d}"
            );
        }
    }

    #[test]
    fn quantized_bsc_equals_exact_bsc() {
        // Hamming distance is already an integer: the quantized BSC
        // decode is the SAME computation as the exact one (scale 1,
        // offset 0) unless a path saturates — messages and costs must
        // agree bit for bit here.
        let p = CodeParams::default().with_n(64).with_b(32);
        let msg = rand_msg(64, 44);
        let mut enc = Encoder::new(&p, &msg);
        let schedule = Schedule::new(p.num_spines(), p.tail, p.puncturing);
        let mut rx = RxBits::new(schedule);
        let mut ch = BscChannel::new(0.04, 45);
        rx.push(&ch.transmit_bits(&enc.next_bits(8 * p.symbols_per_pass())));
        let exact = DecodeRequest::new(&BubbleDecoder::new(&p), &rx).decode();
        let quant = DecodeRequest::new(
            &BubbleDecoder::new(&p).with_profile(MetricProfile::Quantized),
            &rx,
        )
        .decode();
        assert_eq!(exact.message, quant.message);
        assert_eq!(exact.cost.to_bits(), quant.cost.to_bits());
    }

    #[test]
    fn quantized_cost_dequantizes_near_exact_cost() {
        // The reported quantized cost is the integer path cost mapped
        // back through the affine quantization: it must land close to
        // the exact cost (rounding error only).
        let p = CodeParams::default().with_n(96).with_b(64);
        let msg = rand_msg(96, 9);
        let mut enc = Encoder::new(&p, &msg);
        let schedule = Schedule::new(p.num_spines(), p.tail, p.puncturing);
        let mut rx = RxSymbols::new(schedule);
        let mut ch = AwgnChannel::new(10.0, 10);
        rx.push(&ch.transmit(&enc.next_symbols(2 * p.symbols_per_pass())));
        let exact = DecodeRequest::new(&BubbleDecoder::new(&p), &rx).decode();
        let quant = DecodeRequest::new(
            &BubbleDecoder::new(&p).with_profile(MetricProfile::Quantized),
            &rx,
        )
        .decode();
        assert_eq!(exact.message, quant.message);
        let rel = (exact.cost - quant.cost).abs() / exact.cost.max(1e-9);
        assert!(
            rel < 0.05,
            "dequantized cost {} far from exact {}",
            quant.cost,
            exact.cost
        );
    }
}

#[cfg(test)]
mod profiling {
    use super::*;
    use crate::api::DecodeRequest;
    use crate::encoder::Encoder;
    use crate::framing::FrameBuilder;
    use crate::puncturing::{Puncturing, Schedule};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use spinal_channel::{AwgnChannel, Channel};
    use std::hint::black_box;
    use std::time::Instant;

    /// The stage split of one transport attempt: n = 256, k = 4, one
    /// unpunctured pass at 20 dB, quantized, on a warm workspace. Each
    /// stage is timed on its own, per block, as the best of 5 sweeps
    /// over 256 framed blocks. Run with
    /// `cargo test --release -p spinal-core --lib phase_timings -- --ignored --nocapture`.
    #[test]
    #[ignore = "manual profiling aid"]
    fn phase_timings() {
        const BLOCKS: usize = 256;
        const SWEEPS: usize = 5;
        let p = CodeParams::default()
            .with_n(256)
            .with_b(256)
            .with_puncturing(Puncturing::none());
        let frames = FrameBuilder::new(p.n);
        let mut rng = StdRng::seed_from_u64(2);
        let payload: Vec<u8> = (0..BLOCKS * frames.payload_bits() / 8)
            .map(|_| rng.gen())
            .collect();
        let mut ch = AwgnChannel::new(20.0, 3);
        let rxs: Vec<RxSymbols> = frames
            .build(&payload)
            .iter()
            .map(|msg| {
                let mut enc = Encoder::new(&p, msg);
                let mut rx = RxSymbols::new(Schedule::new(p.num_spines(), p.tail, p.puncturing));
                rx.push(&ch.transmit(&enc.next_symbols(p.symbols_per_pass())));
                rx
            })
            .collect();
        let dec = BubbleDecoder::new(&p).with_profile(MetricProfile::Quantized);
        let levels = dec.levels().to_vec();
        let mut ws = DecodeWorkspace::new();
        let decoded: Vec<Message> = rxs
            .iter()
            .map(|rx| {
                DecodeRequest::new(&dec, rx)
                    .workspace(&mut ws)
                    .decode()
                    .message
            })
            .collect();

        // Per-block µs of `stage`, best of the sweeps; `prepare` runs
        // untimed before each block's stage.
        let mut per_block =
            |prepare: &mut dyn FnMut(&RxSymbols, &mut DecodeWorkspace),
             stage: &mut dyn FnMut(&RxSymbols, &mut DecodeWorkspace)| {
                (0..SWEEPS)
                    .map(|_| {
                        let mut total = 0.0;
                        for rx in &rxs {
                            prepare(rx, &mut ws);
                            let t0 = Instant::now();
                            stage(rx, &mut ws);
                            total += t0.elapsed().as_secs_f64();
                        }
                        total / BLOCKS as f64 * 1e6
                    })
                    .fold(f64::INFINITY, f64::min)
            };
        let mut build = |rx: &RxSymbols, ws: &mut DecodeWorkspace| ws.quant.build(&levels, rx);
        let build_us = per_block(&mut |_, _| {}, &mut build);
        let rung_us = per_block(&mut build, &mut |_, ws| {
            black_box(dec.decode_quant_prepared(ws, p.b / 16));
        });
        let full_us = per_block(&mut build, &mut |_, ws| {
            black_box(dec.decode_quant_prepared(ws, p.b));
        });
        let mut next = decoded.iter().cycle();
        let crc_us = per_block(&mut |_, _| {}, &mut |_, _| {
            black_box(frames.validate(next.next().expect("cycled")));
        });
        println!("fused table build {build_us:9.2} us/block");
        println!("B/16 beam         {rung_us:9.2} us/block");
        println!("B = 256 beam      {full_us:9.2} us/block");
        println!("block CRC         {crc_us:9.2} us/block");
    }

    /// The quantized profile's edge over the exact one, on the `micro`
    /// bench's `n256_B256_2passes` input (n = 256, B = 256, two passes
    /// at 15 dB, each decode allocating its own workspace). The two
    /// decodes alternate inside one loop, so a burst of host load slows
    /// both halves of a pair alike, and the median of the per-pair
    /// ratios must reach 1.2×. A release-mode gate; run with
    /// `cargo test --release -p spinal-core --lib quantized_speedup_over_exact -- --ignored --nocapture`.
    #[test]
    #[ignore = "release-mode timing gate"]
    fn quantized_speedup_over_exact() {
        const PAIRS: usize = 200;
        const FLOOR: f64 = 1.2;
        let p = CodeParams::default().with_n(256).with_b(256);
        let mut rng = StdRng::seed_from_u64(2);
        let msg = Message::random(p.n, || rng.gen());
        let mut enc = Encoder::new(&p, &msg);
        let schedule = Schedule::new(p.num_spines(), p.tail, p.puncturing);
        let mut rx = RxSymbols::new(schedule.clone());
        let mut ch = AwgnChannel::new(15.0, 3);
        rx.push(&ch.transmit(&enc.next_symbols(2 * schedule.symbols_per_pass())));
        let exact = BubbleDecoder::new(&p);
        let quant = BubbleDecoder::new(&p).with_profile(MetricProfile::Quantized);
        for dec in [&exact, &quant] {
            assert_eq!(DecodeRequest::new(dec, &rx).decode().message, msg);
        }
        let time = |dec: &BubbleDecoder| {
            let t0 = Instant::now();
            black_box(DecodeRequest::new(dec, black_box(&rx)).decode());
            t0.elapsed().as_secs_f64()
        };
        // Alternate which profile goes first, so neither always runs on
        // the caches the other left.
        let mut ratios: Vec<f64> = (0..PAIRS)
            .map(|i| {
                let (e, q) = if i % 2 == 0 {
                    let e = time(&exact);
                    (e, time(&quant))
                } else {
                    let q = time(&quant);
                    (time(&exact), q)
                };
                e / q
            })
            .collect();
        ratios.sort_by(f64::total_cmp);
        let (low, median, high) = (ratios[PAIRS / 4], ratios[PAIRS / 2], ratios[3 * PAIRS / 4]);
        println!(
            "quantized over exact, n256_B256_2passes: median {median:.3}x \
             (quartiles {low:.3}-{high:.3}x, {PAIRS} pairs, floor {FLOOR}x)"
        );
        assert!(
            median >= FLOOR,
            "the quantized decode is only {median:.3}x faster than the exact one (floor {FLOOR}x)"
        );
    }
}
