//! The quantized integer-metric fast path: fixed-point branch metrics
//! and radix selection.
//!
//! Real deployments of spinal decoders (the paper's §7 practicality
//! argument, and the companion hardware design in "De-randomizing
//! Shannon") run fixed-point arithmetic, not `f64`. This module supplies
//! the pieces the [`MetricProfile::Quantized`] decode path composes:
//!
//! * **Per-observation affine quantization** into `u16`
//!   ([`QuantTables`]): every branch-metric table is mapped by
//!   `q = round((v − table_min) / scale)` with a per-table offset and a
//!   *single decode-wide scale*. Each table's map is affine with a
//!   positive slope, so ordering within one observation is preserved
//!   exactly; because every full-depth path accumulates every
//!   observation exactly once, the per-table offsets shift all candidates
//!   equally and the quantized total cost is (up to rounding) an affine
//!   image of the exact total cost. The shared scale keeps observations
//!   weighted relative to each other — a deeply faded symbol still
//!   contributes little — which is what makes quantized BLER track the
//!   exact profile within statistical slack.
//! * **One pass from the receive buffer, every attempt.** The shared
//!   scale depends on every table, so one new observation can move it
//!   and requantize every entry. Each attempt therefore builds its
//!   tables afresh (`QuantTables::build`): one walk over the buffer
//!   writes the exact entries into a flat `f64` slab, then the quantize
//!   pass finds the per-table minima and the range and writes the `u16`
//!   slab. The walk alone is the exact profile's whole table build, so
//!   both profiles build their tables from the one slab.
//! * **Saturation, never wrap**: the `+∞` clamp of a degenerate
//!   observation becomes the [`Q_INF`] sentinel; accumulation widens it
//!   to `u32::MAX` and every add saturates, so a broken observation
//!   pins the path cost at the integer infinity exactly like the exact
//!   profile's `f64::INFINITY`.
//! * **Flat, L1-resident tables**: quantized tables are one contiguous
//!   `u16` slab (`[I table | Q table]` interleaved per observation,
//!   observations of a spine adjacent) — 4× denser than the `f64` form,
//!   so a whole decode step's tables sit in L1.
//! * **Radix selection** ([`radix_select_keys`]): the best-`B` cut on
//!   integer costs is a most-significant-byte-first bucket prune —
//!   `O(candidates + buckets)` with no data-dependent comparator — with
//!   ties broken by key index, the same deterministic rule as the exact
//!   profile's `select_nth_unstable_by` cut.
//!
//! The quantized profile is **deterministic** (bit-identical across
//! workspace reuse, batching, and every engine thread count — integer
//! minima are exact, and every tie-break uses the canonical
//! `(cost, tree, rel_path)` order) but **not bit-identical to the exact
//! profile**: equivalence is statistical, enforced by the oracle-grid
//! parity test against the PR 3 analytic bounds.

use crate::decoder::observation_tables;
use crate::rx::RxSymbols;

/// Selects how the bubble decoder computes and compares path metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MetricProfile {
    /// Double-precision branch metrics (the reference profile): exact
    /// `|y − h·x|²` sums, `f64::total_cmp` ordering. Bit-reproducible
    /// against the recorded decode corpus.
    #[default]
    Exact,
    /// Fixed-point branch metrics: `u16` tables, saturating `u32` path
    /// costs, radix selection. ~1.7× faster on the recording host
    /// (hardware-dependent — see the committed `BENCH_*_quant.json`);
    /// statistically equivalent to [`MetricProfile::Exact`] (same BLER
    /// within binomial slack) but not bit-identical to it.
    /// Deterministic in itself at every thread count.
    Quantized,
}

/// The `u16` image of a `+∞` table entry (degenerate observation).
/// Accumulation widens it to `u32::MAX`, so one broken observation
/// saturates the whole path cost.
pub const Q_INF: u16 = u16::MAX;

/// Largest quantized value a *finite* table entry may take: 15 bits.
/// The headroom is what makes the hot-loop infinity test one compare —
/// two finite entries sum to at most `2·32767 = 65534 < 65535 ≤
/// finite + Q_INF`, so an I+Q pair sum of `≥ 65535` *proves* a
/// [`Q_INF`] sentinel is present (see [`pair_delta`]).
pub const Q_MAX_FINITE: u16 = i16::MAX as u16;

/// Branch-metric tables for one decode attempt: the flat exact `f64`
/// slab both metric profiles read, the quantized `u16` slab, per-spine
/// spans, and the affine map needed to report the quantized winning
/// cost back in exact-metric units.
#[derive(Debug, Clone, Default)]
pub struct QuantTables {
    /// The exact `[I | Q]` `f64` tables, laid out like `tables`: what an
    /// exact attempt decodes from and what the quantize pass reads.
    pub(crate) exact: Vec<f64>,
    /// Concatenated `[I | Q]` `u16` tables, `2m` entries per
    /// observation, observations in per-spine span order.
    pub(crate) tables: Vec<u16>,
    /// RNG index per observation, aligned with the spans.
    pub(crate) rngs: Vec<u32>,
    /// Per spine: half-open observation range into `rngs` (×`2m` into
    /// `tables`).
    pub(crate) spans: Vec<(u32, u32)>,
    /// The decode-wide scale `s` of the affine map `q = (v − t_min)/s`.
    pub(crate) scale: f64,
    /// Σ of per-table minima — the constant every full-depth path was
    /// shifted by, restored when reporting the winner's cost.
    pub(crate) offset: f64,
    /// Whether any table entry is the [`Q_INF`] sentinel. When false —
    /// the overwhelmingly common case — and the observation count is
    /// small enough that plain `u32` accumulation provably cannot
    /// overflow, the decode kernels skip the pin-and-saturate logic
    /// entirely (identical sums, fewer ops).
    pub(crate) has_inf: bool,
    /// Per-table minima scratch kept for reuse across attempts.
    mins: Vec<f64>,
}

impl QuantTables {
    /// An empty table set; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// The affine map back to exact-metric units: `(scale, offset)` such
    /// that a finite quantized path cost `q` dequantizes to
    /// `q·scale + offset`.
    pub fn dequant(&self) -> (f64, f64) {
        (self.scale, self.offset)
    }

    /// Pass 1, an exact attempt's whole table build: walk the receive
    /// buffer once, spine by spine in receive order, recording each
    /// spine's span and each observation's RNG index, and writing its
    /// `[I | Q]` branch metrics into the flat `f64` slab (clears previous
    /// contents; buffers are reused and only grow). The `u16` slab and
    /// the affine map are left as they were.
    ///
    /// Each spine's run of the slab equals that spine's observations'
    /// tables in receive order, bit for bit: the expression of
    /// [`observation_tables`], one observation at a time.
    pub(crate) fn build_exact(&mut self, levels: &[f64], rx: &RxSymbols) {
        let tab = 2 * levels.len(); // entries per observation (I table + Q table)
        let ns = rx.n_spines();
        self.spans.clear();
        let mut n_obs = 0u32;
        for s in 0..ns {
            let lo = n_obs;
            n_obs += rx.spine_entries(s).len() as u32;
            self.spans.push((lo, n_obs));
        }
        let n_obs = n_obs as usize;
        self.exact.resize(n_obs * tab, 0.0);
        self.rngs.resize(n_obs, 0);
        let entries = (0..ns).flat_map(|s| rx.spine_entries(s));
        let slots = self.exact.chunks_exact_mut(tab).zip(&mut self.rngs);
        for (e, (exact, rng)) in entries.zip(slots) {
            *rng = e.rng_index;
            observation_tables(levels, e, exact);
        }
    }

    /// Build the whole table set straight from the receive buffer:
    /// [pass 1](Self::build_exact), then the quantize pass.
    ///
    /// The quantize pass records each table's finite minimum, the widest
    /// finite range across all tables and the sum of minima, then writes
    /// `q = round((v − t_min)/scale)` clamped to [`Q_MAX_FINITE`] into
    /// the `u16` slab, with `+∞` entries becoming [`Q_INF`]. With a
    /// positive shared scale the map is monotone within every table.
    ///
    /// The entries, minima, scale, offset and sentinels are bit-identical
    /// to quantizing per-spine exact tables built from the same buffer:
    /// the same expressions, with the offset summed in the same table
    /// order (the test module's reference pins this).
    pub(crate) fn build(&mut self, levels: &[f64], rx: &RxSymbols) {
        self.build_exact(levels, rx);
        let m = levels.len();
        self.tables.resize(self.exact.len(), 0);
        self.mins.resize(self.exact.len() / m, 0.0);

        // Per-table finite minima and the global finite range.
        let mut max_range = 0.0f64;
        let mut offset = 0.0f64;
        for (table, t_min) in self.exact.chunks_exact(m).zip(&mut self.mins) {
            let (lo, hi) = finite_bounds(table);
            // An all-∞ table contributes nothing to the offset; its
            // entries all become the sentinel below.
            *t_min = if lo.is_finite() { lo } else { 0.0 };
            if hi.is_finite() {
                max_range = max_range.max(hi - *t_min);
            }
            offset += *t_min;
        }
        let scale = if max_range > 0.0 {
            max_range / f64::from(Q_MAX_FINITE)
        } else {
            1.0
        };
        let inv = 1.0 / scale;
        self.scale = scale;
        self.offset = offset;

        // Quantize the slab, table by table.
        let mut has_inf = false;
        let tables = self
            .tables
            .chunks_exact_mut(m)
            .zip(self.exact.chunks_exact(m));
        for ((out, table), &t_min) in tables.zip(&self.mins) {
            for (q, &v) in out.iter_mut().zip(table) {
                let finite = v < f64::INFINITY;
                // ≤ Q_MAX_FINITE by construction of the scale; the clamp
                // guards float round-off at the top of the range from
                // colliding with the sentinel. It is a compare and select
                // rather than `f64::min`, which it equals here (a NaN
                // clamps to the maximum under both) at less than half the
                // cost of this pass. `+0.5, truncate` is round-half-away-
                // from-zero for non-negative inputs (v ≥ t_min) without
                // the libm round call.
                let x = (v - t_min) * inv + 0.5;
                let scaled = if x < Q_MAX_F64 { x } else { Q_MAX_F64 } as u16;
                *q = if finite { scaled } else { Q_INF };
                has_inf |= !finite;
            }
        }
        self.has_inf = has_inf;
    }
}

/// [`Q_MAX_FINITE`] as the clamp of the quantizer's `f64` arithmetic.
const Q_MAX_F64: f64 = Q_MAX_FINITE as f64;

/// The finite minimum of one branch-metric table (`+∞` when no entry is
/// finite) and its finite maximum (`−∞` when none is). Table entries are
/// finite or `+∞`, never NaN, so the minimum may take `+∞` entries in
/// and plain compares suffice. Four independent lanes let the compiler
/// vectorise both folds; min and max are exact, so the lane split
/// changes no result (at most the sign of a zero minimum, which no
/// output of [`QuantTables::build`] can tell apart).
#[inline]
fn finite_bounds(table: &[f64]) -> (f64, f64) {
    const LANES: usize = 4;
    let mut lo = [f64::INFINITY; LANES];
    let mut hi = [f64::NEG_INFINITY; LANES];
    let mut fold = |j: usize, v: f64| {
        lo[j] = if v < lo[j] { v } else { lo[j] };
        let finite = if v < f64::INFINITY {
            v
        } else {
            f64::NEG_INFINITY
        };
        hi[j] = if finite > hi[j] { finite } else { hi[j] };
    };
    let mut chunks = table.chunks_exact(LANES);
    for chunk in chunks.by_ref() {
        for (j, &v) in chunk.iter().enumerate() {
            fold(j, v);
        }
    }
    for &v in chunks.remainder() {
        fold(0, v);
    }
    let lo = lo
        .into_iter()
        .fold(f64::INFINITY, |a, b| if b < a { b } else { a });
    let hi = hi
        .into_iter()
        .fold(f64::NEG_INFINITY, |a, b| if b > a { b } else { a });
    (lo, hi)
}

/// The `u32` cost delta of one observation's I/Q table-entry pair:
/// the plain sum for finite entries, `u32::MAX` when either entry is
/// the [`Q_INF`] sentinel (any sum `≥ 65535` proves one is present —
/// see [`Q_MAX_FINITE`]). Branch-free: one add, one compare-mask.
#[inline]
pub(crate) fn pair_delta(i: u16, q: u16) -> u32 {
    let d = u32::from(i) + u32::from(q);
    d | 0u32.wrapping_sub(u32::from(d >= u32::from(u16::MAX)))
}

/// Keep the best `b` keys of the integer `key_min` array in `order`
/// (ascending key index), matching the exact profile's selection rule —
/// smallest cost first, ties broken by key index — via a
/// most-significant-byte-first radix prune: four 256-bucket histogram
/// levels locate the cutoff value `t` and the number of ties at `t` to
/// keep, then one ordered scan emits the kept set. `O(candidates +
/// buckets)` with no data-dependent comparator calls.
pub(crate) fn radix_select_keys(
    key_min: &[u32],
    b: usize,
    order: &mut Vec<u32>,
    scratch: &mut Vec<u32>,
) {
    let n_keys = key_min.len();
    order.clear();
    if b >= n_keys {
        order.extend(0..n_keys as u32);
        return;
    }
    let (t, mut ties) = radix_threshold(key_min, b, scratch, None);

    // Ordered scan: every key below t survives; the first `ties` keys
    // equal to t (by ascending key index) fill the remaining slots.
    for (i, &c) in key_min.iter().enumerate() {
        if c < t {
            order.push(i as u32);
        } else if c == t && ties > 0 {
            order.push(i as u32);
            ties -= 1;
        }
    }
    debug_assert_eq!(order.len(), b);
}

/// Locate the `keep`-th smallest value `t` of `costs` (`keep ≥ 1`,
/// `keep ≤ costs.len()`) and how many of the values equal to `t` belong
/// to the kept set — the radix core both selection entry points share.
///
/// Adaptive MSB-first buckets: a min/max pass normalises the histogram
/// to the *actual* finite cost band (decode-step costs cluster in a
/// narrow absolute range, and saturated `u32::MAX` costs — integer
/// infinities — are counted aside so they cannot stretch the range),
/// then each 256-bucket level resolves 8 more bits with the surviving
/// candidates compacted into `scratch`. `O(candidates + buckets)`
/// total, no comparator calls.
pub(crate) fn radix_threshold(
    costs: &[u32],
    keep: usize,
    scratch: &mut Vec<u32>,
    bounds: Option<(u32, u32)>,
) -> (u32, usize) {
    debug_assert!(keep >= 1 && keep <= costs.len());
    // Common case first: (min, max) handed in by the caller (the decode
    // kernel tracks both while writing the costs) or one branch-free
    // (vectorisable) sweep; if the maximum is the integer infinity,
    // redo the sweep counting the saturated costs aside so they cannot
    // stretch the radix range.
    let (mut lo, mut hi) = bounds.unwrap_or_else(|| {
        let mut lo = u32::MAX;
        let mut hi = 0u32;
        for &c in costs {
            lo = lo.min(c);
            hi = hi.max(c);
        }
        (lo, hi)
    });
    debug_assert_eq!(
        (lo, hi),
        {
            let mut l = u32::MAX;
            let mut h = 0u32;
            for &c in costs {
                l = l.min(c);
                h = h.max(c);
            }
            (l, h)
        },
        "caller-supplied bounds must be exact"
    );
    let mut n_sat = 0usize;
    if hi == u32::MAX {
        lo = u32::MAX;
        hi = 0;
        for &c in costs {
            n_sat += usize::from(c == u32::MAX);
            let fin = if c == u32::MAX { lo } else { c };
            lo = lo.min(fin);
            hi = hi.max(if c == u32::MAX { hi } else { c });
        }
    }
    let n_fin = costs.len() - n_sat;
    if keep > n_fin {
        // Every finite cost survives; the remaining slots go to
        // saturated costs (all tied at the integer infinity).
        return (u32::MAX, keep - n_fin);
    }
    if lo == hi {
        return (lo, keep);
    }

    let mut need = keep;
    let range_bits = 32 - (hi - lo).leading_zeros();
    let mut shift = range_bits.saturating_sub(8);
    // Four interleaved histograms break the store-forwarding chains of
    // repeated same-bucket increments (costs cluster), then merge.
    let mut hist4 = [[0u32; 256]; 4];
    let mut hist = [0u32; 256];
    let mut it = costs.chunks_exact(4);
    if n_sat == 0 {
        // Branch-free histogram when no cost saturated.
        for quad in it.by_ref() {
            for (h, &c) in hist4.iter_mut().zip(quad) {
                h[((c - lo) >> shift) as usize] += 1;
            }
        }
        for &c in it.remainder() {
            hist[((c - lo) >> shift) as usize] += 1;
        }
    } else {
        for quad in it.by_ref() {
            for (h, &c) in hist4.iter_mut().zip(quad) {
                if c <= hi {
                    h[((c - lo) >> shift) as usize] += 1;
                }
            }
        }
        for &c in it.remainder() {
            if c <= hi {
                hist[((c - lo) >> shift) as usize] += 1;
            }
        }
    }
    for h in &hist4 {
        for (m, &v) in hist.iter_mut().zip(h) {
            *m += v;
        }
    }
    let mut bucket = pick_bucket(&hist, &mut need);
    if shift == 0 {
        return (lo + bucket, need);
    }
    let mut base = lo + (bucket << shift);

    // Later levels: only candidates inside the chosen bucket matter;
    // compact them once, then shrink in place.
    let cand = scratch;
    cand.clear();
    cand.extend(
        costs
            .iter()
            .copied()
            .filter(|&c| c <= hi && (c - lo) >> shift == bucket),
    );
    loop {
        let next = shift.saturating_sub(8);
        hist.fill(0);
        for &c in cand.iter() {
            hist[((c - base) >> next) as usize] += 1;
        }
        bucket = pick_bucket(&hist, &mut need);
        if next == 0 {
            return (base + bucket, need);
        }
        cand.retain(|&c| (c - base) >> next == bucket);
        base += bucket << next;
        shift = next;
    }
}

/// The first histogram bucket whose count reaches `need`, decrementing
/// `need` by everything below it.
#[inline]
fn pick_bucket(hist: &[u32; 256], need: &mut usize) -> u32 {
    for (v, &h) in hist.iter().enumerate() {
        if (h as usize) >= *need {
            return v as u32;
        }
        *need -= h as usize;
    }
    unreachable!("histogram does not cover the kept count")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::Message;
    use crate::encoder::Encoder;
    use crate::params::CodeParams;
    use crate::puncturing::{Puncturing, Schedule};
    use crate::symbols::SymbolGen;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use spinal_channel::{AwgnChannel, Channel, Complex, RayleighChannel};

    /// The reference layout [`QuantTables::build`] is held to: exact
    /// tables grouped per spine, each spine's observations' `[I | Q]`
    /// tables (`2m` entries each) and RNG indices in receive order.
    struct PerSpineTables {
        tables: Vec<Vec<f64>>,
        rngs: Vec<Vec<u32>>,
    }

    impl PerSpineTables {
        /// Tables made by hand, with RNG indices 0, 1, … per spine.
        fn from_tables(tables: Vec<Vec<f64>>, m: usize) -> Self {
            let rngs = tables
                .iter()
                .map(|t| (0..t.len() / (2 * m)).map(|i| i as u32).collect())
                .collect();
            PerSpineTables { tables, rngs }
        }

        /// Tables built from a receive buffer one spine at a time.
        fn of(levels: &[f64], rx: &RxSymbols) -> Self {
            let tab = 2 * levels.len();
            let (tables, rngs) = (0..rx.n_spines())
                .map(|s| {
                    let entries = rx.spine_entries(s);
                    let mut tables = vec![0.0; entries.len() * tab];
                    for (e, out) in entries.iter().zip(tables.chunks_exact_mut(tab)) {
                        observation_tables(levels, e, out);
                    }
                    (tables, entries.iter().map(|e| e.rng_index).collect())
                })
                .unzip();
            PerSpineTables { tables, rngs }
        }

        /// Quantize spine by spine, with one pass for the minima and
        /// range and one for the `u16` entries.
        fn quantize(&self, m: usize) -> QuantTables {
            let mut q = QuantTables::new();
            // Pass 1: per-table finite minima and the global finite range.
            let mut max_range = 0.0f64;
            let mut offset = 0.0f64;
            for spine in &self.tables {
                assert_eq!(spine.len() % m, 0);
                for table in spine.chunks_exact(m) {
                    let mut lo = f64::INFINITY;
                    let mut hi = f64::NEG_INFINITY;
                    for &v in table {
                        if v.is_finite() {
                            lo = lo.min(v);
                            hi = hi.max(v);
                        }
                    }
                    let t_min = if lo.is_finite() { lo } else { 0.0 };
                    if hi.is_finite() {
                        max_range = max_range.max(hi - t_min);
                    }
                    offset += t_min;
                    q.mins.push(t_min);
                }
            }
            q.scale = if max_range > 0.0 {
                max_range / f64::from(Q_MAX_FINITE)
            } else {
                1.0
            };
            q.offset = offset;
            let inv = 1.0 / q.scale;

            // Pass 2: quantize, recording spans per spine.
            let mut obs = 0u32;
            let mut mins = q.mins.clone().into_iter();
            for (spine_tables, spine_rngs) in self.tables.iter().zip(&self.rngs) {
                let lo = obs;
                for table in spine_tables.chunks_exact(m) {
                    let t_min = mins.next().expect("one min per table");
                    for &v in table {
                        q.tables.push(if v.is_finite() {
                            ((v - t_min) * inv + 0.5).min(f64::from(Q_MAX_FINITE)) as u16
                        } else {
                            q.has_inf = true;
                            Q_INF
                        });
                    }
                }
                q.rngs.extend_from_slice(spine_rngs);
                obs += spine_rngs.len() as u32;
                q.spans.push((lo, obs));
            }
            q
        }
    }

    #[test]
    fn quantization_is_monotone_within_each_table() {
        let m = 4;
        let st = PerSpineTables::from_tables(
            vec![vec![
                0.5, 0.1, 0.9, 0.1, // I table
                -3.0, 7.0, 7.0, 0.0, // Q table
                100.0, 400.0, 250.0, 100.0, // second observation, I
                0.0, 0.0, 0.0, 0.0, // second observation, Q
            ]],
            m,
        );
        let q = st.quantize(m);
        for (qt, et) in q.tables.chunks_exact(m).zip(st.tables[0].chunks_exact(m)) {
            for i in 0..m {
                for j in 0..m {
                    if et[i] < et[j] {
                        assert!(
                            qt[i] <= qt[j],
                            "order flip: {} < {} but {} > {}",
                            et[i],
                            et[j],
                            qt[i],
                            qt[j]
                        );
                    }
                    if et[i] == et[j] {
                        assert_eq!(qt[i], qt[j], "equal entries must quantize equally");
                    }
                }
            }
        }
    }

    #[test]
    fn widest_table_spans_the_full_finite_range() {
        let m = 2;
        let q = PerSpineTables::from_tables(vec![vec![0.0, 10.0, 3.0, 3.0]], m).quantize(m);
        assert_eq!(q.tables[0], 0);
        assert_eq!(q.tables[1], Q_MAX_FINITE);
        // Constant table quantizes to all zeros.
        assert_eq!(&q.tables[2..4], &[0, 0]);
        let (scale, offset) = q.dequant();
        assert!((scale - 10.0 / f64::from(Q_MAX_FINITE)).abs() < 1e-12);
        assert_eq!(offset, 3.0);
    }

    #[test]
    fn infinite_entries_become_the_sentinel_and_saturate() {
        let m = 2;
        let st = PerSpineTables::from_tables(
            vec![vec![1.0, f64::INFINITY, f64::INFINITY, f64::INFINITY]],
            m,
        );
        let q = st.quantize(m);
        assert_eq!(q.tables, vec![0, Q_INF, Q_INF, Q_INF]);
        // A pair with a sentinel pins to the integer infinity; the
        // widest finite pair stays below the pinning threshold.
        assert_eq!(pair_delta(Q_INF, 0), u32::MAX);
        assert_eq!(pair_delta(3, Q_INF), u32::MAX);
        assert_eq!(pair_delta(Q_INF, Q_INF), u32::MAX);
        assert_eq!(pair_delta(0, 0), 0);
        assert_eq!(
            pair_delta(Q_MAX_FINITE, Q_MAX_FINITE),
            2 * u32::from(Q_MAX_FINITE)
        );
        // One pinned observation saturates the whole path; further adds
        // saturate rather than wrap.
        let cost = 7u32
            .saturating_add(pair_delta(Q_INF, 3))
            .saturating_add(pair_delta(1, 2));
        assert_eq!(cost, u32::MAX);
    }

    #[test]
    fn quantized_tables_mirror_real_build_layout() {
        // Build from a real receive buffer and check spans, sizes, and
        // that ∞-clamped entries survive as Q_INF.
        let levels = [-1.0, -0.5, 0.5, 1.0];
        let mut rx = RxSymbols::new(Schedule::new(1, 0, Puncturing::none()));
        rx.push_with_csi(
            &[Complex::new(0.3, -0.2), Complex::new(1.0, 1.0)],
            &[Complex::ONE, Complex::new(f64::INFINITY, 0.0)],
        );
        let mut q = QuantTables::new();
        q.build(&levels, &rx);
        assert_eq!(q.spans, vec![(0, 2)]);
        assert_eq!(q.rngs, vec![0, 1]);
        assert_eq!(q.tables.len(), 2 * 2 * levels.len());
        assert!(q.tables[2 * levels.len()..].iter().all(|&e| e == Q_INF));
        assert!(q.tables[..2 * levels.len()].iter().all(|&e| e < Q_INF));
        assert!(q.has_inf);
    }

    /// The one-pass build's identity oracle, at both of its stages.
    /// Pass 1 alone ([`QuantTables::build_exact`], all an exact attempt
    /// runs) must equal the per-spine reference bit for bit: spans, RNG
    /// indices and `f64` entries. The full [`QuantTables::build`] must
    /// equal the reference's quantization field by field: entries, RNG
    /// indices, spans, the scale and offset bits, and the sentinel flag.
    /// `q` is reused across calls, so stale buffer contents would show.
    fn assert_build_is_reference(q: &mut QuantTables, levels: &[f64], rx: &RxSymbols, ctx: &str) {
        let st = PerSpineTables::of(levels, rx);
        let want = st.quantize(levels.len());
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let want_exact = bits(&st.tables.concat());
        q.build_exact(levels, rx);
        assert_eq!(bits(&q.exact), want_exact, "{ctx}: exact entries");
        assert_eq!(q.rngs, want.rngs, "{ctx}: exact pass rngs");
        assert_eq!(q.spans, want.spans, "{ctx}: exact pass spans");
        q.build(levels, rx);
        assert_eq!(q.tables, want.tables, "{ctx}: tables");
        assert_eq!(q.rngs, want.rngs, "{ctx}: rngs");
        assert_eq!(q.spans, want.spans, "{ctx}: spans");
        assert_eq!(q.scale.to_bits(), want.scale.to_bits(), "{ctx}: scale");
        assert_eq!(q.offset.to_bits(), want.offset.to_bits(), "{ctx}: offset");
        assert_eq!(q.has_inf, want.has_inf, "{ctx}: has_inf");
    }

    fn levels_of(p: &CodeParams) -> Vec<f64> {
        SymbolGen::new(p).constellation().levels().to_vec()
    }

    fn schedule_of(p: &CodeParams) -> Schedule {
        Schedule::new(p.num_spines(), p.tail, p.puncturing)
    }

    #[test]
    fn build_matches_reference_on_the_decode_corpus() {
        // The symbol cases of `tests/decode_corpus.rs` — (n, k, passes,
        // channel, seeds) — built exactly as it builds them, on the
        // recorded 8-way grid and its unpunctured copy. B and d shape
        // only the search, not the tables.
        enum Chan {
            Awgn(f64),
            Fading(f64, usize),
        }
        let grid = [
            (64, 4, 2, Chan::Awgn(15.0), 0..6u64),
            (96, 3, 3, Chan::Awgn(8.0), 0..6),
            (60, 3, 2, Chan::Awgn(15.0), 0..4),
            (64, 2, 2, Chan::Awgn(10.0), 0..4),
            (256, 4, 2, Chan::Awgn(15.0), 0..3),
            (64, 4, 4, Chan::Fading(25.0, 10), 0..4),
        ];
        let mut q = QuantTables::new();
        for puncturing in [Puncturing::strided8(), Puncturing::none()] {
            for (n, k, passes, chan, seeds) in &grid {
                for seed in seeds.clone() {
                    let p = CodeParams::default()
                        .with_n(*n)
                        .with_k(*k)
                        .with_puncturing(puncturing);
                    let mut rng = StdRng::seed_from_u64(seed);
                    let msg = Message::random(p.n, || rng.gen());
                    let mut enc = Encoder::new(&p, &msg);
                    let schedule = schedule_of(&p);
                    let symbols = passes * schedule.symbols_per_pass();
                    let mut rx = RxSymbols::new(schedule);
                    match *chan {
                        Chan::Awgn(snr) => {
                            let mut ch = AwgnChannel::new(snr, seed.wrapping_add(1000));
                            rx.push(&ch.transmit(&enc.next_symbols(symbols)));
                        }
                        Chan::Fading(snr, tau) => {
                            let mut ch = RayleighChannel::new(snr, tau, seed.wrapping_add(1000));
                            let ys = ch.transmit(&enc.next_symbols(symbols));
                            let hs: Vec<_> = (0..ys.len()).map(|i| ch.csi(i).unwrap()).collect();
                            rx.push_with_csi(&ys, &hs);
                        }
                    }
                    let ctx = format!("{}-way n{n} k{k} seed {seed}", puncturing.ways());
                    assert_build_is_reference(&mut q, &levels_of(&p), &rx, &ctx);
                }
            }
        }
    }

    #[test]
    fn build_matches_reference_across_passes_and_snr() {
        // The transports' shape (n = 256, k = 4): 1–3 passes at 8–20 dB,
        // unpunctured and 8-way. On the 8-way schedule the buffer also
        // grows subpass by subpass, the shape of a session's attempts.
        // Beside the default c = 6, c = 1 gives 2-entry tables, shorter
        // than one lane group of `finite_bounds`.
        let mut q = QuantTables::new();
        for (puncturing, c) in [
            (Puncturing::none(), 6),
            (Puncturing::strided8(), 6),
            (Puncturing::none(), 1),
        ] {
            let p = CodeParams::default()
                .with_n(256)
                .with_c(c)
                .with_puncturing(puncturing);
            let levels = levels_of(&p);
            for (i, snr) in [8.0, 12.0, 16.0, 20.0].into_iter().enumerate() {
                let mut rng = StdRng::seed_from_u64(i as u64);
                let msg = Message::random(p.n, || rng.gen());
                let mut enc = Encoder::new(&p, &msg);
                let schedule = schedule_of(&p);
                let pass = schedule.symbols_per_pass();
                let ys = AwgnChannel::new(snr, 50 + i as u64).transmit(&enc.next_symbols(3 * pass));
                let mut cuts = vec![pass, 2 * pass, 3 * pass];
                if puncturing.ways() > 1 {
                    cuts = schedule.subpass_boundaries(3 * pass);
                }
                let mut rx = RxSymbols::new(schedule);
                let mut have = 0;
                for cut in cuts {
                    rx.push(&ys[have..cut]);
                    have = cut;
                    let ctx = format!("{}-way c{c} {snr} dB, {cut} symbols", puncturing.ways());
                    assert_build_is_reference(&mut q, &levels, &rx, &ctx);
                }
            }
        }
    }

    #[test]
    fn build_matches_reference_on_every_degenerate_mix() {
        // Nine kinds of degenerate observation, each as (y, h) pairs.
        let kinds: [(&str, Vec<(Complex, Complex)>); 9] = [
            (
                "h = inf",
                vec![(Complex::new(0.3, -0.2), Complex::new(f64::INFINITY, 0.0))],
            ),
            (
                "h = NaN",
                vec![(Complex::new(0.3, -0.2), Complex::new(f64::NAN, 0.1))],
            ),
            ("h = 0", vec![(Complex::new(0.7, 0.1), Complex::ZERO)]),
            ("y = NaN", vec![(Complex::new(f64::NAN, 0.4), Complex::ONE)]),
            (
                "y = -inf",
                vec![(Complex::new(f64::NEG_INFINITY, 0.4), Complex::ONE)],
            ),
            // |y|² overflows: the I table is all +∞.
            (
                "|y| = 1e200",
                vec![(Complex::new(1e200, -0.3), Complex::ONE)],
            ),
            // Each entry is finite (y² ≈ 1.7e308), but the two I-table
            // minima overflow the offset sum.
            (
                "offset overflows",
                vec![(Complex::new(1.3e154, 0.0), Complex::ONE); 2],
            ),
            // |h|² underflows and h·y vanishes beside |y|²: both tables
            // are constant (range 0).
            (
                "constant table",
                vec![(Complex::ONE, Complex::new(1e-300, 0.0))],
            ),
            // |h|²·lv² overflows at the outer levels only: each table
            // mixes finite entries with +∞ ones.
            (
                "table partly inf",
                vec![(Complex::new(0.0, 1.0), Complex::new(1.3e154, 0.0))],
            ),
        ];
        let p = CodeParams::default()
            .with_n(32)
            .with_puncturing(Puncturing::none());
        let levels = levels_of(&p);
        let pass = p.symbols_per_pass();
        let mut ch = AwgnChannel::new(10.0, 7);
        let mut enc = Encoder::new(&p, &Message::random(p.n, || 0x5a));
        let noisy: Vec<(Complex, Complex)> = ch
            .transmit(&enc.next_symbols(2 * pass))
            .into_iter()
            .map(|y| (y, Complex::ONE))
            .collect();
        let mut q = QuantTables::new();
        for subset in 0u32..1 << kinds.len() {
            let picked: Vec<&(&str, Vec<(Complex, Complex)>)> = kinds
                .iter()
                .enumerate()
                .filter(|&(i, _)| subset >> i & 1 == 1)
                .map(|(_, kind)| kind)
                .collect();
            let names: Vec<&str> = picked.iter().map(|(name, _)| *name).collect();
            // Alone (the empty subset is an empty buffer), then mixed
            // into two noisy passes at spread-out positions.
            let alone: Vec<(Complex, Complex)> = picked
                .iter()
                .flat_map(|(_, obs)| obs.iter().copied())
                .collect();
            let mut mixed = noisy.clone();
            for (i, obs) in alone.iter().enumerate() {
                mixed[(7 * i + 3) % noisy.len()] = *obs;
            }
            for (shape, obs) in [("alone", &alone), ("mixed", &mixed)] {
                let (ys, hs): (Vec<Complex>, Vec<Complex>) = obs.iter().copied().unzip();
                let mut rx = RxSymbols::new(schedule_of(&p));
                rx.push_with_csi(&ys, &hs);
                let ctx = format!("{shape} {names:?}");
                assert_build_is_reference(&mut q, &levels, &rx, &ctx);
                // Each kind alone reaches the corner it is named for.
                match (shape, names.as_slice()) {
                    ("alone", ["|y| = 1e200"]) => assert!(q.has_inf, "{ctx}"),
                    ("alone", ["offset overflows"]) => assert_eq!(q.offset, f64::INFINITY),
                    ("alone", ["constant table"]) => assert_eq!(q.scale, 1.0, "{ctx}"),
                    ("alone", ["table partly inf"]) => {
                        let i_table = &q.tables[..levels.len()];
                        assert!(i_table.contains(&Q_INF), "{ctx}");
                        assert!(i_table.iter().any(|&e| e < Q_INF), "{ctx}");
                    }
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn radix_select_matches_sort_based_reference() {
        // Pseudo-random key arrays vs the reference rule: smallest value
        // first, ties by key index, result in ascending index order.
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = move |bits: u32| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 32) & ((1u64 << bits) - 1)) as u32
        };
        for case in 0..200 {
            let n = 1 + (next(7) as usize);
            // Mix tight and wide ranges so every radix level gets hit,
            // plus saturated keys.
            let bits = [4, 8, 17, 32][case % 4];
            let keys: Vec<u32> = (0..n)
                .map(|_| {
                    if bits == 32 && next(3) == 0 {
                        u32::MAX
                    } else {
                        next(bits)
                    }
                })
                .collect();
            let b = 1 + (next(7) as usize) % n;
            let mut want: Vec<u32> = (0..n as u32).collect();
            want.sort_by_key(|&i| (keys[i as usize], i));
            want.truncate(b);
            want.sort_unstable();
            let mut got = Vec::new();
            let mut scratch = Vec::new();
            radix_select_keys(&keys, b, &mut got, &mut scratch);
            assert_eq!(got, want, "case {case}: keys {keys:?} b {b}");
        }
    }

    #[test]
    fn radix_select_keeps_everything_when_beam_exceeds_keys() {
        let mut order = Vec::new();
        let mut scratch = Vec::new();
        radix_select_keys(&[5, 1, 3], 7, &mut order, &mut scratch);
        assert_eq!(order, vec![0, 1, 2]);
        radix_select_keys(&[], 4, &mut order, &mut scratch);
        assert!(order.is_empty());
    }
}
