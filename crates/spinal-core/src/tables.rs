//! Prepared branch-metric tables for the exact profile: per-spine `f64`
//! tables built once and reused across the decode attempts of a
//! rateless trial. (The quantized profile builds its `u16` tables from
//! the receive buffer in one pass per attempt instead; see
//! [`QuantTables::build`](crate::quant::QuantTables).)
//!
//! Branch-metric tables are **additive over observations**: the table
//! pair of one received symbol depends only on that symbol (and the
//! constellation), never on other symbols. So when the §7.1 retry loop
//! receives a few more symbols and decodes again, only the *new*
//! observations need tables built — everything already prepared is
//! reused verbatim, which is exactly why the incremental decode is
//! bit-identical to a from-scratch one (same values, same per-spine
//! order).

use crate::decoder::build_symbol_tables;
use crate::rx::{RxEntry, RxSymbols};

/// Exact branch-metric tables grouped per spine (contiguous within a
/// spine, so one decode step reads a single flat run).
#[derive(Debug, Clone, Default)]
pub(crate) struct SymbolTables {
    /// Per spine: concatenated `[I | Q]` tables, `2m` entries per
    /// observation, in receive order.
    pub(crate) tables: Vec<Vec<f64>>,
    /// Per spine: the RNG index of each observation.
    pub(crate) rngs: Vec<Vec<u32>>,
}

impl SymbolTables {
    /// Drop all tables and size for `n_spines` spines (inner capacity is
    /// retained).
    pub(crate) fn reset(&mut self, n_spines: usize) {
        self.tables.resize_with(n_spines, Vec::new);
        self.rngs.resize_with(n_spines, Vec::new);
        for t in &mut self.tables {
            t.clear();
        }
        for r in &mut self.rngs {
            r.clear();
        }
    }

    /// Fold in every observation of `rx` not yet covered (per spine,
    /// observations beyond the count already built). Identical results
    /// to a from-scratch build: `build_symbol_tables` is per-entry and
    /// appends in receive order.
    pub(crate) fn sync(&mut self, levels: &[f64], rx: &RxSymbols) {
        debug_assert_eq!(self.tables.len(), rx.n_spines());
        for s in 0..rx.n_spines() {
            let entries = rx.spine_entries(s);
            let have = self.rngs[s].len();
            if entries.len() > have {
                build_symbol_tables(
                    levels,
                    &entries[have..],
                    &mut self.tables[s],
                    &mut self.rngs[s],
                );
            }
        }
    }

    /// Total observations currently covered.
    #[cfg(test)]
    pub(crate) fn observations(&self) -> usize {
        self.rngs.iter().map(Vec::len).sum()
    }
}

/// Reusable branch-metric tables for the decode attempts of one rateless
/// trial.
///
/// Hold one per trial and decode through
/// [`DecodeRequest::cache`](crate::DecodeRequest::cache): each attempt
/// folds in only the observations received since the previous attempt
/// instead of rebuilding every table from the whole buffer. Results are
/// bit-identical to the uncached decode.
///
/// The cache serves the [exact profile](crate::MetricProfile::Exact),
/// whose `f64` tables never change once built. A
/// [quantized](crate::MetricProfile::Quantized) decode leaves it
/// untouched: one decode-wide scale maps every table to `u16`, and that
/// scale moves with every new observation, so each attempt requantizes
/// every table anyway. Building them straight from the buffer in one
/// pass costs less than syncing the cache and quantizing from it.
///
/// The cache assumes the receive buffer **grows monotonically** between
/// calls (the §7.1 shape). Switching to a different buffer, a different
/// constellation, or a different spine count is detected — the buffer
/// case via a per-spine fingerprint of the last folded observation — and
/// triggers a transparent rebuild, so stale tables are never consumed;
/// call [`TableCache::reset`] to drop state eagerly when a trial ends.
#[derive(Debug, Clone, Default)]
pub struct TableCache {
    st: SymbolTables,
    levels: Vec<f64>,
    /// Per spine: the last observation folded in, used to detect that
    /// the caller switched receive buffers between calls.
    last: Vec<Option<RxEntry>>,
}

impl TableCache {
    /// An empty cache; buffers are allocated by the first decode.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drop all cached tables (capacity retained).
    pub fn reset(&mut self) {
        self.st.reset(0);
        self.levels.clear();
        self.last.clear();
    }

    /// Bring the cache up to date with `rx`, rebuilding from scratch if
    /// the geometry, constellation, or buffer identity changed.
    pub(crate) fn sync(&mut self, levels: &[f64], rx: &RxSymbols) -> &SymbolTables {
        let ns = rx.n_spines();
        let mut stale = self.levels != levels || self.st.tables.len() != ns;
        if !stale {
            for (s, fp) in self.last.iter().enumerate() {
                if let Some(fp) = fp {
                    let have = self.st.rngs[s].len();
                    let entries = rx.spine_entries(s);
                    if entries.len() < have || entries[have - 1] != *fp {
                        stale = true;
                        break;
                    }
                }
            }
        }
        if stale {
            self.st.reset(ns);
            self.levels.clear();
            self.levels.extend_from_slice(levels);
            self.last.clear();
            self.last.resize(ns, None);
        }
        self.st.sync(levels, rx);
        for s in 0..ns {
            self.last[s] = rx.spine_entries(s).last().copied();
        }
        &self.st
    }

    /// The cached per-spine tables (read-only view for plan builders).
    #[cfg(test)]
    pub(crate) fn tables(&self) -> &SymbolTables {
        &self.st
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::puncturing::{Puncturing, Schedule};
    use spinal_channel::Complex;

    fn levels() -> Vec<f64> {
        vec![-1.0, 0.0, 1.0, 2.0]
    }

    fn rx_with(sched: &Schedule, ys: &[Complex]) -> RxSymbols {
        let mut rx = RxSymbols::new(sched.clone());
        rx.push(ys);
        rx
    }

    #[test]
    fn incremental_sync_matches_from_scratch() {
        let sched = Schedule::new(8, 2, Puncturing::strided8());
        let ys: Vec<Complex> = (0..40)
            .map(|i| Complex::new(i as f64 * 0.1, -(i as f64) * 0.05))
            .collect();
        let lv = levels();

        // Grown in three pushes through one cache…
        let mut rx = RxSymbols::new(sched.clone());
        let mut cache = TableCache::new();
        for chunk in [&ys[..7], &ys[7..20], &ys[20..]] {
            rx.push(chunk);
            cache.sync(&lv, &rx);
        }
        // …must equal one fresh build over the full buffer, bit for bit.
        let mut fresh = TableCache::new();
        fresh.sync(&lv, &rx_with(&sched, &ys));
        for s in 0..8 {
            assert_eq!(cache.tables().rngs[s], fresh.tables().rngs[s], "spine {s}");
            let a = &cache.tables().tables[s];
            let b = &fresh.tables().tables[s];
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.to_bits(), y.to_bits(), "spine {s}");
            }
        }
        assert_eq!(cache.tables().observations(), 40);
    }

    #[test]
    fn switching_buffers_is_detected_and_rebuilt() {
        let sched = Schedule::new(4, 1, Puncturing::none());
        let lv = levels();
        let ys_a: Vec<Complex> = (0..10).map(|i| Complex::new(i as f64, 0.0)).collect();
        let ys_b: Vec<Complex> = (0..10).map(|i| Complex::new(-(i as f64), 1.0)).collect();
        let mut cache = TableCache::new();
        cache.sync(&lv, &rx_with(&sched, &ys_a));
        // Same geometry, same observation counts, different content: the
        // fingerprint must force a rebuild, not silent reuse.
        cache.sync(&lv, &rx_with(&sched, &ys_b));
        let mut fresh = TableCache::new();
        fresh.sync(&lv, &rx_with(&sched, &ys_b));
        for s in 0..4 {
            assert_eq!(cache.tables().tables[s], fresh.tables().tables[s]);
        }
    }

    #[test]
    fn changing_levels_or_geometry_resets() {
        let sched = Schedule::new(4, 1, Puncturing::none());
        let ys: Vec<Complex> = (0..8).map(|i| Complex::new(i as f64, 0.0)).collect();
        let mut cache = TableCache::new();
        cache.sync(&levels(), &rx_with(&sched, &ys));
        // New constellation: entries per observation change.
        let lv2 = vec![-2.0, 2.0];
        cache.sync(&lv2, &rx_with(&sched, &ys));
        let mut fresh = TableCache::new();
        fresh.sync(&lv2, &rx_with(&sched, &ys));
        for s in 0..4 {
            assert_eq!(cache.tables().tables[s], fresh.tables().tables[s]);
        }
        // New spine count.
        let sched8 = Schedule::new(8, 1, Puncturing::none());
        cache.sync(&lv2, &rx_with(&sched8, &ys));
        assert_eq!(cache.tables().tables.len(), 8);
    }
}
