//! The single source of truth for thread budgets.
//!
//! Before this module, every consumer read thread counts its own way
//! (each bench binary parsed `--threads` with its own default, sweeps
//! took a bare `usize`, and nothing honoured an environment override).
//! [`Threads`] unifies the policy:
//!
//! * precedence: CLI `--threads` value > `SPINAL_THREADS` env var >
//!   `std::thread::available_parallelism()`;
//! * clamping: a budget is always ≥ 1 (0 means "serial", not "none")
//!   and capped at [`Threads::MAX`] to keep a typo like
//!   `SPINAL_THREADS=1000000` from fork-bombing the host;
//! * parse errors name the offending source and value instead of
//!   panicking.
//!
//! The same budget feeds both layers of parallelism:
//! [`run_parallel_with`](crate::sweep::run_parallel_with) for
//! trial-level fan-out and `spinal_core::DecodeService` for block-level
//! fan-out. [`Threads::split`] divides one budget across the two layers
//! so they compose without oversubscribing cores.

/// A validated thread budget (always `1 ..= Threads::MAX`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Threads(usize);

impl Threads {
    /// Upper clamp on any budget — far above real core counts, low
    /// enough that a malformed override cannot spawn unbounded threads.
    pub const MAX: usize = 1024;

    /// A budget of exactly `n`, clamped into `1 ..= MAX`.
    pub fn new(n: usize) -> Self {
        Threads(n.clamp(1, Self::MAX))
    }

    /// The host's available parallelism (the default budget).
    pub fn available() -> usize {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
    }

    /// Resolve a budget from an already-parsed CLI value, honouring the
    /// `SPINAL_THREADS` environment override. Errors (a malformed env
    /// value) name the variable and value.
    pub fn resolve(cli: Option<usize>) -> Result<Self, String> {
        Self::from_parts(
            cli,
            std::env::var("SPINAL_THREADS").ok().as_deref(),
            Self::available(),
        )
    }

    /// The pure resolution rule behind [`Threads::resolve`], with the
    /// environment and default passed in so tests cover every branch
    /// without mutating process state.
    pub fn from_parts(
        cli: Option<usize>,
        env: Option<&str>,
        default: usize,
    ) -> Result<Self, String> {
        if let Some(n) = cli {
            return Ok(Self::new(n));
        }
        if let Some(raw) = env {
            let n: usize = raw.trim().parse().map_err(|_| {
                format!(
                    "invalid value for SPINAL_THREADS: '{raw}' (expected a non-negative integer)"
                )
            })?;
            return Ok(Self::new(n));
        }
        Ok(Self::new(default))
    }

    /// The budget as a plain count.
    pub fn get(self) -> usize {
        self.0
    }

    /// Split this budget between trial-level workers and a per-worker
    /// decode-service budget: `(outer, inner)` with `outer·inner ≤
    /// budget` (and `outer ≤ jobs`). With many jobs the whole budget
    /// goes to the outer sweep (`inner = 1`); with fewer jobs than
    /// cores the leftover cores become each worker's
    /// [`DecodeService`](spinal_core::DecodeService), whose
    /// [`decode_batch`](spinal_core::DecodeService::decode_batch)
    /// decodes that worker's blocks in parallel (whole blocks across
    /// threads), so small grids still fill the machine.
    pub fn split(self, jobs: usize) -> (usize, Threads) {
        let outer = self.0.min(jobs.max(1));
        (outer, Threads::new(self.0 / outer))
    }
}

impl Default for Threads {
    /// The environment-resolved budget, falling back to the host default
    /// if `SPINAL_THREADS` is malformed.
    fn default() -> Self {
        Self::resolve(None).unwrap_or_else(|_| Self::new(Self::available()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cli_wins_over_env_and_default() {
        let t = Threads::from_parts(Some(3), Some("7"), 12).unwrap();
        assert_eq!(t.get(), 3);
    }

    #[test]
    fn env_wins_over_default() {
        assert_eq!(Threads::from_parts(None, Some("7"), 12).unwrap().get(), 7);
        assert_eq!(Threads::from_parts(None, Some(" 2 "), 12).unwrap().get(), 2);
    }

    #[test]
    fn default_used_when_nothing_set() {
        assert_eq!(Threads::from_parts(None, None, 5).unwrap().get(), 5);
    }

    #[test]
    fn zero_clamps_to_one_everywhere() {
        assert_eq!(Threads::new(0).get(), 1);
        assert_eq!(Threads::from_parts(Some(0), None, 8).unwrap().get(), 1);
        assert_eq!(Threads::from_parts(None, Some("0"), 8).unwrap().get(), 1);
        assert_eq!(Threads::from_parts(None, None, 0).unwrap().get(), 1);
    }

    #[test]
    fn huge_values_clamp_to_max() {
        assert_eq!(Threads::new(usize::MAX).get(), Threads::MAX);
        let t = Threads::from_parts(None, Some("1000000"), 4).unwrap();
        assert_eq!(t.get(), Threads::MAX);
    }

    #[test]
    fn malformed_env_names_the_variable_and_value() {
        for bad in ["four", "-2", "3.5", ""] {
            let err = Threads::from_parts(None, Some(bad), 4).unwrap_err();
            assert!(
                err.contains("SPINAL_THREADS") && err.contains(bad),
                "unhelpful message for {bad:?}: {err}"
            );
        }
    }

    #[test]
    fn malformed_env_is_ignored_when_cli_present() {
        // CLI precedence means a broken env var cannot sink an explicit
        // request.
        assert_eq!(
            Threads::from_parts(Some(2), Some("junk"), 4).unwrap().get(),
            2
        );
    }

    #[test]
    fn split_gives_whole_budget_to_big_grids() {
        let (outer, inner) = Threads::new(8).split(1000);
        assert_eq!((outer, inner.get()), (8, 1));
    }

    #[test]
    fn split_turns_leftover_cores_into_service_threads() {
        let (outer, inner) = Threads::new(8).split(2);
        assert_eq!((outer, inner.get()), (2, 4));
        let (outer, inner) = Threads::new(7).split(3);
        assert_eq!(outer, 3);
        assert_eq!(inner.get(), 2); // 3·2 ≤ 7, no oversubscription
        assert!(outer * inner.get() <= 7);
    }

    #[test]
    fn split_handles_degenerate_inputs() {
        let (outer, inner) = Threads::new(4).split(0);
        assert_eq!((outer, inner.get()), (1, 4));
        let (outer, inner) = Threads::new(1).split(100);
        assert_eq!((outer, inner.get()), (1, 1));
    }
}
