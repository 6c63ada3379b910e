//! Drivers that run a body across many schedules and aggregate what
//! the model observed.
//!
//! Two modes:
//!
//! * [`check_random`] — seeded randomized exploration: mostly
//!   uniform-random choices, seasoned with PCT-style priority
//!   scheduling (random priorities with a few random change points —
//!   empirically strong at exposing ordering bugs with few runs).
//! * [`check_exhaustive`] — bounded exhaustive DFS over the schedule
//!   choice tree, for small fixture-sized bodies. Every choice point is
//!   recorded as `(index, fanout)`; the explorer backtracks the deepest
//!   incrementable choice and replays.
//!
//! Sessions are process-global (the shim routes to *the* active
//! session); [`run_schedule`] serializes them internally, so drivers
//! — and checker tests on parallel `cargo test` threads — compose
//! safely.

use crate::report::Violation;
use crate::sched::{run_schedule, ScheduleOutcome, Strategy};
use std::collections::HashSet;
use std::thread::JoinHandle;
use std::time::Duration;

/// Configuration for [`check_random`].
#[derive(Clone, Debug)]
pub struct CheckConfig {
    /// Number of schedules to run.
    pub schedules: usize,
    /// Base seed; schedule `i` derives its strategy seed from it.
    pub seed: u64,
    /// Expected participating thread count (including the caller),
    /// when known; makes deadlock detection immediate.
    pub declared_threads: Option<usize>,
}

impl CheckConfig {
    /// `schedules` runs from `seed`, thread count unknown.
    pub fn new(schedules: usize, seed: u64) -> CheckConfig {
        CheckConfig {
            schedules,
            seed,
            declared_threads: None,
        }
    }
}

/// Aggregate statistics over one exploration.
#[derive(Clone, Debug, Default)]
pub struct CheckStats {
    /// Schedules executed.
    pub schedules: usize,
    /// Distinct schedules seen (by choice-sequence hash).
    pub distinct: usize,
    /// Total grant steals (external blocking events).
    pub steals: usize,
    /// Schedules that lost determinism.
    pub diverged: usize,
    /// Fatal violations (deadlock / lost wakeup / livelock), one entry
    /// per schedule that aborted.
    pub violations: Vec<Violation>,
    /// Lock-order inversions (deduplicated per schedule by the graph,
    /// but repeated schedules may re-find the same cycle).
    pub lockdep: Vec<Violation>,
    /// Largest schedule-point count seen in one schedule.
    pub max_steps: usize,
}

impl CheckStats {
    fn absorb<R>(&mut self, out: &mut ScheduleOutcome<R>, hashes: &mut HashSet<u64>) {
        self.schedules += 1;
        if hashes.insert(out.schedule_hash) {
            self.distinct += 1;
        }
        self.steals += out.steals;
        if out.diverged {
            self.diverged += 1;
        }
        if let Some(v) = out.violation.take() {
            self.violations.push(v);
        }
        self.lockdep.append(&mut out.lockdep);
        self.max_steps = self.max_steps.max(out.steps);
    }

    /// True when no schedule produced any violation of any kind.
    pub fn clean(&self) -> bool {
        self.violations.is_empty() && self.lockdep.is_empty()
    }

    /// Panic with full reports if any violation was recorded.
    pub fn assert_clean(&self, what: &str) {
        if self.clean() {
            return;
        }
        let mut msg = format!(
            "{what}: {} fatal violation(s), {} lock-order inversion(s) in {} schedule(s)\n",
            self.violations.len(),
            self.lockdep.len(),
            self.schedules
        );
        for v in self.violations.iter().chain(self.lockdep.iter()).take(3) {
            msg.push_str(&format!("{v}\n"));
        }
        panic!("{msg}");
    }
}

/// Run `body` across `cfg.schedules` randomized schedules. Returns the
/// results of schedules that completed (aborted schedules contribute
/// `None` → filtered out) and the aggregate stats.
pub fn check_random<R>(cfg: &CheckConfig, mut body: impl FnMut() -> R) -> (Vec<R>, CheckStats) {
    let mut results = Vec::with_capacity(cfg.schedules);
    let mut stats = CheckStats::default();
    let mut hashes = HashSet::new();
    for i in 0..cfg.schedules {
        let seed = cfg
            .seed
            .wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        // Mostly uniform-random with a PCT schedule every 8th run:
        // random explores broadly (distinct-schedule density is near
        // 100%), PCT concentrates on few-preemption orderings where
        // most real bugs live but collapses to few distinct schedules
        // at small thread counts — so it seasons the mix rather than
        // dominating it.
        let strategy = if i % 8 == 7 {
            Strategy::Pct { seed, depth: 3 }
        } else {
            Strategy::Random { seed }
        };
        let mut out = run_schedule(strategy, cfg.declared_threads, &mut body);
        stats.absorb(&mut out, &mut hashes);
        if let Some(r) = out.result {
            results.push(r);
        }
    }
    (results, stats)
}

/// Bounded exhaustive exploration: enumerate the schedule choice tree
/// up to `max_schedules` schedules. Suitable for small fixtures (2–3
/// threads, a handful of sync ops); the service and receiver harnesses
/// use [`check_random`] instead.
///
/// The tree is searched breadth-first over *divergence points*: each
/// completed run enqueues every unexplored sibling of every choice it
/// made beyond its forced prefix, and the queue pops shallow prefixes
/// first. Within the budget this is a complete enumeration (every
/// node's siblings are enqueued exactly once, when the first run
/// through their parent observes them), and when the budget truncates
/// it, the schedules explored are the ones that diverge *early* —
/// where ordering bugs like ABBA live — rather than permutations of
/// the schedule tail.
pub fn check_exhaustive<R>(
    max_schedules: usize,
    declared_threads: Option<usize>,
    mut body: impl FnMut() -> R,
) -> (Vec<R>, CheckStats) {
    let mut results = Vec::new();
    let mut stats = CheckStats::default();
    let mut hashes = HashSet::new();
    let mut frontier: std::collections::VecDeque<Vec<u32>> =
        std::collections::VecDeque::from([Vec::new()]);
    while let Some(prefix) = frontier.pop_front() {
        let mut out = run_schedule(
            Strategy::Replay {
                forced: prefix.clone(),
            },
            declared_threads,
            &mut body,
        );
        let choices = std::mem::take(&mut out.choices);
        stats.absorb(&mut out, &mut hashes);
        if let Some(r) = out.result {
            results.push(r);
        }
        if stats.schedules >= max_schedules {
            break;
        }
        // Siblings below the forced prefix were enqueued by earlier
        // runs; only the newly observed choices contribute here. (On
        // divergence the observed choices are still a valid cursor —
        // the tree shifted under replay; the search stays sound,
        // merely redundant.)
        for d in prefix.len()..choices.len() {
            let (idx, fanout) = choices[d];
            for alt in 0..fanout {
                if alt == idx {
                    continue;
                }
                let mut p: Vec<u32> = choices[..d].iter().map(|&(i, _)| i).collect();
                p.push(alt);
                frontier.push_back(p);
            }
        }
    }
    (results, stats)
}

/// Join a thread from inside a checked body without stealing the
/// grant: spins on [`crate::hooks::yield_point`] until the thread
/// finishes, so the model always knows the joiner is merely waiting.
/// Outside a session this is a plain `join`.
///
/// Use this in *fixtures*; code under test (e.g. the decode service's
/// worker-pool drop)
/// keeps its real `join` and is covered by the steal timeout instead.
pub fn join_checked<T>(handle: JoinHandle<T>) -> std::thread::Result<T> {
    while !handle.is_finished() {
        crate::hooks::yield_point();
        if !crate::hooks::enabled() {
            break;
        }
        // Off-model breather: only reached while no other participant
        // is runnable, so this wall-clock pause blocks nobody.
        std::thread::sleep(Duration::from_micros(50));
    }
    handle.join()
}
