//! A loom-style deterministic-schedule concurrency checker for the
//! workspace's long-lived thread pools.
//!
//! The build container exposes one core, so the engine's concurrency
//! contract — no deadlocks, no lost wakeups, bit-identical output at
//! every thread count — is never exercised by the interleavings the
//! test host happens to produce. This crate replaces the OS scheduler
//! with a *model* scheduler for the duration of a check session:
//!
//! * The vendored `parking_lot` shim, built with its `check` feature,
//!   routes every `Mutex` lock/unlock and `Condvar` wait/notify through
//!   [`hooks`]. When a session is active, each such operation becomes a
//!   **schedule point**: exactly one participating thread runs at a
//!   time, and at every schedule point the session's [`Strategy`]
//!   chooses which thread runs next. When no session is active the
//!   hooks are a single relaxed atomic load — the shim behaves exactly
//!   like the plain std-backed version.
//! * [`sched`] holds the model: per-thread run states, lock ownership
//!   and wait queues, condvar wait sets, an acquisition-ordered
//!   lockdep graph ([`lockdep`]) with cycle detection, and a bounded
//!   event trace. Deadlocks (every live thread model-blocked) and lost
//!   wakeups (every live thread parked in a condvar wait set with no
//!   notify in flight) are detected and reported as [`Violation`]s
//!   carrying full per-thread acquisition traces ([`report`]).
//! * [`explore`] drives bodies across many schedules: seeded uniform
//!   random preemption, PCT-style priority scheduling with random
//!   change points, and bounded exhaustive enumeration of the schedule
//!   tree for small thread counts.
//!
//! Threads participate automatically: the first hook a thread executes
//! while a session is active registers it, and a thread-local guard
//! reports its exit, so the `DecodeEngine`'s internally-spawned workers
//! are captured without any engine changes. Code the model cannot see
//! (e.g. `JoinHandle::join` inside `DecodeEngine::drop`) is handled by
//! a currency-steal timeout: a schedule that blocks outside the model
//! loses determinism for its remaining choices (counted in
//! [`ScheduleOutcome::diverged`]) but never hangs the checker.
//!
//! The checker asserts *outcomes* per schedule — the harnesses in
//! `tests/` run the engine's submit/drain, batch and shutdown paths
//! across thousands of schedules and require bit-identical
//! `(message, cost)` on every one.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod explore;
pub mod hooks;
pub mod lockdep;
pub mod report;
pub mod sched;

pub use explore::{check_exhaustive, check_random, CheckConfig, CheckStats};
pub use report::{Event, Op, ThreadReport, Violation, ViolationKind};
pub use sched::{run_schedule, ScheduleOutcome, Strategy};
