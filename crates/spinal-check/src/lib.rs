//! A loom-style deterministic-schedule concurrency checker for the
//! workspace's long-lived thread pools.
//!
//! On a host with one or two cores, the decode service's concurrency
//! contract — no deadlocks, no lost wakeups, bit-identical output at
//! every thread count — is barely exercised by the interleavings the
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
//! reports its exit, so the `DecodeService`'s internally spawned pool
//! workers are captured without any service changes. Code the model
//! cannot see (e.g. `JoinHandle::join` in the worker pool's drop) is
//! handled by a currency-steal timeout: a schedule that blocks outside
//! the model loses determinism for its remaining choices (counted in
//! [`ScheduleOutcome::diverged`]) but never hangs the checker.
//!
//! The checker asserts *outcomes* per schedule — the harnesses in
//! `tests/` run the decode service's batch and shutdown paths, its
//! session paths (worker panic against `wait`; sessions and service
//! dropped mid-flight — every race the FIFO service has, so each has a
//! harness) and the pipelined transport receiver
//! (attempts settled against later spans, feedback, and refused opens
//! and submits) across hundreds to thousands of schedules, and require
//! bit-identical `(message, cost)`, the inline receiver's outcomes, and
//! balanced service books on every one.

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
