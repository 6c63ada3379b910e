//! The hook surface the instrumented `parking_lot` shim calls into.
//!
//! Dormant cost is one relaxed atomic load per sync operation: the
//! shim's `check` feature may be enabled workspace-wide (Cargo feature
//! unification under `cargo test --workspace` does exactly that) and
//! must not perturb tests that never start a session.
//!
//! Participation is automatic. The first hook a thread executes while
//! a session is active registers the thread and stores a thread-local
//! guard; the guard's `Drop` (run by TLS destruction at thread exit)
//! reports the exit to the model. This is what lets the checker follow
//! the `DecodeService`'s internally spawned pool workers without the
//! service knowing it is being checked.

use crate::sched::SessionInner;
use std::cell::RefCell;
use std::panic::Location;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Global toggle; false means every hook is a no-op after one load.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// The active session, when one exists.
static SESSION: Mutex<Option<Arc<SessionInner>>> = Mutex::new(None);

/// Allocator for model object ids (mutexes and condvars share the
/// space). Starts at 1 so 0 can mean "unassigned" in the shim's lazily
/// initialized atomics.
static NEXT_OBJ_ID: AtomicU64 = AtomicU64::new(1);

/// Allocate a fresh model id for a mutex or condvar.
pub fn fresh_obj_id() -> u64 {
    NEXT_OBJ_ID.fetch_add(1, Ordering::Relaxed)
}

/// Is a check session currently active? The shim calls this before
/// anything else; when false it takes its plain std-backed paths.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Acquire)
}

struct Participant {
    sess: Arc<SessionInner>,
    tid: usize,
}

impl Drop for Participant {
    fn drop(&mut self) {
        self.sess.thread_exited(self.tid);
    }
}

thread_local! {
    static PART: RefCell<Option<Participant>> = const { RefCell::new(None) };
}

/// Resolve this thread's participation in the active session,
/// registering it on first contact. `None` when no session is active,
/// the session is shutting down, or this thread's TLS is already being
/// destroyed.
fn participant() -> Option<(Arc<SessionInner>, usize)> {
    if !enabled() {
        return None;
    }
    PART.try_with(|slot| {
        let mut slot = slot.borrow_mut();
        if let Some(p) = slot.as_ref() {
            if !p.sess.is_closed() {
                return Some((p.sess.clone(), p.tid));
            }
            *slot = None; // stale guard from a finished session
        }
        let sess = SESSION
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()?;
        if sess.is_closed() {
            return None;
        }
        let name = std::thread::current()
            .name()
            .unwrap_or("<unnamed>")
            .to_string();
        let tid = sess.register_thread(name);
        *slot = Some(Participant {
            sess: sess.clone(),
            tid,
        });
        Some((sess, tid))
    })
    .ok()
    .flatten()
}

// ---------------------------------------------------------------------
// Shim-facing hooks
// ---------------------------------------------------------------------

/// A mutex `lock()` is about to happen. Blocks in the model until the
/// model grants the lock; afterwards the real lock is uncontended.
#[track_caller]
pub fn mutex_lock(id: u64) {
    let loc = Location::caller();
    if let Some((s, tid)) = participant() {
        s.lock_acquire(tid, id, loc);
    }
}

/// A mutex guard was dropped (the real lock is already released).
pub fn mutex_unlock(id: u64) {
    if let Some((s, tid)) = participant() {
        s.lock_release(tid, id);
    }
}

/// A `try_lock` is about to happen. `None`: no session — the caller
/// should use the real `try_lock`. `Some(granted)`: the model decided;
/// on `true` the real lock is guaranteed uncontended.
#[track_caller]
pub fn mutex_try_lock(id: u64) -> Option<bool> {
    let loc = Location::caller();
    let (s, tid) = participant()?;
    Some(s.lock_try_acquire(tid, id, loc))
}

/// A condvar wait is about to happen with `lock` held. Returns `true`
/// when the model handled the wait — the caller must then *skip* the
/// real condvar wait and simply re-take the real mutex (uncontended,
/// because the model re-acquired the lock before returning).
#[track_caller]
pub fn condvar_wait(cv: u64, lock: u64) -> bool {
    let loc = Location::caller();
    match participant() {
        Some((s, tid)) => {
            s.condvar_wait(tid, cv, lock, loc);
            true
        }
        None => false,
    }
}

/// `notify_one` on a condvar. Which parked waiter wakes is a schedule
/// choice made by the session's strategy.
pub fn condvar_notify_one(cv: u64) {
    if let Some((s, tid)) = participant() {
        s.condvar_notify(tid, cv, false);
    }
}

/// `notify_all` on a condvar.
pub fn condvar_notify_all(cv: u64) {
    if let Some((s, tid)) = participant() {
        s.condvar_notify(tid, cv, true);
    }
}

/// A polite schedule point: hand execution to any other runnable
/// thread; keep it only when nobody else can run. A thread spinning on
/// this is treated as blocked by stall detection, which is what makes
/// [`crate::explore::join_checked`] safe inside checked bodies.
#[track_caller]
pub fn yield_point() {
    if let Some((s, tid)) = participant() {
        s.yield_now(tid);
    }
}

// ---------------------------------------------------------------------
// Session lifecycle (called by sched::run_schedule)
// ---------------------------------------------------------------------

/// Install `sess` as the active session and register the calling
/// thread as its first participant (it starts holding the grant).
pub(crate) fn install_session(sess: &Arc<SessionInner>) {
    *SESSION.lock().unwrap_or_else(PoisonError::into_inner) = Some(sess.clone());
    ENABLED.store(true, Ordering::Release);
    let tid = sess.register_thread(
        std::thread::current()
            .name()
            .unwrap_or("<main>")
            .to_string(),
    );
    PART.with(|slot| {
        *slot.borrow_mut() = Some(Participant {
            sess: sess.clone(),
            tid,
        });
    });
}

/// Retire the calling thread's participation (the body returned or
/// unwound); drops the guard, which reports the exit.
pub(crate) fn retire_main() {
    let _ = PART.try_with(|slot| slot.borrow_mut().take());
}

/// Remove `sess` from the global slot if it is still installed.
pub(crate) fn uninstall_session(sess: &Arc<SessionInner>) {
    let mut slot = SESSION.lock().unwrap_or_else(PoisonError::into_inner);
    if slot.as_ref().is_some_and(|s| Arc::ptr_eq(s, sess)) {
        *slot = None;
        ENABLED.store(false, Ordering::Release);
    }
}

/// Block (off-model, wall-clock) until the active session has at least
/// `n` registered participants, the caller included. No-op when no
/// session is active.
///
/// Thread *registration* happens at a thread's first hook, which races
/// real spawn latency — without a barrier, a fast parent often runs
/// past the interesting window before its children exist in the model,
/// collapsing the schedule space. Call this after spawning to make the
/// children's presence (and their tid order, when called between
/// spawns) deterministic.
pub fn await_participants(n: usize) {
    loop {
        let Some((s, _)) = participant() else { return };
        if s.participant_count() >= n {
            return;
        }
        std::thread::sleep(std::time::Duration::from_micros(50));
    }
}
