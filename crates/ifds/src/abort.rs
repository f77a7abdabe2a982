//! Cooperative abort for long-running tabulations.
//!
//! An [`AbortHandle`] is a cheap, clonable token shared between a
//! solver run and whoever supervises it (a CLI deadline, the analysis
//! daemon's cancel endpoint, a propagation budget). The solver *polls*
//! the handle at a bounded interval — there is no preemption — and
//! winds down cleanly when it has tripped, returning whatever partial
//! state it has as an explicitly `aborted` result.
//!
//! The handle latches the **first** abort cause it observes
//! ([`AbortReason`]); later causes never overwrite it, so a job that
//! was cancelled milliseconds before its deadline reports `Cancelled`
//! on every thread that asks, whichever thread noticed first.

use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a run was aborted.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AbortReason {
    /// An external [`AbortHandle::cancel`] call (daemon `cancel`
    /// request, Ctrl-C handler, …).
    Cancelled,
    /// The wall-clock deadline passed.
    Deadline,
    /// The path-edge propagation budget was exhausted.
    Budget,
}

impl AbortReason {
    /// Stable lower-case name (used in reports and the wire protocol).
    pub fn as_str(self) -> &'static str {
        match self {
            AbortReason::Cancelled => "cancelled",
            AbortReason::Deadline => "deadline",
            AbortReason::Budget => "budget",
        }
    }
}

impl std::fmt::Display for AbortReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

#[derive(Debug)]
struct AbortInner {
    /// Wall-clock instant after which [`AbortHandle::poll`] trips.
    deadline: Option<Instant>,
    /// Set by [`AbortHandle::cancel`].
    cancelled: AtomicBool,
    /// Latched first cause: 0 = not tripped, else `AbortReason` + 1.
    tripped: AtomicU8,
}

/// A shared, pollable abort token (cancel + optional deadline).
///
/// Clones share state. `Default` is an handle that never trips on its
/// own (cancel/budget only).
#[derive(Clone, Debug)]
pub struct AbortHandle {
    inner: Arc<AbortInner>,
}

impl Default for AbortHandle {
    fn default() -> Self {
        AbortHandle::new()
    }
}

impl AbortHandle {
    /// A handle with no deadline; it trips only via
    /// [`AbortHandle::cancel`] or [`AbortHandle::trip`].
    pub fn new() -> Self {
        AbortHandle {
            inner: Arc::new(AbortInner {
                deadline: None,
                cancelled: AtomicBool::new(false),
                tripped: AtomicU8::new(0),
            }),
        }
    }

    /// A handle whose [`AbortHandle::poll`] trips once `budget` of
    /// wall-clock time has passed (measured from now).
    pub fn with_deadline(budget: Duration) -> Self {
        Self::with_deadline_at(Instant::now() + budget)
    }

    /// A handle tripping at the given instant.
    pub fn with_deadline_at(deadline: Instant) -> Self {
        AbortHandle {
            inner: Arc::new(AbortInner {
                deadline: Some(deadline),
                cancelled: AtomicBool::new(false),
                tripped: AtomicU8::new(0),
            }),
        }
    }

    /// The configured deadline, if any.
    pub fn deadline(&self) -> Option<Instant> {
        self.inner.deadline
    }

    /// Requests cancellation; the next [`AbortHandle::poll`] on any
    /// clone trips with [`AbortReason::Cancelled`] (unless another
    /// cause latched first).
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::SeqCst);
        // Latch eagerly so `reason` reflects the cancel even if no
        // solver ever polls again (e.g. cancelling a queued job).
        self.trip(AbortReason::Cancelled);
    }

    /// Latches `reason` as the abort cause if none is latched yet.
    /// Used by solvers for budget exhaustion; safe to call from any
    /// thread.
    pub fn trip(&self, reason: AbortReason) {
        let _ = self.inner.tripped.compare_exchange(
            0,
            reason as u8 + 1,
            Ordering::SeqCst,
            Ordering::SeqCst,
        );
    }

    /// Checks the cancel flag and the deadline, latching the first
    /// cause observed. Returns the latched cause if the handle has
    /// tripped (now or earlier). This is the call solvers place on
    /// their periodic check path.
    pub fn poll(&self) -> Option<AbortReason> {
        if let Some(r) = self.reason() {
            return Some(r);
        }
        if self.inner.cancelled.load(Ordering::SeqCst) {
            self.trip(AbortReason::Cancelled);
        } else if self.inner.deadline.is_some_and(|d| Instant::now() >= d) {
            self.trip(AbortReason::Deadline);
        }
        self.reason()
    }

    /// The latched abort cause, without re-checking cancel/deadline.
    pub fn reason(&self) -> Option<AbortReason> {
        match self.inner.tripped.load(Ordering::SeqCst) {
            0 => None,
            1 => Some(AbortReason::Cancelled),
            2 => Some(AbortReason::Deadline),
            _ => Some(AbortReason::Budget),
        }
    }

    /// Whether the handle has tripped (latched only; see
    /// [`AbortHandle::poll`] to also check cancel/deadline).
    pub fn is_aborted(&self) -> bool {
        self.reason().is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_handle_never_trips() {
        let h = AbortHandle::new();
        assert_eq!(h.poll(), None);
        assert!(!h.is_aborted());
        assert_eq!(h.reason(), None);
    }

    #[test]
    fn cancel_trips_all_clones() {
        let h = AbortHandle::new();
        let c = h.clone();
        h.cancel();
        assert_eq!(c.poll(), Some(AbortReason::Cancelled));
        assert_eq!(h.reason(), Some(AbortReason::Cancelled));
    }

    #[test]
    fn expired_deadline_trips_on_poll() {
        let h = AbortHandle::with_deadline(Duration::ZERO);
        assert_eq!(h.poll(), Some(AbortReason::Deadline));
        // And stays latched.
        assert_eq!(h.reason(), Some(AbortReason::Deadline));
    }

    #[test]
    fn future_deadline_does_not_trip() {
        let h = AbortHandle::with_deadline(Duration::from_secs(3600));
        assert_eq!(h.poll(), None);
    }

    #[test]
    fn first_cause_wins() {
        let h = AbortHandle::with_deadline(Duration::ZERO);
        assert_eq!(h.poll(), Some(AbortReason::Deadline));
        h.cancel();
        // The earlier deadline latch is kept.
        assert_eq!(h.poll(), Some(AbortReason::Deadline));

        let h = AbortHandle::with_deadline(Duration::ZERO);
        h.trip(AbortReason::Budget);
        assert_eq!(h.poll(), Some(AbortReason::Budget));
    }
}
