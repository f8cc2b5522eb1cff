//! Completion slots: where a caller waits for its reply.
//!
//! Both client transports park a caller on a [`Slot`] while its call is
//! in flight and complete it from whichever thread holds the reply — the
//! TCP connection's leading caller, or the in-process mailbox worker that
//! ran the call. On a link whose round trip is shorter than [`SPIN`] the
//! caller first polls for up to [`SPIN`] ([`spin`]), so a prompt reply
//! finds its CPU running instead of paying a futex wake-up.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parc_sync::{Condvar, Mutex};

use crate::channel::LinkFeedback;

/// How long a caller polls before it parks; links slower than this (RTT
/// EWMA) never poll.
pub(crate) const SPIN: Duration = Duration::from_micros(30);

/// One completion slot a caller parks on while its call is in flight.
pub(crate) struct Slot<T> {
    state: Mutex<SlotState<T>>,
    /// Set with `Done`, so a polling caller need not take the lock.
    done: AtomicBool,
    cv: Condvar,
}

enum SlotState<T> {
    Waiting,
    /// Handed the TCP connection's read half.
    Lead,
    Done(T),
}

/// Why [`Slot::park`] returned.
pub(crate) enum Wake<T> {
    Done(T),
    Lead,
    Timeout,
}

impl<T> Slot<T> {
    pub(crate) fn new() -> Arc<Slot<T>> {
        Arc::new(Slot {
            state: Mutex::new(SlotState::Waiting),
            done: AtomicBool::new(false),
            cv: Condvar::new(),
        })
    }

    pub(crate) fn complete(&self, outcome: T) {
        *self.state.lock() = SlotState::Done(outcome);
        self.done.store(true, Ordering::Release);
        self.cv.notify_all();
    }

    /// Parks until the slot completes, is handed the read half, or
    /// `deadline` passes; a past `deadline` polls without parking.
    pub(crate) fn park(&self, deadline: Instant) -> Wake<T> {
        let mut state = self.state.lock();
        loop {
            match std::mem::replace(&mut *state, SlotState::Waiting) {
                SlotState::Done(outcome) => return Wake::Done(outcome),
                SlotState::Lead => return Wake::Lead,
                SlotState::Waiting => {}
            }
            let now = Instant::now();
            if now >= deadline {
                return Wake::Timeout;
            }
            self.cv.wait_for(&mut state, deadline - now);
        }
    }

    /// Hands the read half to this slot's owner, unless it is done.
    pub(crate) fn promote(&self) -> bool {
        let mut state = self.state.lock();
        let waiting = matches!(*state, SlotState::Waiting);
        if waiting {
            *state = SlotState::Lead;
            self.cv.notify_all();
        }
        waiting
    }

    /// Waits for the outcome until `deadline` (`None` once it passes):
    /// polling first when [`fast_link`] says so, then parked. For slots
    /// that are never promoted.
    pub(crate) fn wait(&self, feedback: &LinkFeedback, deadline: Instant) -> Option<T> {
        // A reply completed before the wait (an inline run) skips the spin,
        // which would read the clock and count a `channel.spin_hit`.
        if !self.done.load(Ordering::Acquire) && fast_link(feedback) {
            spin(deadline, || self.done.load(Ordering::Acquire).then_some(()));
        }
        match self.park(deadline) {
            Wake::Done(outcome) => Some(outcome),
            Wake::Lead | Wake::Timeout => None,
        }
    }
}

/// Whether a caller on this link should poll before it parks: the link's
/// RTT EWMA is under [`SPIN`], or there is no sample yet.
pub(crate) fn fast_link(feedback: &LinkFeedback) -> bool {
    feedback.rtt().is_none_or(|rtt| rtt < SPIN)
}

/// Polls `poll` without blocking until it yields a value or [`SPIN`] (at
/// most `deadline`) passes, yielding every 8th poll to a server that may
/// share this CPU. Records `channel.spin_hit` or `channel.spin_miss`.
pub(crate) fn spin<R>(deadline: Instant, mut poll: impl FnMut() -> Option<R>) -> Option<R> {
    let until = deadline.min(Instant::now() + SPIN);
    let mut polls = 0u32;
    let polled = loop {
        polls += 1;
        if let Some(ready) = poll() {
            break Some(ready);
        }
        if Instant::now() >= until {
            break None;
        }
        std::hint::spin_loop();
        if polls.is_multiple_of(8) {
            std::thread::yield_now();
        }
    };
    let kind =
        if polled.is_some() { parc_obs::kinds::SPIN_HIT } else { parc_obs::kinds::SPIN_MISS };
    parc_obs::event(kind, || format!("polls={polls}"));
    polled
}
