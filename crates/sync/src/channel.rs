//! A small multi-producer/multi-consumer channel over [`Mutex`] +
//! [`Condvar`].
//!
//! This is the std-only replacement for the channel subset the workspace
//! used to import: cloneable senders *and* receivers (the thread pool
//! shares one receiver among its workers), unbounded and bounded
//! variants, blocking `recv`, and `recv_timeout`. Disconnection follows
//! the usual contract: `recv` fails once every sender is gone and the
//! queue is drained; `send` fails once every receiver is gone, and the
//! last receiver's drop drops whatever was still queued.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::{Condvar, Mutex};

struct State<T> {
    queue: VecDeque<T>,
    senders: usize,
    receivers: usize,
}

struct Inner<T> {
    state: Mutex<State<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    cap: Option<usize>,
}

/// Creates an unbounded channel.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    with_capacity(None)
}

/// Creates a bounded channel; `send` blocks while `cap` messages queue.
///
/// # Panics
///
/// Panics if `cap` is zero (rendezvous channels are not supported).
pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
    assert!(cap > 0, "channel capacity must be positive");
    with_capacity(Some(cap))
}

fn with_capacity<T>(cap: Option<usize>) -> (Sender<T>, Receiver<T>) {
    let inner = Arc::new(Inner {
        state: Mutex::new(State { queue: VecDeque::new(), senders: 1, receivers: 1 }),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
        cap,
    });
    (Sender(Arc::clone(&inner)), Receiver(inner))
}

/// Error returned by [`Sender::send`] when every receiver is gone; the
/// undelivered message is handed back.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct SendError<T>(pub T);

// Manual impl so `.expect()` works on senders of non-Debug payloads.
impl<T> std::fmt::Debug for SendError<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SendError(..)")
    }
}

/// Error returned by [`Receiver::recv`] when the channel is drained and
/// every sender is gone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvError;

/// Error returned by [`Receiver::recv_timeout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvTimeoutError {
    /// The timeout elapsed with no message available.
    Timeout,
    /// The channel is drained and every sender is gone.
    Disconnected,
}

/// Error returned by [`Receiver::try_recv`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvError {
    /// No message currently queued.
    Empty,
    /// The channel is drained and every sender is gone.
    Disconnected,
}

/// The sending half. Cloneable; the channel disconnects for receivers
/// when the last clone drops.
pub struct Sender<T>(Arc<Inner<T>>);

impl<T> Sender<T> {
    /// Delivers `value`, blocking while a bounded channel is full.
    ///
    /// # Errors
    ///
    /// [`SendError`] with the value when every receiver is gone.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let mut state = self.0.state.lock();
        loop {
            if state.receivers == 0 {
                return Err(SendError(value));
            }
            match self.0.cap {
                Some(cap) if state.queue.len() >= cap => {
                    self.0.not_full.wait(&mut state);
                }
                _ => break,
            }
        }
        state.queue.push_back(value);
        self.0.not_empty.notify_one();
        Ok(())
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Sender<T> {
        self.0.state.lock().senders += 1;
        Sender(Arc::clone(&self.0))
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut state = self.0.state.lock();
        state.senders -= 1;
        if state.senders == 0 {
            // Receivers blocked in recv must observe the disconnect.
            self.0.not_empty.notify_all();
        }
    }
}

impl<T> std::fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Sender")
    }
}

/// The receiving half. Cloneable: clones compete for messages (MPMC),
/// which is how the thread pool shares one queue among workers.
pub struct Receiver<T>(Arc<Inner<T>>);

impl<T> Receiver<T> {
    /// Blocks for the next message.
    ///
    /// # Errors
    ///
    /// [`RecvError`] once the channel is drained and every sender is gone.
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut state = self.0.state.lock();
        loop {
            if let Some(value) = state.queue.pop_front() {
                self.0.not_full.notify_one();
                return Ok(value);
            }
            if state.senders == 0 {
                return Err(RecvError);
            }
            self.0.not_empty.wait(&mut state);
        }
    }

    /// Blocks up to `timeout` for the next message.
    ///
    /// # Errors
    ///
    /// [`RecvTimeoutError::Timeout`] if nothing arrived in time,
    /// [`RecvTimeoutError::Disconnected`] once every sender is gone.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        let deadline = Instant::now() + timeout;
        let mut state = self.0.state.lock();
        loop {
            if let Some(value) = state.queue.pop_front() {
                self.0.not_full.notify_one();
                return Ok(value);
            }
            if state.senders == 0 {
                return Err(RecvTimeoutError::Disconnected);
            }
            let Some(remaining) = deadline.checked_duration_since(Instant::now()).filter(|d| !d.is_zero())
            else {
                return Err(RecvTimeoutError::Timeout);
            };
            self.0.not_empty.wait_for(&mut state, remaining);
        }
    }

    /// Takes a queued message without blocking.
    ///
    /// # Errors
    ///
    /// [`TryRecvError::Empty`] when nothing is queued,
    /// [`TryRecvError::Disconnected`] once every sender is gone.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let mut state = self.0.state.lock();
        match state.queue.pop_front() {
            Some(value) => {
                self.0.not_full.notify_one();
                Ok(value)
            }
            None if state.senders == 0 => Err(TryRecvError::Disconnected),
            None => Err(TryRecvError::Empty),
        }
    }

    /// True when no message is currently queued.
    pub fn is_empty(&self) -> bool {
        self.0.state.lock().queue.is_empty()
    }

    /// Number of queued messages.
    pub fn len(&self) -> usize {
        self.0.state.lock().queue.len()
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Receiver<T> {
        self.0.state.lock().receivers += 1;
        Receiver(Arc::clone(&self.0))
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut state = self.0.state.lock();
        state.receivers -= 1;
        if state.receivers == 0 {
            // Senders blocked on a full bounded channel must observe it.
            self.0.not_full.notify_all();
            // Nobody can receive what is queued: drop it now, not with the
            // last sender, so whatever the messages own (reply senders,
            // buffers) is released — outside the lock, since dropping a
            // message may drop a handle to this very channel.
            let orphans = std::mem::take(&mut state.queue);
            drop(state);
            drop(orphans);
        }
    }
}

impl<T> std::fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Receiver").field("len", &self.len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_within_one_producer() {
        let (tx, rx) = unbounded();
        for i in 0..100 {
            tx.send(i).unwrap();
        }
        assert_eq!((0..100).map(|_| rx.recv().unwrap()).collect::<Vec<_>>(), (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn recv_fails_after_last_sender_drops() {
        let (tx, rx) = unbounded();
        tx.send(1).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Err(RecvError));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn send_fails_after_last_receiver_drops() {
        let (tx, rx) = unbounded();
        drop(rx);
        assert_eq!(tx.send(9), Err(SendError(9)));
    }

    #[test]
    fn recv_timeout_expires_then_delivers() {
        let (tx, rx) = unbounded::<u8>();
        assert_eq!(rx.recv_timeout(Duration::from_millis(5)), Err(RecvTimeoutError::Timeout));
        tx.send(3).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Ok(3));
    }

    #[test]
    fn cloned_receivers_partition_messages() {
        let (tx, rx) = unbounded();
        let workers: Vec<_> = (0..4)
            .map(|_| {
                let rx = rx.clone();
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Ok(v) = rx.recv() {
                        got.push(v);
                    }
                    got
                })
            })
            .collect();
        drop(rx);
        for i in 0..200 {
            tx.send(i).unwrap();
        }
        drop(tx);
        let mut all: Vec<i32> = workers.into_iter().flat_map(|w| w.join().unwrap()).collect();
        all.sort_unstable();
        assert_eq!(all, (0..200).collect::<Vec<_>>());
    }

    #[test]
    fn bounded_send_blocks_until_room() {
        let (tx, rx) = bounded(1);
        tx.send(1).unwrap();
        let blocked = std::thread::spawn(move || {
            tx.send(2).unwrap();
        });
        std::thread::sleep(Duration::from_millis(10));
        assert_eq!(rx.recv(), Ok(1));
        blocked.join().unwrap();
        assert_eq!(rx.recv(), Ok(2));
    }

    #[test]
    fn blocked_bounded_send_observes_receiver_drop() {
        let (tx, rx) = bounded(1);
        tx.send(1).unwrap();
        let blocked = std::thread::spawn(move || tx.send(2));
        std::thread::sleep(Duration::from_millis(10));
        drop(rx);
        assert_eq!(blocked.join().unwrap(), Err(SendError(2)));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = bounded::<u8>(0);
    }
}
