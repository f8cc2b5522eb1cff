//! Std-only synchronization primitives for the whole workspace.
//!
//! The workspace builds hermetically — no registry dependencies — so the
//! locks that used to come from `parking_lot` live here instead, as thin
//! wrappers over [`std::sync`]. Channels are plain [`std::sync::mpsc`].
//!
//! The wrappers keep the `parking_lot` call shape (`lock()` returns a
//! guard, not a `Result`) and define **one poisoning policy for the whole
//! workspace** in [`lock_unpoisoned`]: a poisoned lock is recovered, not
//! propagated. A panic while holding a lock already aborts the test or
//! unwinds the task that observed the broken invariant; refusing every
//! later acquisition would only convert one failure into a cascade.

use std::sync::PoisonError;
use std::time::Duration;

/// The workspace-wide poisoning policy: recover the guard from a poisoned
/// lock instead of propagating the error.
pub fn lock_unpoisoned<G>(result: Result<G, PoisonError<G>>) -> G {
    result.unwrap_or_else(PoisonError::into_inner)
}

/// A mutex whose `lock()` returns the guard directly, applying
/// [`lock_unpoisoned`].
#[derive(Default)]
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    /// Creates a new mutex.
    pub const fn new(value: T) -> Mutex<T> {
        Mutex(std::sync::Mutex::new(value))
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        lock_unpoisoned(self.0.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking the current thread.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard(Some(lock_unpoisoned(self.0.lock())))
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        lock_unpoisoned(self.0.get_mut())
    }
}

impl<T: std::fmt::Debug + ?Sized> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.fmt(f)
    }
}

impl<T> From<T> for Mutex<T> {
    fn from(value: T) -> Mutex<T> {
        Mutex::new(value)
    }
}

/// Guard for [`Mutex`]. Holds an `Option` so [`Condvar::wait`] can move
/// the underlying std guard out and back without changing call sites.
pub struct MutexGuard<'a, T: ?Sized>(Option<std::sync::MutexGuard<'a, T>>);

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        self.0.as_deref().expect("guard active")
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.0.as_deref_mut().expect("guard active")
    }
}

impl<T: std::fmt::Debug + ?Sized> std::fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

/// A reader-writer lock whose `read()`/`write()` return guards directly,
/// applying [`lock_unpoisoned`].
#[derive(Default)]
pub struct RwLock<T: ?Sized>(std::sync::RwLock<T>);

impl<T> RwLock<T> {
    /// Creates a new lock.
    pub const fn new(value: T) -> RwLock<T> {
        RwLock(std::sync::RwLock::new(value))
    }

    /// Consumes the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        lock_unpoisoned(self.0.into_inner())
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires a shared read guard.
    pub fn read(&self) -> std::sync::RwLockReadGuard<'_, T> {
        lock_unpoisoned(self.0.read())
    }

    /// Acquires an exclusive write guard.
    pub fn write(&self) -> std::sync::RwLockWriteGuard<'_, T> {
        lock_unpoisoned(self.0.write())
    }
}

impl<T: std::fmt::Debug + ?Sized> std::fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.fmt(f)
    }
}

/// Result of [`Condvar::wait_for`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeoutResult {
    timed_out: bool,
}

impl WaitTimeoutResult {
    /// True when the wait ended because the timeout elapsed.
    pub fn timed_out(&self) -> bool {
        self.timed_out
    }
}

/// A condition variable for [`Mutex`] guards, `parking_lot`-shaped:
/// waiting takes the guard by `&mut` and reacquires in place.
#[derive(Default)]
pub struct Condvar(std::sync::Condvar);

impl Condvar {
    /// Creates a new condition variable.
    pub const fn new() -> Condvar {
        Condvar(std::sync::Condvar::new())
    }

    /// Wakes one waiter.
    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    /// Wakes all waiters.
    pub fn notify_all(&self) {
        self.0.notify_all();
    }

    /// Blocks until notified, releasing the lock while waiting.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let inner = guard.0.take().expect("guard active");
        guard.0 = Some(lock_unpoisoned(self.0.wait(inner)));
    }

    /// Blocks until notified or `timeout` elapses.
    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        let inner = guard.0.take().expect("guard active");
        let (inner, result) = lock_unpoisoned(self.0.wait_timeout(inner, timeout));
        guard.0 = Some(inner);
        WaitTimeoutResult { timed_out: result.timed_out() }
    }
}

impl std::fmt::Debug for Condvar {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Condvar")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_basic_exclusion() {
        let m = Arc::new(Mutex::new(0u32));
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let m = Arc::clone(&m);
                scope.spawn(move || {
                    for _ in 0..1000 {
                        *m.lock() += 1;
                    }
                });
            }
        });
        assert_eq!(*m.lock(), 8000);
    }

    #[test]
    fn poisoned_mutex_recovers() {
        let m = Arc::new(Mutex::new(7u32));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _guard = m2.lock();
            panic!("poison the lock");
        })
        .join();
        // The policy recovers the value instead of propagating the poison.
        assert_eq!(*m.lock(), 7);
    }

    #[test]
    fn poisoned_rwlock_recovers() {
        let l = Arc::new(RwLock::new(vec![1, 2]));
        let l2 = Arc::clone(&l);
        let _ = std::thread::spawn(move || {
            let _guard = l2.write();
            panic!("poison the lock");
        })
        .join();
        assert_eq!(l.read().len(), 2);
        l.write().push(3);
        assert_eq!(l.read().len(), 3);
    }

    #[test]
    fn condvar_wait_and_notify() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let handle = std::thread::spawn(move || {
            let (lock, cvar) = &*p2;
            let mut done = lock.lock();
            while !*done {
                cvar.wait(&mut done);
            }
            42
        });
        {
            let (lock, cvar) = &*pair;
            *lock.lock() = true;
            cvar.notify_all();
        }
        assert_eq!(handle.join().unwrap(), 42);
    }

    #[test]
    fn condvar_wait_for_times_out() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        let mut guard = m.lock();
        let res = cv.wait_for(&mut guard, Duration::from_millis(5));
        assert!(res.timed_out());
        // The guard is still usable after the timeout.
        drop(guard);
        let _ = m.lock();
    }

    #[test]
    fn mutex_into_inner_and_get_mut() {
        let mut m = Mutex::new(5);
        *m.get_mut() += 1;
        assert_eq!(m.into_inner(), 6);
    }
}
