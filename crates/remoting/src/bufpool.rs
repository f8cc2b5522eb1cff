//! A recycled byte-buffer pool for the channel hot paths.
//!
//! Every remote call used to allocate a fresh `Vec<u8>` for its request
//! payload and another for its reply. The pool removes both from the
//! steady state: channels check a buffer out, serialize into it with
//! [`parc_serial::Formatter::serialize_into`], put the bytes on the wire
//! and check the buffer back in. Pools are capped in two dimensions —
//! number of idle buffers kept, and per-buffer capacity — so a burst of
//! huge payloads cannot pin memory forever.
//!
//! Hit/miss totals are kept on the pool itself (always, two relaxed
//! atomics) and mirrored into the `parc-obs` registry under
//! [`parc_obs::kinds::BUFPOOL_HIT`]/[`BUFPOOL_MISS`](parc_obs::kinds::BUFPOOL_MISS)
//! when recording is enabled.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use parc_sync::Mutex;

/// Default number of idle buffers a pool retains.
pub const DEFAULT_MAX_IDLE: usize = 32;

/// Default cap on the capacity of a retained buffer; larger buffers are
/// dropped at check-in instead of pinning their allocation.
pub const DEFAULT_MAX_CAPACITY: usize = 1 << 20;

/// A capped pool of reusable byte buffers.
pub struct BufferPool {
    idle: Mutex<Vec<Vec<u8>>>,
    max_idle: usize,
    max_capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl BufferPool {
    /// Creates a pool retaining at most `max_idle` buffers of at most
    /// `max_capacity` bytes capacity each.
    pub fn new(max_idle: usize, max_capacity: usize) -> BufferPool {
        BufferPool {
            idle: Mutex::new(Vec::with_capacity(max_idle.min(64))),
            max_idle,
            max_capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Checks out an empty buffer, recycled when one is available.
    pub fn checkout(&self) -> Vec<u8> {
        let recycled = self.idle.lock().pop();
        match recycled {
            Some(buf) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                if parc_obs::is_enabled() {
                    parc_obs::counter(parc_obs::kinds::BUFPOOL_HIT).incr();
                }
                buf
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                if parc_obs::is_enabled() {
                    parc_obs::counter(parc_obs::kinds::BUFPOOL_MISS).incr();
                }
                Vec::new()
            }
        }
    }

    /// Checks out an empty buffer guaranteed to hold `capacity` bytes
    /// without reallocating, for writers that know a lower bound on the
    /// final size before the first byte is written.
    pub fn checkout_with_capacity(&self, capacity: usize) -> Vec<u8> {
        let mut buf = self.checkout();
        buf.reserve(capacity);
        buf
    }

    /// Returns a buffer to the pool (cleared); oversized buffers and
    /// buffers beyond the idle cap are dropped instead.
    pub fn checkin(&self, mut buf: Vec<u8>) {
        if buf.capacity() == 0 || buf.capacity() > self.max_capacity {
            return;
        }
        buf.clear();
        let mut idle = self.idle.lock();
        if idle.len() < self.max_idle {
            idle.push(buf);
        }
    }

    /// Buffers currently idle in the pool.
    pub fn idle_len(&self) -> usize {
        self.idle.lock().len()
    }

    /// `(hits, misses)` checkout totals since creation.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits.load(Ordering::Relaxed), self.misses.load(Ordering::Relaxed))
    }

    /// Fraction of checkouts served from the pool (0 when unused).
    pub fn hit_rate(&self) -> f64 {
        let (hits, misses) = self.stats();
        let total = hits + misses;
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }
}

impl Default for BufferPool {
    fn default() -> BufferPool {
        BufferPool::new(DEFAULT_MAX_IDLE, DEFAULT_MAX_CAPACITY)
    }
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (hits, misses) = self.stats();
        f.debug_struct("BufferPool")
            .field("idle", &self.idle_len())
            .field("hits", &hits)
            .field("misses", &misses)
            .finish()
    }
}

/// The process-wide pool shared by the channel implementations.
pub fn global() -> &'static BufferPool {
    static GLOBAL: OnceLock<BufferPool> = OnceLock::new();
    GLOBAL.get_or_init(BufferPool::default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_checkout_misses_then_hits_in_steady_state() {
        let pool = BufferPool::new(4, 1024);
        let mut buf = pool.checkout();
        buf.extend_from_slice(b"payload");
        pool.checkin(buf);
        for _ in 0..10 {
            let buf = pool.checkout();
            assert!(buf.is_empty(), "checked-out buffers are cleared");
            assert!(buf.capacity() >= 7, "capacity is recycled");
            pool.checkin(buf);
        }
        let (hits, misses) = pool.stats();
        assert_eq!((hits, misses), (10, 1));
        assert!(pool.hit_rate() > 0.9);
    }

    #[test]
    fn oversized_buffers_are_dropped_on_checkin() {
        let pool = BufferPool::new(4, 16);
        pool.checkin(vec![0u8; 64]);
        assert_eq!(pool.idle_len(), 0);
        pool.checkin(Vec::with_capacity(8));
        assert_eq!(pool.idle_len(), 1);
    }

    #[test]
    fn idle_cap_bounds_the_pool() {
        let pool = BufferPool::new(2, 1024);
        for _ in 0..5 {
            pool.checkin(Vec::with_capacity(8));
        }
        assert_eq!(pool.idle_len(), 2);
    }

    #[test]
    fn zero_capacity_buffers_are_not_pooled() {
        let pool = BufferPool::new(4, 1024);
        pool.checkin(Vec::new());
        assert_eq!(pool.idle_len(), 0, "nothing to recycle in an empty vec");
    }
}
