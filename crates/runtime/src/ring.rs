//! Lock-free single-producer/single-consumer ring buffers: the transport
//! between [`crate::wave::Pool`] and its workers.
//!
//! Unlike [`crate::spsc`], which is a faithful u64-payload port of the
//! liblfds ring used by the generated harness code, this module is the
//! engine-facing primitive: generic payloads, cache-line-padded cursors,
//! and a split producer/consumer handle pair so each side's cursor cache
//! lives in thread-local storage rather than bouncing between cores.
//!
//! Invariants (the "Velox discipline" named in ROADMAP.md):
//!
//! - capacity is always a power of two, so slot indexing is a mask, and
//!   the monotone `head`/`tail` counters never need a wrap correction —
//!   `tail - head` is the occupancy even across `usize` overflow;
//! - `head` is written only by the consumer, `tail` only by the
//!   producer; each is padded to its own 64-byte cache line so the two
//!   sides never false-share;
//! - the producer publishes a slot with a `Release` store of `tail` and
//!   the consumer acquires it with an `Acquire` load (and symmetrically
//!   for `head`), which is the entire synchronization protocol — no
//!   locks, no CAS, no fences;
//! - each side caches the other's cursor and refreshes it only when the
//!   cached value says the ring is full/empty, so the steady-state hot
//!   path touches a single shared cache line per operation.
//!
//! Blocking variants (`push`, `pop`) spin with [`Backoff`]: bounded
//! exponential busy-wait that decays to `yield_now`, so a stalled peer
//! degrades to scheduler-friendly waiting instead of burning a core.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Pads the wrapped value to a 64-byte cache line so adjacent cursors
/// never share one.
#[repr(align(64))]
struct CachePadded<T>(T);

struct Shared<T> {
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
    mask: usize,
    /// Next index to pop; written only by the consumer.
    head: CachePadded<AtomicUsize>,
    /// Next index to push; written only by the producer.
    tail: CachePadded<AtomicUsize>,
}

// SAFETY: slots are only mutated through the unique Producer/Consumer
// handles, which hand each slot from exactly one thread to exactly one
// other thread via the Release/Acquire cursor protocol.
unsafe impl<T: Send> Send for Shared<T> {}
unsafe impl<T: Send> Sync for Shared<T> {}

impl<T> Drop for Shared<T> {
    fn drop(&mut self) {
        // Both handles are gone, so plain loads are race-free.
        let head = self.head.0.load(Ordering::Relaxed);
        let tail = self.tail.0.load(Ordering::Relaxed);
        let mut at = head;
        while at != tail {
            unsafe { (*self.slots[at & self.mask].get()).assume_init_drop() };
            at = at.wrapping_add(1);
        }
    }
}

/// The write half of a ring; exactly one thread may hold it.
pub struct Producer<T> {
    shared: Arc<Shared<T>>,
    /// Last observed consumer cursor; refreshed only on apparent full.
    head_cache: usize,
}

/// The read half of a ring; exactly one thread may hold it.
pub struct Consumer<T> {
    shared: Arc<Shared<T>>,
    /// Last observed producer cursor; refreshed only on apparent empty.
    tail_cache: usize,
}

/// Creates a ring with at least `capacity` slots (rounded up to a power
/// of two, minimum 2) and returns its two halves.
pub fn ring<T>(capacity: usize) -> (Producer<T>, Consumer<T>) {
    let cap = capacity.next_power_of_two().max(2);
    let slots = (0..cap)
        .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
        .collect::<Vec<_>>()
        .into_boxed_slice();
    let shared = Arc::new(Shared {
        slots,
        mask: cap - 1,
        head: CachePadded(AtomicUsize::new(0)),
        tail: CachePadded(AtomicUsize::new(0)),
    });
    (
        Producer {
            shared: Arc::clone(&shared),
            head_cache: 0,
        },
        Consumer {
            shared,
            tail_cache: 0,
        },
    )
}

impl<T> Producer<T> {
    /// Number of slots in the ring.
    pub fn capacity(&self) -> usize {
        self.shared.slots.len()
    }

    /// Attempts to enqueue `value`; hands it back if the ring is full.
    pub fn try_push(&mut self, value: T) -> Result<(), T> {
        let tail = self.shared.tail.0.load(Ordering::Relaxed);
        if tail.wrapping_sub(self.head_cache) == self.shared.slots.len() {
            self.head_cache = self.shared.head.0.load(Ordering::Acquire);
            if tail.wrapping_sub(self.head_cache) == self.shared.slots.len() {
                return Err(value);
            }
        }
        unsafe { (*self.shared.slots[tail & self.shared.mask].get()).write(value) };
        self.shared
            .tail
            .0
            .store(tail.wrapping_add(1), Ordering::Release);
        Ok(())
    }

    /// Enqueues `value`, spinning with bounded backoff while full.
    pub fn push(&mut self, mut value: T) {
        let mut backoff = Backoff::new();
        loop {
            match self.try_push(value) {
                Ok(()) => return,
                Err(v) => {
                    value = v;
                    backoff.snooze();
                }
            }
        }
    }
}

impl<T> Consumer<T> {
    /// Attempts to dequeue the oldest element; `None` if the ring is
    /// empty.
    pub fn try_pop(&mut self) -> Option<T> {
        let head = self.shared.head.0.load(Ordering::Relaxed);
        if head == self.tail_cache {
            self.tail_cache = self.shared.tail.0.load(Ordering::Acquire);
            if head == self.tail_cache {
                return None;
            }
        }
        let value =
            unsafe { (*self.shared.slots[head & self.shared.mask].get()).assume_init_read() };
        self.shared
            .head
            .0
            .store(head.wrapping_add(1), Ordering::Release);
        Some(value)
    }

    /// Dequeues the oldest element, spinning with bounded backoff while
    /// empty.
    pub fn pop(&mut self) -> T {
        let mut backoff = Backoff::new();
        loop {
            if let Some(value) = self.try_pop() {
                return value;
            }
            backoff.snooze();
        }
    }

    /// Snapshot of the queued-element count (exact for the consumer,
    /// which owns `head`; `tail` may advance concurrently).
    pub fn occupancy(&self) -> usize {
        let head = self.shared.head.0.load(Ordering::Relaxed);
        let tail = self.shared.tail.0.load(Ordering::Acquire);
        tail.wrapping_sub(head)
    }
}

/// Bounded-spin backoff: exponential `spin_loop` bursts (1, 2, 4, …
/// up to 2^6 pauses) that decay to `thread::yield_now` once the burst
/// budget is exhausted. Keeps short waits off the scheduler and long
/// waits off the core.
#[derive(Debug, Default)]
pub struct Backoff {
    step: u32,
}

impl Backoff {
    const SPIN_LIMIT: u32 = 6;

    pub fn new() -> Backoff {
        Backoff { step: 0 }
    }

    /// Waits a little longer than last time: busy-spin while young,
    /// yield to the scheduler once `SPIN_LIMIT` doublings have passed.
    pub fn snooze(&mut self) {
        if self.step <= Self::SPIN_LIMIT {
            for _ in 0..(1u32 << self.step) {
                std::hint::spin_loop();
            }
            self.step += 1;
        } else {
            std::thread::yield_now();
        }
    }

    /// Forgets accumulated pressure after a successful operation.
    pub fn reset(&mut self) {
        self.step = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_rounds_up_to_a_power_of_two() {
        let (tx, _rx) = ring::<u32>(0);
        assert_eq!(tx.capacity(), 2);
        let (tx, _rx) = ring::<u32>(5);
        assert_eq!(tx.capacity(), 8);
        let (tx, _rx) = ring::<u32>(64);
        assert_eq!(tx.capacity(), 64);
    }

    #[test]
    fn fifo_order_and_full_empty_edges() {
        let (mut tx, mut rx) = ring::<u32>(4);
        assert!(rx.try_pop().is_none());
        for i in 0..4 {
            tx.try_push(i).expect("room");
        }
        assert_eq!(tx.try_push(99), Err(99), "full ring hands the value back");
        for i in 0..4 {
            assert_eq!(rx.try_pop(), Some(i));
        }
        assert!(rx.try_pop().is_none());
        // Wrap around several times with interleaved push/pop.
        for round in 0..10u32 {
            tx.try_push(round).expect("room after drain");
            assert_eq!(rx.try_pop(), Some(round));
        }
    }

    #[test]
    fn non_copy_payloads_move_through_intact() {
        let (mut tx, mut rx) = ring::<String>(2);
        tx.push("hello".to_string());
        tx.push("world".to_string());
        assert_eq!(rx.pop(), "hello");
        assert_eq!(rx.pop(), "world");
    }

    #[test]
    fn unconsumed_elements_are_dropped_with_the_ring() {
        let payload = Arc::new(());
        let (mut tx, rx) = ring::<Arc<()>>(8);
        for _ in 0..5 {
            tx.push(Arc::clone(&payload));
        }
        assert_eq!(Arc::strong_count(&payload), 6);
        drop(tx);
        drop(rx);
        assert_eq!(Arc::strong_count(&payload), 1, "ring dropped its slots");
    }

    #[test]
    fn cross_thread_transfer_preserves_every_element() {
        let (mut tx, mut rx) = ring::<usize>(16);
        const N: usize = 100_000;
        std::thread::scope(|scope| {
            scope.spawn(move || {
                for i in 0..N {
                    tx.push(i);
                }
            });
            let mut expected = 0;
            while expected < N {
                assert_eq!(rx.pop(), expected, "elements arrive in order");
                expected += 1;
            }
            assert!(rx.try_pop().is_none());
        });
    }

    #[test]
    fn backoff_spins_then_yields_without_panicking() {
        let mut backoff = Backoff::new();
        for _ in 0..64 {
            backoff.snooze();
        }
        backoff.reset();
        assert_eq!(backoff.step, 0);
    }
}
