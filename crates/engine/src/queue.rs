//! The bounded submission queue under the worker pool.
//!
//! A plain `Mutex<VecDeque> + Condvar` multi-producer/multi-consumer
//! channel with two properties the engine needs that `std::sync::
//! mpsc` does not provide:
//!
//! * **bounded with blocking producers** — clients exert back-pressure
//!   instead of growing an unbounded backlog;
//! * **close-then-drain** — [`Bounded::close`] refuses new items but
//!   lets consumers pop everything already queued (graceful-drain
//!   shutdown: no submitted request is ever dropped).

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded, closable MPMC queue.
pub(crate) struct Bounded<T> {
    capacity: usize,
    inner: Mutex<Inner<T>>,
    not_empty: Condvar,
    not_full: Condvar,
}

impl<T> Bounded<T> {
    /// Creates a queue holding at most `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero (a zero-capacity queue would
    /// deadlock every producer).
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        Bounded {
            capacity,
            inner: Mutex::new(Inner {
                items: VecDeque::new(),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        }
    }

    /// Enqueues an item, blocking while the queue is full.
    ///
    /// # Errors
    ///
    /// Returns the item back when the queue is (or becomes) closed.
    pub(crate) fn push(&self, item: T) -> Result<(), T> {
        let mut inner = self.inner.lock().expect("queue lock");
        loop {
            if inner.closed {
                return Err(item);
            }
            if inner.items.len() < self.capacity {
                inner.items.push_back(item);
                self.not_empty.notify_one();
                return Ok(());
            }
            inner = self.not_full.wait(inner).expect("queue lock");
        }
    }

    /// Dequeues the front item, blocking while the queue is empty and
    /// open. Returns `None` only when the queue is closed **and**
    /// fully drained — consumers see every item that was accepted.
    pub(crate) fn pop(&self) -> Option<T> {
        let mut inner = self.inner.lock().expect("queue lock");
        loop {
            if let Some(item) = inner.items.pop_front() {
                self.not_full.notify_one();
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = self.not_empty.wait(inner).expect("queue lock");
        }
    }

    /// Closes the queue: every subsequent push fails, every blocked
    /// producer wakes with an error, and consumers drain what remains.
    /// Idempotent.
    pub(crate) fn close(&self) {
        let mut inner = self.inner.lock().expect("queue lock");
        inner.closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Items currently queued (not yet claimed by a worker).
    pub(crate) fn len(&self) -> usize {
        self.inner.lock().expect("queue lock").items.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_order() {
        let q = Bounded::new(8);
        for i in 0..5 {
            q.push(i).unwrap();
        }
        assert_eq!(q.len(), 5);
        for i in 0..5 {
            assert_eq!(q.pop(), Some(i));
        }
    }

    #[test]
    fn push_after_close_returns_the_item() {
        let q = Bounded::new(2);
        q.push(1).unwrap();
        q.close();
        assert_eq!(q.push(2), Err(2));
        // The accepted item is still drained.
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn blocked_producer_wakes_on_close() {
        let q = Arc::new(Bounded::new(1));
        q.push(0u32).unwrap();
        let q2 = Arc::clone(&q);
        let producer = std::thread::spawn(move || q2.push(1));
        // Give the producer time to block on the full queue.
        std::thread::sleep(std::time::Duration::from_millis(50));
        q.close();
        assert_eq!(producer.join().unwrap(), Err(1));
    }

    #[test]
    fn blocked_consumer_wakes_on_close() {
        let q: Arc<Bounded<u32>> = Arc::new(Bounded::new(1));
        let q2 = Arc::clone(&q);
        let consumer = std::thread::spawn(move || q2.pop());
        std::thread::sleep(std::time::Duration::from_millis(50));
        q.close();
        assert_eq!(consumer.join().unwrap(), None);
    }
}
