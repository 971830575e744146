//! Bounded work submission with per-key fairness: the admission-control
//! primitive under `hyper-serve`.
//!
//! [`FairQueue`] is a blocking multi-producer / multi-consumer queue of
//! work items, each tagged with a *lane* key (a tenant id, a shard, …).
//! It differs from a plain bounded channel in two ways that matter for a
//! multi-tenant server:
//!
//! 1. **Bounded submission** — the queue holds at most `capacity` items
//!    across all lanes. [`FairQueue::try_push`] never blocks: when the
//!    queue is full the item is returned to the caller ([`QueueFull`]),
//!    which is what lets a server shed load with a typed `503` instead
//!    of letting every slow client grow an unbounded backlog.
//! 2. **Per-lane fairness** — [`FairQueue::pop`] services lanes
//!    round-robin, not in global FIFO order. A tenant that floods the
//!    queue with hundreds of requests cannot starve a tenant that
//!    submitted one: each pop takes the front item of the *next*
//!    non-empty lane after the previously served one.
//!
//! [`FairQueue::close`] starts a graceful drain: further pushes are
//! refused ([`PushError::Closed`]) while consumers keep popping until
//! every queued item has been handed out, after which `pop` returns
//! `None` and workers can exit. Nothing admitted before the close is
//! lost.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Why [`FairQueue::try_push`] refused an item; the item is handed back
/// so the caller can respond to its originator.
#[derive(Debug)]
pub enum PushError<T> {
    /// The queue is at capacity — shed the request (e.g. HTTP 503).
    Full(QueueFull<T>),
    /// The queue is closed — the server is draining for shutdown.
    Closed(T),
}

/// The rejected item plus the queue state that caused the rejection.
#[derive(Debug)]
pub struct QueueFull<T> {
    /// The item that was not admitted.
    pub item: T,
    /// Queue capacity at rejection time.
    pub capacity: usize,
}

struct Lane<T> {
    key: String,
    items: VecDeque<T>,
}

struct State<T> {
    /// Lanes in creation order; `cursor` indexes the lane served last.
    lanes: Vec<Lane<T>>,
    cursor: usize,
    len: usize,
    closed: bool,
}

/// A bounded, closeable MPMC queue with round-robin fairness across
/// string-keyed lanes. See the module docs.
pub struct FairQueue<T> {
    state: Mutex<State<T>>,
    ready: Condvar,
    capacity: usize,
}

impl<T> std::fmt::Debug for FairQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        f.debug_struct("FairQueue")
            .field("capacity", &self.capacity)
            .field("len", &s.len)
            .field("lanes", &s.lanes.len())
            .field("closed", &s.closed)
            .finish()
    }
}

impl<T> FairQueue<T> {
    /// A queue admitting at most `capacity` items at a time (clamped to
    /// ≥ 1 — a zero-capacity queue could never hand work to a consumer).
    pub fn new(capacity: usize) -> FairQueue<T> {
        FairQueue {
            state: Mutex::new(State {
                lanes: Vec::new(),
                cursor: 0,
                len: 0,
                closed: false,
            }),
            ready: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Maximum queued items.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Items currently queued across all lanes.
    pub fn len(&self) -> usize {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).len
    }

    /// True when no items are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Admit `item` on lane `key`, or hand it back without blocking.
    pub fn try_push(&self, key: &str, item: T) -> Result<(), PushError<T>> {
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if s.closed {
            return Err(PushError::Closed(item));
        }
        if s.len >= self.capacity {
            return Err(PushError::Full(QueueFull {
                item,
                capacity: self.capacity,
            }));
        }
        match s.lanes.iter_mut().find(|l| l.key == key) {
            Some(lane) => lane.items.push_back(item),
            None => s.lanes.push(Lane {
                key: key.to_string(),
                items: VecDeque::from([item]),
            }),
        }
        s.len += 1;
        drop(s);
        self.ready.notify_one();
        Ok(())
    }

    /// Take the next item, blocking while the queue is open and empty.
    /// Lanes are served round-robin: the search starts at the lane after
    /// the one served last. Returns `None` once the queue is closed
    /// *and* fully drained.
    pub fn pop(&self) -> Option<T> {
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if s.len > 0 {
                let n = s.lanes.len();
                let start = s.cursor;
                for step in 1..=n {
                    let i = (start + step) % n;
                    if let Some(item) = s.lanes[i].items.pop_front() {
                        s.cursor = i;
                        s.len -= 1;
                        return Some(item);
                    }
                }
                unreachable!("len > 0 implies a non-empty lane");
            }
            if s.closed {
                return None;
            }
            s = self.ready.wait(s).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Close the queue: refuse new pushes, let consumers drain what was
    /// admitted, then release them (`pop` → `None`).
    pub fn close(&self) {
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        s.closed = true;
        drop(s);
        self.ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn full_queue_hands_the_item_back() {
        let q = FairQueue::new(2);
        q.try_push("a", 1).unwrap();
        q.try_push("a", 2).unwrap();
        match q.try_push("a", 3) {
            Err(PushError::Full(f)) => {
                assert_eq!(f.item, 3);
                assert_eq!(f.capacity, 2);
            }
            other => panic!("expected Full, got {other:?}"),
        }
        assert_eq!(q.pop(), Some(1));
        q.try_push("a", 4).unwrap();
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn lanes_are_served_round_robin() {
        let q = FairQueue::new(16);
        // Tenant "hog" floods; tenant "small" submits one item last.
        for i in 0..6 {
            q.try_push("hog", ("hog", i)).unwrap();
        }
        q.try_push("small", ("small", 0)).unwrap();
        let first = q.pop().unwrap();
        let second = q.pop().unwrap();
        // Round-robin alternates lanes: "small" is served within the
        // first two pops despite arriving behind six "hog" items.
        assert!(
            first.0 == "small" || second.0 == "small",
            "fair pop must not starve the small lane: got {first:?}, {second:?}"
        );
    }

    #[test]
    fn close_drains_then_releases_consumers() {
        let q = Arc::new(FairQueue::new(8));
        q.try_push("a", 1).unwrap();
        q.try_push("b", 2).unwrap();
        q.close();
        assert!(matches!(q.try_push("a", 3), Err(PushError::Closed(3))));
        let mut drained = vec![q.pop().unwrap(), q.pop().unwrap()];
        drained.sort();
        assert_eq!(drained, vec![1, 2]);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn blocked_consumer_wakes_on_push_and_on_close() {
        let q = Arc::new(FairQueue::<u32>::new(4));
        let q2 = Arc::clone(&q);
        let consumer = std::thread::spawn(move || {
            let mut got = Vec::new();
            while let Some(v) = q2.pop() {
                got.push(v);
            }
            got
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.try_push("a", 7).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        assert_eq!(consumer.join().unwrap(), vec![7]);
    }

    #[test]
    fn many_producers_one_consumer_delivers_everything() {
        let q = Arc::new(FairQueue::<usize>::new(1024));
        std::thread::scope(|s| {
            for t in 0..4 {
                let q = Arc::clone(&q);
                s.spawn(move || {
                    for i in 0..50 {
                        q.try_push(&format!("t{t}"), t * 100 + i).unwrap();
                    }
                });
            }
            s.spawn(|| {
                std::thread::sleep(std::time::Duration::from_millis(30));
                q.close();
            });
            let mut got = Vec::new();
            while let Some(v) = q.pop() {
                got.push(v);
            }
            got.sort();
            let mut want: Vec<usize> = (0..4)
                .flat_map(|t| (0..50).map(move |i| t * 100 + i))
                .collect();
            want.sort();
            assert_eq!(got, want);
        });
    }
}
