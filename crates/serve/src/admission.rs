//! Admission control: a bounded, tenant-fair request queue in front of
//! a fixed executor pool, with load shedding and per-request timeouts.
//!
//! Every `/query` and `/explain` request becomes a [`Job`] — a closure
//! producing `(status, body)` — and is offered to a
//! [`FairQueue`] keyed by tenant id:
//!
//! * **Bounded**: at most `queue_depth` jobs wait; an offer beyond that
//!   is refused *immediately* and the connection answers a typed `503`
//!   with `Retry-After` (the shed path does no engine work at all).
//! * **Fair**: executors pop round-robin across tenant lanes, so one
//!   tenant's burst cannot starve another's single request.
//! * **Concurrency-limited**: exactly `workers` executor threads run
//!   jobs; each tenant session may additionally parallelize internally
//!   over the shared [`HyperRuntime`](hyper_runtime::HyperRuntime).
//! * **Timed out, not cancelled**: the connection waits on a
//!   [`ResponseSlot`] with a deadline. On expiry it answers `504` and
//!   moves on; the executor still finishes the job (its artifacts land
//!   in the caches — a timed-out query warms the session rather than
//!   poisoning it) and the late result is discarded.
//!
//! [`Admission::close`] is the graceful-shutdown half: the queue stops
//! admitting, executors drain everything already admitted, and
//! [`Admission::join`] returns once the last admitted job has answered.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hyper_runtime::{FairQueue, PushError};

use crate::json::Json;
use crate::stats::{Route, TenantCounters};

/// A finished HTTP payload: status code plus JSON body.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// HTTP status code.
    pub status: u16,
    /// Response body.
    pub body: Json,
}

/// One-shot rendezvous between the connection thread (waiting with a
/// deadline) and the executor (filling exactly once).
pub struct ResponseSlot {
    state: Mutex<Option<Outcome>>,
    ready: Condvar,
}

impl ResponseSlot {
    /// An empty slot.
    pub fn new() -> ResponseSlot {
        ResponseSlot {
            state: Mutex::new(None),
            ready: Condvar::new(),
        }
    }

    /// Fill the slot (first write wins) and wake the waiter.
    pub fn fill(&self, outcome: Outcome) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if state.is_none() {
            *state = Some(outcome);
        }
        drop(state);
        self.ready.notify_all();
    }

    /// Wait up to `timeout` for the outcome. `None` means the deadline
    /// passed — the job may still be queued or executing; its eventual
    /// result is discarded.
    pub fn wait(&self, timeout: Duration) -> Option<Outcome> {
        let deadline = Instant::now() + timeout;
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(outcome) = state.take() {
                return Some(outcome);
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (next, _) = self
                .ready
                .wait_timeout(state, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            state = next;
        }
    }
}

impl Default for ResponseSlot {
    fn default() -> ResponseSlot {
        ResponseSlot::new()
    }
}

/// An admitted unit of work.
pub struct Job {
    /// Lane key (tenant id).
    pub tenant: String,
    /// The work: runs on an executor thread, produces the response.
    pub work: Box<dyn FnOnce() -> Outcome + Send>,
    /// Where the connection thread is waiting.
    pub slot: Arc<ResponseSlot>,
    /// The tenant's admission counters (in-flight/completed upkeep and
    /// the per-route latency histograms).
    pub counters: Arc<TenantCounters>,
    /// Which admitted route this is — labels the latency samples.
    pub route: Route,
    /// When the job was built for submission; the executor records
    /// `admitted.elapsed()` at pop time as the queue-wait sample.
    pub admitted: Instant,
}

/// Why [`Admission::submit`] refused a job.
#[derive(Debug)]
pub enum Rejected {
    /// Queue full — answer 503 + `Retry-After`.
    QueueFull {
        /// Configured queue depth, for the error body.
        depth: usize,
    },
    /// Server draining for shutdown — answer 503.
    ShuttingDown,
}

/// The bounded queue plus its executor pool.
pub struct Admission {
    queue: Arc<FairQueue<Job>>,
    executors: Mutex<Vec<JoinHandle<()>>>,
    workers: usize,
}

impl Admission {
    /// Start `workers` executor threads over a queue of `queue_depth`.
    pub fn start(workers: usize, queue_depth: usize) -> Admission {
        let workers = workers.max(1);
        let queue = Arc::new(FairQueue::new(queue_depth));
        let mut executors = Vec::with_capacity(workers);
        for i in 0..workers {
            let queue = Arc::clone(&queue);
            executors.push(
                std::thread::Builder::new()
                    .name(format!("hyper-serve-exec-{i}"))
                    .spawn(move || executor_loop(&queue))
                    .expect("spawn executor thread"),
            );
        }
        Admission {
            queue,
            executors: Mutex::new(executors),
            workers,
        }
    }

    /// Executor thread count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Jobs currently queued (excludes jobs already executing).
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Queue capacity.
    pub fn queue_capacity(&self) -> usize {
        self.queue.capacity()
    }

    /// Offer a job; on admission the tenant's `accepted`/`in_flight`
    /// counters are bumped. Never blocks.
    pub fn submit(&self, job: Job) -> Result<(), Rejected> {
        let counters = Arc::clone(&job.counters);
        let tenant = job.tenant.clone();
        match self.queue.try_push(&tenant, job) {
            Ok(()) => {
                counters.accepted.fetch_add(1, Ordering::Relaxed);
                counters.in_flight.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            Err(PushError::Full(f)) => Err(Rejected::QueueFull { depth: f.capacity }),
            Err(PushError::Closed(_)) => Err(Rejected::ShuttingDown),
        }
    }

    /// Stop admitting; already-admitted jobs keep draining.
    pub fn close(&self) {
        self.queue.close();
    }

    /// Wait for the executors to finish draining (call after
    /// [`Admission::close`]).
    pub fn join(&self) {
        let handles =
            std::mem::take(&mut *self.executors.lock().unwrap_or_else(|e| e.into_inner()));
        for h in handles {
            let _ = h.join();
        }
    }
}

fn executor_loop(queue: &FairQueue<Job>) {
    while let Some(job) = queue.pop() {
        let Job {
            work,
            slot,
            counters,
            route,
            admitted,
            ..
        } = job;
        // The pop is the split point between the two latency stages:
        // everything before it was queue wait, everything after is
        // execution. Both are recorded whatever the outcome — a 504'd
        // caller is gone, but the sample is exactly the kind an
        // operator needs to see.
        let latency = counters.latency(route);
        latency
            .queue_wait
            .record(admitted.elapsed().as_nanos() as u64);
        let started = Instant::now();
        // A panicking job must not take the executor down with it — the
        // slot gets a 500 and the loop continues.
        let outcome = catch_unwind(AssertUnwindSafe(work)).unwrap_or_else(|_| Outcome {
            status: 500,
            body: Json::obj([("error", "internal panic while executing the query".into())]),
        });
        latency.execute.record(started.elapsed().as_nanos() as u64);
        counters.completed.fetch_add(1, Ordering::Relaxed);
        if (200..300).contains(&outcome.status) {
            counters.ok.fetch_add(1, Ordering::Relaxed);
        }
        counters.in_flight.fetch_sub(1, Ordering::Relaxed);
        slot.fill(outcome);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::ServerStats;

    fn job(
        tenant: &str,
        counters: &Arc<TenantCounters>,
        f: impl FnOnce() -> Outcome + Send + 'static,
    ) -> (Job, Arc<ResponseSlot>) {
        let slot = Arc::new(ResponseSlot::new());
        (
            Job {
                tenant: tenant.to_string(),
                work: Box::new(f),
                slot: Arc::clone(&slot),
                counters: Arc::clone(counters),
                route: Route::Query,
                admitted: Instant::now(),
            },
            slot,
        )
    }

    #[test]
    fn submitted_jobs_execute_and_fill_their_slots() {
        let stats = ServerStats::default();
        let adm = Admission::start(2, 8);
        let counters = stats.tenant("t");
        let (j, slot) = job("t", &counters, || Outcome {
            status: 200,
            body: Json::Int(42),
        });
        adm.submit(j).unwrap();
        let outcome = slot.wait(Duration::from_secs(5)).expect("job completes");
        assert_eq!(outcome.status, 200);
        assert_eq!(counters.accepted.load(Ordering::Relaxed), 1);
        assert_eq!(counters.completed.load(Ordering::Relaxed), 1);
        assert_eq!(counters.in_flight.load(Ordering::Relaxed), 0);
        let latency = counters.latency(Route::Query);
        assert_eq!(latency.queue_wait.snapshot().count(), 1);
        assert_eq!(latency.execute.snapshot().count(), 1);
        assert_eq!(
            counters.latency(Route::Ingest).execute.snapshot().count(),
            0
        );
        adm.close();
        adm.join();
    }

    #[test]
    fn full_queue_rejects_without_blocking() {
        let stats = ServerStats::default();
        // One worker, depth 1: occupy the worker, fill the queue, then
        // the next submit must shed.
        let adm = Admission::start(1, 1);
        let counters = stats.tenant("t");
        let gate = Arc::new(ResponseSlot::new());
        let g = Arc::clone(&gate);
        let (blocker, blocker_slot) = job("t", &counters, move || {
            g.wait(Duration::from_secs(10));
            Outcome {
                status: 200,
                body: Json::Null,
            }
        });
        adm.submit(blocker).unwrap();
        // Wait until the worker picked the blocker up (queue empty).
        let start = Instant::now();
        while adm.queue_len() > 0 && start.elapsed() < Duration::from_secs(5) {
            std::thread::yield_now();
        }
        let (queued, _queued_slot) = job("t", &counters, || Outcome {
            status: 200,
            body: Json::Null,
        });
        adm.submit(queued).unwrap();
        let (shed, _) = job("t", &counters, || Outcome {
            status: 200,
            body: Json::Null,
        });
        match adm.submit(shed) {
            Err(Rejected::QueueFull { depth }) => assert_eq!(depth, 1),
            other => panic!("expected QueueFull, got {other:?}"),
        }
        gate.fill(Outcome {
            status: 204,
            body: Json::Null,
        });
        assert!(blocker_slot.wait(Duration::from_secs(5)).is_some());
        adm.close();
        adm.join();
    }

    #[test]
    fn panicking_job_answers_500_and_pool_survives() {
        let stats = ServerStats::default();
        let adm = Admission::start(1, 4);
        let counters = stats.tenant("t");
        let (bad, bad_slot) = job("t", &counters, || panic!("boom"));
        adm.submit(bad).unwrap();
        assert_eq!(bad_slot.wait(Duration::from_secs(5)).unwrap().status, 500);
        let (ok, ok_slot) = job("t", &counters, || Outcome {
            status: 200,
            body: Json::Null,
        });
        adm.submit(ok).unwrap();
        assert_eq!(ok_slot.wait(Duration::from_secs(5)).unwrap().status, 200);
        adm.close();
        adm.join();
    }

    #[test]
    fn close_drains_admitted_jobs() {
        let stats = ServerStats::default();
        let adm = Admission::start(1, 8);
        let counters = stats.tenant("t");
        let mut slots = Vec::new();
        for _ in 0..4 {
            let (j, slot) = job("t", &counters, || {
                std::thread::sleep(Duration::from_millis(5));
                Outcome {
                    status: 200,
                    body: Json::Null,
                }
            });
            adm.submit(j).unwrap();
            slots.push(slot);
        }
        adm.close();
        assert!(matches!(
            adm.submit(
                job("t", &counters, || Outcome {
                    status: 200,
                    body: Json::Null
                })
                .0
            ),
            Err(Rejected::ShuttingDown)
        ));
        adm.join();
        for slot in slots {
            assert_eq!(
                slot.wait(Duration::from_millis(1)).expect("drained").status,
                200,
                "every admitted job answers before join() returns"
            );
        }
    }
}
