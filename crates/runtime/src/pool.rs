//! Bounded scoped thread pool over `std::thread::scope`.
//!
//! Replaces the one-unbounded-thread-per-domain `crossbeam` scope: a
//! fixed roster of workers pulls item indices from a shared atomic
//! cursor (self-balancing — cheap items don't idle a worker while an
//! expensive one runs), results come back in input order, and panics are
//! either propagated ([`parallel_map`]) or isolated per item
//! ([`parallel_try_map`]) so one poisoned domain cannot sink a corpus
//! run.

use crate::sync;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};

/// Upper bound on worker count: evaluation items (domains, groups) are
/// coarse, so more threads than this only adds scheduling noise.
pub const MAX_THREADS: usize = 16;

/// Resolve a requested thread count: `0` means "use the hardware",
/// anything else is clamped to `[1, MAX_THREADS]`. The hardware (which
/// can mean reading cgroup files) is asked only for `0`.
pub fn resolve_threads(requested: usize) -> usize {
    let n = match requested {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    };
    n.clamp(1, MAX_THREADS)
}

/// Map `f` over `items` on up to `threads` scoped workers, returning
/// results in input order. Panics in `f` are propagated to the caller.
///
/// `threads` is resolved via [`resolve_threads`] and additionally capped
/// at `items.len()`; with one worker (or one item) the map degenerates to
/// a plain sequential loop with no thread spawned at all, so a
/// single-threaded run is exactly the code the benchmark baseline times.
pub fn parallel_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let results = run(items, threads, |i, item| f(i, item));
    results
        .into_iter()
        .map(|r| r.expect("worker panicked"))
        .collect()
}

/// Like [`parallel_map`], but a panic in `f` yields `Err(message)` for
/// that item instead of aborting the whole map.
pub fn parallel_try_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<Result<R, String>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    run(items, threads, f)
}

fn run<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<Result<R, String>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = resolve_threads(threads).min(items.len().max(1));
    let guarded_call = |i: usize, item: &T| -> Result<R, String> {
        catch_unwind(AssertUnwindSafe(|| f(i, item))).map_err(|payload| {
            if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_string()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else {
                "worker panicked".to_string()
            }
        })
    };
    if workers <= 1 {
        return items
            .iter()
            .enumerate()
            .map(|(i, item)| guarded_call(i, item))
            .collect();
    }
    let mut slots: Vec<Option<Result<R, String>>> = Vec::new();
    slots.resize_with(items.len(), || None);
    let slots = Mutex::new(slots);
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let result = guarded_call(i, &items[i]);
                sync::lock(&slots)[i] = Some(result);
            });
        }
    });
    slots
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
        .into_iter()
        .map(|slot| slot.expect("worker skipped an item"))
        .collect()
}

/// A bounded multi-producer/multi-consumer job queue for long-lived
/// worker pools.
///
/// The batch maps above ([`parallel_map`] and friends) drive a *known*
/// item list to completion; a server's accept loop instead produces jobs
/// indefinitely and must shed load rather than buffer without bound.
/// `JobQueue` is the handoff point: producers [`JobQueue::push`] without
/// blocking (a full or closed queue rejects the job so the caller can
/// answer 503 instead of queueing forever), consumers block in
/// [`JobQueue::pop`] until a job arrives, and [`JobQueue::close`] wakes
/// every consumer once the remaining jobs drain — the graceful-shutdown
/// path.
#[derive(Debug)]
pub struct JobQueue<T> {
    state: Mutex<QueueState<T>>,
    ready: Condvar,
    capacity: usize,
}

#[derive(Debug)]
struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
}

impl<T> JobQueue<T> {
    /// A queue holding at most `capacity` pending jobs (minimum 1).
    pub fn bounded(capacity: usize) -> Self {
        JobQueue {
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Enqueue a job without blocking. Returns the job back when the
    /// queue is full (shed load) or closed (shutting down).
    pub fn push(&self, job: T) -> Result<(), T> {
        let mut state = sync::lock(&self.state);
        if state.closed || state.items.len() >= self.capacity {
            return Err(job);
        }
        state.items.push_back(job);
        drop(state);
        self.ready.notify_one();
        Ok(())
    }

    /// Dequeue the next job, blocking while the queue is open and empty.
    /// `None` means the queue was closed and fully drained — the
    /// consumer should exit.
    pub fn pop(&self) -> Option<T> {
        let mut state = sync::lock(&self.state);
        loop {
            if let Some(job) = state.items.pop_front() {
                return Some(job);
            }
            if state.closed {
                return None;
            }
            state = self
                .ready
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Close the queue: further pushes fail, consumers drain what is
    /// left and then observe `None`.
    pub fn close(&self) {
        sync::lock(&self.state).closed = true;
        self.ready.notify_all();
    }

    /// Whether [`JobQueue::close`] was called.
    pub fn is_closed(&self) -> bool {
        sync::lock(&self.state).closed
    }

    /// Number of jobs currently waiting.
    pub fn len(&self) -> usize {
        sync::lock(&self.state).items.len()
    }

    /// True when no job is waiting.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every queue operation is one whole `VecDeque` call or flag store,
    /// so a panic while the queue is held leaves it valid: producers and
    /// consumers keep going.
    #[test]
    fn job_queue_survives_a_poisoned_lock() {
        let queue: JobQueue<u32> = JobQueue::bounded(4);
        queue.push(1).unwrap();
        std::thread::scope(|scope| {
            let holder = scope.spawn(|| {
                let _state = queue.state.lock().unwrap();
                panic!("holder panics with the queue locked");
            });
            assert!(holder.join().is_err());
        });
        assert!(queue.state.is_poisoned());
        queue.push(2).unwrap();
        assert_eq!(queue.len(), 2);
        assert_eq!(queue.pop(), Some(1));
        queue.close();
        assert!(queue.is_closed());
        assert_eq!(queue.pop(), Some(2));
        assert_eq!(queue.pop(), None);
    }

    #[test]
    fn maps_in_order() {
        let items: Vec<usize> = (0..100).collect();
        for threads in [1, 4, 16] {
            let out = parallel_map(&items, threads, |i, &x| {
                assert_eq!(i, x);
                x * 2
            });
            assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_input_is_fine() {
        let out: Vec<u32> = parallel_map(&[] as &[u32], 4, |_, &x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn try_map_isolates_panics() {
        let items = vec![1u32, 2, 3, 4];
        let out = parallel_try_map(&items, 4, |_, &x| {
            if x == 3 {
                panic!("bad domain {x}");
            }
            x * 10
        });
        assert_eq!(out[0], Ok(10));
        assert_eq!(out[1], Ok(20));
        assert_eq!(out[3], Ok(40));
        let err = out[2].as_ref().unwrap_err();
        assert!(err.contains("bad domain 3"), "{err}");
    }

    #[test]
    fn sequential_path_isolates_panics_too() {
        let items = vec![1u32, 2];
        let out = parallel_try_map(&items, 1, |_, &x| {
            if x == 1 {
                panic!("boom");
            }
            x
        });
        assert!(out[0].is_err());
        assert_eq!(out[1], Ok(2));
    }

    #[test]
    fn resolve_threads_clamps() {
        assert_eq!(resolve_threads(1), 1);
        assert_eq!(resolve_threads(MAX_THREADS + 50), MAX_THREADS);
        let auto = resolve_threads(0);
        assert!((1..=MAX_THREADS).contains(&auto));
    }

    #[test]
    fn job_queue_rejects_when_full_or_closed() {
        let queue: JobQueue<u32> = JobQueue::bounded(2);
        assert!(queue.is_empty());
        queue.push(1).unwrap();
        queue.push(2).unwrap();
        assert_eq!(queue.push(3), Err(3), "over capacity");
        assert_eq!(queue.len(), 2);
        assert_eq!(queue.pop(), Some(1));
        queue.push(3).unwrap();
        queue.close();
        assert!(queue.is_closed());
        assert_eq!(queue.push(4), Err(4), "closed");
        // Remaining jobs drain before the close is observed.
        assert_eq!(queue.pop(), Some(2));
        assert_eq!(queue.pop(), Some(3));
        assert_eq!(queue.pop(), None);
    }

    #[test]
    fn job_queue_feeds_blocked_workers() {
        let queue: JobQueue<u32> = JobQueue::bounded(64);
        let sum = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    while let Some(job) = queue.pop() {
                        sum.fetch_add(job as usize, Ordering::Relaxed);
                    }
                });
            }
            scope.spawn(|| {
                for job in 1..=32u32 {
                    let mut pending = job;
                    // Spin on a full queue: production outpaces the sum.
                    while let Err(back) = queue.push(pending) {
                        pending = back;
                        std::thread::yield_now();
                    }
                }
                queue.close();
            });
        });
        assert_eq!(sum.load(Ordering::Relaxed), (1..=32).sum::<u32>() as usize);
    }

    #[test]
    fn work_is_shared_across_workers() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        let seen: Mutex<HashSet<std::thread::ThreadId>> = Mutex::new(HashSet::new());
        let items: Vec<u32> = (0..64).collect();
        parallel_map(&items, 4, |_, _| {
            std::thread::sleep(std::time::Duration::from_millis(1));
            seen.lock().unwrap().insert(std::thread::current().id());
        });
        assert!(seen.lock().unwrap().len() > 1, "expected multiple workers");
    }
}
