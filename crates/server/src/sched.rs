//! Work-stealing task scheduler: per-worker deques with Chase–Lev
//! discipline.
//!
//! The single bounded `JobQueue` this replaces serialized every request —
//! and every tile of every request — behind one lock and one FIFO order. The
//! scheduler keeps one deque per worker instead, disciplined the way
//! Chase–Lev deques are used: the **owner** pushes and pops at the *bottom*
//! (LIFO, so freshly split tile tasks run while their image is hot in
//! cache), **idle workers steal** from the *top* (FIFO, so the oldest —
//! typically largest-remaining — work migrates first), and externally
//! injected requests enter round-robin at the top so they drain in roughly
//! arrival order. One large tiled request split into per-tile tasks
//! therefore fans out across every idle worker instead of serializing
//! behind one, which is the software version of the paper keeping all MACs
//! busy from one stream of rows.
//!
//! The implementation is deliberately lock-per-deque rather than the
//! classic lock-free array (the workspace forbids `unsafe`, which Chase–Lev
//! needs); each lock guards one short `VecDeque` operation, so contention
//! is bounded by steal attempts, not by queue depth. Capacity is **not**
//! bounded here — admission control (the server's global in-flight budget)
//! happens before tasks enter, which is what turns overload into an
//! explicit `busy` instead of unbounded buffering.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// How long an idle worker sleeps between rescans when a wakeup races a
/// push; purely a latency backstop — the condvar handshake wakes it
/// promptly in the common case.
const IDLE_RESCAN: Duration = Duration::from_millis(10);

struct State {
    /// No new injected work is accepted; workers drain and exit.
    closed: bool,
    /// Workers currently executing a task (they may still push local work).
    busy: usize,
}

/// A multi-worker task scheduler; see the module docs for the discipline.
///
/// Tasks are handed to [`WorkStealing::run`], which each worker thread
/// calls once with its own index; the call returns after
/// [`WorkStealing::close`] once every task — including tasks spawned by
/// running tasks via [`WorkStealing::push_local`] — has executed.
pub struct WorkStealing<T> {
    shards: Vec<Mutex<VecDeque<T>>>,
    state: Mutex<State>,
    ready: Condvar,
    inject_cursor: AtomicUsize,
    steals: AtomicU64,
    executed: Vec<AtomicU64>,
}

impl<T: Send> WorkStealing<T> {
    /// Creates a scheduler with one deque per worker (`workers >= 1` is
    /// clamped up).
    #[must_use]
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        Self {
            shards: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            state: Mutex::new(State { closed: false, busy: 0 }),
            ready: Condvar::new(),
            inject_cursor: AtomicUsize::new(0),
            steals: AtomicU64::new(0),
            executed: (0..workers).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Number of worker deques.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.shards.len()
    }

    /// Injects an external task, round-robin across deques at the *top* (so
    /// owners reach injected work in roughly arrival order and stealers
    /// take the oldest first). Returns the task back if the scheduler is
    /// closed.
    ///
    /// # Errors
    ///
    /// `Err(task)` after [`WorkStealing::close`].
    pub fn inject(&self, task: T) -> Result<(), T> {
        if self.state.lock().expect("poisoned").closed {
            return Err(task);
        }
        let shard = self.inject_cursor.fetch_add(1, Ordering::Relaxed) % self.shards.len();
        self.shards[shard].lock().expect("poisoned").push_front(task);
        self.wake_one();
        Ok(())
    }

    /// Pushes a task to `worker`'s own deque bottom (LIFO for the owner).
    /// Meant to be called from *inside* a running task — splitting itself
    /// into subtasks — and therefore accepted even after
    /// [`WorkStealing::close`], so a request admitted before shutdown still
    /// fans out and completes during the drain.
    ///
    /// # Panics
    ///
    /// Panics if `worker` is out of range.
    pub fn push_local(&self, worker: usize, task: T) {
        self.shards[worker].lock().expect("poisoned").push_back(task);
        self.wake_one();
    }

    /// Total tasks currently queued across all deques.
    #[must_use]
    pub fn queued(&self) -> usize {
        self.shards.iter().map(|s| s.lock().expect("poisoned").len()).sum()
    }

    /// Tasks taken from another worker's deque since startup.
    #[must_use]
    pub fn steals(&self) -> u64 {
        self.steals.load(Ordering::Relaxed)
    }

    /// Tasks executed by `worker` (own pops and steals combined).
    ///
    /// # Panics
    ///
    /// Panics if `worker` is out of range.
    #[must_use]
    pub fn executed(&self, worker: usize) -> u64 {
        self.executed[worker].load(Ordering::Relaxed)
    }

    /// Workers that have executed at least one task — the "how many MACs
    /// did the work actually reach" statistic.
    #[must_use]
    pub fn active_workers(&self) -> usize {
        self.executed.iter().filter(|c| c.load(Ordering::Relaxed) > 0).count()
    }

    /// Closes the scheduler: new [`WorkStealing::inject`]s are refused,
    /// queued tasks (and their locally-pushed subtasks) still drain, and
    /// every [`WorkStealing::run`] call returns once the drain is complete.
    pub fn close(&self) {
        self.state.lock().expect("poisoned").closed = true;
        self.ready.notify_all();
    }

    /// The worker loop: executes tasks via `f(worker, task)` until the
    /// scheduler is closed **and** drained. Call once per worker thread
    /// with that worker's index.
    ///
    /// # Panics
    ///
    /// Panics if `worker` is out of range.
    pub fn run(&self, worker: usize, mut f: impl FnMut(usize, T)) {
        while let Some(task) = self.next(worker) {
            f(worker, task);
            self.task_done();
        }
    }

    fn wake_one(&self) {
        // Touch the state lock before notifying: a worker that just scanned
        // empty deques holds it until it blocks on the condvar, so the
        // notification cannot slip into that window and be lost.
        drop(self.state.lock().expect("poisoned"));
        self.ready.notify_one();
    }

    /// Takes the next task for `worker`: own bottom first, then a steal
    /// scan, then block. `None` once closed and fully drained. Marks the
    /// worker busy; [`WorkStealing::task_done`] ends the span.
    fn next(&self, worker: usize) -> Option<T> {
        let mut state = self.state.lock().expect("poisoned");
        loop {
            if let Some(task) = self.shards[worker].lock().expect("poisoned").pop_back() {
                self.executed[worker].fetch_add(1, Ordering::Relaxed);
                state.busy += 1;
                return Some(task);
            }
            for offset in 1..self.shards.len() {
                let victim = (worker + offset) % self.shards.len();
                if let Some(task) = self.shards[victim].lock().expect("poisoned").pop_front() {
                    self.steals.fetch_add(1, Ordering::Relaxed);
                    self.executed[worker].fetch_add(1, Ordering::Relaxed);
                    state.busy += 1;
                    return Some(task);
                }
            }
            // Nothing anywhere. Exit only when no more work can appear:
            // closed, and no busy peer that could still push subtasks.
            if state.closed && state.busy == 0 {
                return None;
            }
            state = self.ready.wait_timeout(state, IDLE_RESCAN).expect("poisoned").0;
        }
    }

    /// Ends the busy span [`WorkStealing::next`] opened.
    fn task_done(&self) {
        let mut state = self.state.lock().expect("poisoned");
        state.busy -= 1;
        if state.busy == 0 && state.closed {
            // Last runner: idle peers waiting on the drain condition must
            // re-evaluate it now.
            self.ready.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn owner_runs_local_tasks_lifo_and_injected_tasks_fifo() {
        let pool: WorkStealing<u32> = WorkStealing::new(1);
        pool.inject(1).unwrap();
        pool.inject(2).unwrap();
        pool.push_local(0, 10);
        pool.push_local(0, 11);
        assert_eq!(pool.queued(), 4);
        pool.close();
        let mut order = Vec::new();
        pool.run(0, |_, task| order.push(task));
        // Local work first (LIFO), then injected requests in arrival order.
        assert_eq!(order, vec![11, 10, 1, 2]);
        assert_eq!(pool.executed(0), 4);
        assert_eq!(pool.steals(), 0);
        assert_eq!(pool.active_workers(), 1);
    }

    #[test]
    fn injection_is_refused_after_close_but_local_pushes_drain() {
        let pool: WorkStealing<u32> = WorkStealing::new(2);
        pool.inject(1).unwrap();
        pool.close();
        assert_eq!(pool.inject(2).unwrap_err(), 2);
        // A running task may still split itself during the drain.
        let pool = Arc::new(pool);
        let seen = {
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || {
                let mut seen = Vec::new();
                pool.run(0, |worker, task| {
                    if task == 1 {
                        pool.push_local(worker, 100);
                    }
                    seen.push(task);
                });
                seen
            })
        };
        assert_eq!(seen.join().unwrap(), vec![1, 100]);
    }

    #[test]
    fn idle_workers_steal_queued_work() {
        let pool: Arc<WorkStealing<u32>> = Arc::new(WorkStealing::new(2));
        // All work sits in worker 0's deque; only worker 1 runs.
        for task in 0..8 {
            pool.push_local(0, task);
        }
        pool.close();
        let runner = {
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || {
                let mut seen = Vec::new();
                pool.run(1, |_, task| seen.push(task));
                seen
            })
        };
        let mut seen = runner.join().unwrap();
        seen.sort_unstable();
        assert_eq!(seen, (0..8).collect::<Vec<_>>());
        assert_eq!(pool.steals(), 8);
        assert_eq!(pool.executed(1), 8);
    }

    #[test]
    fn close_wakes_blocked_workers() {
        let pool: Arc<WorkStealing<u32>> = Arc::new(WorkStealing::new(1));
        let runner = {
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || pool.run(0, |_, _| {}))
        };
        std::thread::sleep(Duration::from_millis(20));
        pool.close();
        runner.join().unwrap();
    }
}
