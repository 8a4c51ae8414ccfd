//! # twq-exec — scoped parallel execution
//!
//! A small work-stealing thread pool for the batch entry points of the
//! `twq` workspace (`engine::run_batch`, `logic::select_batch`,
//! `xpath::select_batch`, the experiment harness's `--jobs`). Vendored in
//! the same spirit as `crates/rand`/`crates/proptest`/`crates/criterion`:
//! no external dependencies, exactly the API subset the workspace needs.
//!
//! ## Model
//!
//! [`Pool::scoped`] runs `n` independent jobs `f(0), …, f(n-1)` across a
//! fixed number of workers and returns the results **in index order**,
//! whatever interleaving the scheduler chose. Jobs borrow from the caller's
//! stack (the workers are scoped threads), so no `'static`
//! bounds infect call sites.
//!
//! Scheduling is work-stealing over index ranges: the indices are split
//! into one contiguous chunk per worker; each worker pops its own chunk
//! from the front and, when exhausted, steals from the *back* of another
//! worker's remaining range. Ranges are packed `(start, end)` pairs in one
//! atomic word, so both pop and steal are single-CAS operations.
//!
//! ## Determinism
//!
//! Two properties make parallel runs reproducible:
//!
//! * results land in a slot per index, so the returned `Vec` is always
//!   `[f(0), …, f(n-1)]` regardless of execution order;
//! * with `workers == 1` (or `n <= 1`) jobs run inline on the caller's
//!   thread, in index order, with no threads spawned at all — the serial
//!   path is not merely equivalent but *identical* to a hand-written loop.
//!
//! Jobs must therefore not communicate through shared mutable state unless
//! that state is order-insensitive (an atomic flag or counter).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A fixed-size scoped thread pool.
///
/// The pool is a *policy* object — it owns no threads. Every call to
/// [`scoped`](Pool::scoped) spins up scoped worker threads and joins them
/// before returning, which is what lets jobs borrow locals. For the coarse
/// jobs the workspace runs (whole-tree evaluations, experiment rows),
/// thread start-up is noise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool {
    workers: usize,
}

impl Pool {
    /// A pool with a fixed worker count (clamped to at least 1).
    pub fn new(workers: usize) -> Self {
        Pool {
            workers: workers.max(1),
        }
    }

    /// The single-worker pool: [`scoped`](Pool::scoped) runs every job
    /// inline on the caller's thread.
    pub fn serial() -> Self {
        Pool { workers: 1 }
    }

    /// A pool sized to [`Pool::default_parallelism`].
    pub fn with_default_parallelism() -> Self {
        Pool::new(Pool::default_parallelism())
    }

    /// The number of hardware threads, or 1 when it cannot be queried.
    pub fn default_parallelism() -> usize {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    }

    /// The fixed worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Run `f(0), …, f(n-1)` across the workers; results in index order.
    ///
    /// The caller's thread is worker 0, so a `workers == 1` pool (or a
    /// batch of at most one job) never spawns a thread. A panic in any job
    /// propagates to the caller after the scope joins.
    ///
    /// The index-order guarantee is what makes per-job observability
    /// worker-independent: a batch that records one trace (or metrics, or
    /// guard stats) per job on whichever worker runs it and merges them
    /// positionally gets the same aggregate for every worker count.
    pub fn scoped<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.run(n, || (), |_, i| f(i)).0
    }

    /// [`Pool::scoped`] with one reusable scratch value per worker: each
    /// worker builds its scratch once with `make` and threads it through
    /// every job it executes, so allocation-heavy jobs (index builds, sort
    /// buffers) amortize their working memory across the batch instead of
    /// re-allocating per job.
    ///
    /// Same index-order and serial-path guarantees as `scoped`: with one
    /// worker (or `n <= 1`) a single scratch is built and the jobs run
    /// inline in index order. Jobs must not rely on *which* scratch they
    /// receive — stealing moves jobs between workers — only that it was
    /// produced by `make` and previously seen only by jobs on the same
    /// worker.
    pub fn scoped_scratch<S, T, M, F>(&self, n: usize, make: M, f: F) -> Vec<T>
    where
        T: Send,
        M: Fn() -> S + Sync,
        F: Fn(&mut S, usize) -> T + Sync,
    {
        self.run(n, make, f).0
    }

    /// [`Pool::scoped`] plus per-worker telemetry: how many jobs each
    /// worker executed, how often it stole (and failed to steal), how many
    /// full idle scans it made before exiting, and its initial chunk size.
    ///
    /// The results are identical to `scoped` — same jobs, same index
    /// order; only the bookkeeping differs. On the serial path (one
    /// worker or `n <= 1`) the telemetry is trivially `tasks == n`,
    /// `chunk == n`, everything else zero.
    pub fn scoped_with_stats<T, F>(&self, n: usize, f: F) -> (Vec<T>, PoolStats)
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.run(n, || (), |_, i| f(i))
    }

    /// The one scheduling loop behind every `scoped*` call: per-worker
    /// scratch, index-ordered results, and telemetry (a few counter bumps
    /// per job, so every caller pays for it and the public entries differ
    /// only in what they hand back).
    fn run<S, T, M, F>(&self, n: usize, make: M, f: F) -> (Vec<T>, PoolStats)
    where
        T: Send,
        M: Fn() -> S + Sync,
        F: Fn(&mut S, usize) -> T + Sync,
    {
        let workers = self.workers.min(n.max(1));
        if workers <= 1 {
            let mut scratch = make();
            let out = (0..n).map(|i| f(&mut scratch, i)).collect();
            let ws = WorkerStats {
                tasks: n as u64,
                chunk: n as u64,
                ..WorkerStats::default()
            };
            let stats = PoolStats { workers: vec![ws] };
            return (out, stats);
        }

        // One contiguous index range per worker, packed (start, end) in a
        // single word so pop-front and steal-back are one CAS each.
        let chunk = n.div_ceil(workers);
        let bounds = |w: usize| ((w * chunk).min(n) as u64, ((w + 1) * chunk).min(n) as u64);
        let ranges: Vec<AtomicU64> = (0..workers)
            .map(|w| {
                let (lo, hi) = bounds(w);
                AtomicU64::new(lo << 32 | hi)
            })
            .collect();

        // Each worker reports `(worker, telemetry, results)` once, on exit.
        let parts = Mutex::new(Vec::with_capacity(workers));
        let work = |me: usize| {
            let (lo, hi) = bounds(me);
            let mut ws = WorkerStats {
                chunk: hi - lo,
                ..WorkerStats::default()
            };
            let mut scratch = make();
            let mut local: Vec<(usize, T)> = Vec::new();
            while let Some(i) = pop_front(&ranges[me]).or_else(|| steal(&ranges, me, &mut ws)) {
                ws.tasks += 1;
                local.push((i, f(&mut scratch, i)));
            }
            parts
                .lock()
                .expect("pool results poisoned")
                .push((me, ws, local));
        };

        std::thread::scope(|s| {
            for me in 1..workers {
                s.spawn(move || work(me));
            }
            work(0);
        });

        let mut parts = parts.into_inner().expect("pool results poisoned");
        parts.sort_unstable_by_key(|&(me, _, _)| me);
        let mut pairs: Vec<(usize, T)> = Vec::with_capacity(n);
        let mut stats = PoolStats::default();
        for (_, ws, local) in parts {
            pairs.extend(local);
            stats.workers.push(ws);
        }
        debug_assert_eq!(pairs.len(), n);
        pairs.sort_unstable_by_key(|&(i, _)| i);
        (pairs.into_iter().map(|(_, v)| v).collect(), stats)
    }
}

impl Default for Pool {
    /// [`Pool::with_default_parallelism`].
    fn default() -> Self {
        Pool::with_default_parallelism()
    }
}

/// Telemetry for one worker of one [`Pool::scoped_with_stats`] batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Jobs this worker executed.
    pub tasks: u64,
    /// Successful steals from another worker's range.
    pub steals: u64,
    /// Victim probes that found an empty range.
    pub steal_failures: u64,
    /// Full scans of every victim that found no work (the worker exits
    /// after one, so this counts exit-path scans).
    pub idle_spins: u64,
    /// Size of the contiguous index chunk initially assigned.
    pub chunk: u64,
}

impl WorkerStats {
    /// Fold another worker's telemetry into this one (all fields sum).
    pub fn merge(&mut self, other: &WorkerStats) {
        self.tasks += other.tasks;
        self.steals += other.steals;
        self.steal_failures += other.steal_failures;
        self.idle_spins += other.idle_spins;
        self.chunk += other.chunk;
    }
}

/// Per-worker telemetry for a whole batch, in worker-index order.
///
/// Like `RunMetrics`, stats merge deterministically: folding the batches
/// of a sweep in input order always produces the same aggregate.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// One entry per worker, index 0 being the caller's thread.
    pub workers: Vec<WorkerStats>,
}

impl PoolStats {
    /// Everything summed across workers.
    pub fn totals(&self) -> WorkerStats {
        let mut t = WorkerStats::default();
        for w in &self.workers {
            t.merge(w);
        }
        t
    }

    /// Fold another batch's telemetry into this one, worker-wise
    /// (extending if `other` ran with more workers).
    pub fn merge(&mut self, other: &PoolStats) {
        if self.workers.len() < other.workers.len() {
            self.workers
                .resize(other.workers.len(), WorkerStats::default());
        }
        for (mine, theirs) in self.workers.iter_mut().zip(&other.workers) {
            mine.merge(theirs);
        }
    }
}

/// Per-item wall-clock latencies plus pool telemetry for one profiled
/// batch — what `run_batch_profiled` and friends hand back to the
/// harness, which folds the latencies into an `obs` histogram.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BatchProfile {
    /// Wall-clock nanoseconds per job, in index order.
    pub latencies_ns: Vec<u64>,
    /// The batch's per-worker telemetry.
    pub stats: PoolStats,
}

impl BatchProfile {
    /// Fold another batch's profile into this one: latencies concatenate
    /// (input order), telemetry merges worker-wise.
    pub fn merge(&mut self, other: &BatchProfile) {
        self.latencies_ns.extend_from_slice(&other.latencies_ns);
        self.stats.merge(&other.stats);
    }
}

/// Take the next index from the front of `range` (owner side).
fn pop_front(range: &AtomicU64) -> Option<usize> {
    let mut cur = range.load(Ordering::Acquire);
    loop {
        let (s, e) = (cur >> 32, cur & 0xffff_ffff);
        if s >= e {
            return None;
        }
        match range.compare_exchange_weak(
            cur,
            (s + 1) << 32 | e,
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => return Some(s as usize),
            Err(seen) => cur = seen,
        }
    }
}

/// Steal one index from the back of the first non-empty range after
/// `me`'s, counting into `ws` each empty victim probed, the steal, or —
/// when every victim is empty — the idle scan after which the worker
/// exits.
fn steal(ranges: &[AtomicU64], me: usize, ws: &mut WorkerStats) -> Option<usize> {
    // Start scanning after our own slot so thieves spread out instead of
    // all hammering worker 0's range.
    let k = ranges.len();
    for off in 1..k {
        let victim = &ranges[(me + off) % k];
        let mut cur = victim.load(Ordering::Acquire);
        loop {
            let (s, e) = (cur >> 32, cur & 0xffff_ffff);
            if s >= e {
                ws.steal_failures += 1;
                break;
            }
            match victim.compare_exchange_weak(
                cur,
                s << 32 | (e - 1),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => {
                    ws.steals += 1;
                    return Some((e - 1) as usize);
                }
                Err(seen) => cur = seen,
            }
        }
    }
    ws.idle_spins += 1;
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn results_are_in_index_order() {
        for workers in [1, 2, 3, 4, 7] {
            let pool = Pool::new(workers);
            let out = pool.scoped(100, |i| i * i);
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let counts: Vec<AtomicUsize> = (0..257).map(|_| AtomicUsize::new(0)).collect();
        Pool::new(4).scoped(counts.len(), |i| {
            counts[i].fetch_add(1, Ordering::Relaxed);
        });
        for (i, c) in counts.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "job {i}");
        }
    }

    #[test]
    fn unbalanced_workloads_complete_via_stealing() {
        // One chunk holds all the slow jobs; the other workers must steal
        // them or the test takes ~20× longer than the timeout culture here
        // tolerates. Correctness (not timing) is what's asserted.
        let pool = Pool::new(4);
        let out = pool.scoped(64, |i| {
            if i < 16 {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            i
        });
        assert_eq!(out, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn zero_and_one_job_edge_cases() {
        let pool = Pool::new(8);
        assert_eq!(pool.scoped(0, |i| i), Vec::<usize>::new());
        assert_eq!(pool.scoped(1, |i| i + 41), vec![41]);
    }

    #[test]
    fn worker_count_is_clamped() {
        assert_eq!(Pool::new(0).workers(), 1);
        assert_eq!(Pool::serial().workers(), 1);
        assert!(Pool::default().workers() >= 1);
    }

    #[test]
    fn stats_account_for_every_job() {
        for workers in [1usize, 2, 4, 7] {
            let pool = Pool::new(workers);
            let (out, stats) = pool.scoped_with_stats(100, |i| i * 3);
            assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
            let expected_workers = workers.min(100);
            assert_eq!(stats.workers.len(), expected_workers);
            let t = stats.totals();
            assert_eq!(t.tasks, 100, "{workers} workers");
            assert_eq!(t.chunk, 100, "chunks partition the batch");
            if workers == 1 {
                assert_eq!(t.steals, 0);
                assert_eq!(t.idle_spins, 0);
            }
        }
    }

    #[test]
    fn serial_and_parallel_totals_agree() {
        let (_, serial) = Pool::serial().scoped_with_stats(64, |i| i);
        let (_, parallel) = Pool::new(4).scoped_with_stats(64, |i| i);
        assert_eq!(serial.totals().tasks, parallel.totals().tasks);
        assert_eq!(serial.totals().chunk, parallel.totals().chunk);
    }

    #[test]
    fn pool_stats_merge_worker_wise() {
        let (_, mut a) = Pool::new(2).scoped_with_stats(10, |i| i);
        let (_, b) = Pool::new(4).scoped_with_stats(20, |i| i);
        let total_before = a.totals().tasks + b.totals().tasks;
        a.merge(&b);
        assert_eq!(a.workers.len(), 4);
        assert_eq!(a.totals().tasks, total_before);
    }

    #[test]
    fn batch_profiles_concatenate() {
        let mut p = BatchProfile {
            latencies_ns: vec![5, 6],
            stats: PoolStats::default(),
        };
        let q = BatchProfile {
            latencies_ns: vec![7],
            stats: PoolStats {
                workers: vec![WorkerStats {
                    tasks: 1,
                    ..WorkerStats::default()
                }],
            },
        };
        p.merge(&q);
        assert_eq!(p.latencies_ns, vec![5, 6, 7]);
        assert_eq!(p.stats.totals().tasks, 1);
    }

    #[test]
    fn scratch_results_match_scoped() {
        for workers in [1usize, 2, 4, 7] {
            let pool = Pool::new(workers);
            // Scratch is a reusable buffer; the job output must not depend
            // on which worker's buffer served it.
            let out = pool.scoped_scratch(100, Vec::<usize>::new, |buf, i| {
                buf.clear();
                buf.extend(0..=i);
                buf.iter().sum::<usize>()
            });
            let want: Vec<usize> = (0..100).map(|i| i * (i + 1) / 2).collect();
            assert_eq!(out, want, "{workers} workers");
        }
    }

    #[test]
    fn scratch_is_built_once_per_worker_on_the_serial_path() {
        let builds = AtomicUsize::new(0);
        let out = Pool::serial().scoped_scratch(
            10,
            || {
                builds.fetch_add(1, Ordering::Relaxed);
                0u64
            },
            |seen, i| {
                *seen += 1;
                (*seen, i)
            },
        );
        assert_eq!(builds.load(Ordering::Relaxed), 1);
        // One scratch sees every job, in index order.
        assert_eq!(out, (0..10).map(|i| (i as u64 + 1, i)).collect::<Vec<_>>());
        // Zero jobs: no panic, nothing runs.
        let empty = Pool::new(4).scoped_scratch(0, || (), |_, i| i);
        assert_eq!(empty, Vec::<usize>::new());
    }

    #[test]
    fn jobs_borrow_caller_state() {
        let data: Vec<u64> = (0..1000).collect();
        let sums = Pool::new(3).scoped(10, |i| data[i * 100..(i + 1) * 100].iter().sum::<u64>());
        assert_eq!(sums.iter().sum::<u64>(), data.iter().sum::<u64>());
    }
}
