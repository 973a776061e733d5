//! Parallel batch routing engine.
//!
//! [`RouteEngine`] routes many [`Problem`]s through any
//! [`DetailedRouter`] concurrently on a scoped [`std::thread`] pool —
//! no external dependencies. The contract:
//!
//! * **Deterministic ordering** — `results[i]` always belongs to
//!   `problems[i]`, no matter how many workers ran or in which order
//!   instances finished.
//! * **Panic isolation** — a router panic on one instance is caught and
//!   reported as [`RouteError::Panicked`] in that instance's slot; the
//!   rest of the batch routes normally.
//! * **Per-instance budgets** — an optional wall-clock deadline
//!   disqualifies instances that finish too late
//!   ([`RouteError::DeadlineExceeded`]). Attempt/event budgets are the
//!   router's own business (see
//!   [`RouterConfig`](crate::RouterConfig) for the rip-up router); the
//!   engine measures and reports per-instance time either way.
//! * **Aggregate accounting** — [`EngineStats`] totals completions,
//!   failures, wirelength, vias and wall-clock/busy time for the batch.
//!
//! # Examples
//!
//! ```
//! use route_model::{PinSide, ProblemBuilder};
//! use mighty::engine::{EngineConfig, RouteEngine};
//! use mighty::{MightyRouter, RouterConfig};
//!
//! let problems: Vec<_> = (0..4)
//!     .map(|i| {
//!         let mut b = ProblemBuilder::switchbox(8, 8);
//!         b.net("a").pin_side(PinSide::Left, 1 + i).pin_side(PinSide::Right, 6 - i);
//!         b.build().unwrap()
//!     })
//!     .collect();
//!
//! let router = MightyRouter::new(RouterConfig::default());
//! let engine = RouteEngine::new(EngineConfig { jobs: 2, ..EngineConfig::default() });
//! let batch = engine.route_batch(&router, &problems);
//! assert_eq!(batch.results.len(), 4);
//! assert_eq!(batch.stats.complete, 4);
//! ```

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use route_model::{
    DetailedRouter, EventLog, Histogram, MetricsRecorder, Problem, RouteError, RouteEvent,
    RouteResult, RouterStats,
};

use crate::journal::{JournalEntry, RunJournal};
use crate::recover::{InstanceStatus, RecoveryPath, SupervisedOutcome, Supervisor};

/// How much the engine observes of each instance's routing run.
///
/// Observation is strictly additive: the routed databases are
/// bit-identical across modes (the [`route_model::RouteObserver`]
/// contract); only the reporting changes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ObserveMode {
    /// No observers attached — the zero-cost default.
    #[default]
    Off,
    /// One [`MetricsRecorder`] per instance, merged into
    /// [`BatchOutcome::observation`] and [`EngineStats::router`].
    Metrics,
    /// One [`EventLog`] per instance: full event sequences are kept
    /// (in input order) *and* folded into the same aggregate metrics.
    Trace,
}

/// Knobs for [`RouteEngine`].
///
/// The default is `0` jobs (one worker per available hardware thread),
/// no deadline, and observation off. Build it as a struct literal,
/// e.g. `EngineConfig { jobs: 8, ..EngineConfig::default() }`; the
/// worker pool caps `jobs` at [`MAX_JOBS`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineConfig {
    /// Worker threads. `0` means one per available hardware thread.
    pub jobs: usize,
    /// Wall-clock budget per instance. A result delivered after the
    /// deadline is replaced by [`RouteError::DeadlineExceeded`]; errors
    /// keep their original diagnosis. `None` disables the check.
    pub deadline: Option<Duration>,
    /// Per-instance observation attached by the workers.
    pub observe: ObserveMode,
    /// Run the static feasibility analysis (`route-analyze`) before
    /// routing each instance. Instances with an infeasibility
    /// certificate are skipped with [`RouteError::Infeasible`] instead
    /// of burning the router's budget on a provably lost cause.
    pub precheck: bool,
}

/// Hard cap on explicitly requested worker threads — far above any sane
/// configuration, low enough to catch a units mistake (milliseconds in
/// the jobs field) before it spawns thousands of threads.
pub const MAX_JOBS: usize = 1024;

/// Aggregate accounting for one [`RouteEngine::route_batch`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Instances in the batch.
    pub instances: usize,
    /// Instances routed with every net connected.
    pub complete: usize,
    /// Instances routed legally but with at least one failed net.
    pub incomplete: usize,
    /// Instances that returned a [`RouteError`] other than a panic, a
    /// blown deadline, or an infeasibility proof.
    pub errored: usize,
    /// Instances skipped because [`EngineConfig::precheck`] proved them
    /// unroutable before the router ran.
    pub infeasible: usize,
    /// Instances whose router panicked.
    pub panicked: usize,
    /// Instances disqualified by the per-instance deadline.
    pub timed_out: usize,
    /// Total unconnected nets across all routed instances.
    pub failed_nets: usize,
    /// Total wirelength across all routed instances.
    pub wirelength: u64,
    /// Total vias across all routed instances.
    pub vias: u64,
    /// Wall-clock time for the whole batch, in milliseconds.
    pub batch_ms: u64,
    /// Sum of per-instance routing times, in milliseconds. The ratio
    /// `busy_ms / batch_ms` approximates achieved parallelism.
    pub busy_ms: u64,
    /// The slowest single instance, in milliseconds.
    pub max_instance_ms: u64,
    /// Worker threads actually used.
    pub jobs: usize,
    /// Supervised batches only: instances completed by a retry of the
    /// primary router (see [`crate::recover::RetryPolicy`]).
    pub retried: usize,
    /// Supervised batches only: instances completed by a fallback
    /// router (see [`crate::recover::FallbackChain`]).
    pub fell_back: usize,
    /// Supervised batches only: instances whose terminal failure was
    /// softened into a salvaged partial routing. Never counted in
    /// [`complete`](EngineStats::complete).
    pub salvaged: usize,
    /// Supervised batches only: instances skipped because a resumed
    /// run journal already held their completed record.
    pub resumed_skips: usize,
    /// Router work counters summed over all observed instances.
    /// Stays at zero when [`EngineConfig::observe`] is
    /// [`ObserveMode::Off`] — observation is what sources it.
    pub router: RouterStats,
}

/// Per-batch observation data, present when [`EngineConfig::observe`]
/// is not [`ObserveMode::Off`].
///
/// Instances that panicked contribute nothing (their observer died with
/// the worker closure); timed-out instances still contribute — the work
/// was done, even if the result was disqualified.
#[derive(Debug, Clone)]
pub struct BatchObservation {
    /// Every instance's recorder merged into one.
    pub metrics: MetricsRecorder,
    /// Per-instance routing latency, in milliseconds.
    pub latency: Histogram,
    /// Per-instance event sequences, in input order ([`ObserveMode::Trace`]
    /// only — empty otherwise; a panicked instance leaves an empty slot).
    pub events: Vec<Vec<RouteEvent>>,
}

/// What [`RouteEngine::route_batch`] returns.
#[derive(Debug)]
pub struct BatchOutcome {
    /// Per-instance results, in input order: `results[i]` routes
    /// `problems[i]`.
    pub results: Vec<RouteResult>,
    /// Per-instance routing time, in input order.
    pub timings: Vec<Duration>,
    /// Aggregate accounting.
    pub stats: EngineStats,
    /// Merged per-instance observation; `None` when
    /// [`EngineConfig::observe`] is [`ObserveMode::Off`].
    pub observation: Option<BatchObservation>,
}

/// Routes batches of problems concurrently through any
/// [`DetailedRouter`]. See the [module docs](self) for the contract.
#[derive(Debug, Clone, Copy, Default)]
pub struct RouteEngine {
    config: EngineConfig,
}

impl RouteEngine {
    /// An engine with the given configuration.
    pub fn new(config: EngineConfig) -> Self {
        RouteEngine { config }
    }

    /// Shorthand for an engine with `jobs` workers and no deadline.
    pub fn with_jobs(jobs: usize) -> Self {
        RouteEngine::new(EngineConfig { jobs, ..EngineConfig::default() })
    }

    /// The worker count the engine will use: the configured `jobs`, or
    /// one per available hardware thread when configured as `0`, capped
    /// at [`MAX_JOBS`].
    pub fn jobs(&self) -> usize {
        resolve_jobs(self.config.jobs)
    }

    /// The precheck's verdict on one instance: the first infeasibility
    /// certificate's summary when [`EngineConfig::precheck`] is on and
    /// the static analysis proves `problem` unroutable.
    fn infeasible(&self, problem: &Problem) -> Option<String> {
        if !self.config.precheck {
            return None;
        }
        route_analyze::analyze_problem(problem).certificates().first().map(|c| c.summary())
    }

    /// Routes every problem in the batch, fanning instances out over the
    /// worker pool ([`map_ordered`]): a slow instance never stalls the
    /// others, and results are delivered in input order regardless.
    pub fn route_batch<R: DetailedRouter + Sync + ?Sized>(
        &self,
        router: &R,
        problems: &[Problem],
    ) -> BatchOutcome {
        let started = Instant::now();
        let n = problems.len();
        let deadline = self.config.deadline;
        let observe = self.config.observe;

        let reports = map_ordered(self.config.jobs, n, |i| {
            let t0 = Instant::now();
            if let Some(reason) = self.infeasible(&problems[i]) {
                return (t0.elapsed(), (Err(RouteError::Infeasible { reason }), Observed::None));
            }
            let (result, observed) = catch_unwind(AssertUnwindSafe(|| match observe {
                ObserveMode::Off => (router.route(&problems[i]), Observed::None),
                ObserveMode::Metrics => {
                    let mut rec = Box::new(MetricsRecorder::new());
                    let r = router.route_observed(&problems[i], rec.as_mut());
                    (r, Observed::Metrics(rec))
                }
                ObserveMode::Trace => {
                    let mut log = EventLog::new();
                    let r = router.route_observed(&problems[i], &mut log);
                    (r, Observed::Events(log.into_events()))
                }
            }))
            .unwrap_or_else(|payload| {
                (
                    Err(RouteError::Panicked { message: panic_text(payload.as_ref()) }),
                    Observed::None,
                )
            });
            let took = t0.elapsed();
            let result = match (deadline, result) {
                (Some(budget), Ok(_)) if took > budget => Err(RouteError::DeadlineExceeded {
                    elapsed_ms: took.as_millis() as u64,
                    budget_ms: budget.as_millis() as u64,
                }),
                (_, r) => r,
            };
            (took, (result, observed))
        });
        let (timings, (results, observed_slots)): (Vec<Duration>, (Vec<RouteResult>, Vec<_>)) =
            reports.into_iter().unzip();

        let mut stats = EngineStats {
            instances: n,
            jobs: pool_size(self.config.jobs, n),
            batch_ms: started.elapsed().as_millis() as u64,
            ..EngineStats::default()
        };
        for (result, took) in results.iter().zip(&timings) {
            let ms = took.as_millis() as u64;
            stats.busy_ms += ms;
            stats.max_instance_ms = stats.max_instance_ms.max(ms);
            match result {
                Ok(routing) => {
                    if routing.is_complete() {
                        stats.complete += 1;
                    } else {
                        stats.incomplete += 1;
                    }
                    stats.failed_nets += routing.failed.len();
                    let db = routing.db.stats();
                    stats.wirelength += db.wirelength;
                    stats.vias += db.vias;
                }
                Err(RouteError::Panicked { .. }) => stats.panicked += 1,
                Err(RouteError::DeadlineExceeded { .. }) => stats.timed_out += 1,
                Err(RouteError::Infeasible { .. }) => stats.infeasible += 1,
                Err(_) => stats.errored += 1,
            }
        }

        // Merge per-instance observation in input order — deterministic
        // regardless of worker count or completion order.
        let observation = if observe == ObserveMode::Off {
            None
        } else {
            let mut metrics = MetricsRecorder::new();
            let mut latency = Histogram::new();
            let mut events: Vec<Vec<RouteEvent>> = Vec::new();
            for (observed, took) in observed_slots.into_iter().zip(&timings) {
                latency.record(took.as_millis() as u64);
                match observed {
                    Observed::None => {
                        if observe == ObserveMode::Trace {
                            events.push(Vec::new());
                        }
                    }
                    Observed::Metrics(rec) => metrics.merge(&rec),
                    Observed::Events(instance_events) => {
                        let mut rec = MetricsRecorder::new();
                        for e in &instance_events {
                            e.replay(&mut rec);
                        }
                        metrics.merge(&rec);
                        events.push(instance_events);
                    }
                }
            }
            stats.router = *metrics.router();
            Some(BatchObservation { metrics, latency, events })
        };

        BatchOutcome { results, timings, stats, observation }
    }
}

/// What [`RouteEngine::route_batch_supervised`] returns.
#[derive(Debug)]
pub struct SupervisedBatch {
    /// Per-instance outcomes, in input order. `None` marks an instance
    /// skipped by journal resume — its result lives only in `entries`.
    pub outcomes: Vec<Option<SupervisedOutcome>>,
    /// Per-instance journal-shaped summaries, in input order — present
    /// for every instance (resumed ones replay their stored record),
    /// so reports never depend on whether a run was resumed.
    pub entries: Vec<JournalEntry>,
    /// Per-instance routing time, in input order (zero for resumed
    /// skips).
    pub timings: Vec<Duration>,
    /// Aggregate accounting, including the recovery counters
    /// ([`EngineStats::retried`], [`EngineStats::fell_back`],
    /// [`EngineStats::salvaged`], [`EngineStats::resumed_skips`]).
    pub stats: EngineStats,
}

impl RouteEngine {
    /// Routes every problem under supervision: each instance runs
    /// through `supervisor`'s retry/fallback/salvage chain instead of a
    /// single attempt, and (optionally) streams its outcome through a
    /// crash-safe [`RunJournal`].
    ///
    /// Differences from [`route_batch`](RouteEngine::route_batch):
    ///
    /// * [`EngineConfig::deadline`] bounds each *attempt*, and a
    ///   deadline-disqualified routing still feeds the salvage
    ///   snapshot.
    /// * [`EngineConfig::observe`] is ignored — supervision re-runs
    ///   instances, so per-attempt observation would not merge into a
    ///   meaningful batch trace.
    /// * With a journal opened via [`RunJournal::resume`], instances
    ///   with a valid completed record are skipped and their stored
    ///   entries replayed verbatim ([`EngineStats::resumed_skips`]).
    ///
    /// Journal write failures never abort the batch; they latch inside
    /// the journal for the caller to check
    /// ([`RunJournal::take_error`]).
    pub fn route_batch_supervised(
        &self,
        supervisor: &Supervisor,
        problems: &[Problem],
        journal: Option<&RunJournal>,
    ) -> SupervisedBatch {
        let started = Instant::now();
        let n = problems.len();
        let deadline = self.config.deadline;

        let reports = map_ordered(self.config.jobs, n, |i| {
            if let Some(entry) = journal.and_then(|j| j.replay(i)) {
                return (Duration::ZERO, (entry.clone(), None));
            }
            let (label, fingerprint) = journal
                .and_then(|j| j.key(i).cloned())
                .unwrap_or_else(|| (format!("instance-{i}"), 0));
            let t0 = Instant::now();
            let outcome = match self.infeasible(&problems[i]) {
                Some(reason) => SupervisedOutcome::infeasible(reason),
                None => {
                    if let Some(j) = journal {
                        j.begin(i);
                    }
                    supervisor.route_supervised(&problems[i], i, deadline)
                }
            };
            let entry = JournalEntry::from_outcome(i, &label, fingerprint, &outcome);
            if let Some(j) = journal {
                j.finish(&entry);
            }
            (t0.elapsed(), (entry, Some(outcome)))
        });
        let (timings, (entries, outcomes)): (Vec<Duration>, (Vec<JournalEntry>, Vec<_>)) =
            reports.into_iter().unzip();

        let mut stats = EngineStats {
            instances: n,
            jobs: pool_size(self.config.jobs, n),
            batch_ms: started.elapsed().as_millis() as u64,
            ..EngineStats::default()
        };
        for ((entry, took), outcome) in entries.iter().zip(&timings).zip(&outcomes) {
            let ms = took.as_millis() as u64;
            stats.busy_ms += ms;
            stats.max_instance_ms = stats.max_instance_ms.max(ms);
            if outcome.is_none() {
                stats.resumed_skips += 1;
            }
            match entry.status {
                InstanceStatus::Complete => stats.complete += 1,
                InstanceStatus::Salvaged => stats.salvaged += 1,
                InstanceStatus::Infeasible => stats.infeasible += 1,
                InstanceStatus::Panicked => stats.panicked += 1,
                InstanceStatus::TimedOut => stats.timed_out += 1,
                InstanceStatus::Errored => stats.errored += 1,
            }
            match entry.path {
                RecoveryPath::Retried { .. } => stats.retried += 1,
                RecoveryPath::FellBack { .. } => stats.fell_back += 1,
                _ => {}
            }
            stats.failed_nets += entry.failed_nets;
            stats.wirelength += entry.wire;
            stats.vias += entry.vias;
        }

        SupervisedBatch { outcomes, entries, timings, stats }
    }
}

/// Per-instance observation payload shipped back from a worker. The
/// recorder is boxed: it holds inline histograms, and the enum would
/// otherwise be recorder-sized in every slot.
enum Observed {
    None,
    Metrics(Box<MetricsRecorder>),
    Events(Vec<RouteEvent>),
}

/// Worker threads for a `jobs` setting ([`EngineConfig::jobs`]
/// semantics: `0` means one per available hardware thread), capped at
/// [`MAX_JOBS`] however the setting was built.
fn resolve_jobs(jobs: usize) -> usize {
    let jobs = if jobs == 0 {
        thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        jobs
    };
    jobs.min(MAX_JOBS)
}

/// Workers [`map_ordered`] runs for `n` items: [`resolve_jobs`], but
/// never more than there are items, and never none.
fn pool_size(jobs: usize, n: usize) -> usize {
    resolve_jobs(jobs).min(n).max(1)
}

/// Runs `work(i)` for every `i` in `0..n` on a scoped worker pool and
/// returns the results in input order: `results[i] == work(i)` no matter
/// how many workers ran or in which order the items finished.
///
/// `jobs` follows [`EngineConfig::jobs`] — `0` means one worker per
/// available hardware thread — and the pool is clamped to [`MAX_JOBS`]
/// and to `n`. Workers claim items from a shared counter, so one slow
/// item never stalls the rest. A panic inside `work` propagates to the
/// caller once every worker has stopped; callers that must survive one
/// isolate it inside `work`.
///
/// # Examples
///
/// ```
/// let squares = mighty::engine::map_ordered(3, 5, |i| i * i);
/// assert_eq!(squares, [0, 1, 4, 9, 16]);
/// ```
pub fn map_ordered<T: Send>(jobs: usize, n: usize, work: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    thread::scope(|s| {
        let workers: Vec<_> = (0..pool_size(jobs, n))
            .map(|_| {
                s.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break done;
                        }
                        done.push((i, work(i)));
                    }
                })
            })
            .collect();
        for worker in workers {
            let done = worker.join().unwrap_or_else(|payload| resume_unwind(payload));
            for (i, result) in done {
                slots[i] = Some(result);
            }
        }
    });
    slots.into_iter().map(|slot| slot.expect("every claimed item reports exactly once")).collect()
}

/// Extracts a human-readable message from a panic payload.
pub(crate) fn panic_text(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::{mpsc, Mutex};

    use crate::recover::RetryPolicy;
    use crate::{MightyRouter, RouterConfig};

    #[test]
    fn map_ordered_returns_results_in_input_order() {
        let n = 12;
        for jobs in [1, 3, n + 5] {
            // With more than one worker, item 0 waits until the last
            // item has finished, so the items finish out of order.
            let (done_tx, done_rx) = mpsc::channel();
            let done_rx = Mutex::new(done_rx);
            let finished = Mutex::new(Vec::new());
            let out = map_ordered(jobs, n, |i| {
                if i == 0 && jobs > 1 {
                    done_rx.lock().expect("unpoisoned").recv().expect("the last item signals");
                }
                finished.lock().expect("unpoisoned").push(i);
                if i == n - 1 {
                    done_tx.send(()).expect("the receiver outlives the pool");
                }
                i * 10
            });
            assert_eq!(out, (0..n).map(|i| i * 10).collect::<Vec<_>>(), "jobs {jobs}");
            let finished = finished.into_inner().expect("unpoisoned");
            assert_eq!(jobs > 1, finished.last() == Some(&0), "jobs {jobs}: {finished:?}");
        }
    }

    #[test]
    fn map_ordered_runs_nothing_for_no_items() {
        assert!(map_ordered(4, 0, |i| i).is_empty());
        let engine = RouteEngine::with_jobs(4);
        let batch = engine.route_batch(&MightyRouter::new(RouterConfig::default()), &[]);
        assert!(batch.results.is_empty() && batch.timings.is_empty());
        assert_eq!(batch.stats.instances, 0);
        let supervisor = Supervisor::new(RouterConfig::default(), RetryPolicy::default());
        let batch = engine.route_batch_supervised(&supervisor, &[], None);
        assert!(batch.outcomes.is_empty() && batch.entries.is_empty());
    }

    #[test]
    fn map_ordered_caps_a_struct_literal_job_count() {
        // Struct-literal construction skips the builder's cap; the pool
        // must enforce it anyway.
        let cfg = EngineConfig { jobs: 5000, ..EngineConfig::default() };
        assert_eq!(RouteEngine::new(cfg).jobs(), MAX_JOBS);
        let n = MAX_JOBS + 100;
        let (live, peak) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let threads = Mutex::new(HashSet::new());
        let out = map_ordered(cfg.jobs, n, |i| {
            peak.fetch_max(live.fetch_add(1, Ordering::SeqCst) + 1, Ordering::SeqCst);
            threads.lock().expect("unpoisoned").insert(thread::current().id());
            thread::sleep(Duration::from_millis(1));
            live.fetch_sub(1, Ordering::SeqCst);
            i
        });
        assert_eq!(out, (0..n).collect::<Vec<_>>());
        assert!(peak.into_inner() <= MAX_JOBS);
        assert!(threads.into_inner().expect("unpoisoned").len() <= MAX_JOBS);
    }
}
