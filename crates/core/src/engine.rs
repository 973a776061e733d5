//! Parallel batch routing engine.
//!
//! [`RouteEngine`] routes many [`Problem`]s through a [`Supervisor`]
//! concurrently on a scoped [`std::thread`] pool — no external
//! dependencies. A plain batch is a one-attempt supervisor
//! ([`RetryPolicy::default`](crate::RetryPolicy::default), no
//! fallbacks) over the caller's router. The contract:
//!
//! * **Deterministic ordering** — `outcomes[i]` always belongs to
//!   `problems[i]`, no matter how many workers ran or in which order
//!   instances finished.
//! * **Panic isolation** — a router panic on one instance is caught and
//!   reported as [`RouteError::Panicked`] in that instance's slot; the
//!   rest of the batch routes normally.
//! * **Per-attempt budgets** — an optional wall-clock deadline
//!   disqualifies attempts that finish too late
//!   ([`RouteError::DeadlineExceeded`]); their routing is kept as a
//!   salvage. Attempt/event budgets are the router's own business (see
//!   [`RouterConfig`](crate::RouterConfig) for the rip-up router); the
//!   engine measures and reports per-instance time either way.
//! * **Aggregate accounting** — [`EngineStats`] totals completions,
//!   recoveries, failures, wirelength, vias and wall-clock/busy time for
//!   the batch.
//!
//! # Examples
//!
//! ```
//! use route_model::{PinSide, ProblemBuilder};
//! use mighty::engine::{EngineConfig, RouteEngine};
//! use mighty::{MightyRouter, RetryPolicy, RouterConfig, Supervisor};
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
//! let supervisor = Supervisor::with_primary(&router, RetryPolicy::default());
//! let engine = RouteEngine::new(EngineConfig { jobs: 2, ..EngineConfig::default() });
//! let batch = engine.route_batch(&supervisor, &problems, None);
//! assert_eq!(batch.outcomes.len(), 4);
//! assert_eq!(batch.stats.complete, 4);
//! ```

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use route_model::{
    EventLog, Histogram, MetricsRecorder, Problem, RouteEvent, RouteObserver, RouterStats,
};

#[cfg(doc)]
use route_model::RouteError;

use crate::journal::{JournalEntry, RunJournal};
use crate::recover::{FaultSite, InstanceStatus, RecoveryPath, SupervisedOutcome, Supervisor};

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
    /// Wall-clock budget per attempt, its clock started with the
    /// attempt. A routing delivered after the deadline is disqualified
    /// with [`RouteError::DeadlineExceeded`] and kept as a salvage;
    /// errors keep their original diagnosis. `None` disables the check.
    pub deadline: Option<Duration>,
    /// Observation attached to every attempt of every instance.
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

/// Aggregate accounting for one [`RouteEngine::route_batch`] call, by
/// each instance's [`InstanceStatus`] and [`RecoveryPath`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Instances in the batch.
    pub instances: usize,
    /// Instances routed with every net connected, by any path.
    pub complete: usize,
    /// Instances that returned a [`RouteError`] other than a panic, a
    /// blown deadline, or an infeasibility proof.
    pub errored: usize,
    /// Instances skipped because [`EngineConfig::precheck`] proved them
    /// unroutable before the router ran.
    pub infeasible: usize,
    /// Instances whose router panicked.
    pub panicked: usize,
    /// Instances whose terminal failure was a blown deadline with no
    /// routing to salvage.
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
    /// Instances completed by a retry of the primary router (see
    /// [`crate::recover::RetryPolicy`]).
    pub retried: usize,
    /// Instances completed by a fallback router (see
    /// [`crate::recover::FallbackChain`]).
    pub fell_back: usize,
    /// Instances whose attempts all failed or fell short, their best
    /// routing salvaged: an incomplete routing, or one delivered past the
    /// deadline. Never counted in [`complete`](EngineStats::complete).
    pub salvaged: usize,
    /// Instances skipped because a resumed run journal already held
    /// their completed record.
    pub resumed_skips: usize,
    /// Router work counters summed over all observed attempts.
    /// Stays at zero when [`EngineConfig::observe`] is
    /// [`ObserveMode::Off`] — observation is what sources it.
    pub router: RouterStats,
}

/// Per-batch observation data, present when [`EngineConfig::observe`]
/// is not [`ObserveMode::Off`].
///
/// Attempts that panicked contribute nothing (their events die with the
/// attempt); disqualified attempts still contribute — the work was
/// done, even if the result was not kept. Journal-resumed instances
/// contribute nothing either.
#[derive(Debug, Clone)]
pub struct BatchObservation {
    /// Every instance's recorder merged into one.
    pub metrics: MetricsRecorder,
    /// Per-instance routing latency, in milliseconds, over the instances
    /// routed live.
    pub latency: Histogram,
    /// Per-instance event sequences, every attempt in order, in input
    /// order ([`ObserveMode::Trace`] only — empty otherwise; an instance
    /// with no returned attempt leaves an empty slot).
    pub events: Vec<Vec<RouteEvent>>,
}

/// What [`RouteEngine::route_batch`] returns.
#[derive(Debug)]
pub struct BatchOutcome {
    /// Per-instance outcomes, in input order: `outcomes[i]` routes
    /// `problems[i]`. `None` marks an instance skipped by journal
    /// resume — its result lives only in `records`. An unsupervised
    /// caller reads each through [`SupervisedOutcome::into_result`].
    pub outcomes: Vec<Option<SupervisedOutcome>>,
    /// Per-instance journal records, in input order: the record each
    /// instance replayed or wrote when the batch ran with a journal,
    /// `None` without one.
    pub records: Vec<Option<JournalEntry>>,
    /// Per-instance routing time, in input order (zero for resumed
    /// skips).
    pub timings: Vec<Duration>,
    /// Aggregate accounting.
    pub stats: EngineStats,
    /// Merged per-instance observation; `None` when
    /// [`EngineConfig::observe`] is [`ObserveMode::Off`].
    pub observation: Option<BatchObservation>,
}

/// Routes batches of problems concurrently through a [`Supervisor`].
/// See the [module docs](self) for the contract.
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

    /// Routes every problem through `supervisor`'s retry/fallback/salvage
    /// chain, fanning instances out over the worker pool
    /// ([`map_ordered`]): a slow instance never stalls the others, and
    /// outcomes are delivered in input order regardless.
    ///
    /// With a journal, each outcome is streamed through it as a
    /// crash-safe [`JournalEntry`]; a journal opened via
    /// [`RunJournal::resume`] skips instances with a valid completed
    /// record and replays their stored entries verbatim
    /// ([`EngineStats::resumed_skips`]). Journal write failures never
    /// abort the batch; they latch inside the journal for the caller to
    /// check ([`RunJournal::take_error`]).
    pub fn route_batch(
        &self,
        supervisor: &Supervisor<'_>,
        problems: &[Problem],
        journal: Option<&RunJournal>,
    ) -> BatchOutcome {
        let started = Instant::now();
        let n = problems.len();
        let deadline = self.config.deadline;
        let observe = self.config.observe;

        let slots = map_ordered(self.config.jobs, n, |i| {
            if let Some(entry) = journal.and_then(|j| j.replay(i)) {
                return (Duration::ZERO, None, Some(entry.clone()), Observed::None);
            }
            let t0 = Instant::now();
            let mut observed = match observe {
                ObserveMode::Off => Observed::None,
                ObserveMode::Metrics => Observed::Metrics(Box::default()),
                ObserveMode::Trace => Observed::Events(EventLog::new()),
            };
            let outcome = match self.infeasible(&problems[i]) {
                Some(reason) => SupervisedOutcome::infeasible(reason),
                None => {
                    if let Some(j) = journal {
                        j.begin(i);
                    }
                    let site = FaultSite::Instance(i);
                    supervisor.route_supervised(&problems[i], site, deadline, observed.sink())
                }
            };
            let record = journal.map(|j| {
                let (label, fingerprint) =
                    j.key(i).cloned().unwrap_or_else(|| (format!("instance-{i}"), 0));
                let entry =
                    JournalEntry::from_outcome(i, &label, fingerprint, &problems[i], &outcome);
                j.finish(&entry);
                entry
            });
            (t0.elapsed(), Some(outcome), record, observed)
        });

        let mut stats = EngineStats {
            instances: n,
            jobs: pool_size(self.config.jobs, n),
            batch_ms: started.elapsed().as_millis() as u64,
            ..EngineStats::default()
        };
        let mut metrics = MetricsRecorder::new();
        let mut latency = Histogram::new();
        let mut events: Vec<Vec<RouteEvent>> = Vec::new();
        let (mut outcomes, mut records, mut timings) = (Vec::new(), Vec::new(), Vec::new());
        for (took, outcome, record, observed) in slots {
            let ms = took.as_millis() as u64;
            stats.busy_ms += ms;
            stats.max_instance_ms = stats.max_instance_ms.max(ms);
            let (status, path, routed) = match (&outcome, &record) {
                (Some(o), _) => {
                    let routed = match &o.result {
                        Some(Ok(routing)) => {
                            let db = routing.db.stats();
                            (db.wirelength, db.vias, routing.failed.len())
                        }
                        _ => (0, 0, 0),
                    };
                    (o.status(), &o.path, routed)
                }
                (None, Some(r)) => (r.status, &r.path, (r.wire, r.vias, r.failed_nets)),
                (None, None) => unreachable!("every slot is live or replayed"),
            };
            match status {
                InstanceStatus::Complete => stats.complete += 1,
                InstanceStatus::Salvaged => stats.salvaged += 1,
                InstanceStatus::Infeasible => stats.infeasible += 1,
                InstanceStatus::Panicked => stats.panicked += 1,
                InstanceStatus::TimedOut => stats.timed_out += 1,
                InstanceStatus::Errored => stats.errored += 1,
            }
            match path {
                RecoveryPath::Retried { .. } => stats.retried += 1,
                RecoveryPath::FellBack { .. } => stats.fell_back += 1,
                _ => {}
            }
            stats.wirelength += routed.0;
            stats.vias += routed.1;
            stats.failed_nets += routed.2;
            if outcome.is_none() {
                stats.resumed_skips += 1;
            } else if observe != ObserveMode::Off {
                latency.record(ms);
            }
            // Merge per-instance observation in input order —
            // deterministic regardless of worker count or completion
            // order.
            match observed {
                Observed::None if observe == ObserveMode::Trace => events.push(Vec::new()),
                Observed::None => {}
                Observed::Metrics(rec) => metrics.merge(&rec),
                Observed::Events(log) => {
                    let mut rec = MetricsRecorder::new();
                    log.replay(&mut rec);
                    metrics.merge(&rec);
                    events.push(log.into_events());
                }
            }
            outcomes.push(outcome);
            records.push(record);
            timings.push(took);
        }
        let observation = (observe != ObserveMode::Off).then(|| {
            stats.router = *metrics.router();
            BatchObservation { metrics, latency, events }
        });

        BatchOutcome { outcomes, records, timings, stats, observation }
    }
}

/// Per-instance observation payload shipped back from a worker. The
/// recorder is boxed: it holds inline histograms, and the enum would
/// otherwise be recorder-sized in every slot.
enum Observed {
    None,
    Metrics(Box<MetricsRecorder>),
    Events(EventLog),
}

impl Observed {
    /// The observer every attempt of the instance reports into.
    fn sink(&mut self) -> Option<&mut dyn RouteObserver> {
        match self {
            Observed::None => None,
            Observed::Metrics(rec) => Some(rec.as_mut()),
            Observed::Events(log) => Some(log),
        }
    }
}

/// Worker threads for a `jobs` setting ([`EngineConfig::jobs`]
/// semantics: `0` means one per available hardware thread), capped at
/// [`MAX_JOBS`] however the setting was built.
pub(crate) fn resolve_jobs(jobs: usize) -> usize {
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::{mpsc, Mutex};

    use crate::recover::RetryPolicy;
    use crate::RouterConfig;

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
        let supervisor = Supervisor::new(RouterConfig::default(), RetryPolicy::default());
        let batch = RouteEngine::with_jobs(4).route_batch(&supervisor, &[], None);
        assert!(batch.outcomes.is_empty() && batch.records.is_empty());
        assert!(batch.timings.is_empty());
        assert_eq!(batch.stats.instances, 0);
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
