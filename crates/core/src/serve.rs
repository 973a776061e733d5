//! The warm routing service: a resident worker pool with admission
//! control, priorities, deadlines and streamed observation.
//!
//! [`RouteService`] is the engine behind `vroute serve`. Where
//! [`RouteEngine`](crate::RouteEngine) routes one finite batch and
//! returns, the service runs until told to stop and accepts work one
//! request at a time:
//!
//! * **Warm workers** — each worker owns a [`MightyRouter`] and one
//!   [`SearchArena`] for its whole lifetime and routes requests through
//!   [`MightyRouter::route_warm`], so steady-state requests perform no
//!   per-request scratch allocation (the arena grows to the largest
//!   grid seen, then is only reset). Warm results are bit-identical to
//!   cold ones.
//! * **Admission control** — the queue is bounded. [`RouteService::submit`]
//!   never blocks: a full queue rejects with
//!   [`SubmitError::Saturated`], which the protocol layer turns into a
//!   structured `overloaded` response (backpressure, not buffering).
//! * **Priorities** — queued jobs are served highest
//!   [`JobSpec::priority`] first, FIFO within a priority class.
//! * **Deadlines** — a per-job wall-clock budget covering queue wait
//!   *plus* routing. A job that expires while queued is failed without
//!   routing; a result delivered late is disqualified exactly like the
//!   batch engine does ([`RouteError::DeadlineExceeded`]).
//! * **Panic isolation** — a router panic poisons neither the worker
//!   nor the service: the job fails with [`RouteError::Panicked`], the
//!   worker replaces its arena and keeps serving.
//! * **Streamed observation** — jobs with [`JobSpec::stream_events`]
//!   forward every [`RouteObserver`](route_model::RouteObserver) event
//!   to the job's reply channel before the terminal
//!   [`ServiceReply::Done`].
//!
//! Replies are delivered over a caller-supplied [`mpsc::Sender`]; a
//! vanished receiver (client hung up) never stalls a worker.
//!
//! # Examples
//!
//! ```
//! use std::sync::mpsc;
//! use route_model::{PinSide, ProblemBuilder};
//! use mighty::serve::{JobSpec, RouteService, ServiceConfig, ServiceReply};
//!
//! let service = RouteService::start(ServiceConfig::default())?;
//! let (tx, rx) = mpsc::channel();
//!
//! let mut b = ProblemBuilder::switchbox(8, 8);
//! b.net("a").pin_side(PinSide::Left, 3).pin_side(PinSide::Right, 5);
//! let problem = b.build().unwrap();
//!
//! service.submit(JobSpec::new(7, problem), tx).unwrap();
//! match rx.recv().unwrap() {
//!     ServiceReply::Done(done) => {
//!         assert_eq!(done.tag, 7);
//!         assert!(done.result.unwrap().is_complete());
//!     }
//!     other => panic!("expected Done, got {other:?}"),
//! }
//! service.shutdown();
//! # Ok::<(), mighty::ConfigError>(())
//! ```

use std::collections::BinaryHeap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use route_maze::search::SearchArena;
use route_model::{
    DetailedRouter, EventSink, Problem, RouteError, RouteEvent, RouteResult, Routing,
};

use crate::engine::{panic_text, MAX_JOBS};
use crate::{ConfigError, MightyRouter};

/// Knobs for [`RouteService`]. Prefer [`ServiceConfig::builder`], which
/// validates; [`RouteService::start`] re-checks the invariants either
/// way.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceConfig {
    /// Warm worker threads. `0` means one per available hardware thread.
    pub workers: usize,
    /// Bound on jobs waiting in the admission queue (jobs being routed
    /// do not count). Must be at least 1.
    pub queue_capacity: usize,
    /// Deadline applied to jobs that do not carry their own.
    pub default_deadline: Option<Duration>,
    /// Test/CI fault hook: sleep this long before routing each job,
    /// keeping jobs in flight long enough to kill mid-request.
    pub fault_delay: Option<Duration>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig { workers: 0, queue_capacity: 64, default_deadline: None, fault_delay: None }
    }
}

impl ServiceConfig {
    /// Starts a validating [`ServiceConfigBuilder`] seeded with the
    /// defaults.
    pub fn builder() -> ServiceConfigBuilder {
        ServiceConfigBuilder::default()
    }

    fn validate(&self) -> Result<(), ConfigError> {
        if self.queue_capacity == 0 {
            return Err(ConfigError::ZeroQueueCapacity);
        }
        if self.workers > MAX_JOBS {
            return Err(ConfigError::JobsOverCap { jobs: self.workers, cap: MAX_JOBS });
        }
        if self.default_deadline == Some(Duration::ZERO) {
            return Err(ConfigError::ZeroDeadline);
        }
        Ok(())
    }
}

/// Validating builder for [`ServiceConfig`], sharing [`ConfigError`]
/// with the router builder.
///
/// # Examples
///
/// ```
/// use mighty::serve::ServiceConfig;
/// use mighty::ConfigError;
///
/// let cfg = ServiceConfig::builder().workers(2).queue_capacity(16).build()?;
/// assert_eq!(cfg.queue_capacity, 16);
/// assert_eq!(
///     ServiceConfig::builder().queue_capacity(0).build(),
///     Err(ConfigError::ZeroQueueCapacity),
/// );
/// # Ok::<(), ConfigError>(())
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct ServiceConfigBuilder {
    cfg: ServiceConfig,
}

impl ServiceConfigBuilder {
    /// Sets the worker count (`0` = one per hardware thread).
    pub fn workers(mut self, workers: usize) -> Self {
        self.cfg.workers = workers;
        self
    }

    /// Sets the admission-queue bound.
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.cfg.queue_capacity = capacity;
        self
    }

    /// Sets the deadline applied to jobs without their own.
    pub fn default_deadline(mut self, deadline: Option<Duration>) -> Self {
        self.cfg.default_deadline = deadline;
        self
    }

    /// Sets the test/CI fault delay.
    pub fn fault_delay(mut self, delay: Option<Duration>) -> Self {
        self.cfg.fault_delay = delay;
        self
    }

    /// Validates and produces the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::ZeroQueueCapacity`],
    /// [`ConfigError::JobsOverCap`] or [`ConfigError::ZeroDeadline`].
    pub fn build(self) -> Result<ServiceConfig, ConfigError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

/// One unit of work for the service.
#[derive(Clone)]
pub struct JobSpec {
    /// Caller's correlation tag, echoed in every reply for this job.
    pub tag: u64,
    /// The instance to route.
    pub problem: Problem,
    /// Router override. `None` routes through the worker's warm
    /// [`MightyRouter`]; `Some` routes cold through the given router
    /// (baseline routers have no warm path).
    pub router: Option<Arc<dyn DetailedRouter + Send + Sync>>,
    /// Priority `0..=255`, higher first out of the queue.
    pub priority: u8,
    /// Wall-clock budget covering queue wait plus routing; `None` uses
    /// the service default.
    pub deadline: Option<Duration>,
    /// Forward [`RouteObserver`](route_model::RouteObserver) events to
    /// the reply channel.
    pub stream_events: bool,
}

impl JobSpec {
    /// A job with default priority, no deadline override, the warm
    /// router and no event streaming.
    pub fn new(tag: u64, problem: Problem) -> JobSpec {
        JobSpec { tag, problem, router: None, priority: 4, deadline: None, stream_events: false }
    }
}

impl fmt::Debug for JobSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JobSpec")
            .field("tag", &self.tag)
            .field("router", &self.router.as_ref().map(|r| r.name().to_string()))
            .field("priority", &self.priority)
            .field("deadline", &self.deadline)
            .field("stream_events", &self.stream_events)
            .finish_non_exhaustive()
    }
}

/// One message on a job's reply channel. Every submitted job produces
/// exactly one [`ServiceReply::Done`], preceded by events iff
/// [`JobSpec::stream_events`] was set.
#[derive(Debug)]
pub enum ServiceReply {
    /// A forwarded [`RouteObserver`](route_model::RouteObserver) event.
    Event {
        /// The job's correlation tag.
        tag: u64,
        /// The event.
        event: RouteEvent,
    },
    /// The terminal result (boxed: it carries the whole database).
    Done(Box<JobDone>),
}

/// The terminal reply for one job.
#[derive(Debug)]
pub struct JobDone {
    /// The job's correlation tag.
    pub tag: u64,
    /// The routing result, with the same error vocabulary as the batch
    /// engine (deadline, panic, infeasible...).
    pub result: RouteResult,
    /// Time spent waiting in the queue, in milliseconds.
    pub queued_ms: u64,
    /// Total time from admission to completion, in milliseconds.
    pub total_ms: u64,
    /// Index of the worker that served the job.
    pub worker: usize,
}

/// Why [`RouteService::submit`] refused a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is full — shed load or retry later.
    Saturated {
        /// The configured queue bound.
        capacity: usize,
    },
    /// The service no longer accepts work.
    ShuttingDown,
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::Saturated { capacity } => {
                write!(f, "admission queue full ({capacity} waiting)")
            }
            SubmitError::ShuttingDown => write!(f, "service is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// A snapshot of the service's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Worker threads serving the queue.
    pub workers: usize,
    /// The admission-queue bound.
    pub queue_capacity: usize,
    /// Jobs waiting right now.
    pub queue_depth: usize,
    /// Deepest the queue has been.
    pub max_queue_depth: usize,
    /// Jobs admitted.
    pub accepted: u64,
    /// Jobs refused by admission control (saturated or shutting down).
    pub rejected: u64,
    /// Terminal replies delivered (every admitted job gets exactly one).
    pub completed: u64,
    /// Jobs that blew their deadline (queued or routed too long).
    pub expired: u64,
    /// Jobs whose router panicked.
    pub panicked: u64,
}

struct QueuedJob {
    seq: u64,
    admitted: Instant,
    spec: JobSpec,
    reply: mpsc::Sender<ServiceReply>,
}

impl PartialEq for QueuedJob {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}

impl Eq for QueuedJob {}

impl PartialOrd for QueuedJob {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for QueuedJob {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Max-heap: higher priority first, then FIFO (smaller seq first).
        self.spec.priority.cmp(&other.spec.priority).then_with(|| other.seq.cmp(&self.seq))
    }
}

#[derive(Default)]
struct Counters {
    accepted: u64,
    rejected: u64,
    completed: u64,
    expired: u64,
    panicked: u64,
    max_queue_depth: usize,
}

struct State {
    queue: BinaryHeap<QueuedJob>,
    shutting_down: bool,
    counters: Counters,
}

struct Shared {
    state: Mutex<State>,
    available: Condvar,
    default_deadline: Option<Duration>,
    fault_delay: Option<Duration>,
}

/// The resident routing service. See the [module docs](self) for the
/// contract; construct with [`RouteService::start`].
pub struct RouteService {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    worker_count: usize,
    capacity: usize,
    seq: AtomicU64,
}

impl fmt::Debug for RouteService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RouteService")
            .field("workers", &self.worker_count)
            .field("capacity", &self.capacity)
            .finish()
    }
}

impl RouteService {
    /// Validates `config` and spawns the worker pool.
    ///
    /// # Errors
    ///
    /// Returns the same [`ConfigError`]s as
    /// [`ServiceConfigBuilder::build`].
    pub fn start(config: ServiceConfig) -> Result<RouteService, ConfigError> {
        config.validate()?;
        let worker_count = if config.workers == 0 {
            thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        } else {
            config.workers
        };
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: BinaryHeap::new(),
                shutting_down: false,
                counters: Counters::default(),
            }),
            available: Condvar::new(),
            default_deadline: config.default_deadline,
            fault_delay: config.fault_delay,
        });
        let workers = (0..worker_count)
            .map(|idx| {
                let shared = Arc::clone(&shared);
                thread::spawn(move || worker_loop(&shared, idx))
            })
            .collect();
        Ok(RouteService {
            shared,
            workers: Mutex::new(workers),
            worker_count,
            capacity: config.queue_capacity,
            seq: AtomicU64::new(0),
        })
    }

    /// Submits a job. Never blocks: the queue either admits the job or
    /// the call fails immediately (backpressure). All replies for the
    /// job — streamed events, then exactly one [`ServiceReply::Done`] —
    /// are delivered on `reply`.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Saturated`] when the queue is at capacity,
    /// [`SubmitError::ShuttingDown`] after
    /// [`begin_shutdown`](RouteService::begin_shutdown).
    pub fn submit(
        &self,
        spec: JobSpec,
        reply: mpsc::Sender<ServiceReply>,
    ) -> Result<(), SubmitError> {
        let mut state = self.shared.state.lock().expect("service state mutex");
        if state.shutting_down {
            state.counters.rejected += 1;
            return Err(SubmitError::ShuttingDown);
        }
        if state.queue.len() >= self.capacity {
            state.counters.rejected += 1;
            return Err(SubmitError::Saturated { capacity: self.capacity });
        }
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        state.queue.push(QueuedJob { seq, admitted: Instant::now(), spec, reply });
        state.counters.accepted += 1;
        let depth = state.queue.len();
        state.counters.max_queue_depth = state.counters.max_queue_depth.max(depth);
        drop(state);
        self.shared.available.notify_one();
        Ok(())
    }

    /// A snapshot of the counters.
    pub fn stats(&self) -> ServiceStats {
        let state = self.shared.state.lock().expect("service state mutex");
        ServiceStats {
            workers: self.worker_count,
            queue_capacity: self.capacity,
            queue_depth: state.queue.len(),
            max_queue_depth: state.counters.max_queue_depth,
            accepted: state.counters.accepted,
            rejected: state.counters.rejected,
            completed: state.counters.completed,
            expired: state.counters.expired,
            panicked: state.counters.panicked,
        }
    }

    /// Stops admission. Already-queued jobs still drain; workers exit
    /// once the queue is empty. Idempotent.
    pub fn begin_shutdown(&self) {
        let mut state = self.shared.state.lock().expect("service state mutex");
        state.shutting_down = true;
        drop(state);
        self.shared.available.notify_all();
    }

    /// Graceful shutdown: stops admission, drains the queue, joins
    /// every worker, and returns the final counters.
    pub fn shutdown(&self) -> ServiceStats {
        self.begin_shutdown();
        let handles: Vec<JoinHandle<()>> =
            std::mem::take(&mut *self.workers.lock().expect("service worker list"));
        for handle in handles {
            let _ = handle.join();
        }
        self.stats()
    }
}

impl Drop for RouteService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(shared: &Shared, worker: usize) {
    let router = MightyRouter::default();
    let mut arena = SearchArena::new();
    loop {
        let job = {
            let mut state = shared.state.lock().expect("service state mutex");
            loop {
                if let Some(job) = state.queue.pop() {
                    break job;
                }
                if state.shutting_down {
                    return;
                }
                state = shared.available.wait(state).expect("service state mutex");
            }
        };
        serve_job(shared, &router, &mut arena, worker, job);
    }
}

fn serve_job(
    shared: &Shared,
    router: &MightyRouter,
    arena: &mut SearchArena,
    worker: usize,
    job: QueuedJob,
) {
    let QueuedJob { admitted, spec, reply, .. } = job;
    let budget = spec.deadline.or(shared.default_deadline);
    let queued = admitted.elapsed();

    // A job that expired while waiting is failed without routing it:
    // burning a worker on a result nobody may use starves the live jobs
    // behind it.
    if let Some(budget) = budget {
        if queued > budget {
            let done = JobDone {
                tag: spec.tag,
                result: Err(RouteError::DeadlineExceeded {
                    elapsed_ms: queued.as_millis() as u64,
                    budget_ms: budget.as_millis() as u64,
                }),
                queued_ms: queued.as_millis() as u64,
                total_ms: queued.as_millis() as u64,
                worker,
            };
            let _ = reply.send(ServiceReply::Done(Box::new(done)));
            let mut state = shared.state.lock().expect("service state mutex");
            state.counters.completed += 1;
            state.counters.expired += 1;
            return;
        }
    }

    if let Some(delay) = shared.fault_delay {
        thread::sleep(delay);
    }

    let mut forwarder =
        Forwarder { tag: spec.tag, tx: if spec.stream_events { Some(&reply) } else { None } };
    let caught = catch_unwind(AssertUnwindSafe(|| match &spec.router {
        Some(custom) => {
            if spec.stream_events {
                custom.route_observed(&spec.problem, &mut forwarder)
            } else {
                custom.route(&spec.problem)
            }
        }
        None => {
            let out = if spec.stream_events {
                router.route_warm_observed(&spec.problem, arena, &mut forwarder)
            } else {
                router.route_warm(&spec.problem, arena)
            };
            let failed = out.failed().to_vec();
            Ok(Routing { db: out.into_db(), failed })
        }
    }));
    let (result, did_panic) = match caught {
        Ok(result) => (result, false),
        Err(payload) => (Err(RouteError::Panicked { message: panic_text(payload.as_ref()) }), true),
    };
    if did_panic {
        // The unwound search may have left the arena mid-flight; a
        // fresh one is cheap and provably clean.
        *arena = SearchArena::new();
    }

    let total = admitted.elapsed();
    let result = match (budget, result) {
        (Some(budget), Ok(_)) if total > budget => Err(RouteError::DeadlineExceeded {
            elapsed_ms: total.as_millis() as u64,
            budget_ms: budget.as_millis() as u64,
        }),
        (_, r) => r,
    };

    let expired = matches!(result, Err(RouteError::DeadlineExceeded { .. }));
    let done = JobDone {
        tag: spec.tag,
        result,
        queued_ms: queued.as_millis() as u64,
        total_ms: total.as_millis() as u64,
        worker,
    };
    let _ = reply.send(ServiceReply::Done(Box::new(done)));
    let mut state = shared.state.lock().expect("service state mutex");
    state.counters.completed += 1;
    if expired {
        state.counters.expired += 1;
    }
    if did_panic {
        state.counters.panicked += 1;
    }
}

/// Forwards every router event to the job's reply channel as a
/// [`ServiceReply::Event`]. A `None` channel (streaming off) makes every
/// event a no-op; a vanished receiver is ignored — the routing still
/// completes and is journaled/accounted normally.
struct Forwarder<'a> {
    tag: u64,
    tx: Option<&'a mpsc::Sender<ServiceReply>>,
}

impl EventSink for Forwarder<'_> {
    fn event(&mut self, event: RouteEvent) {
        if let Some(tx) = self.tx {
            let _ = tx.send(ServiceReply::Event { tag: self.tag, event });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RouterConfig;
    use route_model::{PinSide, ProblemBuilder, RouteEvent};

    fn switchbox(w: u32, h: u32, seed: u32) -> Problem {
        let mut b = ProblemBuilder::switchbox(w, h);
        b.net("a").pin_side(PinSide::Left, seed % h).pin_side(PinSide::Right, (seed + 2) % h);
        b.net("b").pin_side(PinSide::Bottom, seed % w).pin_side(PinSide::Top, (seed + 3) % w);
        b.build().unwrap()
    }

    fn start(cfg: ServiceConfig) -> RouteService {
        RouteService::start(cfg).expect("valid test config")
    }

    fn recv_done(rx: &mpsc::Receiver<ServiceReply>) -> Box<JobDone> {
        loop {
            match rx.recv().expect("reply channel open") {
                ServiceReply::Done(done) => return done,
                ServiceReply::Event { .. } => {}
            }
        }
    }

    #[test]
    fn service_results_match_direct_routing() {
        let service = start(ServiceConfig { workers: 2, ..ServiceConfig::default() });
        let (tx, rx) = mpsc::channel();
        let problems: Vec<Problem> = (0..6).map(|i| switchbox(8, 8, i)).collect();
        for (i, p) in problems.iter().enumerate() {
            service.submit(JobSpec::new(i as u64, p.clone()), tx.clone()).unwrap();
        }
        let mut sums = vec![0u64; problems.len()];
        for _ in 0..problems.len() {
            let done = recv_done(&rx);
            sums[done.tag as usize] = done.result.unwrap().db.checksum();
        }
        let router = MightyRouter::new(RouterConfig::default());
        for (p, sum) in problems.iter().zip(&sums) {
            assert_eq!(router.route(p).db().checksum(), *sum);
        }
        let stats = service.shutdown();
        assert_eq!(stats.accepted, 6);
        assert_eq!(stats.completed, 6);
        assert_eq!(stats.rejected, 0);
    }

    #[test]
    fn saturated_queue_rejects_instead_of_buffering() {
        let service = start(ServiceConfig {
            workers: 1,
            queue_capacity: 1,
            fault_delay: Some(Duration::from_millis(150)),
            ..ServiceConfig::default()
        });
        let (tx, rx) = mpsc::channel();
        // First job: give the worker a moment to claim it so it is in
        // flight, not queued.
        service.submit(JobSpec::new(0, switchbox(6, 6, 0)), tx.clone()).unwrap();
        thread::sleep(Duration::from_millis(50));
        // Second job fills the queue; third must bounce.
        service.submit(JobSpec::new(1, switchbox(6, 6, 1)), tx.clone()).unwrap();
        let err = service.submit(JobSpec::new(2, switchbox(6, 6, 2)), tx.clone()).unwrap_err();
        assert_eq!(err, SubmitError::Saturated { capacity: 1 });
        assert!(err.to_string().contains("full"));
        for _ in 0..2 {
            assert!(recv_done(&rx).result.is_ok());
        }
        let stats = service.shutdown();
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.max_queue_depth, 1);
    }

    #[test]
    fn priorities_order_the_queue() {
        let service = start(ServiceConfig {
            workers: 1,
            fault_delay: Some(Duration::from_millis(60)),
            ..ServiceConfig::default()
        });
        let (tx, rx) = mpsc::channel();
        // Blocker occupies the only worker; then a low- and a
        // high-priority job queue up.
        service.submit(JobSpec::new(0, switchbox(6, 6, 0)), tx.clone()).unwrap();
        thread::sleep(Duration::from_millis(20));
        let low = JobSpec { priority: 1, ..JobSpec::new(1, switchbox(6, 6, 1)) };
        let high = JobSpec { priority: 9, ..JobSpec::new(2, switchbox(6, 6, 2)) };
        service.submit(low, tx.clone()).unwrap();
        service.submit(high, tx.clone()).unwrap();
        let order: Vec<u64> = (0..3).map(|_| recv_done(&rx).tag).collect();
        assert_eq!(order, vec![0, 2, 1], "high priority must overtake FIFO");
        service.shutdown();
    }

    #[test]
    fn deadlines_expire_queued_and_slow_jobs() {
        let service = start(ServiceConfig {
            workers: 1,
            fault_delay: Some(Duration::from_millis(80)),
            ..ServiceConfig::default()
        });
        let (tx, rx) = mpsc::channel();
        // The first job routes (80 ms fault delay) but carries a 10 ms
        // budget: disqualified after routing.
        let slow = JobSpec {
            deadline: Some(Duration::from_millis(10)),
            ..JobSpec::new(0, switchbox(6, 6, 0))
        };
        // The second waits >80 ms in the queue against a 20 ms budget:
        // expired at dequeue, never routed.
        let stale = JobSpec {
            deadline: Some(Duration::from_millis(20)),
            ..JobSpec::new(1, switchbox(6, 6, 1))
        };
        service.submit(slow, tx.clone()).unwrap();
        service.submit(stale, tx.clone()).unwrap();
        for _ in 0..2 {
            let done = recv_done(&rx);
            assert!(
                matches!(done.result, Err(RouteError::DeadlineExceeded { .. })),
                "tag {} should be disqualified, got {:?}",
                done.tag,
                done.result
            );
        }
        let stats = service.shutdown();
        assert_eq!(stats.expired, 2);
    }

    struct PanicRouter;
    impl DetailedRouter for PanicRouter {
        fn name(&self) -> &str {
            "panic"
        }
        fn route(&self, _problem: &Problem) -> RouteResult {
            panic!("boom");
        }
    }

    #[test]
    fn a_panicking_job_does_not_poison_the_worker() {
        let service = start(ServiceConfig { workers: 1, ..ServiceConfig::default() });
        let (tx, rx) = mpsc::channel();
        let bad =
            JobSpec { router: Some(Arc::new(PanicRouter)), ..JobSpec::new(0, switchbox(6, 6, 0)) };
        service.submit(bad, tx.clone()).unwrap();
        let done = recv_done(&rx);
        match done.result {
            Err(RouteError::Panicked { message }) => assert!(message.contains("boom")),
            other => panic!("expected panic error, got {other:?}"),
        }
        // The same (only) worker must still serve the next job.
        service.submit(JobSpec::new(1, switchbox(6, 6, 1)), tx.clone()).unwrap();
        assert!(recv_done(&rx).result.is_ok());
        let stats = service.shutdown();
        assert_eq!(stats.panicked, 1);
        assert_eq!(stats.completed, 2);
    }

    #[test]
    fn streamed_events_precede_done_and_replay_consistently() {
        let service = start(ServiceConfig { workers: 1, ..ServiceConfig::default() });
        let (tx, rx) = mpsc::channel();
        let spec = JobSpec { stream_events: true, ..JobSpec::new(5, switchbox(8, 8, 0)) };
        service.submit(spec, tx.clone()).unwrap();
        let mut events: Vec<RouteEvent> = Vec::new();
        let done = loop {
            match rx.recv().unwrap() {
                ServiceReply::Event { tag, event } => {
                    assert_eq!(tag, 5);
                    events.push(event);
                }
                ServiceReply::Done(done) => break done,
            }
        };
        let routing = done.result.unwrap();
        assert!(routing.is_complete());
        let committed =
            events.iter().filter(|e| matches!(e, RouteEvent::NetCommitted { .. })).count();
        assert_eq!(committed, 2, "both nets commit exactly once: {events:?}");
        // Events never trail the terminal reply.
        assert!(rx.try_recv().is_err());
        service.shutdown();
    }

    #[test]
    fn shutdown_drains_queued_work_and_rejects_new() {
        let service = start(ServiceConfig {
            workers: 1,
            fault_delay: Some(Duration::from_millis(20)),
            ..ServiceConfig::default()
        });
        let (tx, rx) = mpsc::channel();
        for i in 0..4 {
            service.submit(JobSpec::new(i, switchbox(6, 6, i as u32)), tx.clone()).unwrap();
        }
        service.begin_shutdown();
        let err = service.submit(JobSpec::new(9, switchbox(6, 6, 0)), tx.clone()).unwrap_err();
        assert_eq!(err, SubmitError::ShuttingDown);
        let stats = service.shutdown();
        assert_eq!(stats.completed, 4, "queued jobs drain before workers exit");
        for _ in 0..4 {
            assert!(recv_done(&rx).result.is_ok());
        }
    }

    #[test]
    fn start_rejects_invalid_configs() {
        assert_eq!(
            RouteService::start(ServiceConfig { queue_capacity: 0, ..ServiceConfig::default() })
                .err(),
            Some(ConfigError::ZeroQueueCapacity)
        );
        assert_eq!(
            ServiceConfig::builder().workers(MAX_JOBS + 1).build(),
            Err(ConfigError::JobsOverCap { jobs: MAX_JOBS + 1, cap: MAX_JOBS })
        );
        assert_eq!(
            ServiceConfig::builder().default_deadline(Some(Duration::ZERO)).build(),
            Err(ConfigError::ZeroDeadline)
        );
    }
}
