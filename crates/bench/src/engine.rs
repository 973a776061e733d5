//! Throughput scaling of the batch engine: the F2 companion experiment.
//!
//! The driver replicates the channel suite into a fixed-size batch of
//! grid problems, routes it through
//! [`mighty::engine::RouteEngine`] at increasing thread
//! counts, and reports instances/second per count. Checksums of every
//! result are compared against the single-thread run, so the scaling
//! table doubles as a determinism check.

use std::time::Instant;

use mighty::engine::{EngineConfig, RouteEngine};
use mighty::{MightyRouter, RetryPolicy, RouterConfig, SupervisedOutcome, Supervisor};
use route_benchdata::suite::channel_suite;
use route_model::{Problem, RouteError};
use route_proto::Json;

/// Tracks of slack above density each suite channel gets, so the batch
/// measures routing throughput rather than infeasibility handling.
const TRACK_SLACK: usize = 3;

/// The channel suite replicated (cyclically) into a `count`-instance
/// batch of grid problems. Deterministic.
pub fn replicated_channel_batch(count: usize) -> Vec<Problem> {
    let suite = channel_suite();
    (0..count)
        .map(|i| {
            let (_, spec) = &suite[i % suite.len()];
            spec.to_problem(spec.density() as usize + TRACK_SLACK)
        })
        .collect()
}

/// One measured point of the engine scaling sweep.
#[derive(Debug, Clone, Copy)]
pub struct EnginePoint {
    /// Worker threads used.
    pub jobs: usize,
    /// Wall-clock time for the whole batch, in milliseconds.
    pub batch_ms: u64,
    /// Instances routed per second of wall-clock time.
    pub throughput: f64,
    /// Speedup over the single-thread point.
    pub speedup: f64,
    /// Instances with every net connected.
    pub complete: usize,
}

/// Routes `problems` at each thread count in `thread_counts` and
/// reports one [`EnginePoint`] per count.
///
/// # Panics
///
/// Panics if any run disagrees with the single-thread run's per-instance
/// checksums — the engine's determinism contract is load-bearing for
/// every table built on it.
pub fn scaling_sweep(problems: &[Problem], thread_counts: &[usize]) -> Vec<EnginePoint> {
    let router = MightyRouter::new(RouterConfig::default());
    let supervisor = Supervisor::with_primary(&router, RetryPolicy::default());
    let mut points = Vec::new();
    let mut reference: Option<Vec<u64>> = None;
    let mut base_ms = 0u64;
    for &jobs in thread_counts {
        let engine = RouteEngine::new(EngineConfig { jobs, ..EngineConfig::default() });
        let started = Instant::now();
        let out = engine.route_batch(&supervisor, problems, None);
        let batch_ms = started.elapsed().as_millis() as u64;
        let checksums: Vec<u64> = out
            .outcomes
            .into_iter()
            .map(|o| match o.and_then(SupervisedOutcome::into_result) {
                Some(Ok(routing)) => routing.db.checksum(),
                Some(Err(RouteError::Panicked { message })) => {
                    panic!("engine instance panicked: {message}")
                }
                Some(Err(e)) => panic!("engine instance errored: {e}"),
                None => panic!("an unjournaled batch routes every instance"),
            })
            .collect();
        match &reference {
            None => {
                reference = Some(checksums);
                base_ms = batch_ms.max(1);
            }
            Some(expected) => {
                assert_eq!(expected, &checksums, "{jobs}-thread run diverged");
            }
        }
        points.push(EnginePoint {
            jobs,
            batch_ms,
            throughput: problems.len() as f64 / (batch_ms.max(1) as f64 / 1000.0),
            speedup: base_ms as f64 / batch_ms.max(1) as f64,
            complete: out.stats.complete,
        });
    }
    points
}

/// Serializes a sweep as the `BENCH_engine.json` artifact: batch shape,
/// hardware parallelism (the ceiling on any measured speedup) and one
/// record per thread count.
pub fn sweep_json(suite: &str, instances: usize, points: &[EnginePoint]) -> Json {
    let hardware = crate::provenance::hardware_threads();
    Json::obj([
        ("experiment", Json::str("engine-throughput-scaling")),
        ("suite", Json::str(suite)),
        ("instances", Json::from(instances)),
        ("hardware_threads", Json::from(hardware)),
        (
            "points",
            Json::arr(points.iter().map(|p| {
                Json::obj([
                    ("jobs", Json::from(p.jobs)),
                    ("batch_ms", Json::from(p.batch_ms)),
                    ("throughput_per_sec", Json::from(p.throughput)),
                    ("speedup", Json::from(p.speedup)),
                    ("complete", Json::from(p.complete)),
                ])
            })),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replicated_batch_cycles_the_suite() {
        let batch = replicated_channel_batch(12);
        assert_eq!(batch.len(), 12);
        let suite_len = channel_suite().len();
        // Instance i and i + suite_len are the same channel.
        assert_eq!(batch[0].nets().len(), batch[suite_len].nets().len());
        assert_eq!(batch[0].width(), batch[suite_len].width());
    }

    #[test]
    fn sweep_measures_and_stays_deterministic() {
        let batch = replicated_channel_batch(4);
        let points = scaling_sweep(&batch, &[1, 2]);
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].jobs, 1);
        assert!((points[0].speedup - 1.0).abs() < 1e-9);
        assert!(points.iter().all(|p| p.complete == 4));
        let doc = sweep_json("channels", 4, &points).render();
        assert!(doc.contains("\"jobs\": 2"), "{doc}");
        assert!(doc.contains("hardware_threads"), "{doc}");
    }
}
