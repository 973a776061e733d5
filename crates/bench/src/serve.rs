//! Sustained-throughput and tail-latency measurement of the routing
//! service: the S1 experiment behind `BENCH_serve.json`.
//!
//! The driver submits a fixed request set straight into
//! [`mighty::RouteService`] — the same warm-worker pool `vroute serve`
//! puts behind a socket — at increasing worker counts, and reports
//! requests/second plus exact p50/p99 request latency per count.
//! Checksums of every run are compared against direct cold routing, so
//! the throughput table doubles as a serve-vs-batch parity check.

use std::sync::mpsc;
use std::time::Instant;

use mighty::{JobSpec, MightyRouter, RouteService, RouterConfig, ServiceConfig, ServiceReply};
use route_model::Problem;
use route_proto::{versioned_doc, Json};

/// One measured point of the service scaling sweep.
#[derive(Debug, Clone, Copy)]
pub struct ServePoint {
    /// Warm worker threads serving the queue.
    pub workers: usize,
    /// Wall-clock time from first submit to last reply, in ms.
    pub wall_ms: u64,
    /// Requests completed per second of wall-clock time.
    pub requests_per_sec: f64,
    /// Exact median of per-request latency (admission to reply), ms.
    pub p50_ms: u64,
    /// Exact 99th percentile of per-request latency, ms.
    pub p99_ms: u64,
    /// Slowest single request, ms.
    pub max_ms: u64,
    /// Mean time requests spent waiting in the admission queue, ms.
    pub mean_queued_ms: f64,
    /// Requests whose routing connected every net.
    pub complete: usize,
}

/// The exact `q`-quantile of `sorted` by the nearest-rank method.
fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Runs `problems` through a fresh service at each worker count and
/// reports one [`ServePoint`] per count.
///
/// # Panics
///
/// Panics if any request errors, or if any run's per-request checksums
/// disagree with routing the same problems directly — warm service
/// results must be byte-identical to cold ones.
pub fn serve_sweep(problems: &[Problem], worker_counts: &[usize]) -> Vec<ServePoint> {
    let router = MightyRouter::new(RouterConfig::default());
    let reference: Vec<u64> =
        problems.iter().map(|p| router.route(p).into_db().checksum()).collect();

    let mut points = Vec::new();
    for &workers in worker_counts {
        let config = ServiceConfig::builder()
            .workers(workers)
            .queue_capacity(problems.len().max(1))
            .build()
            .expect("valid service config");
        let service = RouteService::start(config).expect("service starts");

        let (tx, rx) = mpsc::channel();
        let started = Instant::now();
        for (i, problem) in problems.iter().enumerate() {
            service.submit(JobSpec::new(i as u64, problem.clone()), tx.clone()).expect("admitted");
        }
        drop(tx);

        let mut latencies = vec![0u64; problems.len()];
        let mut queued_total = 0u64;
        let mut complete = 0usize;
        let mut checksums = vec![0u64; problems.len()];
        for _ in 0..problems.len() {
            match rx.recv().expect("every job replies") {
                ServiceReply::Event { .. } => unreachable!("no events were requested"),
                ServiceReply::Done(done) => {
                    let tag = done.tag as usize;
                    latencies[tag] = done.total_ms;
                    queued_total += done.queued_ms;
                    let routing = done.result.expect("request routes");
                    complete += usize::from(routing.is_complete());
                    checksums[tag] = routing.db.checksum();
                }
            }
        }
        let wall_ms = started.elapsed().as_millis() as u64;
        service.shutdown();
        assert_eq!(reference, checksums, "{workers}-worker service run diverged from cold routing");

        latencies.sort_unstable();
        points.push(ServePoint {
            workers,
            wall_ms,
            requests_per_sec: problems.len() as f64 / (wall_ms.max(1) as f64 / 1000.0),
            p50_ms: quantile(&latencies, 0.50),
            p99_ms: quantile(&latencies, 0.99),
            max_ms: latencies.last().copied().unwrap_or(0),
            mean_queued_ms: queued_total as f64 / problems.len().max(1) as f64,
            complete,
        });
    }
    points
}

/// Serializes a sweep as the `BENCH_serve.json` artifact: a versioned
/// document with request-set shape, hardware parallelism and one
/// record per worker count.
pub fn serve_sweep_json(suite: &str, requests: usize, points: &[ServePoint]) -> Json {
    let hardware = crate::provenance::hardware_threads();
    let pairs = [
        ("experiment", Json::str("serve-throughput-latency")),
        ("suite", Json::str(suite)),
        ("requests", Json::from(requests)),
        ("hardware_threads", Json::from(hardware)),
        (
            "points",
            Json::arr(points.iter().map(|p| {
                Json::obj([
                    ("workers", Json::from(p.workers)),
                    ("wall_ms", Json::from(p.wall_ms)),
                    ("requests_per_sec", Json::from(p.requests_per_sec)),
                    ("p50_ms", Json::from(p.p50_ms)),
                    ("p99_ms", Json::from(p.p99_ms)),
                    ("max_ms", Json::from(p.max_ms)),
                    ("mean_queued_ms", Json::from(p.mean_queued_ms)),
                    ("complete", Json::from(p.complete)),
                ])
            })),
        ),
    ];
    versioned_doc("bench-serve", pairs.into_iter().map(|(k, v)| (k.to_string(), v)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::replicated_channel_batch;

    #[test]
    fn quantiles_use_nearest_rank() {
        let sorted = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10];
        assert_eq!(quantile(&sorted, 0.50), 5);
        assert_eq!(quantile(&sorted, 0.99), 10);
        assert_eq!(quantile(&sorted, 0.0), 1);
        assert_eq!(quantile(&[], 0.5), 0);
    }

    #[test]
    fn sweep_routes_everything_and_checks_parity() {
        let problems = replicated_channel_batch(6);
        let points = serve_sweep(&problems, &[1, 2]);
        assert_eq!(points.len(), 2);
        for p in &points {
            assert_eq!(p.complete, 6, "suite instances must route completely");
            assert!(p.p50_ms <= p.p99_ms && p.p99_ms <= p.max_ms);
            assert!(p.requests_per_sec > 0.0);
        }
    }

    #[test]
    fn sweep_json_is_versioned() {
        let doc = serve_sweep_json("channels", 0, &[]);
        let text = doc.render_compact();
        assert!(text.starts_with("{\"v\":1,\"command\":\"bench-serve\""), "{text}");
    }
}
