//! M1 hot-path sweep: routed-nets/second of the maze-search inner loop
//! under each frontier.
//!
//! Two modes, both over the packed occupancy bit plane:
//!
//! * `heap-bits` — the binary-heap reference frontier.
//! * `buckets-bits` — the bucket-queue frontier: the default.
//!
//! Every mode must produce **bit-identical** databases and spend the
//! same search effort — the sweep panics on any divergence in checksum
//! or in [`Effort`] counters, so the throughput table doubles as the
//! frontier-equivalence check. Both the sequential Lee baseline
//! (`sequential::route_all`) and the rip-up router (`route_warm`) are measured;
//! the speed gate compares the rip-up router's `buckets-bits` and
//! `heap-bits` rows. The end-to-end baseline is the recorded pre-PR
//! binary ([`PRE_PR`]).

use std::time::Instant;

use mighty::MightyRouter;
use route_maze::{sequential, CostModel, FrontierKind, SearchArena};
use route_model::{NopObserver, Problem};
use route_proto::Json;

use crate::engine::replicated_channel_batch;

/// One frontier configuration of the sweep.
#[derive(Debug, Clone, Copy)]
pub struct HotpathMode {
    /// Stable row label (`heap-bits`, `buckets-bits`).
    pub name: &'static str,
    /// Open-list implementation.
    pub frontier: FrontierKind,
}

/// The two modes, the heap reference first.
pub const MODES: [HotpathMode; 2] = [
    HotpathMode { name: "heap-bits", frontier: FrontierKind::Heap },
    HotpathMode { name: "buckets-bits", frontier: FrontierKind::Buckets },
];

/// One measured row of the sweep.
#[derive(Debug, Clone)]
pub struct HotpathPoint {
    /// Router measured (`lee` or `mighty`).
    pub router: &'static str,
    /// Mode label.
    pub mode: &'static str,
    /// Wall-clock milliseconds for all repetitions of the batch.
    pub millis: f64,
    /// Successfully routed nets per second of wall-clock time.
    pub nets_per_sec: f64,
    /// Nets routed per repetition of the batch.
    pub nets_routed: usize,
    /// Instances fully completed per repetition.
    pub complete: usize,
    /// XOR of all per-instance database checksums (mode-invariant).
    pub checksum: u64,
    /// Search effort per repetition of the batch (mode-invariant).
    pub effort: Effort,
}

/// A router's effort counters over one repetition of the batch. The
/// frontiers pop the same sequence, so every mode must report the same
/// counters; the Lee baseline never searches softly or rips, so only
/// its `expanded` is non-zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Effort {
    /// Search nodes settled, found and failed searches alike.
    pub expanded: u64,
    /// Connections that needed an interference (soft) path.
    pub soft_routes: u64,
    /// Strong modifications: victim traces ripped and re-enqueued.
    pub rips: u64,
}

/// What one repetition of the batch produced: routed nets, complete
/// instances, the XOR of checksums and the effort spent.
type Tally = (usize, usize, u64, Effort);

/// The standard measurement batch: the channel suite replicated to
/// `instances` grid problems.
pub fn hotpath_batch(instances: usize) -> Vec<Problem> {
    replicated_channel_batch(instances)
}

fn run_lee(problems: &[Problem], mode: HotpathMode, reps: usize) -> HotpathPoint {
    let mut arena = SearchArena::with_frontier(mode.frontier);
    // Untimed warm-up pass: grows the arena to the largest grid.
    let _ = measure_lee(problems, &mut arena);
    let start = Instant::now();
    let mut tally = Tally::default();
    for _ in 0..reps {
        tally = measure_lee(problems, &mut arena);
    }
    point("lee", mode, start.elapsed().as_secs_f64(), reps, tally)
}

fn measure_lee(problems: &[Problem], arena: &mut SearchArena) -> Tally {
    let (mut nets, mut complete, mut checksum, mut effort) = Tally::default();
    for p in problems {
        let out = sequential::route_all(arena, p, CostModel::default(), &mut NopObserver);
        nets += p.nets().len() - out.failed.len();
        complete += usize::from(out.is_complete());
        checksum ^= out.db.checksum();
        effort.expanded += out.stats.expanded as u64;
    }
    (nets, complete, checksum, effort)
}

fn run_mighty(problems: &[Problem], mode: HotpathMode, reps: usize) -> HotpathPoint {
    let router = MightyRouter::default();
    let mut arena = SearchArena::with_frontier(mode.frontier);
    let _ = measure_mighty(&router, problems, &mut arena);
    let start = Instant::now();
    let mut tally = Tally::default();
    for _ in 0..reps {
        tally = measure_mighty(&router, problems, &mut arena);
    }
    point("mighty", mode, start.elapsed().as_secs_f64(), reps, tally)
}

fn measure_mighty(router: &MightyRouter, problems: &[Problem], arena: &mut SearchArena) -> Tally {
    let (mut nets, mut complete, mut checksum, mut effort) = Tally::default();
    for p in problems {
        let out = router.route_warm(p, arena);
        nets += p.nets().len() - out.failed().len();
        complete += usize::from(out.is_complete());
        checksum ^= out.db().checksum();
        let stats = out.stats();
        effort.expanded += stats.expanded;
        effort.soft_routes += stats.soft_routes;
        effort.rips += stats.rips;
    }
    (nets, complete, checksum, effort)
}

fn point(
    router: &'static str,
    mode: HotpathMode,
    seconds: f64,
    reps: usize,
    (nets, complete, checksum, effort): Tally,
) -> HotpathPoint {
    HotpathPoint {
        router,
        mode: mode.name,
        millis: seconds * 1e3,
        nets_per_sec: (nets * reps) as f64 / seconds.max(1e-9),
        nets_routed: nets,
        complete,
        checksum,
        effort,
    }
}

/// Measures every mode for both routers over `reps` repetitions of the
/// batch.
///
/// # Panics
///
/// Panics when any mode's per-batch checksum or [`Effort`] counters
/// diverge from the heap mode of the same router: the frontiers are
/// defined to pop the same sequence, so a divergence is a correctness
/// bug, not a measurement artifact.
pub fn hotpath_sweep(problems: &[Problem], reps: usize) -> Vec<HotpathPoint> {
    let mut points = Vec::new();
    for (label, run) in [
        ("lee", run_lee as fn(&[Problem], HotpathMode, usize) -> HotpathPoint),
        ("mighty", run_mighty),
    ] {
        let rows: Vec<HotpathPoint> = MODES.iter().map(|&m| run(problems, m, reps)).collect();
        for row in &rows[1..] {
            assert_eq!(
                row.checksum, rows[0].checksum,
                "{label} mode {} diverged from {}: the modes must be bit-identical",
                row.mode, rows[0].mode,
            );
            assert_eq!(
                row.effort, rows[0].effort,
                "{label} mode {} spent other effort than {}: the modes must search alike",
                row.mode, rows[0].mode,
            );
        }
        points.extend(rows);
    }
    points
}

/// Throughput of the true pre-redesign binary, measured once from the
/// PR-7 base commit with a timing loop identical to this sweep's.
///
/// These rows are the end-to-end reference: the shipped pre-PR binary
/// on the identical 64-instance channel batch.
/// Rates are hardware-bound (measured on the benchmarking box that
/// produced every `BENCH_*.json` in this repository); the checksums are
/// not — any full run can verify it still produces the pre-PR databases
/// bit-for-bit.
#[derive(Debug, Clone, Copy)]
pub struct PrePrBaseline {
    /// Router measured (`lee` or `mighty`).
    pub router: &'static str,
    /// Routed nets per second of the pre-PR binary, full mode.
    pub nets_per_sec: f64,
    /// XOR of per-instance `RouteDb::checksum()` over the full batch.
    pub checksum: u64,
}

/// Base commit the pre-PR rows were measured from.
pub const PRE_PR_COMMIT: &str = "3ec27b6";
/// Batch size the pre-PR rows (and their checksums) correspond to.
pub const PRE_PR_INSTANCES: usize = 64;
/// The measured pre-PR rows (`exp_m1_baseline` in a worktree at
/// [`PRE_PR_COMMIT`]; 64 instances x 5 reps, untimed warm-up pass).
pub const PRE_PR: [PrePrBaseline; 2] = [
    PrePrBaseline { router: "lee", nets_per_sec: 7617.0, checksum: 0x612bfddb6720dccd },
    PrePrBaseline { router: "mighty", nets_per_sec: 1499.0, checksum: 0x5885ea8bf97260bd },
];

/// Commit the `--quick` batch's checksums were pinned at.
pub const QUICK_PIN_COMMIT: &str = "a2c90d7";
/// Batch size of the `--quick` smoke run, the one `scripts/ci.sh --quick`
/// gates.
pub const QUICK_INSTANCES: usize = 12;
/// XOR of per-instance `RouteDb::checksum()` over the `--quick` batch,
/// per router, as [`QUICK_PIN_COMMIT`] routed it.
pub const QUICK_CHECKSUMS: [(&str, u64); 2] =
    [("lee", 0x893e44053dee8fc8), ("mighty", 0xb097d41bd72dea08)];

/// The pinned checksum of `router` over a batch of `instances`: the
/// pre-PR binary's for the full batch, [`QUICK_CHECKSUMS`] for the quick
/// one, `None` for any other size.
pub fn pinned_checksum(instances: usize, router: &str) -> Option<u64> {
    match instances {
        PRE_PR_INSTANCES => PRE_PR.iter().find(|b| b.router == router).map(|b| b.checksum),
        QUICK_INSTANCES => QUICK_CHECKSUMS.iter().find(|(r, _)| *r == router).map(|&(_, c)| c),
        _ => None,
    }
}

/// Whether `router`'s default `buckets-bits` row reproduces its pinned
/// checksum ([`pinned_checksum`]); `None` when the batch size has no pin.
pub fn checksum_matches(points: &[HotpathPoint], instances: usize, router: &str) -> Option<bool> {
    let pin = pinned_checksum(instances, router)?;
    let now = points.iter().find(|p| p.router == router && p.mode == "buckets-bits")?;
    Some(now.checksum == pin)
}

/// Speedup of a router's default `buckets-bits` mode over the recorded
/// pre-PR binary; it compares like with like only on the full
/// [`PRE_PR_INSTANCES`] batch, so `None` otherwise.
pub fn pre_pr_speedup(points: &[HotpathPoint], instances: usize, router: &str) -> Option<f64> {
    if instances != PRE_PR_INSTANCES {
        return None;
    }
    let base = PRE_PR.iter().find(|b| b.router == router)?;
    let now = points.iter().find(|p| p.router == router && p.mode == "buckets-bits")?;
    Some(now.nets_per_sec / base.nets_per_sec)
}

/// The measured speedup of the rip-up router's default mode over the
/// heap reference (`buckets-bits` vs `heap-bits` nets/sec) — the ratio
/// `exp_m1_hotpath --gate` requires to be at least 1.
pub fn mighty_speedup(points: &[HotpathPoint]) -> f64 {
    let rate = |mode: &str| {
        points
            .iter()
            .find(|p| p.router == "mighty" && p.mode == mode)
            .map(|p| p.nets_per_sec)
            .unwrap_or(0.0)
    };
    let base = rate("heap-bits");
    if base > 0.0 {
        rate("buckets-bits") / base
    } else {
        0.0
    }
}

/// Serializes the sweep as the `BENCH_maze.json` artifact, with the
/// hardware thread count and the commit it was measured at.
pub fn hotpath_json(instances: usize, reps: usize, points: &[HotpathPoint]) -> Json {
    Json::obj([
        ("experiment", Json::str("maze-hotpath-throughput")),
        ("suite", Json::str("channels")),
        ("instances", Json::from(instances)),
        ("reps", Json::from(reps)),
        ("hardware_threads", Json::from(crate::provenance::hardware_threads())),
        ("commit", Json::str(crate::provenance::commit())),
        ("mighty_speedup", Json::from(mighty_speedup(points))),
        (
            "pre_pr_baseline",
            Json::obj([
                ("commit", Json::str(PRE_PR_COMMIT)),
                ("instances", Json::from(PRE_PR_INSTANCES)),
                (
                    "rows",
                    Json::arr(PRE_PR.iter().map(|b| {
                        let speedup = pre_pr_speedup(points, instances, b.router);
                        let matches = (instances == PRE_PR_INSTANCES)
                            .then(|| checksum_matches(points, instances, b.router))
                            .flatten();
                        Json::obj([
                            ("router", Json::str(b.router)),
                            ("nets_per_sec", Json::from(b.nets_per_sec)),
                            ("checksum", Json::str(format!("{:016x}", b.checksum))),
                            ("speedup", speedup.map_or(Json::Null, Json::from)),
                            ("checksum_match", matches.map_or(Json::Null, Json::from)),
                        ])
                    })),
                ),
            ]),
        ),
        (
            "points",
            Json::arr(points.iter().map(|p| {
                Json::obj([
                    ("router", Json::str(p.router)),
                    ("mode", Json::str(p.mode)),
                    ("millis", Json::from(p.millis)),
                    ("nets_per_sec", Json::from(p.nets_per_sec)),
                    ("nets_routed", Json::from(p.nets_routed)),
                    ("complete", Json::from(p.complete)),
                    ("checksum", Json::str(format!("{:016x}", p.checksum))),
                    ("expanded", Json::from(p.effort.expanded)),
                    ("soft_routes", Json::from(p.effort.soft_routes)),
                    ("rips", Json::from(p.effort.rips)),
                ])
            })),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modes_cover_both_frontiers() {
        assert_eq!(MODES[0].frontier, FrontierKind::Heap);
        assert_eq!(MODES[1].frontier, FrontierKind::Buckets);
    }

    #[test]
    fn sweep_is_checksum_coherent_on_a_small_batch() {
        let problems = hotpath_batch(2);
        let points = hotpath_sweep(&problems, 1);
        assert_eq!(points.len(), 2 * MODES.len());
        assert!(points.iter().all(|p| p.nets_routed > 0 && p.effort.expanded > 0));
        assert!(points.iter().any(|p| p.router == "mighty" && p.effort.soft_routes > 0));
        assert!(mighty_speedup(&points) > 0.0);
        assert_eq!(checksum_matches(&points, 2, "mighty"), None, "no pin for two instances");
    }

    #[test]
    fn every_router_has_a_pin_at_both_gated_sizes() {
        for router in ["lee", "mighty"] {
            assert!(pinned_checksum(PRE_PR_INSTANCES, router).is_some());
            assert!(pinned_checksum(QUICK_INSTANCES, router).is_some());
        }
        assert_eq!(pinned_checksum(7, "lee"), None);
    }
}
