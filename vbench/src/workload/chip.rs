//! `chip`: the hierarchical chip flow.
//!
//! A pass routes 100 chips of 192×192 cells, 844 nets and 4 macros,
//! drawn from the seed, each with tile 32 (36 tiles) and 2 jobs through
//! `route_hierarchical`: plan, tile batch, seam ladder, prune. This is
//! not C1 (512×512, 10,560 nets): there one whole-die rung-3 reroute
//! takes most of each chip's time and swings it from 4.2 s to 22.7 s
//! across seeds 1–11, so a run of seconds could not even route one chip
//! per seed twice. At this size and density the seam ladder still climbs
//! its rungs (about seven seams repaired per chip, three of them
//! escalated), and a pass of 100 chips takes about six seconds, so a
//! run repeats it several times.
//!
//! The configuration crash-safe users run — `route_hierarchical_supervised`
//! with `ChipSupervision::default()` (one retry, Lee fallback, salvage)
//! and a `ChipJournal` — is priced in the traced run, chip by chip:
//! supervised without a journal, then with one in a fresh directory.
//! It is no end-to-end workload of its own: its fsync'd journal writes
//! wait on the host's shared disk, whose latency the host calibration
//! does not follow: on the two-thread host the bounds were set on, its
//! `tail_ms` spread by 21% of its median over ten seeds, against a
//! bound of 25%.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

use mighty::{ChipJournal, MightyRouter};
use route_global::{
    plan_with, route_hierarchical, route_hierarchical_observed, route_hierarchical_supervised,
    ChipSupervision, GlobalConfig, GlobalOutcome, PlanOrder, TileGrid,
};
use route_model::{Problem, RouteDb};

use super::{check, overhead, secs, ChipPool, Measurement, RunConfig, Shape};
use crate::observe::{RouterLayers, TimingObserver};
use crate::trace::Tracer;

/// Tile side of the flow, as in C1.
const TILE: u32 = 32;
/// Tile-batch workers: a run keeps at most two threads busy.
const JOBS: usize = 2;
/// Chips in a pass.
pub const CHIPS: usize = 100;
/// How the chips become metrics; with 100 chips, the 90th percentile is
/// the highest with ten beyond it.
pub const SHAPE: Shape = Shape { batch: 10, concurrency: 1.0, tail: 0.90 };

/// The pool of chips for `seed`.
pub fn pool(seed: u64, quick: bool) -> ChipPool {
    if quick {
        ChipPool { seed, count: 1, size: 128, nets: 375, macros: 2 }
    } else {
        ChipPool { seed, count: CHIPS, size: 192, nets: 844, macros: 4 }
    }
}

fn config() -> GlobalConfig {
    GlobalConfig { tile: TILE, jobs: JOBS, ..GlobalConfig::default() }
}

/// The tiles-only configuration: no seam repair, no fallback.
fn tiles_only() -> GlobalConfig {
    GlobalConfig { stitch: false, fallback: false, ..config() }
}

/// Scratch space for journals, inside the working directory.
fn scratch_dir() -> PathBuf {
    Path::new(".vbench_tmp").join(std::process::id().to_string())
}

/// One journaled, supervised route of `problem` in a fresh journal
/// directory; returns the outcome and the journal's size in bytes.
fn journaled(problem: &Problem, dir: &Path) -> Result<(GlobalOutcome, u64), String> {
    let _ = fs::remove_dir_all(dir);
    let journal = ChipJournal::create(dir).map_err(|e| format!("journal: {e}"))?;
    let out = route_hierarchical_supervised(
        problem,
        &config(),
        &ChipSupervision::default(),
        Some(&journal),
    );
    if let Some(e) = out.journal_error() {
        return Err(format!("journal: {e}"));
    }
    let bytes = fs::metadata(journal.path()).map_err(|e| format!("journal: {e}"))?.len();
    Ok((out, bytes))
}

/// Per-layer totals of the traced chips.
#[derive(Default)]
struct Split {
    /// Summed seconds and counts, by metric name.
    sums: BTreeMap<&'static str, f64>,
    router: RouterLayers,
    /// Chips decomposed.
    chips: usize,
    /// Wall time of the traced flows, and of the same flows untraced.
    traced_s: f64,
    plain_s: f64,
}

impl Split {
    fn add(&mut self, name: &'static str, value: f64) {
        *self.sums.entry(name).or_default() += value;
    }

    /// Adds one chip's flow counters, and the supervisor's from the
    /// supervised flow of the same chip.
    fn counters(&mut self, plain: &GlobalOutcome, supervised: &GlobalOutcome) {
        let chip = plain.chip_stats();
        let stats = plain.stats();
        let sup = supervised.chip_stats();
        for (name, value) in [
            ("chip.tile_failures", stats.tile_failures),
            ("chip.seams_repaired", chip.seams_repaired),
            ("chip.seam_escalations", chip.seam_escalations),
            ("chip.seam_completed", chip.seam_completed),
            ("chip.fallback_completed", stats.fallback_completed),
            ("chip.pruned_steps", chip.pruned_steps),
            ("sup.tiles_retried", sup.tiles_retried),
            ("sup.tiles_salvaged", sup.tiles_salvaged),
            ("sup.tiles_fell_back", sup.tiles_fell_back),
        ] {
            self.add(name, value as f64);
        }
    }
}

/// Runs the workload.
pub fn run(cfg: &RunConfig) -> Measurement {
    let chips = pool(cfg.seed, cfg.quick);
    let mut m = Measurement::new(chips.count, chips.count, SHAPE);
    let scratch = scratch_dir();
    let dir = scratch.join("journal");
    let mut tracer = Tracer::new(Instant::now());
    let mut split = Split::default();
    cfg.passes(
        &mut m,
        chips.count,
        |m| chips.generate(m),
        |m, pool, i| {
            let (label, problem) = &pool[i];
            let start = Instant::now();
            let out = route_hierarchical(problem, &config());
            let wall_s = secs(start);
            let checked = check(problem, out.db(), out.failed());
            if m.routed(i, label, checked, wall_s).is_none() || !cfg.trace {
                return;
            }
            let round = tracer.open("chip.round", None);
            let decomposed = traced(problem, &out, wall_s, &dir, &mut split, &mut tracer, round);
            if let Err(e) = decomposed {
                m.fail(format!("{label}: {e}"));
            }
            tracer.close(round);
        },
    );
    if cfg.trace {
        let _ = fs::remove_dir_all(&scratch);
        let _ = scratch.parent().map(fs::remove_dir);
        m.router_layers(&split.router, split.chips);
        for (name, sum) in &split.sums {
            m.layer(name, sum / split.chips.max(1) as f64);
        }
        m.layer("trace.overhead_frac", overhead(split.traced_s, split.plain_s));
        m.tracer = Some(tracer);
    }
    m
}

/// The traced decomposition of one chip whose untraced flow took
/// `wall_s`: plan alone, the tiles-only flow, the traced flow (to pair
/// against `wall_s`), the supervised flow without and with a journal,
/// and the flat repair from the tiles-only database.
fn traced(
    problem: &Problem,
    plain: &GlobalOutcome,
    wall_s: f64,
    dir: &Path,
    split: &mut Split,
    tracer: &mut Tracer,
    round: usize,
) -> Result<(), String> {
    let span = tracer.open("chip.plan", Some(round));
    let tiles = TileGrid::new(problem, TILE);
    let plan = plan_with(problem, &tiles, PlanOrder::Bbox, &BTreeSet::new());
    let plan_s = tracer.close(span);
    tracer.field(span, "crossings", plan.crossings as f64);

    let span = tracer.open("chip.tiles_only", Some(round));
    let tiles_out = route_hierarchical(problem, &tiles_only());
    let tiles_s = tracer.close(span);

    let span = tracer.open("chip.traced_flow", Some(round));
    let mut obs = TimingObserver::start();
    let traced = route_hierarchical_observed(problem, &config(), &mut obs);
    obs.finish();
    split.traced_s += tracer.close(span);
    split.plain_s += wall_s;
    split.chips += 1;
    if traced.db().checksum() != plain.db().checksum() {
        return Err("the traced flow differs from the untraced one".into());
    }
    split.add("chip.plan_s", plan_s);
    split.add("chip.tiles_s", tiles_s - plan_s);
    split.add("chip.seam_s", wall_s - tiles_s);

    let span = tracer.open("chip.supervised", Some(round));
    let supervised =
        route_hierarchical_supervised(problem, &config(), &ChipSupervision::default(), None);
    let supervised_s = tracer.close(span);
    check(problem, supervised.db(), supervised.failed())?;
    let span = tracer.open("chip.journaled", Some(round));
    let (logged, bytes) = journaled(problem, dir)?;
    let journaled_s = tracer.close(span);
    if logged.db().checksum() != supervised.db().checksum() {
        return Err("the journaled flow differs from the supervised one".into());
    }
    split.add("journal.write_s", journaled_s - supervised_s);
    split.add("journal.bytes", bytes as f64);
    split.counters(plain, &supervised);

    let span = tracer.open("chip.flat_repair", Some(round));
    let db: RouteDb = tiles_out.into_db();
    let mut obs = TimingObserver::start();
    let repaired = MightyRouter::new(config().router)
        .try_route_incremental_observed(problem, db, &mut obs)
        .map_err(|e| format!("flat repair: {e}"))?;
    let layers = obs.finish();
    split.add("chip.flat_repair_s", tracer.close(span));
    tracer.router(span, &layers);
    split.router.add(&layers);
    check(problem, repaired.db(), repaired.failed()).map(|_| ())
}
