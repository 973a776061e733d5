//! The four workloads and what they share: run configuration, the pass
//! loop, the measurement every workload fills, and output checking.
//!
//! | workload | input | stresses |
//! |---|---|---|
//! | `maze` | channel-suite instances on one warm `SearchArena` | hard/soft search, weak and strong modification |
//! | `flat` | 96×96 `ChipGen` chips routed flat | the best-state snapshot clone |
//! | `chip` | 192×192 `ChipGen` chips, tile 32, 2 jobs | plan, tile batch, seam ladder |
//! | `serve` | closed loop of 2 callers over the v1 wire path | decode, queue, warm workers, encode |
//!
//! Every workload routes a fixed set of inputs drawn from the seed, in
//! passes: a pass sets the inputs up afresh (generation, warm-up,
//! service start) and routes each of them once, and passes repeat until
//! the measurement time is spent. Before every set-up and every input
//! the pass times the reference kernel of [`crate::calib`], and reads
//! the time that follows at the reference speed, so times do not depend
//! on the shared host's load. An input's time is its median over the
//! passes, and the run's set-up time the median set-up: medians, not the
//! fastest, because how many passes fit in a run depends on the host's
//! speed, and the fastest of more samples reads faster.

use std::collections::BTreeMap;
use std::time::Instant;

use route_benchdata::gen::ChipGen;
use route_benchdata::rng::SplitMix64;
use route_model::{NetId, Problem, RouteDb};
use route_verify::verify;

use crate::calib::Calibration;
use crate::observe::RouterLayers;
use crate::trace::Tracer;

pub mod chip;
pub mod flat;
pub mod maze;
pub mod serve;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Channel-suite instances on one warm arena.
    Maze,
    /// Chips routed flat by one rip-up router.
    Flat,
    /// Chips routed by the hierarchical flow.
    Chip,
    /// Closed-loop requests through the routing service.
    Serve,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 4] =
        [Workload::Maze, Workload::Flat, Workload::Chip, Workload::Serve];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Maze => "maze",
            Workload::Flat => "flat",
            Workload::Chip => "chip",
            Workload::Serve => "serve",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Set-ups timed per pass. A maze pass takes about 20 seconds, so a run
/// makes one or two; three set-ups each give `setup_s` three to six
/// samples there.
pub const SETUPS: usize = 3;

/// How one run is driven.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// The workload to run.
    pub workload: Workload,
    /// Input seed: equal seeds generate equal inputs.
    pub seed: u64,
    /// Measurement length: passes start until it is spent.
    pub seconds: f64,
    /// Toy sizes and a single pass: the smoke-test mode.
    pub quick: bool,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

/// Runs the configured workload.
pub fn run(cfg: &RunConfig) -> Measurement {
    match cfg.workload {
        Workload::Maze => maze::run(cfg),
        Workload::Flat => flat::run(cfg),
        Workload::Chip => chip::run(cfg),
        Workload::Serve => serve::run(cfg),
    }
}

impl RunConfig {
    /// The pass loop: each pass calls `setup` [`SETUPS`] times, each
    /// timed into [`Measurement::setups_s`], and routes with the last
    /// state: `route(i)` for each of the `inputs` inputs. A kernel
    /// sample precedes every set-up and input. The first untraced pass
    /// always completes, so every input is timed; later passes, and a
    /// traced first pass after its first input, stop once the
    /// measurement time is spent. Quick runs make one whole pass.
    pub fn passes<S>(
        &self,
        m: &mut Measurement,
        inputs: usize,
        mut setup: impl FnMut(&mut Measurement) -> S,
        mut route: impl FnMut(&mut Measurement, &mut S, usize),
    ) {
        let start = Instant::now();
        let over = |pass: usize, i: usize| {
            if self.quick {
                return pass > 0;
            }
            (pass > 0 || (self.trace && i > 0)) && secs(start) >= self.seconds
        };
        let mut timed_setup = |m: &mut Measurement| {
            m.calibration.sample();
            let t = Instant::now();
            let state = setup(m);
            let setup_s = m.calibration.at_reference(secs(t));
            m.setups_s.push(setup_s);
            state
        };
        for pass in 0.. {
            if over(pass, 0) {
                return;
            }
            let mut state = timed_setup(m);
            for _ in 1..SETUPS {
                drop(state);
                state = timed_setup(m);
            }
            for i in 0..inputs {
                if over(pass, i) {
                    return;
                }
                m.calibration.sample();
                route(m, &mut state, i);
            }
        }
    }
}

/// The checked summary of one routed database.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Output {
    /// Nets of the problem.
    pub nets: u64,
    /// Nets the routing connected.
    pub routed: u64,
    /// Wire cells.
    pub wire: u64,
    /// Vias.
    pub vias: u64,
    /// `RouteDb::checksum`.
    pub checksum: u64,
}

impl Output {
    /// Adds `other`'s tallies into `self` (the checksum is left alone).
    pub fn add(&mut self, other: &Output) {
        self.nets += other.nets;
        self.routed += other.routed;
        self.wire += other.wire;
        self.vias += other.vias;
    }
}

/// Verifies a routed database: it must be legal (possibly incomplete),
/// and the claimed failed set must be exactly its disconnected nets.
///
/// # Errors
///
/// A description of the first problem found.
pub fn check(problem: &Problem, db: &RouteDb, failed: &[NetId]) -> Result<Output, String> {
    let report = verify(problem, db);
    if !(report.is_clean() || report.is_legal_but_incomplete()) {
        return Err(format!("illegal routing: {report}"));
    }
    if report.disconnected_nets() != failed.len() {
        return Err(format!(
            "dishonest failed set: {} claimed, {} disconnected",
            failed.len(),
            report.disconnected_nets()
        ));
    }
    let stats = db.stats();
    let nets = problem.nets().len() as u64;
    Ok(Output {
        nets,
        routed: nets - failed.len() as u64,
        wire: stats.wirelength,
        vias: stats.vias,
        checksum: db.checksum(),
    })
}

/// A seeded set of square `ChipGen` chips.
#[derive(Debug, Clone, Copy)]
pub struct ChipPool {
    /// Run seed.
    pub seed: u64,
    /// Chips in the pool.
    pub count: usize,
    /// Side of every chip, in cells.
    pub size: u32,
    /// Nets per chip.
    pub nets: u32,
    /// Macro obstacles per chip.
    pub macros: u32,
}

impl ChipPool {
    /// Chip `i`, with its label. It uses `ChipGen` seed
    /// `seed * count + i + 1`, so seed 0 starts at seed 1, the C1 seed,
    /// and different run seeds share no chip.
    pub fn chip(&self, i: usize) -> (String, Problem) {
        let chip_seed = self.seed.wrapping_mul(self.count as u64).wrapping_add(i as u64 + 1);
        let gen = ChipGen {
            width: self.size,
            height: self.size,
            nets: self.nets,
            macros: self.macros,
            ..ChipGen::small(chip_seed)
        };
        (format!("chip{}-s{chip_seed}", self.size), gen.build())
    }

    /// Every chip of the pool: the set-up of a pass. Records how long
    /// generating them took in [`Measurement::gen_s`].
    pub fn generate(&self, m: &mut Measurement) -> Vec<(String, Problem)> {
        let start = Instant::now();
        let chips = (0..self.count).map(|i| self.chip(i)).collect();
        m.gen_s.push(secs(start));
        chips
    }
}

/// The `index`-th sub-seed of `seed` for one generator family (`salt`).
pub fn sub_seed(seed: u64, salt: u64, index: u64) -> u64 {
    SplitMix64::new(SplitMix64::new(seed).next_u64() ^ (salt << 40) ^ index).next_u64()
}

/// How a workload turns its timed slots into end-to-end numbers.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Consecutive slots per batch: the rates are the median batch's.
    pub batch: usize,
    /// Requests in flight at once: 1 when a run routes one input after
    /// another, the caller count for the closed loop of `serve`.
    pub concurrency: f64,
    /// The latency percentile `tail_ms` reports.
    pub tail: f64,
}

/// Everything a run measured, before it becomes metrics.
#[derive(Debug)]
pub struct Measurement {
    /// How the timed slots become rates and latencies.
    pub shape: Shape,
    /// The reference kernel's samples through the run.
    pub calibration: Calibration,
    /// Each set-up's time at the reference speed, seconds.
    pub setups_s: Vec<f64>,
    /// Input-generation share of each set-up, seconds.
    pub gen_s: Vec<f64>,
    /// Each timed slot's times at the reference speed, one per pass
    /// that reached it, seconds. A slot is an input, or one request of
    /// the `serve` sequence.
    pub times_s: Vec<Vec<f64>>,
    /// Nets each timed slot connected.
    pub nets: Vec<u64>,
    /// The first checked output of each input: its reference.
    pub references: Vec<Option<Output>>,
    /// Quality tallies over the references: every input counts once,
    /// however often it was routed.
    pub quality: Output,
    /// Routing requests issued.
    pub attempted: u64,
    /// Why requests failed: illegal output, error, refusal, or a
    /// checksum that differs from the reference.
    pub failures: Vec<String>,
    /// Per-input reference checksums, labelled, in first-routing order.
    pub checksums: Vec<(String, u64)>,
    /// Per-layer values (traced runs); undeclared layers read 0.
    pub layers: BTreeMap<&'static str, f64>,
    /// Spans of a traced run.
    pub tracer: Option<Tracer>,
}

impl Measurement {
    /// An empty measurement over `inputs` distinct inputs and `slots`
    /// timed slots.
    pub fn new(inputs: usize, slots: usize, shape: Shape) -> Self {
        Measurement {
            shape,
            calibration: Calibration::default(),
            setups_s: Vec::new(),
            gen_s: Vec::new(),
            times_s: vec![Vec::new(); slots],
            nets: vec![0; slots],
            references: vec![None; inputs],
            quality: Output::default(),
            attempted: 0,
            failures: Vec::new(),
            checksums: Vec::new(),
            layers: BTreeMap::new(),
            tracer: None,
        }
    }

    /// Passes started.
    pub fn passes(&self) -> usize {
        self.setups_s.len() / SETUPS
    }

    /// Whether the run did something and every output was right.
    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.attempted > 0
    }

    /// Records a wrong output or a failed check.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failures.push(why.into());
    }

    /// Sets a per-layer value.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.insert(name, value);
    }

    /// Sets the `router.*` per-layer values from a split summed over
    /// `calls` routing calls (times and counts per call, ratios of
    /// totals).
    pub fn router_layers(&mut self, total: &RouterLayers, calls: usize) {
        let per = |v: f64| if calls > 0 { v / calls as f64 } else { 0.0 };
        for (name, value) in [
            ("router.hard_search_s", per(total.hard_search_s)),
            ("router.hard_searches", per(total.hard_searches as f64)),
            ("router.hard_found_frac", total.hard_found_frac()),
            ("router.expanded", per(total.expanded as f64)),
            ("router.soft_search_s", per(total.soft_search_s)),
            ("router.soft_searches", per(total.soft_searches as f64)),
            ("router.weak_s", per(total.weak_s)),
            ("router.weak_mods", per(total.weak_mods as f64)),
            ("router.strong_s", per(total.strong_s)),
            ("router.strong_ripups", per(total.strong_ripups as f64)),
            ("router.commit_s", per(total.commit_s)),
            ("router.commits", per(total.commits as f64)),
            ("router.snapshot_s", per(total.snapshot_s)),
            ("router.attributed_frac", total.attributed_frac()),
        ] {
            self.layer(name, value);
        }
    }

    /// Counts one answered request for input `i`: its first checked
    /// output becomes the input's reference (and counts toward quality),
    /// and every later one must reproduce the reference checksum.
    /// Returns whether the output was right.
    pub fn accept(&mut self, i: usize, label: &str, out: Output) -> bool {
        self.attempted += 1;
        let expected = *self.references[i].get_or_insert_with(|| {
            self.checksums.push((label.to_string(), out.checksum));
            self.quality.add(&out);
            out
        });
        if out.checksum != expected.checksum {
            self.fail(format!(
                "{label}: checksum {:016x} differs from the reference {:016x}",
                out.checksum, expected.checksum
            ));
            return false;
        }
        true
    }

    /// Counts one request that failed outright.
    pub fn reject(&mut self, label: &str, why: &str) {
        self.attempted += 1;
        self.fail(format!("{label}: {why}"));
    }

    /// Times slot `slot`: one pass answered it in `secs` of wall time
    /// since the latest kernel sample, connecting `nets` nets.
    pub fn time(&mut self, slot: usize, secs: f64, nets: u64) {
        let at_reference = self.calibration.at_reference(secs);
        self.times_s[slot].push(at_reference);
        self.nets[slot] = nets;
    }

    /// Records input `i` routed in `secs` into the slot of the same
    /// index: the checked output, or why checking failed. Returns the
    /// output when it was right.
    pub fn routed(
        &mut self,
        i: usize,
        label: &str,
        checked: Result<Output, String>,
        secs: f64,
    ) -> Option<Output> {
        match checked {
            Ok(out) if self.accept(i, label, out) => {
                self.time(i, secs, out.routed);
                Some(out)
            }
            Ok(_) => None,
            Err(e) => {
                self.reject(label, &e);
                None
            }
        }
    }
}

/// Seconds since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Traced over untraced time of the same calls, minus one: the tracing
/// overhead of a run.
pub fn overhead(traced_s: f64, plain_s: f64) -> f64 {
    if plain_s > 0.0 {
        traced_s / plain_s - 1.0
    } else {
        0.0
    }
}
