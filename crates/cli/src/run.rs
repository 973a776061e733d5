//! Command execution for `vroute`.

use std::error::Error;
use std::fmt;
use std::path::Path;

use mighty::engine::{EngineConfig, ObserveMode, RouteEngine};
use mighty::{
    ChipJournal, FallbackChain, FaultPlan, InstanceStatus, JournalEntry, MightyRouter, RetryPolicy,
    RouterConfig, RunJournal, SupervisedOutcome, Supervisor,
};
use route_analyze::{
    analyze_problem, lint_db, render_text, sort_diagnostics, Diagnostic, Severity,
};
use route_bench::trace::trace_lines;
use route_benchdata::format::{self, ParseError};
use route_benchdata::gen::{ChannelGen, ChipGen, SwitchboxGen};
use route_channel::{dogleg, greedy, lea, yacr, RouteError};
use route_global::{ChipSupervision, GlobalConfig};
use route_maze::{sequential, CostModel, LeeRouter, SearchArena};
use route_model::{
    render_layers, render_svg, DetailedRouter, EventLog, MetricsRecorder, NopObserver, Problem,
    RouteDb, RouteObserver,
};
use route_opt::{cleanup, OptimizeConfig};
use route_proto::{metrics_json, versioned_doc, Json, RouteOutcomeReport};
use route_verify::{verify, Report};

use crate::args::{
    AnalyzeArgs, BatchArgs, BatchRouterKind, ChannelArgs, ChannelRouterKind, CheckArgs, ChipArgs,
    Command, FuzzArgs, GenKind, Journal, Named, RouteArgs, SwitchRouterKind,
};
use crate::USAGE;

/// Error produced when executing a command.
#[derive(Debug)]
pub enum ExecutionError {
    /// Reading or writing a file failed.
    Io(String, std::io::Error),
    /// Parsing the instance failed.
    Parse(ParseError),
    /// A channel router could not route the instance.
    Unroutable(String),
}

impl fmt::Display for ExecutionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecutionError::Io(path, e) => write!(f, "{path}: {e}"),
            ExecutionError::Parse(e) => write!(f, "parse error: {e}"),
            ExecutionError::Unroutable(msg) => write!(f, "{msg}"),
        }
    }
}

impl Error for ExecutionError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ExecutionError::Io(_, e) => Some(e),
            ExecutionError::Parse(e) => Some(e),
            ExecutionError::Unroutable(_) => None,
        }
    }
}

impl From<ParseError> for ExecutionError {
    fn from(e: ParseError) -> Self {
        ExecutionError::Parse(e)
    }
}

/// Executes a parsed command, writing human-readable output to `out`.
///
/// Returns `true` when the routing (if any) completed all nets, so the
/// binary can choose its exit code.
///
/// # Errors
///
/// Returns [`ExecutionError`] for I/O failures, malformed instance
/// files, or channel routers that cannot route the instance at all.
pub fn execute(cmd: &Command, out: &mut dyn fmt::Write) -> Result<bool, ExecutionError> {
    match cmd {
        Command::Help => {
            write!(out, "{USAGE}").expect("writing usage");
            Ok(true)
        }
        Command::Gen(kind) => execute_gen(kind, out),
        Command::Route(a) => execute_route(a, out),
        Command::Batch(a) => execute_batch(a, out),
        Command::Channel(a) => execute_channel(a, out),
        Command::Analyze(a) => execute_analyze(a, out),
        Command::Check(a) => execute_check(a, out),
        Command::Chip(a) => execute_chip(a, out),
        Command::Fuzz(a) => execute_fuzz(a, out),
        Command::Serve(a) => crate::serve::execute_serve(a, out),
        Command::Client(a) => crate::serve::execute_client(a, out),
    }
}

/// Reads a whole file, naming it in the error.
pub(crate) fn read_file(path: &str) -> Result<String, ExecutionError> {
    std::fs::read_to_string(path).map_err(|e| ExecutionError::Io(path.to_owned(), e))
}

/// Writes a whole file, naming it in the error.
fn write_file(path: &str, contents: impl AsRef<[u8]>) -> Result<(), ExecutionError> {
    std::fs::write(path, contents).map_err(|e| ExecutionError::Io(path.to_owned(), e))
}

/// Writes `command`'s versioned JSON report to `path` and says so.
fn write_json<K: Into<String>>(
    path: &str,
    command: &str,
    pairs: impl IntoIterator<Item = (K, Json)>,
    out: &mut dyn fmt::Write,
) -> Result<(), ExecutionError> {
    let doc = versioned_doc(command, pairs.into_iter().map(|(k, v)| (k.into(), v)));
    write_file(path, doc.render())?;
    writeln!(out, "json written to {path}").expect("writing");
    Ok(())
}

/// Whether a verifier report admits the routing: clean, or legal with
/// some nets left unrouted.
fn is_legal(report: &Report) -> bool {
    report.is_clean() || report.is_legal_but_incomplete()
}

/// Verifies a routed database and summarizes it in the outcome
/// vocabulary every report shares.
pub(crate) fn routed(
    problem: &Problem,
    db: &RouteDb,
    complete: bool,
) -> (Report, RouteOutcomeReport) {
    let report = verify(problem, db);
    let stats = db.stats();
    let outcome = RouteOutcomeReport::Routed {
        legal: is_legal(&report),
        complete,
        wire: stats.wirelength,
        vias: stats.vias,
        checksum: db.checksum(),
    };
    (report, outcome)
}

/// The value of a fault-injection variable; an empty value counts as
/// unset.
pub(crate) fn fault_env(name: &str) -> Option<String> {
    std::env::var(name).ok().filter(|spec| !spec.is_empty())
}

/// The fault plan in `VROUTE_FAULT` (for `batch`, `chip` and `serve`),
/// announced in `out` when set.
pub(crate) fn fault_plan(out: &mut dyn fmt::Write) -> Result<Option<FaultPlan>, ExecutionError> {
    let Some(spec) = fault_env("VROUTE_FAULT") else { return Ok(None) };
    let plan = FaultPlan::parse(&spec)
        .map_err(|e| ExecutionError::Unroutable(format!("VROUTE_FAULT: {e}")))?;
    writeln!(out, "fault injection active: {spec}").expect("writing");
    Ok(Some(plan))
}

impl Journal {
    /// Opens the journal in `--journal DIR` with `create`, or with
    /// `resume` under `--resume`; `None` without a directory.
    pub(crate) fn open<J>(
        &self,
        create: impl FnOnce(&Path) -> std::io::Result<J>,
        resume: impl FnOnce(&Path) -> std::io::Result<J>,
    ) -> Result<Option<J>, ExecutionError> {
        let Some(dir) = self.dir.as_deref().map(Path::new) else { return Ok(None) };
        let journal = if self.resume { resume(dir) } else { create(dir) };
        journal.map(Some).map_err(|e| ExecutionError::Io(dir.display().to_string(), e))
    }
}

/// The unified trait object for a batch router: the batch primary and
/// fallback chain and serve build from it.
pub(crate) fn batch_router(kind: BatchRouterKind) -> Box<dyn DetailedRouter + Send + Sync> {
    match kind {
        BatchRouterKind::Ripup => Box::new(MightyRouter::new(RouterConfig::default())),
        BatchRouterKind::Lee => Box::new(LeeRouter::default()),
        BatchRouterKind::Lea => Box::new(route_channel::LeaRouter),
        BatchRouterKind::Dogleg => Box::new(route_channel::DoglegRouter),
        BatchRouterKind::Greedy => Box::new(route_channel::GreedyRouter),
        BatchRouterKind::Yacr => Box::new(route_channel::YacrRouter::default()),
        BatchRouterKind::Swbox => Box::new(route_channel::SwboxRouter),
    }
}

/// Executes `vroute gen`. The parser bounds the dimensions; capacity is
/// checked here so an overfull request gets a message, not a library
/// panic.
fn execute_gen(kind: &GenKind, out: &mut dyn fmt::Write) -> Result<bool, ExecutionError> {
    let text = match *kind {
        GenKind::Switchbox { width, height, nets, seed } => {
            let slots = 2 * u64::from(height) + 2 * u64::from(width.saturating_sub(2));
            if u64::from(nets) * 2 > slots {
                return Err(ExecutionError::Unroutable(format!(
                    "a {width}x{height} boundary holds at most {slots} pins; \
                     {nets} nets need {}",
                    u64::from(nets) * 2
                )));
            }
            format::write_problem(&SwitchboxGen { width, height, nets, seed }.build())
        }
        GenKind::Channel { width, nets, extra_pin_pct, window, seed } => {
            // Worst case every net takes 3 pins.
            if u64::from(nets) * 3 > 2 * u64::from(width) {
                return Err(ExecutionError::Unroutable(format!(
                    "a {width}-column channel holds at most {} pins; \
                     {nets} nets may need up to {}",
                    2 * width,
                    u64::from(nets) * 3
                )));
            }
            let width = usize::try_from(width).expect("a u32 fits in usize");
            format::write_channel(
                &ChannelGen { width, nets, extra_pin_pct, span_window: window, seed }.build(),
            )
        }
    };
    write!(out, "{text}").expect("writing instance");
    Ok(true)
}

/// Executes `vroute chip`: generates the chip and routes it through the
/// hierarchical flow, supervised when asked.
fn execute_chip(a: &ChipArgs, out: &mut dyn fmt::Write) -> Result<bool, ExecutionError> {
    let ChipArgs { width, height, nets, macros, seed, tile, jobs, analyze, order, recovery, json } =
        a;
    let gen = ChipGen {
        width: *width,
        height: *height,
        nets: *nets,
        macros: *macros,
        ..ChipGen::small(*seed)
    };
    let problem = gen.build();
    writeln!(out, "chip: {width}x{height}, {nets} nets, {macros} macros, seed {seed}")
        .expect("writing");
    let cfg = GlobalConfig {
        tile: *tile,
        jobs: *jobs,
        analyze: *analyze,
        order: *order,
        ..GlobalConfig::default()
    };
    // A fault plan or any supervision flag turns the tile stage's
    // recovery on; without them (`ChipSupervision::none()`) it routes
    // each tile exactly once. A journal works either way.
    let fault = fault_plan(out)?;
    let supervised = recovery.supervised() || fault.is_some();
    let journal = recovery.journal.open(ChipJournal::create, ChipJournal::resume)?;
    let recovering = supervised || journal.is_some();
    let sup = if supervised {
        ChipSupervision {
            retries: recovery.retries.unwrap_or(1),
            fallback: !recovery.fallback.is_empty(),
            seed: *seed,
            fault,
        }
    } else {
        ChipSupervision::none()
    };
    let started = std::time::Instant::now();
    let outcome =
        route_global::route_hierarchical_supervised(&problem, &cfg, &sup, journal.as_ref());
    let ms = started.elapsed().as_millis() as u64;
    let complete = outcome.is_complete();
    let (report, summary) = routed(&problem, outcome.db(), complete);
    let stats = outcome.stats();
    let chip = outcome.chip_stats();
    writeln!(
        out,
        "tiles: {}x{} (tile {tile}), {} crossings, {} dropped at planning",
        stats.tiles.0, stats.tiles.1, stats.crossings, stats.dropped
    )
    .expect("writing");
    writeln!(
        out,
        "detail: {} tiles routed, {} errored, {} tile failures",
        chip.tiles_routed, chip.tiles_errored, stats.tile_failures
    )
    .expect("writing");
    if recovering {
        writeln!(
            out,
            "recovery: {} tile(s) retried, {} fell back, {} salvaged, \
             {} seam escalation(s)",
            chip.tiles_retried, chip.tiles_fell_back, chip.tiles_salvaged, chip.seam_escalations
        )
        .expect("writing");
    }
    if let Some(dir) = &recovery.journal.dir {
        writeln!(
            out,
            "journal: {dir}, {} tile(s) replayed from a previous run",
            outcome.resumed_tiles()
        )
        .expect("writing");
    }
    if let Some(e) = outcome.journal_error() {
        writeln!(out, "journal error: {e}").expect("writing");
    }
    writeln!(
        out,
        "stitch: {}/{} seams repaired, {} rip-ups, {} nets completed; \
         fallback completed {}, pruned {} dead steps",
        chip.seams_repaired,
        chip.seams,
        chip.seam_ripups,
        chip.seam_completed,
        stats.fallback_completed,
        chip.pruned_steps
    )
    .expect("writing");
    if *analyze {
        writeln!(
            out,
            "analyze: {} chip certificate(s), {} net(s) certified unroutable",
            chip.analyze_certificates, chip.certified_nets
        )
        .expect("writing");
    }
    let legal = is_legal(&report);
    writeln!(
        out,
        "result: {}/{} nets routed, legal: {legal}, checksum {:016x}, {ms} ms",
        problem.nets().len() - outcome.failed().len(),
        problem.nets().len(),
        outcome.db().checksum()
    )
    .expect("writing");
    if let Some(path) = json {
        let mut pairs = vec![
            ("width".to_string(), Json::from(u64::from(*width))),
            ("height".to_string(), Json::from(u64::from(*height))),
            ("nets".to_string(), Json::from(u64::from(*nets))),
            ("seed".to_string(), Json::from(*seed)),
            ("tile".to_string(), Json::from(u64::from(*tile))),
            ("jobs".to_string(), Json::from(*jobs)),
        ];
        pairs.extend(summary.pairs());
        let fields = [
            ("legal", Json::from(legal)),
            ("complete", Json::from(complete)),
            ("failed", Json::from(outcome.failed().len())),
            ("crossings", Json::from(stats.crossings)),
            ("dropped", Json::from(stats.dropped)),
            ("tiles_routed", Json::from(chip.tiles_routed)),
            ("tiles_errored", Json::from(chip.tiles_errored)),
            ("seams", Json::from(chip.seams)),
            ("seams_repaired", Json::from(chip.seams_repaired)),
            ("seam_ripups", Json::from(chip.seam_ripups)),
            ("seam_completed", Json::from(chip.seam_completed)),
            ("fallback_completed", Json::from(stats.fallback_completed)),
            ("pruned_steps", Json::from(chip.pruned_steps)),
            ("infeasible", Json::from(chip.analyze_certificates)),
            ("certified_nets", Json::from(chip.certified_nets)),
            ("features", Json::str(order.name())),
        ];
        pairs.extend(fields.map(|(k, v)| (k.to_string(), v)));
        if recovering {
            // The supervised report adds the recovery counters and
            // deliberately omits the wall-clock field, so a killed-and-
            // resumed run reproduces the uninterrupted run's JSON byte
            // for byte (the resumed-tile count stays in the human text
            // only).
            let fields = [
                ("tiles_retried", Json::from(chip.tiles_retried)),
                ("tiles_fell_back", Json::from(chip.tiles_fell_back)),
                ("tiles_salvaged", Json::from(chip.tiles_salvaged)),
                ("seam_escalations", Json::from(chip.seam_escalations)),
            ];
            pairs.extend(fields.map(|(k, v)| (k.to_string(), v)));
        } else {
            pairs.push(("ms".to_string(), Json::from(ms)));
        }
        write_json(path, "chip", pairs, out)?;
    }
    Ok(complete && outcome.journal_error().is_none())
}

/// Executes `vroute route`: one switchbox through the chosen router,
/// then the optional cleanup, lint, renderings and reports.
fn execute_route(a: &RouteArgs, out: &mut dyn fmt::Write) -> Result<bool, ExecutionError> {
    let problem = format::parse_problem(&read_file(&a.file)?)?;
    if a.analyze {
        // Gate on the static feasibility analysis: a certificate means
        // no router can succeed, so don't bother trying.
        let feasibility = analyze_problem(&problem);
        if let Some(cert) = feasibility.certificates().first() {
            write!(out, "{}", render_text(feasibility.diagnostics())).expect("writing");
            return Err(ExecutionError::Unroutable(format!(
                "provably infeasible: {}",
                cert.summary()
            )));
        }
        writeln!(out, "analyze: feasible").expect("writing");
    }
    // Observation is strictly additive: routed databases are
    // bit-identical with and without a log attached, so the unobserved
    // fast path stays untouched unless asked for.
    let observing = a.metrics || a.trace.is_some() || a.json.is_some();
    let mut log = EventLog::new();
    let mut db: RouteDb;
    let complete = match a.router {
        SwitchRouterKind::Ripup => {
            let router = MightyRouter::new(RouterConfig::default());
            let outcome = if observing {
                router.route_observed(&problem, &mut log)
            } else {
                router.route(&problem)
            };
            let complete = outcome.is_complete();
            writeln!(out, "router: rip-up/reroute ({})", outcome.stats()).expect("writing");
            db = outcome.into_db();
            complete
        }
        SwitchRouterKind::Lee => {
            let obs: &mut dyn RouteObserver = if observing { &mut log } else { &mut NopObserver };
            let mut arena = SearchArena::new();
            let outcome = sequential::route_all(&mut arena, &problem, CostModel::default(), obs);
            let complete = outcome.is_complete();
            writeln!(out, "router: sequential lee").expect("writing");
            db = outcome.db;
            complete
        }
        SwitchRouterKind::Tiled => {
            let outcome = route_global::route_hierarchical(&problem, &GlobalConfig::default());
            if observing {
                // The hierarchical pipeline is not observed internally;
                // synthesize the per-net summary events so traces stay
                // schema-uniform.
                for net in problem.nets() {
                    log.on_net_scheduled(net.id);
                }
                for net in problem.nets() {
                    if outcome.failed().contains(&net.id) {
                        log.on_net_failed(net.id);
                    } else {
                        log.on_net_committed(net.id);
                    }
                }
            }
            let complete = outcome.is_complete();
            writeln!(out, "router: hierarchical ({:?})", outcome.stats()).expect("writing");
            db = outcome.into_db();
            complete
        }
    };
    if a.optimize {
        let stats = cleanup(&problem, &mut db, &OptimizeConfig::default());
        writeln!(
            out,
            "cleanup: {} nets improved, saved {} cost units",
            stats.improved,
            stats.saved(3)
        )
        .expect("writing");
    }
    let (report, outcome) = routed(&problem, &db, complete);
    let stats = db.stats();
    writeln!(
        out,
        "nets: {} total, complete: {complete}, wire: {}, vias: {}",
        problem.nets().len(),
        stats.wirelength,
        stats.vias
    )
    .expect("writing");
    writeln!(out, "verify: {report}").expect("writing");
    if a.analyze {
        let lint = lint_db(&problem, &db);
        write!(out, "{}", render_text(lint.diagnostics())).expect("writing");
        writeln!(out, "lint: {} finding(s)", lint.findings().len()).expect("writing");
    }
    if a.ascii {
        writeln!(out, "\n{}", render_layers(&db)).expect("writing");
    }
    if let Some(path) = &a.svg {
        write_file(path, render_svg(&db))?;
        writeln!(out, "svg written to {path}").expect("writing");
    }
    if let Some(path) = &a.save {
        write_file(path, format::write_routes(&problem, &db))?;
        writeln!(out, "routes written to {path}").expect("writing");
    }
    let mut rec = MetricsRecorder::new();
    log.replay(&mut rec);
    if a.metrics {
        writeln!(out, "metrics:").expect("writing");
        write!(out, "{}", rec.table()).expect("writing");
    }
    if let Some(path) = &a.trace {
        write_file(path, trace_lines(&a.file, log.events()))?;
        writeln!(out, "trace written to {path} ({} events)", log.events().len()).expect("writing");
    }
    if let Some(path) = &a.json {
        let mut pairs = vec![
            ("file".to_string(), Json::str(a.file.as_str())),
            ("router".to_string(), Json::str(a.router.name())),
        ];
        pairs.extend(outcome.pairs());
        pairs.push(("complete".to_string(), Json::from(complete)));
        pairs.push(("clean".to_string(), Json::from(report.is_clean())));
        pairs.push(("metrics".to_string(), metrics_json(&rec)));
        write_json(path, "route", pairs, out)?;
    }
    Ok(complete)
}

/// Executes `vroute batch`: loads every instance and routes the batch
/// through one supervisor — a plain batch is a one-attempt supervisor
/// over the chosen router — then prints the plain report or, when a
/// recovery flag asks, the supervised one. Fault injection for every
/// batch is enabled through the `VROUTE_FAULT` environment variable
/// (`KIND[@INSTANCES[@ATTEMPTS]]`, e.g. `fail@1,4@1`).
///
/// The plain report shows each instance as its one attempt ended
/// ([`SupervisedOutcome::into_result`]) and counts exactly what it
/// prints. The supervised JSON report deliberately excludes wall-clock
/// fields and the resumed-skip counter, so a killed-and-resumed run
/// reproduces the uninterrupted run's report byte for byte.
fn execute_batch(a: &BatchArgs, out: &mut dyn fmt::Write) -> Result<bool, ExecutionError> {
    let mut paths: Vec<String> = a.files.clone();
    if let Some(listfile) = &a.list {
        for line in read_file(listfile)?.lines() {
            let line = line.trim();
            if !line.is_empty() && !line.starts_with('#') {
                paths.push(line.to_owned());
            }
        }
    }
    let mut problems = Vec::with_capacity(paths.len());
    let mut instances: Vec<(String, u64)> = Vec::with_capacity(paths.len());
    for path in &paths {
        let text = read_file(path)?;
        instances.push((path.clone(), RunJournal::fingerprint(&text)));
        problems.push(format::parse_problem(&text)?);
    }
    let recovery = &a.recovery;
    let retries = recovery.retries.unwrap_or(0);
    let policy = RetryPolicy::with_retries(retries);
    let primary;
    let mut sup = match a.router {
        BatchRouterKind::Ripup => Supervisor::new(RouterConfig::default(), policy),
        kind => {
            primary = batch_router(kind);
            Supervisor::with_primary(primary.as_ref(), policy)
        }
    };
    let mut chain = FallbackChain::none();
    for kind in &recovery.fallback {
        chain.push(batch_router(*kind));
    }
    sup = sup.with_fallbacks(chain);
    if let Some(plan) = fault_plan(out)? {
        sup = sup.with_fault(plan);
    }
    let journal = recovery.journal.open(
        |dir| RunJournal::create(dir, &instances),
        |dir| RunJournal::resume(dir, &instances),
    )?;
    let observe = if a.trace.is_some() {
        ObserveMode::Trace
    } else if a.metrics {
        ObserveMode::Metrics
    } else {
        ObserveMode::Off
    };
    let engine = RouteEngine::new(EngineConfig {
        jobs: a.jobs,
        deadline: a.deadline_ms.map(std::time::Duration::from_millis),
        observe,
        precheck: a.analyze,
    });
    let batch = engine.route_batch(&sup, &problems, journal.as_ref());
    let s = batch.stats;
    let supervised = a.supervised();
    if supervised {
        writeln!(
            out,
            "router: {} (supervised, retries {retries}, fallbacks {}), jobs: {}, instances: {}",
            sup.primary_name(),
            recovery.fallback.len(),
            s.jobs,
            s.instances
        )
    } else {
        writeln!(
            out,
            "router: {}, jobs: {}, instances: {}",
            sup.primary_name(),
            s.jobs,
            s.instances
        )
    }
    .expect("writing");
    // An order-sensitive FNV-1a fold of per-instance outcomes: identical
    // digests mean bit-identical batch results. The supervised fold runs
    // over the deterministic record fields only.
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut records = Vec::with_capacity(paths.len());
    // The plain tally: one word per printed instance, and routed totals.
    let mut printed: Vec<&str> = Vec::with_capacity(paths.len());
    let (mut failed_nets, mut wirelength, mut vias, mut all_good) = (0, 0, 0, true);
    for (i, (outcome, record)) in batch.outcomes.into_iter().zip(batch.records).enumerate() {
        let path = &paths[i];
        if supervised {
            let resumed = if outcome.is_none() { " (resumed)" } else { "" };
            let entry = record.unwrap_or_else(|| {
                let live = outcome.as_ref().expect("an instance without a record ran live");
                JournalEntry::from_outcome(i, path, instances[i].1, &problems[i], live)
            });
            let status = entry.status.as_str();
            let route_path = entry.path.encode();
            let sum = entry.checksum.unwrap_or(0);
            digest = fnv_str(digest, status);
            digest = fnv_str(digest, &route_path);
            digest = fnv_fold(digest, u64::from(entry.attempts));
            digest = fnv_fold(digest, sum);
            digest = fnv_fold(digest, entry.wire);
            digest = fnv_fold(digest, entry.vias);
            digest = fnv_fold(digest, entry.failed_nets as u64);
            if let Some(e) = &entry.error {
                digest = fnv_str(digest, e);
            }
            match entry.status {
                InstanceStatus::Complete => writeln!(
                    out,
                    "  {path}: complete via {route_path}, {} attempt(s), wire {}, vias {}, \
                     checksum {sum:016x}{resumed}",
                    entry.attempts, entry.wire, entry.vias
                ),
                InstanceStatus::Salvaged => writeln!(
                    out,
                    "  {path}: salvaged, {} net(s) unrouted, lint {}, checksum {sum:016x}, \
                     after {} attempt(s): {}{resumed}",
                    entry.failed_nets,
                    entry.lint_findings.unwrap_or(0),
                    entry.attempts,
                    entry.error.as_deref().unwrap_or("unknown"),
                ),
                InstanceStatus::Infeasible => writeln!(
                    out,
                    "  {path}: infeasible: {}{resumed}",
                    entry.error.as_deref().unwrap_or("certified")
                ),
                _ => writeln!(
                    out,
                    "  {path}: {status} after {} attempt(s): {}{resumed}",
                    entry.attempts,
                    entry.error.as_deref().unwrap_or("unknown")
                ),
            }
            .expect("writing");
            let mut pairs = vec![
                ("file", Json::str(path.as_str())),
                ("status", Json::str(status)),
                ("path", Json::str(route_path)),
                ("attempts", Json::from(u64::from(entry.attempts))),
            ];
            if entry.checksum.is_some() {
                pairs.push(("wire", Json::from(entry.wire)));
                pairs.push(("vias", Json::from(entry.vias)));
                pairs.push(("checksum", Json::str(format!("{sum:016x}"))));
            }
            if entry.status == InstanceStatus::Salvaged {
                pairs.push(("failed_nets", Json::from(entry.failed_nets as u64)));
                pairs.push(("lint", Json::from(entry.lint_findings.unwrap_or(0))));
            }
            if entry.status != InstanceStatus::Complete {
                if let Some(e) = &entry.error {
                    pairs.push(("error", Json::str(e.as_str())));
                }
            }
            records.push(Json::obj(pairs));
            continue;
        }
        let ms = batch.timings[i].as_millis() as u64;
        let result = outcome.and_then(SupervisedOutcome::into_result);
        let outcome = match result.expect("a plain batch keeps no journal, so every instance ran") {
            Ok(routing) => {
                let (report, outcome) = routed(&problems[i], &routing.db, routing.is_complete());
                let s = routing.db.stats();
                let sum = routing.db.checksum();
                all_good &= report.is_clean();
                digest = fnv_fold(digest, sum);
                printed.push(if routing.is_complete() { "complete" } else { "incomplete" });
                failed_nets += routing.failed.len();
                wirelength += s.wirelength;
                vias += s.vias;
                writeln!(
                    out,
                    "  {path}: {}, wire {}, vias {}, {ms} ms, checksum {sum:016x}",
                    outcome.status(),
                    s.wirelength,
                    s.vias
                )
                .expect("writing");
                outcome
            }
            Err(route_model::RouteError::Infeasible { reason }) => {
                // A precheck skip is a proof, not a failure: the
                // instance was never routable in the first place.
                printed.push("infeasible");
                digest = fnv_str(digest, &reason);
                writeln!(out, "  {path}: infeasible: {reason}").expect("writing");
                RouteOutcomeReport::Infeasible { reason }
            }
            Err(e) => {
                printed.push(match e {
                    route_model::RouteError::Panicked { .. } => "panicked",
                    route_model::RouteError::DeadlineExceeded { .. } => "timed out",
                    _ => "errored",
                });
                all_good = false;
                digest = fnv_str(digest, &e.to_string());
                writeln!(out, "  {path}: error: {e}").expect("writing");
                RouteOutcomeReport::Failed { error: e.to_string() }
            }
        };
        // One record per instance: `file`, the shared outcome fields,
        // then the elapsed time — the shape a serve response carries.
        let mut pairs = vec![("file".to_string(), Json::str(path.as_str()))];
        pairs.extend(outcome.pairs());
        pairs.push(("ms".to_string(), Json::from(ms)));
        records.push(Json::Obj(pairs));
    }
    let (stats, ok) = if supervised {
        writeln!(
            out,
            "batch: {} complete, {} salvaged, {} infeasible, {} errored, {} panicked, \
             {} timed out; {} retried, {} fell back, {} resumed",
            s.complete,
            s.salvaged,
            s.infeasible,
            s.errored,
            s.panicked,
            s.timed_out,
            s.retried,
            s.fell_back,
            s.resumed_skips
        )
        .expect("writing");
        let stats = Json::obj([
            ("complete", Json::from(s.complete)),
            ("salvaged", Json::from(s.salvaged)),
            ("infeasible", Json::from(s.infeasible)),
            ("errored", Json::from(s.errored)),
            ("panicked", Json::from(s.panicked)),
            ("timed_out", Json::from(s.timed_out)),
            ("retried", Json::from(s.retried)),
            ("fell_back", Json::from(s.fell_back)),
            ("failed_nets", Json::from(s.failed_nets)),
            ("wirelength", Json::from(s.wirelength)),
            ("vias", Json::from(s.vias)),
        ]);
        (stats, s.complete == s.instances)
    } else {
        let count = |word| printed.iter().filter(|w| **w == word).count();
        let throughput = s.instances as f64 / (s.batch_ms.max(1) as f64 / 1000.0);
        writeln!(
            out,
            "batch: {} complete, {} incomplete, {} infeasible, {} errored, {} panicked, \
             {} timed out; wall {} ms, {throughput:.1} inst/sec",
            count("complete"),
            count("incomplete"),
            count("infeasible"),
            count("errored"),
            count("panicked"),
            count("timed out"),
            s.batch_ms
        )
        .expect("writing");
        let stats = Json::obj([
            ("complete", Json::from(count("complete"))),
            ("incomplete", Json::from(count("incomplete"))),
            ("infeasible", Json::from(count("infeasible"))),
            ("errored", Json::from(count("errored"))),
            ("panicked", Json::from(count("panicked"))),
            ("timed_out", Json::from(count("timed out"))),
            ("failed_nets", Json::from(failed_nets)),
            ("wirelength", Json::from(wirelength)),
            ("vias", Json::from(vias)),
            ("batch_ms", Json::from(s.batch_ms)),
            ("busy_ms", Json::from(s.busy_ms)),
            ("throughput_per_sec", Json::from(throughput)),
        ]);
        (stats, all_good && count("complete") == s.instances)
    };
    writeln!(out, "digest: {digest:016x}").expect("writing");
    if let Some(obs) = &batch.observation {
        if a.metrics {
            writeln!(out, "metrics:").expect("writing");
            write!(out, "{}", obs.metrics.table()).expect("writing");
            writeln!(out, "  {:<22} {}", "latency/ms", obs.latency).expect("writing");
        }
        if let Some(path) = &a.trace {
            let mut text = String::new();
            for (instance, events) in paths.iter().zip(&obs.events) {
                text.push_str(&trace_lines(instance, events));
            }
            write_file(path, text)?;
            let total: usize = obs.events.iter().map(Vec::len).sum();
            writeln!(out, "trace written to {path} ({total} events)").expect("writing");
        }
    }
    if let Some(j) = &journal {
        if let Some(e) = j.take_error() {
            return Err(ExecutionError::Unroutable(format!("journal write failed: {e}")));
        }
        writeln!(out, "journal: {}", j.path().display()).expect("writing");
    }
    if let Some(path) = &a.json {
        let router = if supervised { a.router.name() } else { sup.primary_name() };
        let mut pairs = vec![("router", Json::str(router)), ("jobs", Json::from(s.jobs))];
        if supervised {
            let fallbacks = recovery.fallback.iter().map(|k| Json::str(k.name()));
            pairs.push(("retries", Json::from(u64::from(retries))));
            pairs.push(("fallbacks", Json::arr(fallbacks)));
        }
        pairs.push(("digest", Json::str(format!("{digest:016x}"))));
        pairs.push(("instances", Json::arr(records)));
        pairs.push(("stats", stats));
        if let Some(obs) = &batch.observation {
            pairs.push(("metrics", metrics_json(&obs.metrics)));
        }
        write_json(path, "batch", pairs, out)?;
    }
    Ok(ok)
}

/// Executes `vroute check`: verifies a saved routing against its
/// instance.
fn execute_check(a: &CheckArgs, out: &mut dyn fmt::Write) -> Result<bool, ExecutionError> {
    let problem = format::parse_problem(&read_file(&a.instance)?)?;
    let db = format::parse_routes(&problem, &read_file(&a.routes)?)?;
    let report = verify(&problem, &db);
    let stats = db.stats();
    writeln!(
        out,
        "nets: {}, wire: {}, vias: {}",
        problem.nets().len(),
        stats.wirelength,
        stats.vias
    )
    .expect("writing");
    writeln!(out, "verify: {report}").expect("writing");
    if let Some(path) = &a.svg {
        write_file(path, render_svg(&db))?;
        writeln!(out, "svg written to {path}").expect("writing");
    }
    Ok(report.is_clean())
}

/// Executes `vroute channel`: one channel through the chosen router;
/// rip-up searches upward from the density unless `--tracks` fixes the
/// count.
fn execute_channel(a: &ChannelArgs, out: &mut dyn fmt::Write) -> Result<bool, ExecutionError> {
    let spec = format::parse_channel(&read_file(&a.file)?)?;
    writeln!(out, "{spec}").expect("writing");
    let fail = |e: RouteError| ExecutionError::Unroutable(e.to_string());
    if a.layers == 3 && a.router != ChannelRouterKind::Ripup {
        return Err(ExecutionError::Unroutable(
            "only the rip-up router supports three-layer channels".to_string(),
        ));
    }
    match a.router {
        ChannelRouterKind::Lea => {
            let sol = lea::route(&spec).map_err(fail)?;
            writeln!(out, "left-edge: {} tracks", sol.tracks).expect("writing");
        }
        ChannelRouterKind::Dogleg => {
            let sol = dogleg::route(&spec).map_err(fail)?;
            writeln!(out, "dogleg: {} tracks", sol.tracks).expect("writing");
        }
        ChannelRouterKind::Greedy => {
            let sol = greedy::route(&spec).map_err(fail)?;
            writeln!(out, "greedy: {} tracks, {} extension columns", sol.tracks, sol.extra_columns)
                .expect("writing");
        }
        ChannelRouterKind::Yacr => {
            let sol = yacr::route(&spec, 8).map_err(fail)?;
            writeln!(out, "yacr-style: {} tracks", sol.tracks).expect("writing");
        }
        ChannelRouterKind::Ripup => {
            let density = spec.density().max(1) as usize;
            let candidates: Vec<usize> = match a.tracks {
                Some(t) => vec![t],
                None => (density..density + 9).collect(),
            };
            let router = MightyRouter::new(RouterConfig::default());
            let mut done = false;
            for t in candidates {
                let problem = spec.to_problem_with_layers(t, a.layers);
                let outcome = router.route(&problem);
                if outcome.is_complete() {
                    writeln!(out, "rip-up: {t} tracks").expect("writing");
                    done = true;
                    break;
                }
            }
            if !done {
                return Err(ExecutionError::Unroutable(
                    "rip-up could not route the channel within its track budget".to_string(),
                ));
            }
        }
    }
    Ok(true)
}

/// Loads an instance for analysis: sb format, or a saved `fuzzcase v1`
/// file (as written by `vroute fuzz --out`), sniffed by header.
fn load_instance(path: &str) -> Result<Problem, ExecutionError> {
    let text = read_file(path)?;
    let first = text
        .lines()
        .map(str::trim)
        .find(|l| !l.is_empty() && !l.starts_with('#'))
        .unwrap_or_default();
    if first.starts_with("fuzzcase") {
        let case = route_fuzz::FuzzCase::parse(&text)
            .map_err(|e| ExecutionError::Unroutable(format!("{path}: {e}")))?;
        case.try_build().ok_or_else(|| {
            ExecutionError::Unroutable(format!("{path}: case generates an invalid instance"))
        })
    } else {
        Ok(format::parse_problem(&text)?)
    }
}

/// The JSON object for one diagnostic: `severity`, `code`, `rule` and
/// `message` strings; `span` as `{from: [x, y], to: [x, y], layer}` or
/// `null`; `net` as a number or `null`; `hint` as a string or `null`.
fn diagnostic_json(d: &Diagnostic) -> Json {
    Json::obj([
        ("severity", Json::str(d.severity.to_string())),
        ("code", Json::str(d.code)),
        ("rule", Json::str(d.rule)),
        ("message", Json::str(d.message.as_str())),
        (
            "span",
            match &d.span {
                Some(s) => Json::obj([
                    (
                        "from",
                        Json::arr([
                            Json::from(i64::from(s.from.x)),
                            Json::from(i64::from(s.from.y)),
                        ]),
                    ),
                    (
                        "to",
                        Json::arr([Json::from(i64::from(s.to.x)), Json::from(i64::from(s.to.y))]),
                    ),
                    ("layer", s.layer.map_or(Json::Null, |l| Json::str(l.to_string()))),
                ]),
                None => Json::Null,
            },
        ),
        ("net", d.net.map_or(Json::Null, |n| Json::from(u64::from(n.0)))),
        ("hint", d.hint.as_deref().map_or(Json::Null, Json::str)),
    ])
}

/// Executes `vroute analyze`: runs the pre-route feasibility analysis
/// on the instance, and — when a saved routing is supplied — the
/// whole-database lint registry on top. With `--chip` the chip-scale
/// pass (F004–F006 plus the congestion map) runs instead of the flat
/// one. Exit is clean only when no error-severity diagnostic fired.
fn execute_analyze(a: &AnalyzeArgs, out: &mut dyn fmt::Write) -> Result<bool, ExecutionError> {
    let problem = load_instance(&a.instance)?;
    if let Some(tile) = a.chip {
        return execute_analyze_chip(a, &problem, tile, out);
    }
    let feasibility = analyze_problem(&problem);
    let mut diags: Vec<Diagnostic> = feasibility.diagnostics().to_vec();
    let mut linted = 0usize;
    if let Some(rpath) = &a.routes {
        let db = format::parse_routes(&problem, &read_file(rpath)?)?;
        let lint = lint_db(&problem, &db);
        linted = lint.findings().len();
        diags.extend_from_slice(lint.diagnostics());
        sort_diagnostics(&mut diags);
    }
    write!(out, "{}", render_text(&diags)).expect("writing");
    let verdict = if feasibility.is_feasible() { "feasible" } else { "infeasible" };
    writeln!(
        out,
        "analyze: {verdict}, {} certificate(s), {} lint finding(s)",
        feasibility.certificates().len(),
        linted
    )
    .expect("writing");
    let clean = diags.iter().all(|d| d.severity != Severity::Error);
    if let Some(path) = &a.json {
        let pairs = [
            ("file", Json::str(a.instance.as_str())),
            ("feasible", Json::from(feasibility.is_feasible())),
            ("clean", Json::from(clean)),
            ("certificates", Json::from(feasibility.certificates().len())),
            ("lint_findings", Json::from(linted)),
            ("diagnostics", Json::arr(diags.iter().map(diagnostic_json))),
        ];
        write_json(path, "analyze", pairs, out)?;
    }
    Ok(clean)
}

/// Executes `vroute analyze --chip`: the chip-scale certificate pass
/// plus the static congestion map, reported as diagnostics, a heatmap
/// and per-net feature vectors.
fn execute_analyze_chip(
    a: &AnalyzeArgs,
    problem: &Problem,
    tile: u32,
    out: &mut dyn fmt::Write,
) -> Result<bool, ExecutionError> {
    let report = route_analyze::analyze_chip(problem, tile);
    write!(out, "{}", render_text(report.diagnostics())).expect("writing");
    let verdict = if report.is_feasible() { "feasible" } else { "infeasible" };
    writeln!(
        out,
        "analyze --chip: {verdict}, {} certificate(s), {} net(s) certified unroutable",
        report.certificates().len(),
        report.certified_nets().len()
    )
    .expect("writing");
    let map = report.congestion();
    let (cols, rows) = (map.grid().cols(), map.grid().rows());
    let (pc, pr, peak) = map.peak();
    writeln!(
        out,
        "congestion: {cols}x{rows} tiles (tile {tile}), peak {}% at tile ({pc}, {pr})",
        peak.min(9999)
    )
    .expect("writing");
    let clean = report.is_feasible();
    if let Some(path) = &a.json {
        // The heatmap saturates at 9999% so fully blocked tiles stay
        // finite in the report.
        let heatmap =
            Json::arr((0..rows).map(|r| {
                Json::arr((0..cols).map(|c| Json::from(map.congestion_at(c, r).min(9999))))
            }));
        let features = Json::arr(report.features().iter().map(|f| {
            Json::obj([
                ("net", Json::from(u64::from(f.net.0))),
                ("congestion", Json::from(f.congestion.min(9999))),
                ("pin_density", Json::from(f.pin_density)),
                ("bbox_area", Json::from(f.bbox_area)),
                ("crossings", Json::from(f.crossings)),
            ])
        }));
        let pairs = [
            ("file", Json::str(a.instance.as_str())),
            ("tile", Json::from(u64::from(tile))),
            ("feasible", Json::from(report.is_feasible())),
            ("clean", Json::from(clean)),
            ("certificates", Json::from(report.certificates().len())),
            ("certified_nets", Json::from(report.certified_nets().len())),
            (
                "congestion",
                Json::obj([
                    ("cols", Json::from(u64::from(cols))),
                    ("rows", Json::from(u64::from(rows))),
                    (
                        "peak",
                        Json::arr([
                            Json::from(u64::from(pc)),
                            Json::from(u64::from(pr)),
                            Json::from(peak.min(9999)),
                        ]),
                    ),
                    ("heatmap", heatmap),
                ]),
            ),
            ("features", features),
            ("diagnostics", Json::arr(report.diagnostics().iter().map(diagnostic_json))),
        ];
        write_json(path, "analyze-chip", pairs, out)?;
    }
    Ok(clean)
}

/// Executes `vroute fuzz`: sweeps a seed range and/or replays saved
/// case files through the differential oracles, optionally writing
/// minimized finding case files to a directory. Fault injection for
/// mutation testing is enabled through the `VROUTE_FUZZ_FAULT`
/// environment variable (`hide-failures` or `drop-trace`).
fn execute_fuzz(a: &FuzzArgs, out: &mut dyn fmt::Write) -> Result<bool, ExecutionError> {
    use route_fuzz::{evaluate_case, run_fuzz, Fault, FuzzCase, FuzzConfig, RouterSet};

    let fault = match fault_env("VROUTE_FUZZ_FAULT") {
        Some(name) => Some(Fault::from_name(&name).ok_or_else(|| {
            ExecutionError::Unroutable(format!(
                "VROUTE_FUZZ_FAULT: unknown fault `{name}` \
                 (known: hide-failures, drop-trace)"
            ))
        })?),
        None => None,
    };
    if let Some(fault) = fault {
        writeln!(out, "fault injection active: {}", fault.name()).expect("writing report");
    }
    let mut clean = true;

    // Replay saved case files: every one must pass every oracle.
    if !a.cases.is_empty() {
        let routers = RouterSet::standard(fault);
        for path in &a.cases {
            let case = FuzzCase::parse(&read_file(path)?)
                .map_err(|e| ExecutionError::Unroutable(format!("{path}: {e}")))?;
            let violations = evaluate_case(&case, &routers, a.jobs);
            if violations.is_empty() {
                writeln!(out, "{path}: {case}: ok").expect("writing report");
            } else {
                clean = false;
                writeln!(out, "{path}: {case}: {} violation(s)", violations.len())
                    .expect("writing report");
                for v in &violations {
                    writeln!(out, "  {v}").expect("writing report");
                }
            }
        }
    }

    if let Some((start, end)) = a.seeds {
        let config = FuzzConfig {
            start,
            end,
            jobs: a.jobs,
            shrink: a.shrink,
            fault,
            ..FuzzConfig::default()
        };
        let outcome = run_fuzz(&config, &mut |line| {
            writeln!(out, "{line}").expect("writing report");
        });
        writeln!(
            out,
            "fuzzed {} instance(s) over seeds {start}..{end}: {} complete, {} finding(s)",
            outcome.instances,
            outcome.complete,
            outcome.findings.len()
        )
        .expect("writing report");
        if let (false, Some(dir)) = (outcome.findings.is_empty(), &a.out) {
            std::fs::create_dir_all(dir).map_err(|e| ExecutionError::Io(dir.to_string(), e))?;
            for finding in &outcome.findings {
                let (case, violations) = match &finding.shrunk {
                    Some(s) => (&s.case, &s.violations),
                    None => (&finding.case, &finding.violations),
                };
                let mut text = format!("# vroute fuzz finding, seed {}\n", finding.seed);
                for v in violations {
                    text.push_str(&format!("# {v}\n"));
                }
                text.push_str(&case.write());
                let path = format!("{dir}/seed-{}.case", finding.seed);
                write_file(&path, text)?;
                writeln!(out, "wrote {path}").expect("writing report");
            }
        }
        clean &= outcome.is_clean();
    }

    writeln!(out, "{}", if clean { "all oracles passed" } else { "ORACLE VIOLATIONS FOUND" })
        .expect("writing report");
    Ok(clean)
}

/// Folds one value into an FNV-1a digest.
fn fnv_fold(mut h: u64, v: u64) -> u64 {
    for byte in v.to_le_bytes() {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Folds a string into an FNV-1a digest.
fn fnv_str(mut h: u64, s: &str) -> u64 {
    for byte in s.bytes() {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_args;

    /// Serializes every test whose command reads `VROUTE_FAULT`
    /// (`batch`, `chip`): the variable is process-global, so a run that
    /// expects a clean engine must not observe another test's injected
    /// fault.
    static FAULT_ENV: std::sync::Mutex<()> = std::sync::Mutex::new(());

    /// Holds [`FAULT_ENV`] for the rest of the test.
    fn fault_env_lock() -> std::sync::MutexGuard<'static, ()> {
        FAULT_ENV.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn run(line: &str) -> (String, Result<bool, ExecutionError>) {
        let cmd = parse_args(line.split_whitespace().map(str::to_owned)).expect("parses");
        let mut out = String::new();
        let result = execute(&cmd, &mut out);
        (out, result)
    }

    #[test]
    fn help_prints_usage() {
        let (out, ok) = run("help");
        assert!(ok.unwrap());
        assert!(out.contains("USAGE"));
    }

    #[test]
    fn chip_routes_and_reports_json() {
        let _guard = fault_env_lock();
        let dir = std::env::temp_dir().join("vroute-test-chip");
        std::fs::create_dir_all(&dir).unwrap();
        let json = dir.join("chip.json");
        let line = format!(
            "chip --width 40 --height 40 --nets 90 --macros 2 --seed 5 --tile 10 --json {}",
            json.display()
        );
        let (out, result) = run(&line);
        result.expect("chip executes");
        assert!(out.contains("tiles: 4x4"), "{out}");
        assert!(out.contains("stitch:"), "{out}");
        let doc = std::fs::read_to_string(&json).unwrap();
        assert!(doc.contains("\"command\": \"chip\""), "{doc}");
        assert!(doc.contains("\"legal\": true"), "{doc}");
        assert!(doc.contains("\"checksum\""), "{doc}");
        // The job count never changes the routed database.
        let (one, _) = run(&format!("{line} --jobs 1"));
        let (four, _) = run(&format!("{line} --jobs 4"));
        assert_eq!(checksum_of(&one), checksum_of(&four));
    }

    fn checksum_of(output: &str) -> String {
        let line = output.lines().find(|l| l.contains("checksum")).expect("prints checksum");
        let word = line.split_whitespace().skip_while(|w| *w != "checksum").nth(1);
        word.expect("checksum value").trim_end_matches(',').to_owned()
    }

    #[test]
    fn chip_analyze_keeps_every_tile_of_a_feasible_chip() {
        let _guard = fault_env_lock();
        // The chip analysis certifies nothing here, so `--analyze` must
        // not change the routing: every tile routes and the checksum
        // matches the run without it.
        let line = "chip --width 40 --height 40 --nets 70 --macros 2 --seed 1 --tile 10";
        let (plain, result) = run(line);
        result.expect("chip executes");
        let (analyzed, result) = run(&format!("{line} --analyze"));
        result.expect("chip --analyze executes");
        assert!(analyzed.contains("analyze: 0 chip certificate(s)"), "{analyzed}");
        assert!(analyzed.contains("16 tiles routed, 0 errored"), "{analyzed}");
        assert_eq!(checksum_of(&plain), "056704cf31c222c1", "{plain}");
        assert_eq!(checksum_of(&analyzed), checksum_of(&plain), "{analyzed}");
    }

    #[test]
    fn gen_then_route_round_trip() {
        let dir = std::env::temp_dir().join("vroute-test-gen");
        std::fs::create_dir_all(&dir).unwrap();
        let sb = dir.join("box.sb");
        let (instance, ok) = run("gen switchbox --width 10 --height 8 --nets 5 --seed 4");
        assert!(ok.unwrap());
        std::fs::write(&sb, instance).unwrap();

        let (out, ok) = run(&format!("route {} --ascii", sb.display()));
        assert!(ok.unwrap(), "generated box routes:\n{out}");
        assert!(out.contains("verify: clean"), "{out}");
        assert!(out.contains("M1"), "ascii printed: {out}");
    }

    #[test]
    fn route_with_svg_and_optimize() {
        let dir = std::env::temp_dir().join("vroute-test-svg");
        std::fs::create_dir_all(&dir).unwrap();
        let sb = dir.join("box.sb");
        let svg = dir.join("box.svg");
        let (instance, _) = run("gen switchbox --width 10 --height 8 --nets 5 --seed 4");
        std::fs::write(&sb, instance).unwrap();

        let (out, ok) = run(&format!("route {} --svg {} --optimize", sb.display(), svg.display()));
        assert!(ok.unwrap(), "{out}");
        assert!(out.contains("cleanup:"), "{out}");
        let svg_text = std::fs::read_to_string(&svg).unwrap();
        assert!(svg_text.starts_with("<svg"));
    }

    #[test]
    fn three_layer_channel_via_cli() {
        let dir = std::env::temp_dir().join("vroute-test-3l");
        std::fs::create_dir_all(&dir).unwrap();
        let ch = dir.join("c.ch");
        let (instance, _) = run("gen channel --width 20 --nets 8 --window 8 --seed 1");
        std::fs::write(&ch, instance).unwrap();
        let (out, ok) = run(&format!("channel {} --layers 3", ch.display()));
        assert!(ok.unwrap(), "{out}");
        // Baselines reject the third layer with a clear message.
        let (_, result) = run(&format!("channel {} --layers 3 --router greedy", ch.display()));
        assert!(matches!(result, Err(ExecutionError::Unroutable(_))));
    }

    #[test]
    fn channel_pipeline() {
        let dir = std::env::temp_dir().join("vroute-test-ch");
        std::fs::create_dir_all(&dir).unwrap();
        let ch = dir.join("c.ch");
        let (instance, _) = run("gen channel --width 20 --nets 8 --window 8 --seed 1");
        std::fs::write(&ch, instance).unwrap();

        for router in ["greedy", "yacr", "ripup"] {
            let (out, ok) = run(&format!("channel {} --router {router}", ch.display()));
            assert!(ok.unwrap(), "{router} failed:\n{out}");
            assert!(out.contains("tracks"), "{out}");
        }
    }

    #[test]
    fn tiled_router_routes_a_larger_box() {
        let dir = std::env::temp_dir().join("vroute-test-tiled");
        std::fs::create_dir_all(&dir).unwrap();
        let sb = dir.join("big.sb");
        let (instance, _) = run("gen switchbox --width 40 --height 40 --nets 16 --seed 2");
        std::fs::write(&sb, instance).unwrap();
        let (out, ok) = run(&format!("route {} --router tiled", sb.display()));
        assert!(ok.unwrap(), "{out}");
        assert!(out.contains("hierarchical"), "{out}");
        assert!(out.contains("verify: clean"), "{out}");
    }

    #[test]
    fn save_then_check_round_trip() {
        let dir = std::env::temp_dir().join("vroute-test-check");
        std::fs::create_dir_all(&dir).unwrap();
        let sb = dir.join("box.sb");
        let routes = dir.join("box.routes");
        let (instance, _) = run("gen switchbox --width 10 --height 8 --nets 5 --seed 4");
        std::fs::write(&sb, instance).unwrap();

        let (out, ok) = run(&format!("route {} --save {}", sb.display(), routes.display()));
        assert!(ok.unwrap(), "{out}");
        assert!(out.contains("routes written"), "{out}");

        let (out, ok) = run(&format!("check {} {}", sb.display(), routes.display()));
        assert!(ok.unwrap(), "saved routing verifies clean:\n{out}");
        assert!(out.contains("verify: clean"), "{out}");

        // Tampering with the routing is caught: drop a line.
        let text = std::fs::read_to_string(&routes).unwrap();
        let truncated: Vec<&str> = text.lines().filter(|l| !l.starts_with("trace")).collect();
        std::fs::write(&routes, truncated.join("\n")).unwrap();
        let (out, ok) = run(&format!("check {} {}", sb.display(), routes.display()));
        assert!(!ok.unwrap(), "incomplete routing must not verify clean:\n{out}");
    }

    /// The digest line of a batch run, with timing noise excluded.
    fn digest_of(output: &str) -> String {
        output
            .lines()
            .find(|l| l.starts_with("digest:"))
            .unwrap_or_else(|| panic!("no digest in:\n{output}"))
            .to_owned()
    }

    #[test]
    fn batch_is_bit_identical_across_thread_counts() {
        let _guard = fault_env_lock();
        let dir = std::env::temp_dir().join("vroute-test-batch");
        std::fs::create_dir_all(&dir).unwrap();
        let mut list = String::new();
        for seed in 0..64 {
            let (instance, _) =
                run(&format!("gen switchbox --width 10 --height 8 --nets 5 --seed {seed}"));
            let path = dir.join(format!("b{seed}.sb"));
            std::fs::write(&path, instance).unwrap();
            list.push_str(&format!("{}\n", path.display()));
        }
        let listfile = dir.join("all.txt");
        std::fs::write(&listfile, format!("# 64 instances\n{list}")).unwrap();

        let (serial, ok) = run(&format!("batch --list {} --jobs 1", listfile.display()));
        assert!(ok.unwrap(), "serial batch completes:\n{serial}");
        let (parallel, ok) = run(&format!("batch --list {} --jobs 8", listfile.display()));
        assert!(ok.unwrap(), "parallel batch completes:\n{parallel}");
        assert_eq!(digest_of(&serial), digest_of(&parallel));
        assert!(parallel.contains("jobs: 8"), "{parallel}");
    }

    #[test]
    fn batch_json_report() {
        let _guard = fault_env_lock();
        let dir = std::env::temp_dir().join("vroute-test-batch-json");
        std::fs::create_dir_all(&dir).unwrap();
        let (instance, _) = run("gen switchbox --width 10 --height 8 --nets 5 --seed 4");
        let sb = dir.join("box.sb");
        std::fs::write(&sb, instance).unwrap();
        let report = dir.join("report.json");
        let (out, ok) = run(&format!(
            "batch {} {} --router lee --json {}",
            sb.display(),
            sb.display(),
            report.display()
        ));
        assert!(ok.unwrap(), "{out}");
        let text = std::fs::read_to_string(&report).unwrap();
        assert!(text.contains("\"router\": \"lee\""), "{text}");
        assert!(text.contains("\"complete\": 2"), "{text}");
        assert!(text.contains("\"digest\""), "{text}");
    }

    #[test]
    fn batch_of_channel_problems_through_channel_adapters() {
        let _guard = fault_env_lock();
        // Channel-shaped grid instances route through the unified trait
        // with a channel baseline.
        let dir = std::env::temp_dir().join("vroute-test-batch-ch");
        std::fs::create_dir_all(&dir).unwrap();
        let (instance, _) = run("gen channel --width 20 --nets 8 --window 8 --seed 1");
        let spec = route_benchdata::format::parse_channel(&instance).unwrap();
        let problem = spec.to_problem(spec.density() as usize + 4);
        let sb = dir.join("chan.sb");
        std::fs::write(&sb, format::write_problem(&problem)).unwrap();
        let (out, ok) = run(&format!("batch {} --router yacr", sb.display()));
        assert!(ok.unwrap(), "{out}");
        assert!(out.contains("complete"), "{out}");
        // A switchbox instance is cleanly rejected by the same adapter.
        let (instance, _) = run("gen switchbox --width 10 --height 8 --nets 5 --seed 4");
        let plain = dir.join("box.sb");
        std::fs::write(&plain, instance).unwrap();
        let (out, ok) = run(&format!("batch {} --router lea", plain.display()));
        assert!(!ok.unwrap(), "{out}");
        assert!(out.contains("error: unsupported"), "{out}");
    }

    #[test]
    fn route_metrics_trace_and_json() {
        let dir = std::env::temp_dir().join("vroute-test-observe");
        std::fs::create_dir_all(&dir).unwrap();
        let sb = dir.join("box.sb");
        let trace = dir.join("box.ldj");
        let report = dir.join("box.json");
        let (instance, _) = run("gen switchbox --width 10 --height 8 --nets 5 --seed 4");
        std::fs::write(&sb, instance).unwrap();

        let (out, ok) = run(&format!(
            "route {} --metrics --trace {} --json {}",
            sb.display(),
            trace.display(),
            report.display()
        ));
        assert!(ok.unwrap(), "{out}");
        assert!(out.contains("metrics:"), "{out}");
        assert!(out.contains("nets committed"), "{out}");
        assert!(out.contains("trace written"), "{out}");

        let lines = std::fs::read_to_string(&trace).unwrap();
        assert!(lines.lines().count() >= 5 * 2, "scheduled + terminal per net:\n{lines}");
        assert!(lines.lines().all(|l| l.starts_with("{\"ev\":")), "{lines}");
        assert!(lines.contains("\"ev\":\"net_committed\""), "{lines}");

        let text = std::fs::read_to_string(&report).unwrap();
        assert!(text.contains("\"nets_committed\": 5"), "{text}");
        assert!(text.contains("\"expanded\""), "{text}");
        assert!(text.contains("\"checksum\""), "{text}");
    }

    #[test]
    fn observed_route_matches_unobserved_checksum() {
        let dir = std::env::temp_dir().join("vroute-test-observe-eq");
        std::fs::create_dir_all(&dir).unwrap();
        let sb = dir.join("box.sb");
        let routes = dir.join("plain.routes");
        let routes_obs = dir.join("observed.routes");
        let (instance, _) = run("gen switchbox --width 12 --height 10 --nets 7 --seed 9");
        std::fs::write(&sb, instance).unwrap();

        let (_, ok) = run(&format!("route {} --save {}", sb.display(), routes.display()));
        assert!(ok.unwrap());
        let (_, ok) =
            run(&format!("route {} --metrics --save {}", sb.display(), routes_obs.display()));
        assert!(ok.unwrap());
        assert_eq!(
            std::fs::read_to_string(&routes).unwrap(),
            std::fs::read_to_string(&routes_obs).unwrap(),
            "observation must not change the routing"
        );
    }

    #[test]
    fn tiled_route_synthesizes_summary_trace() {
        let dir = std::env::temp_dir().join("vroute-test-observe-tiled");
        std::fs::create_dir_all(&dir).unwrap();
        let sb = dir.join("big.sb");
        let trace = dir.join("big.ldj");
        let (instance, _) = run("gen switchbox --width 40 --height 40 --nets 16 --seed 2");
        std::fs::write(&sb, instance).unwrap();
        let (out, ok) =
            run(&format!("route {} --router tiled --trace {}", sb.display(), trace.display()));
        assert!(ok.unwrap(), "{out}");
        let lines = std::fs::read_to_string(&trace).unwrap();
        assert_eq!(
            lines.matches("\"ev\":\"net_scheduled\"").count(),
            16,
            "one scheduled event per net:\n{lines}"
        );
        assert_eq!(lines.matches("\"ev\":\"net_committed\"").count(), 16, "{lines}");
    }

    #[test]
    fn batch_metrics_and_trace() {
        let _guard = fault_env_lock();
        let dir = std::env::temp_dir().join("vroute-test-batch-observe");
        std::fs::create_dir_all(&dir).unwrap();
        let mut files = String::new();
        for seed in 0..4 {
            let (instance, _) =
                run(&format!("gen switchbox --width 10 --height 8 --nets 5 --seed {seed}"));
            let path = dir.join(format!("m{seed}.sb"));
            std::fs::write(&path, instance).unwrap();
            files.push_str(&format!("{} ", path.display()));
        }
        let trace = dir.join("batch.ldj");
        let report = dir.join("batch.json");
        let (out, ok) = run(&format!(
            "batch {files} --metrics --trace {} --json {}",
            trace.display(),
            report.display()
        ));
        assert!(ok.unwrap(), "{out}");
        assert!(out.contains("metrics:"), "{out}");
        assert!(out.contains("nets scheduled"), "{out}");
        assert!(out.contains("latency/ms"), "{out}");

        // Every instance's events land in the trace, tagged by path.
        let lines = std::fs::read_to_string(&trace).unwrap();
        for seed in 0..4 {
            assert!(lines.contains(&format!("m{seed}.sb")), "{lines}");
        }
        // The JSON report carries observer-sourced counters.
        let text = std::fs::read_to_string(&report).unwrap();
        assert!(text.contains("\"metrics\""), "{text}");
        assert!(text.contains("\"nets_committed\": 20"), "{text}");
        assert!(text.contains("\"weak_modifications\""), "{text}");
        assert!(text.contains("\"strong_ripups\""), "{text}");

        // A supervised batch is observed too: every instance completes
        // on its first attempt, so it writes the same event stream per
        // instance as the plain batch.
        let supervised = dir.join("supervised.ldj");
        let (out, ok) =
            run(&format!("batch {files} --retries 1 --metrics --trace {}", supervised.display()));
        assert!(ok.unwrap(), "{out}");
        assert!(out.contains("nets scheduled"), "{out}");
        assert_eq!(std::fs::read_to_string(&supervised).unwrap(), lines);
    }

    #[test]
    fn batch_observation_keeps_the_digest() {
        let _guard = fault_env_lock();
        let dir = std::env::temp_dir().join("vroute-test-batch-observe-eq");
        std::fs::create_dir_all(&dir).unwrap();
        let (instance, _) = run("gen switchbox --width 12 --height 10 --nets 6 --seed 7");
        let sb = dir.join("box.sb");
        std::fs::write(&sb, instance).unwrap();
        let trace = dir.join("box.ldj");
        for flags in ["", "--retries 1"] {
            let (plain, ok) = run(&format!("batch {} {flags}", sb.display()));
            assert!(ok.unwrap(), "{plain}");
            for observe in ["--metrics".to_string(), format!("--trace {}", trace.display())] {
                let (observed, ok) = run(&format!("batch {} {flags} {observe}", sb.display()));
                assert!(ok.unwrap(), "{observed}");
                assert_eq!(digest_of(&plain), digest_of(&observed), "{flags} {observe}");
            }
        }
    }

    #[test]
    fn region_instance_routes() {
        let dir = std::env::temp_dir().join("vroute-test-region");
        std::fs::create_dir_all(&dir).unwrap();
        let f = dir.join("l.sb");
        std::fs::write(&f, "region 0 0 12 4\nregion 0 0 4 12\nnet a 1 11 M2  11 1 M1\n").unwrap();
        let (out, ok) = run(&format!("route {}", f.display()));
        assert!(ok.unwrap(), "L-region routes:\n{out}");
        assert!(out.contains("verify: clean"), "{out}");
    }

    /// An sb instance with a full-height, all-layer wall separating the
    /// single net's pins: provably unroutable.
    const WALLED_SB: &str = "sb 5 4\n\
        obstacle 2 0\nobstacle 2 1\nobstacle 2 2\nobstacle 2 3\n\
        net a 0 1 M1  4 2 M1\n";

    #[test]
    fn analyze_passes_a_feasible_instance_and_lints_its_routing() {
        let dir = std::env::temp_dir().join("vroute-test-analyze");
        std::fs::create_dir_all(&dir).unwrap();
        let sb = dir.join("box.sb");
        let routes = dir.join("box.routes");
        let report = dir.join("analyze.json");
        let (instance, _) = run("gen switchbox --width 10 --height 8 --nets 5 --seed 4");
        std::fs::write(&sb, instance).unwrap();

        let (out, ok) = run(&format!("analyze {}", sb.display()));
        assert!(ok.unwrap(), "{out}");
        assert!(out.contains("analyze: feasible, 0 certificate(s)"), "{out}");

        let (_, ok) = run(&format!("route {} --save {}", sb.display(), routes.display()));
        assert!(ok.unwrap());
        let (out, ok) = run(&format!(
            "analyze {} {} --json {}",
            sb.display(),
            routes.display(),
            report.display()
        ));
        assert!(ok.unwrap(), "a clean routing lints clean:\n{out}");
        let text = std::fs::read_to_string(&report).unwrap();
        assert!(text.contains("\"feasible\": true"), "{text}");
        assert!(text.contains("\"diagnostics\": []"), "{text}");
    }

    #[test]
    fn analyze_certifies_an_infeasible_instance() {
        let dir = std::env::temp_dir().join("vroute-test-analyze-inf");
        std::fs::create_dir_all(&dir).unwrap();
        let sb = dir.join("walled.sb");
        let report = dir.join("walled.json");
        std::fs::write(&sb, WALLED_SB).unwrap();

        let (out, ok) = run(&format!("analyze {} --json {}", sb.display(), report.display()));
        assert!(!ok.unwrap(), "a certificate must fail the exit code:\n{out}");
        assert!(out.contains("error[F"), "{out}");
        assert!(out.contains("analyze: infeasible"), "{out}");
        let text = std::fs::read_to_string(&report).unwrap();
        assert!(text.contains("\"feasible\": false"), "{text}");
        assert!(text.contains("\"severity\": \"error\""), "{text}");
    }

    #[test]
    fn route_analyze_gate_refuses_infeasible_instances() {
        let dir = std::env::temp_dir().join("vroute-test-route-gate");
        std::fs::create_dir_all(&dir).unwrap();
        let sb = dir.join("walled.sb");
        std::fs::write(&sb, WALLED_SB).unwrap();

        let cmd = format!("route {} --analyze", sb.display());
        let parsed = parse_args(cmd.split_whitespace().map(str::to_owned)).unwrap();
        let mut out = String::new();
        let result = execute(&parsed, &mut out);
        match result {
            Err(ExecutionError::Unroutable(msg)) => {
                assert!(msg.contains("provably infeasible"), "{msg}");
            }
            other => panic!("expected an infeasibility refusal, got {other:?}\n{out}"),
        }
        assert!(out.contains("error[F"), "diagnostics printed before refusing:\n{out}");

        // A feasible instance passes the gate and lints after routing.
        let good = dir.join("good.sb");
        let (instance, _) = run("gen switchbox --width 10 --height 8 --nets 5 --seed 4");
        std::fs::write(&good, instance).unwrap();
        let (out, ok) = run(&format!("route {} --analyze", good.display()));
        assert!(ok.unwrap(), "{out}");
        assert!(out.contains("analyze: feasible"), "{out}");
        assert!(out.contains("lint:"), "{out}");
    }

    #[test]
    fn batch_analyze_skips_infeasible_instances() {
        let _guard = fault_env_lock();
        let dir = std::env::temp_dir().join("vroute-test-batch-inf");
        std::fs::create_dir_all(&dir).unwrap();
        let walled = dir.join("walled.sb");
        std::fs::write(&walled, WALLED_SB).unwrap();
        let good = dir.join("good.sb");
        let (instance, _) = run("gen switchbox --width 10 --height 8 --nets 5 --seed 4");
        std::fs::write(&good, instance).unwrap();
        let report = dir.join("batch.json");

        let (out, ok) = run(&format!(
            "batch {} {} --analyze --jobs 1 --json {}",
            good.display(),
            walled.display(),
            report.display()
        ));
        assert!(!ok.unwrap(), "an infeasible instance is not a complete batch:\n{out}");
        assert!(out.contains("infeasible:"), "{out}");
        assert!(out.contains("1 complete, 0 incomplete, 1 infeasible"), "{out}");
        let text = std::fs::read_to_string(&report).unwrap();
        assert!(text.contains("\"status\": \"infeasible\""), "{text}");
        assert!(text.contains("\"reason\""), "{text}");
        assert!(text.contains("\"infeasible\": 1"), "{text}");

        // Without --analyze the router burns its budget and reports the
        // net as failed instead: incomplete, not infeasible.
        let (out, ok) = run(&format!("batch {} --jobs 1", walled.display()));
        assert!(!ok.unwrap(), "{out}");
        assert!(out.contains("0 complete, 1 incomplete, 0 infeasible"), "{out}");
    }

    #[test]
    fn analyze_accepts_fuzzcase_files() {
        let dir = std::env::temp_dir().join("vroute-test-analyze-case");
        std::fs::create_dir_all(&dir).unwrap();
        let case = dir.join("seed.case");
        std::fs::write(
            &case,
            "# a finding header comment\n\
             fuzzcase v1\nfamily switchbox\nwidth 8\nheight 6\nnets 2\nseed 11\n",
        )
        .unwrap();
        let (out, ok) = run(&format!("analyze {}", case.display()));
        assert!(ok.unwrap(), "a generated case analyzes:\n{out}");
        assert!(out.contains("analyze: feasible"), "{out}");
    }

    #[test]
    fn missing_file_reports_io_error() {
        let (_, result) = run("route /nonexistent/really.sb");
        assert!(matches!(result, Err(ExecutionError::Io(_, _))));
    }

    #[test]
    fn bad_instance_reports_parse_error() {
        let dir = std::env::temp_dir().join("vroute-test-bad");
        std::fs::create_dir_all(&dir).unwrap();
        let f = dir.join("bad.sb");
        std::fs::write(&f, "nonsense here").unwrap();
        let (_, result) = run(&format!("route {}", f.display()));
        assert!(matches!(result, Err(ExecutionError::Parse(_))));
    }

    /// Serializes the fuzz tests: `VROUTE_FUZZ_FAULT` is process-global
    /// state, so the clean-window test must not observe the fault-
    /// injection test's environment.
    static FUZZ_ENV: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn fuzz_clean_window_passes() {
        let _guard = FUZZ_ENV.lock().unwrap();
        std::env::remove_var("VROUTE_FUZZ_FAULT");
        let (out, ok) = run("fuzz --seeds 0..6 --jobs 1");
        assert!(ok.unwrap(), "{out}");
        assert!(out.contains("fuzzed 6 instance(s)"), "{out}");
        assert!(out.contains("all oracles passed"), "{out}");
    }

    #[test]
    fn fuzz_finds_injected_fault_shrinks_and_replays() {
        let _guard = FUZZ_ENV.lock().unwrap();
        let dir = std::env::temp_dir().join("vroute-test-fuzz");
        let _ = std::fs::remove_dir_all(&dir);

        std::env::set_var("VROUTE_FUZZ_FAULT", "drop-trace");
        let (out, ok) =
            run(&format!("fuzz --seeds 0..6 --jobs 1 --shrink --out {}", dir.display()));
        assert!(!ok.unwrap(), "the injected fault must be caught:\n{out}");
        assert!(out.contains("fault injection active: drop-trace"), "{out}");
        assert!(out.contains("ORACLE VIOLATIONS FOUND"), "{out}");

        // At least one minimized case file landed, small enough to read.
        let mut cases: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "case"))
            .collect();
        cases.sort();
        assert!(!cases.is_empty(), "finding case files written:\n{out}");
        let text = std::fs::read_to_string(&cases[0]).unwrap();
        let case = route_fuzz::FuzzCase::parse(&text).expect("written case parses");
        assert!(case.net_count() <= 4, "minimal reproducer has {} nets", case.net_count());

        // Replaying the case with the fault still active reproduces...
        let (out, ok) = run(&format!("fuzz {}", cases[0].display()));
        assert!(!ok.unwrap(), "{out}");
        // ...and with the fault removed, the honest routers pass.
        std::env::remove_var("VROUTE_FUZZ_FAULT");
        let (out, ok) = run(&format!("fuzz {}", cases[0].display()));
        assert!(ok.unwrap(), "{out}");
        assert!(out.contains("all oracles passed"), "{out}");
    }

    /// Writes `count` routable instances into `dir`, returning their
    /// space-joined paths.
    fn supervised_fixture(dir: &std::path::Path, count: usize) -> String {
        std::fs::create_dir_all(dir).unwrap();
        let mut files = String::new();
        for seed in 0..count {
            let (instance, _) =
                run(&format!("gen switchbox --width 12 --height 10 --nets 6 --seed {seed}"));
            let path = dir.join(format!("s{seed}.sb"));
            std::fs::write(&path, instance).unwrap();
            files.push_str(&format!("{} ", path.display()));
        }
        files.trim_end().to_owned()
    }

    #[test]
    fn supervised_batch_recovers_injected_failures() {
        let _guard = fault_env_lock();
        let dir = std::env::temp_dir().join("vroute-test-sup-fault");
        let files = supervised_fixture(&dir, 3);

        // First-attempt spurious failures on instances 0 and 2: the
        // retry completes them and the summary says so.
        std::env::set_var("VROUTE_FAULT", "fail@0,2@1");
        let (out, ok) = run(&format!("batch {files} --retries 2 --jobs 1"));
        std::env::remove_var("VROUTE_FAULT");
        assert!(ok.unwrap(), "retries recover the batch:\n{out}");
        assert!(out.contains("fault injection active: fail@0,2@1"), "{out}");
        assert!(out.contains("complete via retried:1"), "{out}");
        assert!(out.contains("3 complete, 0 salvaged"), "{out}");
        assert!(out.contains("2 retried"), "{out}");

        // Failures on the primary and its retry (the fault window counts
        // attempts across the whole chain): the Lee fallback rescues it.
        std::env::set_var("VROUTE_FAULT", "fail@0@2");
        let (out, ok) = run(&format!("batch {files} --retries 1 --fallback lee --jobs 1"));
        std::env::remove_var("VROUTE_FAULT");
        assert!(ok.unwrap(), "the fallback recovers the batch:\n{out}");
        assert!(out.contains("complete via fallback:lee"), "{out}");
        assert!(out.contains("1 fell back"), "{out}");

        // An unknown fault spec is rejected with a message.
        std::env::set_var("VROUTE_FAULT", "melt@0");
        let (_, result) = run(&format!("batch {files} --retries 1"));
        std::env::remove_var("VROUTE_FAULT");
        let msg = result.unwrap_err().to_string();
        assert!(msg.contains("VROUTE_FAULT"), "{msg}");
    }

    #[test]
    fn an_empty_fault_variable_counts_as_unset() {
        let _guard = fault_env_lock();
        std::env::set_var("VROUTE_FAULT", "");
        let mut out = String::new();
        let plan = fault_plan(&mut out);
        std::env::remove_var("VROUTE_FAULT");
        assert_eq!(plan.ok(), Some(None));
        assert!(out.is_empty(), "{out}");
    }

    #[test]
    fn supervised_batch_salvages_past_the_deadline() {
        let _guard = fault_env_lock();
        let dir = std::env::temp_dir().join("vroute-test-sup-salvage");
        let files = supervised_fixture(&dir, 2);
        let report = dir.join("salvage.json");
        // Every attempt sleeps well past its 1 ms budget, so each
        // routing is disqualified and salvaged.
        std::env::set_var("VROUTE_FAULT", "delay-20");
        let (out, ok) =
            run(&format!("batch {files} --retries 0 --deadline-ms 1 --json {}", report.display()));
        std::env::remove_var("VROUTE_FAULT");
        assert!(!ok.unwrap(), "a salvaged batch is not complete:\n{out}");
        assert!(out.contains("0 complete, 2 salvaged"), "{out}");
        assert!(out.contains("salvaged,"), "{out}");
        let text = std::fs::read_to_string(&report).unwrap();
        assert!(text.contains("\"status\": \"salvaged\""), "{text}");
        assert!(text.contains("\"lint\": 0"), "salvaged dbs lint clean:\n{text}");
        assert!(text.contains("deadline"), "{text}");
    }

    #[test]
    fn supervised_batch_resume_report_is_byte_identical() {
        let _guard = fault_env_lock();
        std::env::remove_var("VROUTE_FAULT");
        let dir = std::env::temp_dir().join("vroute-test-sup-resume");
        let _ = std::fs::remove_dir_all(&dir);
        let files = supervised_fixture(&dir, 6);
        let jdir = dir.join("journal");
        let full = dir.join("full.json");
        let resumed = dir.join("resumed.json");

        let (out, ok) = run(&format!(
            "batch {files} --retries 1 --journal {} --jobs 2 --json {}",
            jdir.display(),
            full.display()
        ));
        assert!(ok.unwrap(), "{out}");
        assert!(out.contains("journal:"), "{out}");

        // Simulate a SIGKILL mid-run: keep the first two completed
        // records, one in-flight marker, and a torn half-line.
        let log = jdir.join("journal.ldj");
        let text = std::fs::read_to_string(&log).unwrap();
        let done: Vec<&str> = text.lines().filter(|l| l.contains("\"ev\":\"done\"")).collect();
        let begin = text.lines().find(|l| l.contains("\"ev\":\"begin\"")).unwrap();
        let torn = &done[2][..done[2].len() / 2];
        std::fs::write(&log, format!("{}\n{}\n{}", done[..2].join("\n"), begin, torn)).unwrap();

        let (out, ok) = run(&format!(
            "batch {files} --retries 1 --journal {} --resume --jobs 2 --json {}",
            jdir.display(),
            resumed.display()
        ));
        assert!(ok.unwrap(), "{out}");
        assert!(out.contains("2 resumed"), "{out}");
        assert!(out.contains("(resumed)"), "{out}");

        assert_eq!(
            std::fs::read_to_string(&full).unwrap(),
            std::fs::read_to_string(&resumed).unwrap(),
            "a killed-and-resumed report must be byte-identical"
        );
    }

    #[test]
    fn batch_resume_reruns_a_record_torn_inside_a_multibyte_label() {
        let _guard = fault_env_lock();
        std::env::remove_var("VROUTE_FAULT");
        let dir = std::env::temp_dir().join("vroute-test-sup-utf8");
        let _ = std::fs::remove_dir_all(&dir);
        supervised_fixture(&dir, 2);
        let accented = dir.join("a\u{e9}.sb");
        std::fs::rename(dir.join("s1.sb"), &accented).unwrap();
        let files = format!("{} {}", dir.join("s0.sb").display(), accented.display());
        let jdir = dir.join("journal");
        let full = dir.join("full.json");
        let resumed = dir.join("resumed.json");

        let (out, ok) = run(&format!(
            "batch {files} --retries 1 --jobs 1 --journal {} --json {}",
            jdir.display(),
            full.display()
        ));
        assert!(ok.unwrap(), "{out}");

        // Tear the log one byte into its last `é`, as a crash mid-write
        // would: the tail is no longer valid UTF-8.
        let log = jdir.join("journal.ldj");
        let bytes = std::fs::read(&log).unwrap();
        let at = bytes.windows(2).rposition(|w| w == "\u{e9}".as_bytes()).unwrap();
        std::fs::write(&log, &bytes[..=at]).unwrap();

        let (out, ok) = run(&format!(
            "batch {files} --retries 1 --jobs 1 --journal {} --resume --json {}",
            jdir.display(),
            resumed.display()
        ));
        assert!(ok.unwrap(), "{out}");
        assert!(out.contains("1 resumed"), "{out}");
        assert_eq!(
            std::fs::read_to_string(&full).unwrap(),
            std::fs::read_to_string(&resumed).unwrap(),
            "the torn instance re-runs to the identical report"
        );
    }

    #[test]
    fn fuzz_rejects_unknown_fault_names() {
        let _guard = FUZZ_ENV.lock().unwrap();
        std::env::set_var("VROUTE_FUZZ_FAULT", "melt-the-grid");
        let (_, result) = run("fuzz --seeds 0..1");
        std::env::remove_var("VROUTE_FUZZ_FAULT");
        let msg = result.unwrap_err().to_string();
        assert!(msg.contains("melt-the-grid"), "{msg}");
    }
}
