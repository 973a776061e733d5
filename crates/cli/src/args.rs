//! Argument parsing for `vroute`, hand-rolled and dependency-free.
//!
//! Each command runs one parse loop ([`parse_loop`]): every argument is
//! offered first to the flag groups it shares with other commands
//! ([`Shared`]), then to the command's own flags. Numbers parse straight
//! into their target type within an inclusive range, so an argument is
//! either in range or an error — never narrowed.

#![deny(clippy::as_conversions)]

use std::error::Error;
use std::fmt;
use std::ops::RangeInclusive;
use std::str::FromStr;

use route_global::PlanOrder;

/// A choice the command line names. One table maps every variant to its
/// name, and both parsing and printing read it.
pub(crate) trait Named: Copy + PartialEq + 'static {
    /// Every variant with its name, in the order usage lists them.
    const NAMES: &'static [(Self, &'static str)];

    /// The variant's name, as parsed and as printed in reports.
    fn name(self) -> &'static str {
        Self::NAMES
            .iter()
            .find(|(kind, _)| *kind == self)
            .map(|(_, name)| *name)
            .expect("every variant is in its name table")
    }

    /// The variant called `name`, if any.
    fn from_name(name: &str) -> Option<Self> {
        Self::NAMES.iter().find(|(_, n)| *n == name).map(|(kind, _)| *kind)
    }
}

/// The message for a name `T`'s table lacks, listing every name it has.
pub(crate) fn unknown_name<T: Named>(what: &str, name: &str) -> String {
    let names: Vec<&str> = T::NAMES.iter().map(|(_, n)| *n).collect();
    format!("unknown {what} `{name}` ({})", names.join("|"))
}

/// `name` as the `T` it names, as a value of `flag`.
fn parse_name<T: Named>(flag: &str, name: &str) -> Result<T, ParseArgsError> {
    T::from_name(name).ok_or_else(|| err(unknown_name::<T>(flag, name)))
}

/// Router choices for switchbox instances.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SwitchRouterKind {
    /// The rip-up/reroute detailed router (default).
    #[default]
    Ripup,
    /// The sequential Lee-style maze baseline.
    Lee,
    /// Hierarchical: tile-planned global routing, rip-up per tile.
    Tiled,
}

impl Named for SwitchRouterKind {
    const NAMES: &'static [(Self, &'static str)] =
        &[(Self::Ripup, "ripup"), (Self::Lee, "lee"), (Self::Tiled, "tiled")];
}

/// Router choices for channel instances.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ChannelRouterKind {
    /// Rip-up/reroute with minimum-track search (default).
    #[default]
    Ripup,
    /// Left-edge algorithm.
    Lea,
    /// Dogleg router.
    Dogleg,
    /// Greedy column sweep.
    Greedy,
    /// YACR-style track assignment with maze patch-up.
    Yacr,
}

impl Named for ChannelRouterKind {
    const NAMES: &'static [(Self, &'static str)] = &[
        (Self::Ripup, "ripup"),
        (Self::Lea, "lea"),
        (Self::Dogleg, "dogleg"),
        (Self::Greedy, "greedy"),
        (Self::Yacr, "yacr"),
    ];
}

/// Router choices for batch runs — the full unified
/// [`DetailedRouter`](route_model::DetailedRouter) roster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BatchRouterKind {
    /// The rip-up/reroute detailed router (default).
    #[default]
    Ripup,
    /// The sequential Lee-style maze baseline.
    Lee,
    /// Left-edge algorithm (channel-shaped instances only).
    Lea,
    /// Dogleg router (channel-shaped instances only).
    Dogleg,
    /// Greedy column sweep (channel-shaped instances only).
    Greedy,
    /// YACR-style track assignment (channel-shaped instances only).
    Yacr,
    /// Greedy switchbox sweep.
    Swbox,
}

impl Named for BatchRouterKind {
    const NAMES: &'static [(Self, &'static str)] = &[
        (Self::Ripup, "ripup"),
        (Self::Lee, "lee"),
        (Self::Lea, "lea"),
        (Self::Dogleg, "dogleg"),
        (Self::Greedy, "greedy"),
        (Self::Yacr, "yacr"),
        (Self::Swbox, "swbox"),
    ];
}

impl Named for PlanOrder {
    const NAMES: &'static [(Self, &'static str)] =
        &[(Self::Bbox, "bbox"), (Self::Features, "features")];
}

/// Instance kinds the generator can produce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GenKind {
    /// Random switchbox.
    Switchbox {
        /// Grid width.
        width: u32,
        /// Grid height.
        height: u32,
        /// Net count.
        nets: u32,
        /// RNG seed.
        seed: u64,
    },
    /// Random channel.
    Channel {
        /// Column count.
        width: u32,
        /// Net count.
        nets: u32,
        /// Multi-pin pressure, percent.
        extra_pin_pct: u32,
        /// Span window (0 = unbounded).
        window: usize,
        /// RNG seed.
        seed: u64,
    },
}

/// Where the routing service listens (and where the client connects).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeEndpoint {
    /// A unix-domain socket at this path.
    Unix(String),
    /// A TCP listen/connect address, e.g. `127.0.0.1:7777`.
    Tcp(String),
}

impl fmt::Display for ServeEndpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeEndpoint::Unix(path) => write!(f, "unix:{path}"),
            ServeEndpoint::Tcp(addr) => write!(f, "tcp:{addr}"),
        }
    }
}

/// The crash-safe journal flags: `--journal DIR` and `--resume`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Journal {
    /// Directory holding the journal file.
    pub dir: Option<String>,
    /// Resume from the journal in `dir` instead of starting a new one.
    pub resume: bool,
}

/// The supervised-recovery flags `batch` and `chip` share.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Recovery {
    /// Retry budget per instance or tile; any value, 0 included,
    /// selects supervision.
    pub retries: Option<u32>,
    /// Routers tried in order once the retries are spent.
    pub fallback: Vec<BatchRouterKind>,
    /// Where completed work is journaled, and whether to resume from it.
    pub journal: Journal,
}

impl Recovery {
    /// Whether `--retries` or `--fallback` asks for supervision.
    pub(crate) fn supervised(&self) -> bool {
        self.retries.is_some() || !self.fallback.is_empty()
    }
}

/// `vroute route`: route a switchbox file.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RouteArgs {
    /// Instance path.
    pub file: String,
    /// Algorithm.
    pub router: SwitchRouterKind,
    /// Print ASCII art of the result.
    pub ascii: bool,
    /// Write an SVG of the result to this path.
    pub svg: Option<String>,
    /// Write the routed traces (routes format) to this path.
    pub save: Option<String>,
    /// Run the cleanup pass after routing.
    pub optimize: bool,
    /// Write the observer event stream (line-delimited JSON) here.
    pub trace: Option<String>,
    /// Print the observer metrics table after routing.
    pub metrics: bool,
    /// Write a machine-readable JSON report (including metrics) here.
    pub json: Option<String>,
    /// Gate routing on the static feasibility analysis and lint the
    /// routed database afterwards.
    pub analyze: bool,
}

/// `vroute batch`: route many switchbox files concurrently through the
/// batch engine.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BatchArgs {
    /// Instance paths (in addition to any `--list` contents).
    pub files: Vec<String>,
    /// File with one instance path per line (`#` comments allowed).
    pub list: Option<String>,
    /// Algorithm.
    pub router: BatchRouterKind,
    /// Worker threads (0 = one per hardware thread).
    pub jobs: usize,
    /// Write a machine-readable JSON report to this path.
    pub json: Option<String>,
    /// Per-instance wall-clock budget in milliseconds.
    pub deadline_ms: Option<u64>,
    /// Write every instance's event stream (line-delimited JSON) here.
    pub trace: Option<String>,
    /// Print the aggregated observer metrics table after the batch.
    pub metrics: bool,
    /// Skip provably infeasible instances via the engine precheck.
    pub analyze: bool,
    /// Supervised recovery; any of its flags selects the supervised
    /// report, and the journal is `journal.ldj`.
    pub recovery: Recovery,
}

impl BatchArgs {
    /// Whether any recovery flag selects the supervised report.
    pub(crate) fn supervised(&self) -> bool {
        self.recovery.supervised() || self.recovery.journal.dir.is_some()
    }
}

/// `vroute channel`: route a channel file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelArgs {
    /// Instance path.
    pub file: String,
    /// Algorithm.
    pub router: ChannelRouterKind,
    /// Fixed track count (rip-up only; default searches from density).
    pub tracks: Option<usize>,
    /// Routing layers (2 or 3; rip-up only; default 2).
    pub layers: u8,
}

/// `vroute analyze`: statically analyze an instance (and optionally a
/// saved routing) without routing anything.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalyzeArgs {
    /// Instance path: sb format or a saved `fuzzcase v1` file.
    pub instance: String,
    /// Optional routing path (routes format) to lint as well.
    pub routes: Option<String>,
    /// Run the chip-scale analysis (F004–F006 certificates plus the
    /// congestion map) at this tile size instead of the flat pass.
    pub chip: Option<u32>,
    /// Write the diagnostics as a machine-readable JSON report here.
    pub json: Option<String>,
}

/// `vroute check`: verify a saved routing against its instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckArgs {
    /// Instance path (sb format).
    pub instance: String,
    /// Routing path (routes format).
    pub routes: String,
    /// Write an SVG of the loaded routing to this path.
    pub svg: Option<String>,
}

/// `vroute chip`: generate a synthetic chip floorplan and route it
/// hierarchically.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ChipArgs {
    /// Chip width in cells.
    pub width: u32,
    /// Chip height in cells.
    pub height: u32,
    /// Net count.
    pub nets: u32,
    /// Macro-obstacle count.
    pub macros: u32,
    /// Generator seed.
    pub seed: u64,
    /// Tile side length in cells.
    pub tile: u32,
    /// Worker threads for the tile batch (0 = one per hardware
    /// thread); any value yields a byte-identical database.
    pub jobs: usize,
    /// Run the chip-scale analysis precheck before planning:
    /// certified-unroutable nets are skipped and counted.
    pub analyze: bool,
    /// Net-ordering policy for the planning phase.
    pub order: PlanOrder,
    /// Supervised tile recovery: `--retries` or `--fallback` (which
    /// takes only `lee`) select it; the journal is `chip.ldj`.
    pub recovery: Recovery,
    /// Write a machine-readable JSON report to this path.
    pub json: Option<String>,
}

/// `vroute serve`: run the persistent routing service, a daemon with
/// warm router workers speaking the versioned line-delimited JSON
/// protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeArgs {
    /// Listen endpoint (exactly one of `--socket`/`--tcp`).
    pub endpoint: ServeEndpoint,
    /// Warm worker threads (0 = one per hardware thread).
    pub workers: usize,
    /// Admission-queue bound (requests beyond it are rejected with an
    /// `overloaded` error).
    pub queue: usize,
    /// Default per-request wall-clock budget in milliseconds, applied
    /// to requests that do not carry their own.
    pub deadline_ms: Option<u64>,
    /// The crash-safe request journal (`serve.ldj`); `--resume` replays
    /// unanswered requests on startup.
    pub journal: Journal,
}

/// `vroute client`: drive a running routing service with one protocol
/// request per instance file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientArgs {
    /// Connect endpoint (exactly one of `--socket`/`--tcp`).
    pub endpoint: ServeEndpoint,
    /// Instance paths to route, one request per file.
    pub files: Vec<String>,
    /// Algorithm requested for every file.
    pub router: BatchRouterKind,
    /// Per-request wall-clock budget in milliseconds.
    pub deadline_ms: Option<u64>,
    /// Request priority (0-9, higher first).
    pub priority: Option<u8>,
    /// Subscribe to streamed routing events.
    pub events: bool,
    /// Ask the daemon to shut down after any file requests.
    pub shutdown: bool,
}

/// `vroute fuzz`: differentially fuzz the router roster over seeded
/// generator sweeps, or replay saved case files.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FuzzArgs {
    /// Seed range (half-open) to sweep; `None` replays `cases` only.
    pub seeds: Option<(u64, u64)>,
    /// Saved `fuzzcase` files to replay through the oracles.
    pub cases: Vec<String>,
    /// Worker threads (0 = one per hardware thread).
    pub jobs: usize,
    /// Minimize each finding to a smallest reproducing case.
    pub shrink: bool,
    /// Directory where finding case files are written.
    pub out: Option<String>,
}

/// A fully parsed command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// Route a switchbox file.
    Route(RouteArgs),
    /// Route many switchbox files through the batch engine.
    Batch(BatchArgs),
    /// Route a channel file.
    Channel(ChannelArgs),
    /// Statically analyze an instance.
    Analyze(AnalyzeArgs),
    /// Verify a saved routing against its instance.
    Check(CheckArgs),
    /// Generate an instance to stdout.
    Gen(GenKind),
    /// Generate a synthetic chip and route it hierarchically.
    Chip(ChipArgs),
    /// Run the persistent routing service.
    Serve(ServeArgs),
    /// Drive a running routing service.
    Client(ClientArgs),
    /// Differentially fuzz the router roster.
    Fuzz(FuzzArgs),
    /// Print usage.
    Help,
}

/// Error produced for an invalid command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseArgsError(pub String);

impl fmt::Display for ParseArgsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl Error for ParseArgsError {}

fn err(msg: impl Into<String>) -> ParseArgsError {
    ParseArgsError(msg.into())
}

struct Cursor {
    args: Vec<String>,
    pos: usize,
}

impl Cursor {
    fn next(&mut self) -> Option<&str> {
        let a = self.args.get(self.pos)?;
        self.pos += 1;
        Some(a)
    }

    fn value_of(&mut self, flag: &str) -> Result<String, ParseArgsError> {
        self.next().map(str::to_owned).ok_or_else(|| err(format!("{flag} needs a value")))
    }

    /// The value of `flag` as a `T` within `range`.
    fn num<T>(&mut self, flag: &str, range: RangeInclusive<T>) -> Result<T, ParseArgsError>
    where
        T: FromStr + PartialOrd + fmt::Display,
    {
        let v = self.value_of(flag)?;
        v.parse().ok().filter(|n| range.contains(n)).ok_or_else(|| {
            err(format!("{flag} needs a number in {}..={}, got `{v}`", range.start(), range.end()))
        })
    }

    /// The value of `flag` as one of `T`'s names.
    fn named<T: Named>(&mut self, flag: &str) -> Result<T, ParseArgsError> {
        parse_name(flag, &self.value_of(flag)?)
    }
}

/// The flag groups several commands share, each flag parsed by exactly
/// one arm. A command lends the fields of the groups it takes; a flag of
/// a group it does not take stays unknown to it.
#[derive(Default)]
struct Shared<'a> {
    jobs: Option<&'a mut usize>,
    deadline_ms: Option<&'a mut Option<u64>>,
    retries: Option<&'a mut Option<u32>>,
    fallback: Option<&'a mut Vec<BatchRouterKind>>,
    journal: Option<&'a mut Journal>,
    endpoint: Option<&'a mut Option<ServeEndpoint>>,
}

impl<'a> Shared<'a> {
    /// Lends the whole recovery group.
    fn recovery(recovery: &'a mut Recovery) -> Self {
        let Recovery { retries, fallback, journal } = recovery;
        Shared {
            retries: Some(retries),
            fallback: Some(fallback),
            journal: Some(journal),
            ..Shared::default()
        }
    }

    /// Parses `flag` if it belongs to a lent group.
    fn take(&mut self, flag: &str, cur: &mut Cursor) -> Result<bool, ParseArgsError> {
        match (flag, self) {
            ("--jobs", Shared { jobs: Some(jobs), .. }) => **jobs = cur.num(flag, 0..=4096)?,
            ("--deadline-ms", Shared { deadline_ms: Some(ms), .. }) => {
                **ms = Some(cur.num(flag, 1..=u64::MAX)?);
            }
            ("--retries", Shared { retries: Some(n), .. }) => **n = Some(cur.num(flag, 0..=16)?),
            ("--fallback", Shared { fallback: Some(chain), .. }) => {
                for name in cur.value_of(flag)?.split(',') {
                    chain.push(parse_name(flag, name.trim())?);
                }
            }
            ("--journal", Shared { journal: Some(j), .. }) => j.dir = Some(cur.value_of(flag)?),
            ("--resume", Shared { journal: Some(j), .. }) => j.resume = true,
            ("--socket" | "--tcp", Shared { endpoint: Some(endpoint), .. }) => {
                let value = cur.value_of(flag)?;
                let value = match flag {
                    "--socket" => ServeEndpoint::Unix(value),
                    _ => ServeEndpoint::Tcp(value),
                };
                if endpoint.replace(value).is_some() {
                    return Err(err("give exactly one of --socket PATH or --tcp ADDR"));
                }
            }
            _ => return Ok(false),
        }
        Ok(true)
    }
}

/// One command's parse loop: each argument goes to the shared groups
/// first, then to `own`; an argument neither takes is an unknown flag.
fn parse_loop(
    cur: &mut Cursor,
    cmd: &str,
    mut shared: Shared<'_>,
    mut own: impl FnMut(&str, &mut Cursor) -> Result<bool, ParseArgsError>,
) -> Result<(), ParseArgsError> {
    while let Some(arg) = cur.next().map(str::to_owned) {
        if !shared.take(&arg, cur)? && !own(&arg, cur)? {
            return Err(err(format!("unknown flag `{arg}` for `{cmd}`")));
        }
    }
    if shared.journal.is_some_and(|j| j.resume && j.dir.is_none()) {
        return Err(err("--resume requires --journal DIR"));
    }
    Ok(())
}

/// Parses the argument list (without the program name).
///
/// # Errors
///
/// Returns [`ParseArgsError`] with a human-readable message for unknown
/// commands, unknown flags, missing values, and unparsable or
/// out-of-range numbers.
pub fn parse_args<I: IntoIterator<Item = String>>(args: I) -> Result<Command, ParseArgsError> {
    let mut cur = Cursor { args: args.into_iter().collect(), pos: 0 };
    let Some(cmd) = cur.next().map(str::to_owned) else {
        return Ok(Command::Help);
    };
    match cmd.as_str() {
        "--help" | "-h" | "help" => Ok(Command::Help),
        "route" => parse_route(&mut cur),
        "batch" => parse_batch(&mut cur),
        "analyze" => parse_analyze(&mut cur),
        "check" => parse_check(&mut cur),
        "channel" => parse_channel(&mut cur),
        "gen" => parse_gen(&mut cur),
        "chip" => parse_chip(&mut cur),
        "serve" => parse_serve(&mut cur),
        "client" => parse_client(&mut cur),
        "fuzz" => parse_fuzz(&mut cur),
        other => Err(err(format!("unknown command `{other}`"))),
    }
}

fn parse_route(cur: &mut Cursor) -> Result<Command, ParseArgsError> {
    let mut a = RouteArgs::default();
    let mut file = None;
    parse_loop(cur, "route", Shared::default(), |arg, cur| {
        match arg {
            "--router" => a.router = cur.named(arg)?,
            "--ascii" => a.ascii = true,
            "--svg" => a.svg = Some(cur.value_of(arg)?),
            "--save" => a.save = Some(cur.value_of(arg)?),
            "--optimize" => a.optimize = true,
            "--trace" => a.trace = Some(cur.value_of(arg)?),
            "--metrics" => a.metrics = true,
            "--json" => a.json = Some(cur.value_of(arg)?),
            "--analyze" => a.analyze = true,
            path if !path.starts_with("--") => {
                if file.replace(path.to_owned()).is_some() {
                    return Err(err("`route` takes exactly one FILE"));
                }
            }
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    a.file = file.ok_or_else(|| err("`route` needs a FILE"))?;
    Ok(Command::Route(a))
}

fn parse_batch(cur: &mut Cursor) -> Result<Command, ParseArgsError> {
    let mut a = BatchArgs::default();
    let shared = Shared {
        jobs: Some(&mut a.jobs),
        deadline_ms: Some(&mut a.deadline_ms),
        ..Shared::recovery(&mut a.recovery)
    };
    parse_loop(cur, "batch", shared, |arg, cur| {
        match arg {
            "--router" => a.router = cur.named(arg)?,
            "--list" => a.list = Some(cur.value_of(arg)?),
            "--json" => a.json = Some(cur.value_of(arg)?),
            "--trace" => a.trace = Some(cur.value_of(arg)?),
            "--metrics" => a.metrics = true,
            "--analyze" => a.analyze = true,
            path if !path.starts_with("--") => a.files.push(path.to_owned()),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    if a.files.is_empty() && a.list.is_none() {
        return Err(err("`batch` needs instance FILEs or --list"));
    }
    Ok(Command::Batch(a))
}

fn parse_chip(cur: &mut Cursor) -> Result<Command, ParseArgsError> {
    // Defaults match `ChipGen::small`: a quick but multi-tile instance.
    let mut a =
        ChipArgs { width: 96, height: 96, nets: 700, macros: 6, tile: 16, ..ChipArgs::default() };
    let shared = Shared { jobs: Some(&mut a.jobs), ..Shared::recovery(&mut a.recovery) };
    parse_loop(cur, "chip", shared, |arg, cur| {
        match arg {
            "--width" => a.width = cur.num(arg, 8..=4096)?,
            "--height" => a.height = cur.num(arg, 8..=4096)?,
            "--nets" => a.nets = cur.num(arg, 1..=u32::MAX)?,
            "--macros" => a.macros = cur.num(arg, 0..=u32::MAX)?,
            "--seed" => a.seed = cur.num(arg, 0..=u64::MAX)?,
            "--tile" => a.tile = cur.num(arg, 1..=u32::MAX)?,
            "--analyze" => a.analyze = true,
            "--order" => a.order = cur.named(arg)?,
            "--json" => a.json = Some(cur.value_of(arg)?),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    if let Some(other) = a.recovery.fallback.iter().find(|k| **k != BatchRouterKind::Lee) {
        return Err(err(format!("--fallback must be `lee` for `chip`, got `{}`", other.name())));
    }
    Ok(Command::Chip(a))
}

fn parse_analyze(cur: &mut Cursor) -> Result<Command, ParseArgsError> {
    let mut paths: Vec<String> = Vec::new();
    let mut chip = false;
    let mut tile: Option<u32> = None;
    let mut json = None;
    parse_loop(cur, "analyze", Shared::default(), |arg, cur| {
        match arg {
            "--chip" => chip = true,
            "--tile" => tile = Some(cur.num(arg, 1..=u32::MAX)?),
            "--json" => json = Some(cur.value_of(arg)?),
            path if !path.starts_with("--") => paths.push(path.to_owned()),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    if paths.len() > 2 {
        return Err(err("`analyze` takes INSTANCE and at most one ROUTES file"));
    }
    if tile.is_some() && !chip {
        return Err(err("--tile only applies to `analyze --chip`"));
    }
    if chip && paths.len() > 1 {
        return Err(err("`analyze --chip` analyzes the instance alone; drop the ROUTES file"));
    }
    let mut paths = paths.into_iter();
    let instance = paths.next().ok_or_else(|| err("`analyze` needs an INSTANCE"))?;
    Ok(Command::Analyze(AnalyzeArgs {
        instance,
        routes: paths.next(),
        chip: chip.then(|| tile.unwrap_or(16)),
        json,
    }))
}

fn parse_check(cur: &mut Cursor) -> Result<Command, ParseArgsError> {
    let mut paths: Vec<String> = Vec::new();
    let mut svg = None;
    parse_loop(cur, "check", Shared::default(), |arg, cur| {
        match arg {
            "--svg" => svg = Some(cur.value_of(arg)?),
            path if !path.starts_with("--") => paths.push(path.to_owned()),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    let [instance, routes] =
        <[String; 2]>::try_from(paths).map_err(|_| err("`check` takes exactly INSTANCE ROUTES"))?;
    Ok(Command::Check(CheckArgs { instance, routes, svg }))
}

fn parse_channel(cur: &mut Cursor) -> Result<Command, ParseArgsError> {
    let mut file = None;
    let mut router = ChannelRouterKind::default();
    let mut tracks = None;
    let mut layers = 2u8;
    parse_loop(cur, "channel", Shared::default(), |arg, cur| {
        match arg {
            "--router" => router = cur.named(arg)?,
            "--tracks" => tracks = Some(cur.num(arg, 1..=4096)?),
            "--layers" => layers = cur.num(arg, 2..=3)?,
            path if !path.starts_with("--") => {
                if file.replace(path.to_owned()).is_some() {
                    return Err(err("`channel` takes exactly one FILE"));
                }
            }
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    let file = file.ok_or_else(|| err("`channel` needs a FILE"))?;
    Ok(Command::Channel(ChannelArgs { file, router, tracks, layers }))
}

fn parse_gen(cur: &mut Cursor) -> Result<Command, ParseArgsError> {
    let kind = cur.next().map(str::to_owned).ok_or_else(|| err("`gen` needs a kind"))?;
    let max_width = match kind.as_str() {
        "switchbox" => 4096,
        "channel" => 65536,
        other => return Err(err(format!("unknown gen kind `{other}`"))),
    };
    let (mut width, mut height, mut nets) = (None, None, None);
    let (mut seed, mut extra_pin_pct, mut window) = (0, 30, 0);
    parse_loop(cur, "gen", Shared::default(), |arg, cur| {
        match arg {
            "--width" => width = Some(cur.num(arg, 1..=max_width)?),
            "--height" => height = Some(cur.num(arg, 1..=4096)?),
            "--nets" => nets = Some(cur.num(arg, 0..=u32::MAX)?),
            "--seed" => seed = cur.num(arg, 0..=u64::MAX)?,
            "--extra-pin-pct" => extra_pin_pct = cur.num(arg, 0..=u32::MAX)?,
            "--window" => window = cur.num(arg, 0..=usize::MAX)?,
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    let width = width.ok_or_else(|| err("gen needs --width"))?;
    let nets = nets.ok_or_else(|| err("gen needs --nets"))?;
    Ok(Command::Gen(if kind == "switchbox" {
        let height = height.ok_or_else(|| err("gen switchbox needs --height"))?;
        GenKind::Switchbox { width, height, nets, seed }
    } else {
        GenKind::Channel { width, nets, extra_pin_pct, window, seed }
    }))
}

fn parse_serve(cur: &mut Cursor) -> Result<Command, ParseArgsError> {
    let mut endpoint = None;
    let mut deadline_ms = None;
    let mut journal = Journal::default();
    let mut workers = 0;
    let mut queue = 64;
    let shared = Shared {
        deadline_ms: Some(&mut deadline_ms),
        journal: Some(&mut journal),
        endpoint: Some(&mut endpoint),
        ..Shared::default()
    };
    parse_loop(cur, "serve", shared, |arg, cur| {
        match arg {
            "--workers" => workers = cur.num(arg, 0..=1024)?,
            "--queue" => queue = cur.num(arg, 1..=usize::MAX)?,
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    let endpoint = endpoint.ok_or_else(|| err("`serve` needs --socket PATH or --tcp ADDR"))?;
    Ok(Command::Serve(ServeArgs { endpoint, workers, queue, deadline_ms, journal }))
}

fn parse_client(cur: &mut Cursor) -> Result<Command, ParseArgsError> {
    let mut endpoint = None;
    let mut deadline_ms = None;
    let mut files = Vec::new();
    let mut router = BatchRouterKind::default();
    let mut priority = None;
    let (mut events, mut shutdown) = (false, false);
    let shared = Shared {
        deadline_ms: Some(&mut deadline_ms),
        endpoint: Some(&mut endpoint),
        ..Shared::default()
    };
    parse_loop(cur, "client", shared, |arg, cur| {
        match arg {
            "--router" => router = cur.named(arg)?,
            "--priority" => priority = Some(cur.num(arg, 0..=9)?),
            "--events" => events = true,
            "--shutdown" => shutdown = true,
            path if !path.starts_with("--") => files.push(path.to_owned()),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    let endpoint = endpoint.ok_or_else(|| err("`client` needs --socket PATH or --tcp ADDR"))?;
    if files.is_empty() && !shutdown {
        return Err(err("`client` needs instance FILEs or --shutdown"));
    }
    Ok(Command::Client(ClientArgs {
        endpoint,
        files,
        router,
        deadline_ms,
        priority,
        events,
        shutdown,
    }))
}

fn parse_fuzz(cur: &mut Cursor) -> Result<Command, ParseArgsError> {
    let mut a = FuzzArgs::default();
    let shared = Shared { jobs: Some(&mut a.jobs), ..Shared::default() };
    parse_loop(cur, "fuzz", shared, |arg, cur| {
        match arg {
            "--seeds" => {
                let spec = cur.value_of(arg)?;
                let (lo, hi) = spec
                    .split_once("..")
                    .ok_or_else(|| err("--seeds takes a range like 0..100"))?;
                let seed = |s: &str| {
                    let s = s.trim();
                    s.parse::<u64>().map_err(|_| err(format!("--seeds: bad seed `{s}`")))
                };
                let (lo, hi) = (seed(lo)?, seed(hi)?);
                if hi <= lo {
                    return Err(err(format!("--seeds range {lo}..{hi} is empty")));
                }
                a.seeds = Some((lo, hi));
            }
            "--shrink" => a.shrink = true,
            "--out" => a.out = Some(cur.value_of(arg)?),
            path if !path.starts_with("--") => a.cases.push(path.to_owned()),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    if a.seeds.is_none() && a.cases.is_empty() {
        return Err(err("`fuzz` needs --seeds A..B or case FILEs to replay"));
    }
    Ok(Command::Fuzz(a))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Command, ParseArgsError> {
        parse_args(line.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn route_defaults() {
        assert_eq!(
            parse("route box.sb").unwrap(),
            Command::Route(RouteArgs {
                file: "box.sb".into(),
                router: SwitchRouterKind::Ripup,
                ascii: false,
                svg: None,
                save: None,
                optimize: false,
                trace: None,
                metrics: false,
                json: None,
                analyze: false,
            })
        );
    }

    #[test]
    fn route_all_flags() {
        assert_eq!(
            parse(
                "route box.sb --router lee --ascii --svg out.svg --optimize \
                 --trace ev.ldj --metrics --json rep.json --analyze"
            )
            .unwrap(),
            Command::Route(RouteArgs {
                file: "box.sb".into(),
                router: SwitchRouterKind::Lee,
                ascii: true,
                svg: Some("out.svg".into()),
                save: None,
                optimize: true,
                trace: Some("ev.ldj".into()),
                metrics: true,
                json: Some("rep.json".into()),
                analyze: true,
            })
        );
    }

    #[test]
    fn batch_flags() {
        assert_eq!(
            parse("batch a.sb b.sb --jobs 8 --json out.json --metrics --analyze").unwrap(),
            Command::Batch(BatchArgs {
                files: vec!["a.sb".into(), "b.sb".into()],
                list: None,
                router: BatchRouterKind::Ripup,
                jobs: 8,
                json: Some("out.json".into()),
                deadline_ms: None,
                trace: None,
                metrics: true,
                analyze: true,
                recovery: Recovery {
                    retries: None,
                    fallback: vec![],
                    journal: Journal { dir: None, resume: false },
                },
            })
        );
        assert_eq!(
            parse("batch --list all.txt --router lee --deadline-ms 500 --trace ev.ldj").unwrap(),
            Command::Batch(BatchArgs {
                files: vec![],
                list: Some("all.txt".into()),
                router: BatchRouterKind::Lee,
                jobs: 0,
                json: None,
                deadline_ms: Some(500),
                trace: Some("ev.ldj".into()),
                metrics: false,
                analyze: false,
                recovery: Recovery {
                    retries: None,
                    fallback: vec![],
                    journal: Journal { dir: None, resume: false },
                },
            })
        );
        assert!(parse("batch").unwrap_err().to_string().contains("--list"));
        assert!(parse("batch a.sb --router bogus").unwrap_err().to_string().contains("bogus"));
        assert!(parse("batch a.sb --jobs x").unwrap_err().to_string().contains("number"));
    }

    #[test]
    fn batch_supervised_flags() {
        assert_eq!(
            parse("batch a.sb --retries 2 --fallback lee,swbox --journal runs/j --resume").unwrap(),
            Command::Batch(BatchArgs {
                files: vec!["a.sb".into()],
                list: None,
                router: BatchRouterKind::Ripup,
                jobs: 0,
                json: None,
                deadline_ms: None,
                trace: None,
                metrics: false,
                analyze: false,
                recovery: Recovery {
                    retries: Some(2),
                    fallback: vec![BatchRouterKind::Lee, BatchRouterKind::Swbox],
                    journal: Journal { dir: Some("runs/j".into()), resume: true },
                },
            })
        );
        // --retries 0 still selects the supervised engine.
        let Command::Batch(a) = parse("batch a.sb --retries 0").unwrap() else { panic!() };
        assert_eq!(a.recovery.retries, Some(0));
        assert!(a.supervised());
        assert!(parse("batch a.sb --retries x").unwrap_err().to_string().contains("number"));
        assert!(parse("batch a.sb --retries 17").unwrap_err().to_string().contains("0..=16"));
        assert!(parse("batch a.sb --fallback bogus").unwrap_err().to_string().contains("bogus"));
        assert!(parse("batch a.sb --resume").unwrap_err().to_string().contains("--journal"));
        // Supervised batches are observed like plain ones.
        let Command::Batch(a) = parse("batch a.sb --retries 1 --metrics").unwrap() else {
            panic!()
        };
        assert!(a.supervised() && a.metrics);
        let Command::Batch(a) = parse("batch a.sb --journal j --trace ev.ldj").unwrap() else {
            panic!()
        };
        assert!(a.supervised() && a.trace.as_deref() == Some("ev.ldj"));
    }

    #[test]
    fn chip_flags() {
        assert_eq!(
            parse("chip").unwrap(),
            Command::Chip(ChipArgs {
                width: 96,
                height: 96,
                nets: 700,
                macros: 6,
                seed: 0,
                tile: 16,
                jobs: 0,
                analyze: false,
                order: PlanOrder::Bbox,
                recovery: Recovery {
                    retries: None,
                    fallback: vec![],
                    journal: Journal { dir: None, resume: false },
                },
                json: None,
            })
        );
        assert_eq!(
            parse(
                "chip --width 352 --height 352 --nets 10560 --macros 24 --seed 7 --tile 32 \
                   --jobs 4 --analyze --order features --retries 2 --fallback lee \
                   --journal chipdir --resume --json chip.json"
            )
            .unwrap(),
            Command::Chip(ChipArgs {
                width: 352,
                height: 352,
                nets: 10560,
                macros: 24,
                seed: 7,
                tile: 32,
                jobs: 4,
                analyze: true,
                order: PlanOrder::Features,
                recovery: Recovery {
                    retries: Some(2),
                    fallback: vec![BatchRouterKind::Lee],
                    journal: Journal { dir: Some("chipdir".into()), resume: true },
                },
                json: Some("chip.json".into()),
            })
        );
        assert!(parse("chip --width 4").unwrap_err().to_string().contains("8..=4096"));
        assert!(parse("chip --tile 0").unwrap_err().to_string().contains("--tile"));
        assert!(parse("chip --nets 0").unwrap_err().to_string().contains("--nets"));
        assert!(parse("chip --jobs 9999").unwrap_err().to_string().contains("4096"));
        assert!(parse("chip extra.sb").unwrap_err().to_string().contains("unknown flag"));
        assert!(parse("chip --order sideways").unwrap_err().to_string().contains("--order"));
    }

    #[test]
    fn chip_supervision_flags() {
        // --retries 0 still selects the supervised tile stage.
        let Command::Chip(a) = parse("chip --retries 0").unwrap() else { panic!() };
        assert_eq!(a.recovery.retries, Some(0));
        assert!(a.recovery.supervised());
        assert!(parse("chip --retries 17").unwrap_err().to_string().contains("0..=16"));
        assert!(parse("chip --fallback maze").unwrap_err().to_string().contains("lee"));
        // The batch list syntax parses, but chip falls back to Lee only.
        let msg = parse("chip --fallback lee,swbox").unwrap_err().to_string();
        assert!(msg.contains("--fallback must be `lee` for `chip`, got `swbox`"), "{msg}");
        // Resuming needs somewhere to resume *from*.
        let msg = parse("chip --resume").unwrap_err().to_string();
        assert!(msg.contains("--resume requires --journal DIR"), "{msg}");
        let msg = parse("chip --resume --retries 2").unwrap_err().to_string();
        assert!(msg.contains("--resume requires --journal DIR"), "{msg}");
        let Command::Chip(a) = parse("chip --journal d --resume").unwrap() else { panic!() };
        assert_eq!(a.recovery.journal, Journal { dir: Some("d".into()), resume: true });
    }

    #[test]
    fn channel_routers() {
        for (kind, name) in ChannelRouterKind::NAMES {
            let cmd = parse(&format!("channel c.ch --router {name}")).unwrap();
            assert_eq!(
                cmd,
                Command::Channel(ChannelArgs {
                    file: "c.ch".into(),
                    router: *kind,
                    tracks: None,
                    layers: 2
                })
            );
        }
        assert_eq!(
            parse("channel c.ch --tracks 12").unwrap(),
            Command::Channel(ChannelArgs {
                file: "c.ch".into(),
                router: ChannelRouterKind::Ripup,
                tracks: Some(12),
                layers: 2
            })
        );
    }

    #[test]
    fn gen_commands() {
        assert_eq!(
            parse("gen switchbox --width 10 --height 8 --nets 6 --seed 3").unwrap(),
            Command::Gen(GenKind::Switchbox { width: 10, height: 8, nets: 6, seed: 3 })
        );
        assert_eq!(
            parse("gen channel --width 30 --nets 12 --window 10").unwrap(),
            Command::Gen(GenKind::Channel {
                width: 30,
                nets: 12,
                extra_pin_pct: 30,
                window: 10,
                seed: 0
            })
        );
    }

    #[test]
    fn fuzz_flags() {
        assert_eq!(
            parse("fuzz --seeds 0..100 --shrink --out findings --jobs 2").unwrap(),
            Command::Fuzz(FuzzArgs {
                seeds: Some((0, 100)),
                cases: vec![],
                jobs: 2,
                shrink: true,
                out: Some("findings".into()),
            })
        );
        assert_eq!(
            parse("fuzz corpus/a.case corpus/b.case").unwrap(),
            Command::Fuzz(FuzzArgs {
                seeds: None,
                cases: vec!["corpus/a.case".into(), "corpus/b.case".into()],
                jobs: 0,
                shrink: false,
                out: None,
            })
        );
        assert!(parse("fuzz").unwrap_err().to_string().contains("--seeds"));
        assert!(parse("fuzz --seeds 7").unwrap_err().to_string().contains("range"));
        assert!(parse("fuzz --seeds 9..9").unwrap_err().to_string().contains("empty"));
        assert!(parse("fuzz --seeds x..3").unwrap_err().to_string().contains("bad seed"));
    }

    #[test]
    fn serve_flags() {
        assert_eq!(
            parse("serve --socket /tmp/v.sock").unwrap(),
            Command::Serve(ServeArgs {
                endpoint: ServeEndpoint::Unix("/tmp/v.sock".into()),
                workers: 0,
                queue: 64,
                deadline_ms: None,
                journal: Journal { dir: None, resume: false },
            })
        );
        assert_eq!(
            parse(
                "serve --tcp 127.0.0.1:7777 --workers 2 --queue 8 --deadline-ms 500 \
                 --journal runs/j --resume"
            )
            .unwrap(),
            Command::Serve(ServeArgs {
                endpoint: ServeEndpoint::Tcp("127.0.0.1:7777".into()),
                workers: 2,
                queue: 8,
                deadline_ms: Some(500),
                journal: Journal { dir: Some("runs/j".into()), resume: true },
            })
        );
        assert!(parse("serve").unwrap_err().to_string().contains("--socket"));
        let msg = parse("serve --socket a --tcp b").unwrap_err().to_string();
        assert!(msg.contains("exactly one"), "{msg}");
        assert!(parse("serve --socket s --queue 0").unwrap_err().to_string().contains("1..="));
        // --resume without --journal must fail loudly, not be ignored.
        let msg = parse("serve --socket s --resume").unwrap_err().to_string();
        assert!(msg.contains("--journal"), "{msg}");
        // Serve journals but does not supervise.
        let msg = parse("serve --socket s --retries 1").unwrap_err().to_string();
        assert!(msg.contains("unknown flag `--retries` for `serve`"), "{msg}");
    }

    #[test]
    fn client_flags() {
        assert_eq!(
            parse("client --socket /tmp/v.sock a.sb b.sb --router lee --priority 7 --events")
                .unwrap(),
            Command::Client(ClientArgs {
                endpoint: ServeEndpoint::Unix("/tmp/v.sock".into()),
                files: vec!["a.sb".into(), "b.sb".into()],
                router: BatchRouterKind::Lee,
                deadline_ms: None,
                priority: Some(7),
                events: true,
                shutdown: false,
            })
        );
        assert_eq!(
            parse("client --tcp 127.0.0.1:7777 --shutdown").unwrap(),
            Command::Client(ClientArgs {
                endpoint: ServeEndpoint::Tcp("127.0.0.1:7777".into()),
                files: vec![],
                router: BatchRouterKind::Ripup,
                deadline_ms: None,
                priority: None,
                events: false,
                shutdown: true,
            })
        );
        assert!(parse("client --socket s").unwrap_err().to_string().contains("FILE"));
        assert!(parse("client a.sb").unwrap_err().to_string().contains("--socket"));
        assert!(parse("client --socket s a.sb --priority 10")
            .unwrap_err()
            .to_string()
            .contains("0..=9"));
    }

    #[test]
    fn analyze_flags() {
        let analyze = |instance: &str, routes: Option<&str>, chip, json: Option<&str>| {
            Command::Analyze(AnalyzeArgs {
                instance: instance.into(),
                routes: routes.map(Into::into),
                chip,
                json: json.map(Into::into),
            })
        };
        assert_eq!(parse("analyze box.sb").unwrap(), analyze("box.sb", None, None, None));
        assert_eq!(
            parse("analyze box.sb box.routes --json rep.json").unwrap(),
            analyze("box.sb", Some("box.routes"), None, Some("rep.json"))
        );
        assert_eq!(
            parse("analyze box.sb --chip").unwrap(),
            analyze("box.sb", None, Some(16), None)
        );
        assert_eq!(
            parse("analyze box.sb --chip --tile 8 --json rep.json").unwrap(),
            analyze("box.sb", None, Some(8), Some("rep.json"))
        );
        assert!(parse("analyze").unwrap_err().to_string().contains("INSTANCE"));
        assert!(parse("analyze a b c").unwrap_err().to_string().contains("at most one"));
        assert!(parse("analyze a --bogus").unwrap_err().to_string().contains("--bogus"));
        assert!(parse("analyze a --tile 8").unwrap_err().to_string().contains("--chip"));
        assert!(parse("analyze a --chip --tile 0").unwrap_err().to_string().contains("--tile"));
        assert!(parse("analyze a b --chip").unwrap_err().to_string().contains("ROUTES"));
    }

    #[test]
    fn help_variants() {
        assert_eq!(parse("").unwrap(), Command::Help);
        assert_eq!(parse("--help").unwrap(), Command::Help);
        assert_eq!(parse("help").unwrap(), Command::Help);
    }

    #[test]
    fn errors_are_descriptive() {
        assert!(parse("frobnicate").unwrap_err().to_string().contains("unknown command"));
        assert!(parse("route").unwrap_err().to_string().contains("FILE"));
        assert!(parse("route a b").unwrap_err().to_string().contains("exactly one"));
        assert!(parse("route f --router bogus").unwrap_err().to_string().contains("bogus"));
        assert!(parse("channel f --tracks x").unwrap_err().to_string().contains("number"));
        assert!(parse("gen switchbox --width 5 --nets 3")
            .unwrap_err()
            .to_string()
            .contains("--height"));
    }

    /// Every numeric flag of every command, after the arguments its
    /// command needs, with the values just past each end of its range.
    const NUMERIC_FLAGS: &[(&str, &str, &[&str])] = &[
        ("batch a.sb", "--jobs", &["4097"]),
        ("batch a.sb", "--deadline-ms", &["0"]),
        ("batch a.sb", "--retries", &["17"]),
        ("chip", "--width", &["7", "4097"]),
        ("chip", "--height", &["7", "4097"]),
        ("chip", "--nets", &["0", "4294967296"]),
        ("chip", "--macros", &["4294967296"]),
        ("chip", "--seed", &[]),
        ("chip", "--tile", &["0", "4294967296"]),
        ("chip", "--jobs", &["4097"]),
        ("chip", "--retries", &["17"]),
        ("analyze a.sb --chip", "--tile", &["0", "4294967296"]),
        ("channel c.ch", "--tracks", &["0", "4097"]),
        ("channel c.ch", "--layers", &["1", "4"]),
        ("gen switchbox --width 8 --height 8 --nets 2", "--width", &["0", "4097"]),
        ("gen switchbox --width 8 --height 8 --nets 2", "--height", &["0", "4097"]),
        ("gen switchbox --width 8 --height 8 --nets 2", "--nets", &["4294967296"]),
        ("gen switchbox --width 8 --height 8 --nets 2", "--seed", &[]),
        ("gen channel --width 8 --nets 2", "--width", &["0", "65537"]),
        ("gen channel --width 8 --nets 2", "--extra-pin-pct", &["4294967296"]),
        ("gen channel --width 8 --nets 2", "--window", &[]),
        ("serve --socket s", "--workers", &["1025"]),
        ("serve --socket s", "--queue", &["0"]),
        ("serve --socket s", "--deadline-ms", &["0"]),
        ("client --socket s a.sb", "--deadline-ms", &["0"]),
        ("client --socket s a.sb", "--priority", &["10"]),
        ("fuzz --seeds 0..1", "--jobs", &["4097"]),
        ("fuzz", "--seeds", &["0..18446744073709551616"]),
    ];

    #[test]
    fn numeric_flags_reject_out_of_range_values_by_name() {
        for (prefix, flag, past) in NUMERIC_FLAGS {
            let wide = ["18446744073709551616", "-1"];
            for value in past.iter().chain(&wide) {
                let line = format!("{prefix} {flag} {value}");
                let msg = parse(&line).expect_err(&line).to_string();
                assert!(msg.contains(flag), "`{line}`: {msg}");
            }
            let line = format!("{prefix} {flag}");
            let msg = parse(&line).expect_err(&line).to_string();
            assert!(msg.contains(flag), "`{line}`: {msg}");
        }
        // The values that used to wrap into a valid chip now fail.
        for line in [
            "chip --width 4294967336 --height 40 --nets 20 --tile 10",
            "chip --tile 4294967306",
            "chip --nets 4294967297",
        ] {
            assert!(parse(line).is_err(), "{line}");
        }
    }

    /// Every name in `T`'s table parses to a variant that prints back
    /// as the same name.
    fn round_trips<T: Named + fmt::Debug>() {
        for (kind, name) in T::NAMES {
            assert_eq!(T::from_name(name), Some(*kind), "{name}");
            assert_eq!(kind.name(), *name);
        }
        assert_eq!(T::from_name("bogus"), None);
    }

    #[test]
    fn router_tables_round_trip() {
        round_trips::<SwitchRouterKind>();
        round_trips::<ChannelRouterKind>();
        round_trips::<BatchRouterKind>();
        round_trips::<PlanOrder>();
    }
}
