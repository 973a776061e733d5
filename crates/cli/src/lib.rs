//! Implementation of the `vroute` command-line detailed router.
//!
//! The binary front-end in `main.rs` is a thin shell over this library
//! so argument parsing and command execution are unit-testable.
//!
//! The command-line synopsis is [`USAGE`], the text `vroute --help`
//! prints.
//!
//! Instance files use the text formats of
//! [`route_benchdata::format`]; see that module for the grammar.

#![warn(missing_docs)]

mod args;
mod run;
mod serve;

pub use args::{
    parse_args, AnalyzeArgs, BatchArgs, BatchRouterKind, ChannelArgs, ChannelRouterKind, CheckArgs,
    ChipArgs, ClientArgs, Command, FuzzArgs, GenKind, Journal, ParseArgsError, Recovery, RouteArgs,
    ServeArgs, ServeEndpoint, SwitchRouterKind,
};
pub use run::{execute, ExecutionError};

/// Usage text printed on `--help` or argument errors.
pub const USAGE: &str = "\
vroute — two-layer detailed router

USAGE:
  vroute route FILE [--router ripup|lee|tiled] [--ascii] [--svg OUT] [--save OUT]
               [--optimize] [--metrics] [--trace OUT] [--json OUT] [--analyze]
  vroute batch FILE... [--list LIST] [--router KIND] [--jobs N] [--json OUT]
               [--deadline-ms MS] [--metrics] [--trace OUT] [--analyze]
               [--retries N] [--fallback K,..] [--journal DIR] [--resume]
  vroute analyze INSTANCE [ROUTES] [--chip [--tile T]] [--json OUT]
  vroute check FILE ROUTES [--svg OUT]
  vroute channel FILE [--router ripup|lea|dogleg|greedy|yacr] [--tracks N] [--layers 2|3]
  vroute gen switchbox --width W --height H --nets N [--seed S]
  vroute gen channel --width W --nets N [--extra-pin-pct P] [--window W] [--seed S]
  vroute chip [--width W --height H --nets N --macros M] [--seed S] [--tile T]
              [--jobs N] [--analyze] [--order bbox|features] [--retries N]
              [--fallback K,..] [--journal DIR] [--resume] [--json OUT]
  vroute fuzz [--seeds A..B] [CASE...] [--jobs N] [--shrink] [--out DIR]
  vroute serve (--socket PATH | --tcp ADDR) [--workers N] [--queue N]
               [--deadline-ms MS] [--journal DIR] [--resume]
  vroute client (--socket PATH | --tcp ADDR) [FILE...] [--router KIND]
               [--deadline-ms MS] [--priority 0-9] [--events] [--shutdown]

COMMANDS:
  route     Route a switchbox instance file (sb format)
  batch     Route many instance files concurrently through the batch engine
  analyze   Statically analyze an instance (sb or fuzzcase format) without
            routing: feasibility certificates (F rules) plus, with a saved
            ROUTES file, the whole-database lint registry (L rules);
            --chip runs the chip-scale pass instead (F004-F006 tile-cut,
            seam and walled-region certificates plus a congestion map)
  check     Verify a saved routing (routes format) against its instance
  channel   Route a channel instance file (channel format)
  gen       Generate a random instance and print it to stdout
  chip      Generate a seeded synthetic chip (macro obstacles, mostly-local
            nets) and route it hierarchically: tile-graph planning, parallel
            per-tile detail routing on the batch engine, seam stitching,
            then the flat fallback; --jobs never changes the checksum
  fuzz      Differentially fuzz every router over seeded generator sweeps
            (oracles: independent DRC/claim verification, rip-up vs Lee
            baseline, observer consistency) and/or replay saved CASE files
  serve     Run the persistent routing daemon: warm router workers behind a
            versioned line-delimited JSON protocol (v1) over a unix socket
            or TCP, with bounded-queue admission control, priorities,
            per-request deadlines, streamed events, and an optional
            crash-safe request journal
  client    Drive a running daemon: one route request per FILE, printing
            each response line; --shutdown asks the daemon to stop

OPTIONS:
  --router KIND   Routing algorithm (default: ripup; batch also takes
                  lee|lea|dogleg|greedy|yacr|swbox)
  --jobs N        batch/chip/fuzz worker threads, at most 4096 (default 0 =
                  one per hardware thread)
  --list LIST     File with one instance path per line (# comments allowed)
  --json OUT      Write a machine-readable report (including metrics) to OUT
  --deadline-ms MS  Disqualify instances that take longer than MS
  --analyze       route: gate on the feasibility analysis and lint the routed
                  database; batch: skip provably infeasible instances;
                  chip: run the chip-scale precheck and skip certified nets
  --chip          analyze: run the chip-scale pass at tile size T
                  (--tile, default 16) instead of the flat one
  --order KIND    chip: planning net order, bbox (default) or features
                  (static congestion estimate first); both deterministic
  --metrics       Print the observer metrics table (nets, searches, rip-ups)
  --trace OUT     Write the observer event stream as line-delimited JSON to OUT
  --ascii         Print the routed layout as ASCII art
  --svg OUT       Write the routed layout as SVG to OUT
  --save OUT      Write the routed traces to OUT (reload with `check`)
  --optimize      Run the wirelength cleanup pass after routing
  --tracks N      Channel track count (default: search from density)
  --layers N      Channel routing layers, 2 or 3 (rip-up only)
  --seeds A..B    Fuzz the half-open seed range A..B (one instance per seed)
  --shrink        Minimize each fuzz finding to a smallest reproducing case
  --out DIR       Write minimized fuzz finding case files into DIR
  --socket PATH   serve/client: unix-domain socket endpoint
  --tcp ADDR      serve/client: TCP endpoint, e.g. 127.0.0.1:7777
  --workers N     serve: warm worker threads (0 = one per hardware thread)
  --queue N       serve: admission-queue bound; excess requests are rejected
                  with an `overloaded` error (default 64)
  --priority P    client: request priority 0-9, higher first (default 4)
  --events        client: subscribe to streamed per-net routing events
  --shutdown      client: ask the daemon to stop
  serve also takes --journal DIR (journal each accepted request to
  DIR/serve.ldj before routing it) and --resume (replay requests left
  pending by a crash before accepting connections; requires --journal)

SUPERVISED RECOVERY (batch instances, chip tiles):
  --retries N     Re-route failures up to N times (N <= 16) with escalated
                  budgets and a perturbed net order
  --fallback K,.. Comma-separated router chain tried after the retries
                  fail; chip takes only `lee`
  --journal DIR   Append each outcome to a crash-safe WAL: batch
                  DIR/journal.ldj, chip DIR/chip.ldj (fsync'd per tile)
  --resume        Skip work the journal already completed (chip replays
                  its tiles byte for byte); requires --journal. The
                  resumed JSON report is byte-identical to an
                  uninterrupted run's (supervised chip reports omit the
                  wall-clock field for exactly this reason).
  batch: any of these selects the supervised engine. Terminal failures
  salvage the best partial routing (most nets routed) and lint it
  instead of discarding the work; --deadline-ms becomes a per-attempt
  budget and timed-out attempts feed the salvage snapshot. Not
  combinable with --metrics/--trace.
  chip: --retries/--fallback select supervision; --journal works with
  or without them. Seam repair always escalates on its own: widened
  band, re-anchored fresh band, then the edge's stubborn nets ripped
  and the whole die rerouted incrementally.
  VROUTE_FAULT targets tiles (`panic@tile:3`) or seam rungs
  (`fail@seam`).

ENVIRONMENT:
  VROUTE_FUZZ_FAULT  Inject a deliberate router bug into `fuzz` runs for
                     mutation testing: hide-failures | drop-trace
  VROUTE_FAULT       Inject engine faults into supervised `batch`,
                     `chip` and `serve` runs: KIND[@TARGETS[@ATTEMPTS]]
                     with KIND one of panic | fail | delay-MS, and
                     TARGETS instances (`fail@1,4@1`), tiles
                     (`panic@tile:3`), or seam rungs (`fail@seam`);
                     `serve` targets its N-th admitted job as instance N
                     (`delay-800` stalls every job)
  An empty value counts as unset for each of these.
";
