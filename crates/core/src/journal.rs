//! Crash-safe journals: one append-only record log behind the batch
//! ([`RunJournal`]), service ([`ServeJournal`]) and chip
//! ([`ChipJournal`]) write-ahead logs.
//!
//! # The record log
//!
//! Each journal is one file of line-delimited JSON records, written by
//! one writer and read back by one reader:
//!
//! * **Envelope.** A record is one compact [`Json`] object on one line,
//!   its `"ev"` key first (`{"ev":"done",...`).
//! * **Seal.** The line ends in `,"crc":"<16 hex>"}`, an FNV-1a hash of
//!   every byte before `,"crc"`.
//! * **Torn lines.** Resume reads the file as bytes, splits it on `\n`
//!   and keeps a line only if it is valid UTF-8, parses, decodes as a
//!   record of the journal's kind, and that record re-encodes and
//!   re-seals to exactly the bytes read. A line torn by process death, a
//!   flipped byte, a record from an older binary or any foreign line
//!   fails that test and is skipped, so the work it describes is redone,
//!   never misreplayed. A torn tail is closed with a newline before the
//!   first new record is appended.
//! * **Replay.** Surviving records reach their journal in file order;
//!   where a journal keeps one record per key, the last one wins.
//! * **Fsync.** `begin` markers are written without fsync; every other
//!   record is fsync'd before the call returns.
//! * **Write errors** latch: the file is dropped and the message kept
//!   for the caller to surface once the run ends (workers cannot abort
//!   mid-flight without losing results).
//!
//! # Record kinds
//!
//! * [`RunJournal`] (`journal.ldj`): `begin` before an instance is
//!   routed, `done` ([`JournalEntry`]) once its supervised outcome is
//!   known. A `done` replays iff its index, label *and* instance
//!   fingerprint match, so edited inputs re-route. Replayed records feed
//!   the final report verbatim, which is what makes a killed-and-resumed
//!   batch report byte-identical to an uninterrupted one (the report
//!   excludes wall-clock fields for exactly this reason).
//! * [`ServeJournal`] (`serve.ldj`): `req` before a request is admitted,
//!   carrying the raw request line, and `done` once its response reached
//!   the client. A `req` with no matching `done` was in flight when the
//!   daemon died and is returned for replay ([`PendingRequest`]).
//! * [`ChipJournal`] (`chip.ldj`): `begin` before a tile is routed,
//!   `tile` ([`ChipTileRecord`]) once its supervised outcome is known,
//!   and `mark` stage checkpoints. A `tile` replays iff its index and
//!   tile fingerprint match; a `mark` survives iff it carries the chip
//!   fingerprint.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use route_model::Problem;
use route_proto::Json;

use crate::recover::{InstanceStatus, RecoveryPath, SupervisedOutcome};

/// A record kind the log can replay: it encodes to a JSON object whose
/// first key is `"ev"` and decodes back. Decoders may be lenient (absent
/// or ill-typed optional fields read as `None`): the reader keeps a
/// record only if its re-encoding reproduces the line byte for byte.
trait Record: Sized {
    fn encode(&self) -> Json;
    fn decode(json: &Json) -> Option<Self>;
}

/// The append side of a log. Errors latch (see the [module docs](self)).
#[derive(Debug)]
struct Writer {
    file: Option<File>,
    error: Option<String>,
}

/// The record log shared by every journal kind.
#[derive(Debug)]
struct RecordLog {
    path: PathBuf,
    writer: Mutex<Writer>,
}

impl RecordLog {
    /// Starts a fresh log `dir/name`, truncating any previous one.
    fn create(dir: &Path, name: &str) -> io::Result<RecordLog> {
        fs::create_dir_all(dir)?;
        let path = dir.join(name);
        let file = OpenOptions::new().write(true).create(true).truncate(true).open(&path)?;
        Ok(RecordLog { path, writer: Mutex::new(Writer { file: Some(file), error: None }) })
    }

    /// Opens `dir/name` for appending and returns its surviving records
    /// in file order. A missing log is an empty one; only I/O failures
    /// are errors.
    fn resume<R: Record>(dir: &Path, name: &str) -> io::Result<(RecordLog, Vec<R>)> {
        fs::create_dir_all(dir)?;
        let path = dir.join(name);
        let bytes = match fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        let records = bytes.split(|&b| b == b'\n').filter_map(read_line).collect();
        let mut file = OpenOptions::new().append(true).create(true).open(&path)?;
        if bytes.last().is_some_and(|&b| b != b'\n') {
            file.write_all(b"\n")?;
        }
        let log = RecordLog { path, writer: Mutex::new(Writer { file: Some(file), error: None }) };
        Ok((log, records))
    }

    /// Seals `record` and appends it as one line, fsyncing if `sync`.
    fn append(&self, record: &Json, sync: bool) {
        let mut line = seal(record);
        line.push('\n');
        let Ok(mut writer) = self.writer.lock() else { return };
        let Some(file) = writer.file.as_mut() else { return };
        let result =
            file.write_all(line.as_bytes()).and_then(
                |()| {
                    if sync {
                        file.sync_data()
                    } else {
                        Ok(())
                    }
                },
            );
        if let Err(e) = result {
            writer.error = Some(format!("journal write failed: {e}"));
            writer.file = None;
        }
    }

    /// The first write error, if any.
    fn take_error(&self) -> Option<String> {
        match self.writer.lock() {
            Ok(mut writer) => writer.error.take(),
            Err(_) => Some("journal writer mutex poisoned".to_string()),
        }
    }
}

/// Renders `record` as one sealed line, without its newline.
fn seal(record: &Json) -> String {
    let mut line = record.render_compact();
    line.pop(); // the closing brace: the seal goes inside the object
    let crc = RunJournal::fingerprint(&line);
    let _ = write!(line, ",\"crc\":\"{crc:016x}\"}}");
    line
}

/// The record on one line, or `None` unless the line is exactly the
/// sealed encoding of a record of kind `R`.
fn read_line<R: Record>(line: &[u8]) -> Option<R> {
    let line = std::str::from_utf8(line).ok()?;
    let record = R::decode(&Json::parse(line).ok()?)?;
    (seal(&record.encode()) == line).then_some(record)
}

/// A `u64` as the fixed-width hex string journals store it in.
fn hex(n: u64) -> Json {
    Json::Str(format!("{n:016x}"))
}

fn hex_at(json: &Json, key: &str) -> Option<u64> {
    u64::from_str_radix(json.get(key)?.as_str()?, 16).ok()
}

fn int_at<T: TryFrom<u64>>(json: &Json, key: &str) -> Option<T> {
    T::try_from(json.get(key)?.as_u64()?).ok()
}

fn text_at(json: &Json, key: &str) -> Option<String> {
    json.get(key)?.as_str().map(str::to_string)
}

fn is_ev(json: &Json, ev: &str) -> bool {
    json.get("ev").and_then(Json::as_str) == Some(ev)
}

/// One `done` record: everything the final report needs to describe an
/// instance without its live [`RouteDb`](route_model::RouteDb).
#[derive(Debug, Clone, PartialEq)]
pub struct JournalEntry {
    /// Batch index of the instance.
    pub index: usize,
    /// Instance label (the CLI uses the file path).
    pub label: String,
    /// Fingerprint of the instance text ([`RunJournal::fingerprint`]).
    pub fingerprint: u64,
    /// Terminal classification.
    pub status: InstanceStatus,
    /// How the result was obtained.
    pub path: RecoveryPath,
    /// Attempts spent across the recovery chain.
    pub attempts: u32,
    /// Database checksum, for completed and salvaged instances.
    pub checksum: Option<u64>,
    /// Total wirelength of the committed routing.
    pub wire: u64,
    /// Total vias of the committed routing.
    pub vias: u64,
    /// Unconnected nets (salvaged instances; zero when complete).
    pub failed_nets: usize,
    /// Salvage lint finding count (`None` unless salvaged).
    pub lint_findings: Option<u64>,
    /// Terminal error or salvage reason, if any.
    pub error: Option<String>,
}

impl JournalEntry {
    /// Builds the journal record for a live supervised outcome of
    /// `problem`. A salvage is linted here
    /// ([`route_analyze::lint_salvage`]: disconnections of declared-failed
    /// nets are excused), since the record is where its count is shown.
    pub fn from_outcome(
        index: usize,
        label: &str,
        fingerprint: u64,
        problem: &Problem,
        outcome: &SupervisedOutcome,
    ) -> JournalEntry {
        let mut entry = JournalEntry {
            index,
            label: label.to_string(),
            fingerprint,
            status: outcome.status(),
            path: outcome.path.clone(),
            attempts: outcome.attempts,
            checksum: None,
            wire: 0,
            vias: 0,
            failed_nets: 0,
            lint_findings: None,
            error: outcome.error_text(),
        };
        if let Some(Ok(routing)) = &outcome.result {
            let stats = routing.db.stats();
            entry.checksum = Some(routing.db.checksum());
            entry.wire = stats.wirelength;
            entry.vias = stats.vias;
            entry.failed_nets = routing.failed.len();
            if outcome.salvage.is_some() {
                let lint = route_analyze::lint_salvage(problem, &routing.db, &routing.failed);
                entry.lint_findings = Some(lint.findings().len() as u64);
            }
        }
        entry
    }
}

impl Record for JournalEntry {
    fn encode(&self) -> Json {
        let mut pairs = vec![
            ("ev", Json::str("done")),
            ("idx", Json::from(self.index)),
            ("label", Json::str(self.label.as_str())),
            ("fp", hex(self.fingerprint)),
            ("status", Json::str(self.status.as_str())),
            ("path", Json::str(self.path.encode())),
            ("attempts", Json::from(u64::from(self.attempts))),
        ];
        if let Some(checksum) = self.checksum {
            pairs.push(("checksum", hex(checksum)));
        }
        pairs.push(("wire", Json::from(self.wire)));
        pairs.push(("vias", Json::from(self.vias)));
        pairs.push(("failed", Json::from(self.failed_nets)));
        if let Some(lint) = self.lint_findings {
            pairs.push(("lint", Json::from(lint)));
        }
        if let Some(error) = &self.error {
            pairs.push(("error", Json::str(error.as_str())));
        }
        Json::obj(pairs)
    }

    fn decode(json: &Json) -> Option<JournalEntry> {
        if !is_ev(json, "done") {
            return None;
        }
        Some(JournalEntry {
            index: int_at(json, "idx")?,
            label: text_at(json, "label")?,
            fingerprint: hex_at(json, "fp")?,
            status: InstanceStatus::parse(json.get("status")?.as_str()?)?,
            path: RecoveryPath::parse(json.get("path")?.as_str()?)?,
            attempts: int_at(json, "attempts")?,
            checksum: hex_at(json, "checksum"),
            wire: int_at(json, "wire")?,
            vias: int_at(json, "vias")?,
            failed_nets: int_at(json, "failed")?,
            lint_findings: int_at(json, "lint"),
            error: text_at(json, "error"),
        })
    }
}

/// The run journal. See the [module docs](self) for the record log and
/// the resume contract.
#[derive(Debug)]
pub struct RunJournal {
    log: RecordLog,
    instances: Vec<(String, u64)>,
    replayed: Vec<Option<JournalEntry>>,
}

impl RunJournal {
    /// File name of the log inside the journal directory.
    pub const FILE_NAME: &'static str = "journal.ldj";

    /// FNV-1a fingerprint of an instance's text, used to detect edited
    /// inputs on resume.
    pub fn fingerprint(text: &str) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for byte in text.bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
        hash
    }

    /// Starts a fresh journal for the given `(label, fingerprint)`
    /// instances, truncating any previous log in `dir`.
    pub fn create(dir: &Path, instances: &[(String, u64)]) -> io::Result<RunJournal> {
        Ok(RunJournal {
            log: RecordLog::create(dir, RunJournal::FILE_NAME)?,
            instances: instances.to_vec(),
            replayed: vec![None; instances.len()],
        })
    }

    /// Opens a journal for resume: replays the last valid `done` record
    /// matching each instance, then appends. A missing log behaves like
    /// [`create`](RunJournal::create).
    pub fn resume(dir: &Path, instances: &[(String, u64)]) -> io::Result<RunJournal> {
        let (log, entries) = RecordLog::resume::<JournalEntry>(dir, RunJournal::FILE_NAME)?;
        let mut replayed: Vec<Option<JournalEntry>> = vec![None; instances.len()];
        for entry in entries {
            let matches = instances
                .get(entry.index)
                .is_some_and(|(label, fp)| *label == entry.label && *fp == entry.fingerprint);
            if matches {
                let slot = entry.index;
                replayed[slot] = Some(entry);
            }
        }
        Ok(RunJournal { log, instances: instances.to_vec(), replayed })
    }

    /// Path of the log file.
    pub fn path(&self) -> &Path {
        &self.log.path
    }

    /// The replayed `done` record for an instance, if resume found one.
    pub fn replay(&self, index: usize) -> Option<&JournalEntry> {
        self.replayed.get(index).and_then(Option::as_ref)
    }

    /// Instances resume will skip.
    pub fn resumed_count(&self) -> usize {
        self.replayed.iter().filter(|r| r.is_some()).count()
    }

    /// The label/fingerprint pair registered for an instance.
    pub fn key(&self, index: usize) -> Option<&(String, u64)> {
        self.instances.get(index)
    }

    /// Appends the in-flight marker for an instance. Errors latch (see
    /// [`take_error`](RunJournal::take_error)).
    pub fn begin(&self, index: usize) {
        let Some((label, fp)) = self.instances.get(index) else { return };
        let record = Json::obj([
            ("ev", Json::str("begin")),
            ("idx", Json::from(index)),
            ("label", Json::str(label.as_str())),
            ("fp", hex(*fp)),
        ]);
        self.log.append(&record, false);
    }

    /// Appends and fsyncs the terminal record for an instance. Errors
    /// latch (see [`take_error`](RunJournal::take_error)).
    pub fn finish(&self, entry: &JournalEntry) {
        self.log.append(&entry.encode(), true);
    }

    /// The first write error, if any — callers check once per batch.
    pub fn take_error(&self) -> Option<String> {
        self.log.take_error()
    }
}

/// A request the daemon accepted but never answered — found by
/// [`ServeJournal::resume`] after a crash, for replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PendingRequest {
    /// The journal's request id (also the replay order).
    pub rid: u64,
    /// The original request line, byte-for-byte as accepted.
    pub body: String,
}

/// The service journal's record kinds.
#[derive(Debug)]
enum ServeRecord {
    /// An accepted request.
    Req(PendingRequest),
    /// The response for `rid` reached the client.
    Done { rid: u64, status: String },
}

impl Record for ServeRecord {
    fn encode(&self) -> Json {
        match self {
            ServeRecord::Req(req) => Json::obj([
                ("ev", Json::str("req")),
                ("rid", Json::from(req.rid)),
                ("body", Json::str(req.body.as_str())),
            ]),
            ServeRecord::Done { rid, status } => Json::obj([
                ("ev", Json::str("done")),
                ("rid", Json::from(*rid)),
                ("status", Json::str(status.as_str())),
            ]),
        }
    }

    fn decode(json: &Json) -> Option<ServeRecord> {
        let rid = int_at(json, "rid")?;
        if is_ev(json, "req") {
            Some(ServeRecord::Req(PendingRequest { rid, body: text_at(json, "body")? }))
        } else if is_ev(json, "done") {
            Some(ServeRecord::Done { rid, status: text_at(json, "status")? })
        } else {
            None
        }
    }
}

/// Crash-safe request journal for the routing service (`vroute serve`):
/// a fsync'd `req` record per accepted request and a fsync'd `done`
/// record per delivered response. [`ServeJournal::resume`] returns every
/// `req` without a matching `done`, in acceptance order, so a restarted
/// daemon re-routes exactly the requests that were in flight when it
/// died.
#[derive(Debug)]
pub struct ServeJournal {
    log: RecordLog,
    next_rid: AtomicU64,
}

impl ServeJournal {
    /// File name of the log inside the journal directory.
    pub const FILE_NAME: &'static str = "serve.ldj";

    /// Starts a fresh service journal, truncating any previous log in
    /// `dir`.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation and file-open failures.
    pub fn create(dir: &Path) -> io::Result<ServeJournal> {
        let log = RecordLog::create(dir, ServeJournal::FILE_NAME)?;
        Ok(ServeJournal { log, next_rid: AtomicU64::new(1) })
    }

    /// Opens a journal for resume: returns the requests that were
    /// accepted but never answered, in acceptance order. A missing log
    /// behaves like [`create`](ServeJournal::create) with no pending
    /// requests.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation, read and file-open failures.
    pub fn resume(dir: &Path) -> io::Result<(ServeJournal, Vec<PendingRequest>)> {
        let (log, records) = RecordLog::resume::<ServeRecord>(dir, ServeJournal::FILE_NAME)?;
        let mut pending: BTreeMap<u64, PendingRequest> = BTreeMap::new();
        let mut max_rid = 0u64;
        for record in records {
            match record {
                ServeRecord::Req(req) => {
                    max_rid = max_rid.max(req.rid);
                    pending.insert(req.rid, req);
                }
                ServeRecord::Done { rid, .. } => {
                    max_rid = max_rid.max(rid);
                    pending.remove(&rid);
                }
            }
        }
        let journal = ServeJournal { log, next_rid: AtomicU64::new(max_rid + 1) };
        Ok((journal, pending.into_values().collect()))
    }

    /// Path of the log file.
    pub fn path(&self) -> &Path {
        &self.log.path
    }

    /// Records an accepted request (fsync'd before returning, so an
    /// admitted request survives a crash) and assigns its rid. Errors
    /// latch (see [`take_error`](ServeJournal::take_error)).
    pub fn accept(&self, body: &str) -> u64 {
        let rid = self.next_rid.fetch_add(1, Ordering::Relaxed);
        let req = PendingRequest { rid, body: body.to_string() };
        self.log.append(&ServeRecord::Req(req).encode(), true);
        rid
    }

    /// Records that the response for `rid` reached the client, with its
    /// terminal status word. Errors latch.
    pub fn done(&self, rid: u64, status: &str) {
        let record = ServeRecord::Done { rid, status: status.to_string() };
        self.log.append(&record.encode(), true);
    }

    /// The first write error, if any.
    pub fn take_error(&self) -> Option<String> {
        self.log.take_error()
    }
}

/// One chip-tile `tile` record: everything the hierarchical flow needs
/// to replay a finished tile without re-routing it.
#[derive(Debug, Clone, PartialEq)]
pub struct ChipTileRecord {
    /// Tile index in the chip's tile ordering.
    pub index: usize,
    /// Fingerprint of the tile sub-problem ([`RunJournal::fingerprint`]
    /// over its serialized form), so edited chips re-route.
    pub fingerprint: u64,
    /// Terminal classification of the tile's supervised outcome.
    pub status: InstanceStatus,
    /// How the tile's result was obtained.
    pub path: RecoveryPath,
    /// Attempts spent across the tile's recovery chain.
    pub attempts: u32,
    /// Tile-local committed wiring, one flat `[net, x, y, layer, x, y,
    /// layer, ...]` array per trace. The chip flow writes it and
    /// validates it against the tile before replay; the journal treats
    /// it as opaque integers.
    pub routes: Vec<Vec<i64>>,
    /// Tile-local ids of the nets the tile left unconnected.
    pub failed: Vec<u32>,
    /// Terminal error or salvage reason, if any.
    pub error: Option<String>,
}

impl ChipTileRecord {
    fn encode(&self) -> Json {
        let routes = self.routes.iter().map(|t| Json::arr(t.iter().map(|&n| Json::Int(n))));
        let failed = self.failed.iter().map(|&id| Json::from(u64::from(id)));
        let mut pairs = vec![
            ("ev", Json::str("tile")),
            ("idx", Json::from(self.index)),
            ("fp", hex(self.fingerprint)),
            ("status", Json::str(self.status.as_str())),
            ("path", Json::str(self.path.encode())),
            ("attempts", Json::from(u64::from(self.attempts))),
            ("routes", Json::arr(routes)),
            ("failed", Json::arr(failed)),
        ];
        if let Some(error) = &self.error {
            pairs.push(("error", Json::str(error.as_str())));
        }
        Json::obj(pairs)
    }
}

/// The chip journal's replayable record kinds (`begin` markers are
/// written but never read back).
#[derive(Debug)]
enum ChipRecord {
    /// A finished tile.
    Tile(ChipTileRecord),
    /// A stage checkpoint: the database checksum after `stage` of the
    /// chip with fingerprint `fp`.
    Mark { fp: u64, stage: String, checksum: u64 },
}

impl Record for ChipRecord {
    fn encode(&self) -> Json {
        match self {
            ChipRecord::Tile(tile) => tile.encode(),
            ChipRecord::Mark { fp, stage, checksum } => Json::obj([
                ("ev", Json::str("mark")),
                ("fp", hex(*fp)),
                ("stage", Json::str(stage.as_str())),
                ("checksum", hex(*checksum)),
            ]),
        }
    }

    fn decode(json: &Json) -> Option<ChipRecord> {
        if is_ev(json, "mark") {
            return Some(ChipRecord::Mark {
                fp: hex_at(json, "fp")?,
                stage: text_at(json, "stage")?,
                checksum: hex_at(json, "checksum")?,
            });
        }
        if !is_ev(json, "tile") {
            return None;
        }
        let routes =
            json.get("routes")?.as_arr()?.iter().map(|trace| {
                trace.as_arr()?.iter().map(Json::as_i64).collect::<Option<Vec<i64>>>()
            });
        let failed =
            json.get("failed")?.as_arr()?.iter().map(|id| u32::try_from(id.as_u64()?).ok());
        Some(ChipRecord::Tile(ChipTileRecord {
            index: int_at(json, "idx")?,
            fingerprint: hex_at(json, "fp")?,
            status: InstanceStatus::parse(json.get("status")?.as_str()?)?,
            path: RecoveryPath::parse(json.get("path")?.as_str()?)?,
            attempts: int_at(json, "attempts")?,
            routes: routes.collect::<Option<_>>()?,
            failed: failed.collect::<Option<_>>()?,
            error: text_at(json, "error"),
        }))
    }
}

/// Crash-safe journal for the hierarchical chip flow (`vroute chip`):
/// an unsynced `begin` marker before a tile is routed, a fsync'd `tile`
/// record once its supervised outcome is known, and fsync'd `mark`
/// stage checkpoints (e.g. the post-stitch database checksum) keyed by
/// the chip fingerprint so stale chips never validate.
///
/// The journal is opened *before* the chip's tile decomposition exists
/// ([`create`](ChipJournal::create) / [`resume`](ChipJournal::resume)
/// only touch the filesystem); once the flow has computed per-tile
/// fingerprints it calls [`establish`](ChipJournal::establish), which
/// matches the records read at resume against them — index *and*
/// fingerprint, last valid record wins.
#[derive(Debug)]
pub struct ChipJournal {
    log: RecordLog,
    state: Mutex<ChipState>,
}

#[derive(Debug, Default)]
struct ChipState {
    /// Established per-tile fingerprints.
    tiles: Vec<u64>,
    /// Chip fingerprint (FNV over the tile fingerprints).
    chip_fp: u64,
    /// Records read at resume, awaiting [`ChipJournal::establish`].
    read: Vec<ChipRecord>,
    /// Post-establish replay set, one slot per tile.
    replayed: Vec<Option<ChipTileRecord>>,
    /// Post-establish stage checkpoints from the previous run.
    checkpoints: BTreeMap<String, u64>,
}

impl ChipJournal {
    /// File name of the log inside the journal directory.
    pub const FILE_NAME: &'static str = "chip.ldj";

    /// Starts a fresh chip journal, truncating any previous log in
    /// `dir`.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation and file-open failures.
    pub fn create(dir: &Path) -> io::Result<ChipJournal> {
        let log = RecordLog::create(dir, ChipJournal::FILE_NAME)?;
        Ok(ChipJournal { log, state: Mutex::new(ChipState::default()) })
    }

    /// Opens a chip journal for resume: reads any existing log's valid
    /// records (candidates until [`establish`](ChipJournal::establish)
    /// matches them), then appends. A missing log behaves like
    /// [`create`](ChipJournal::create).
    ///
    /// # Errors
    ///
    /// Propagates directory-creation, read and file-open failures.
    pub fn resume(dir: &Path) -> io::Result<ChipJournal> {
        let (log, read) = RecordLog::resume::<ChipRecord>(dir, ChipJournal::FILE_NAME)?;
        Ok(ChipJournal { log, state: Mutex::new(ChipState { read, ..ChipState::default() }) })
    }

    /// Path of the log file.
    pub fn path(&self) -> &Path {
        &self.log.path
    }

    /// The chip fingerprint for a tile decomposition: FNV over the
    /// per-tile fingerprints.
    pub fn chip_fingerprint(tiles: &[u64]) -> u64 {
        let mut text = String::with_capacity(tiles.len() * 17);
        for fp in tiles {
            let _ = write!(text, "{fp:016x};");
        }
        RunJournal::fingerprint(&text)
    }

    /// Registers the chip's per-tile fingerprints and matches the
    /// records read at [`resume`](ChipJournal::resume) time against
    /// them: a `tile` record replays iff its index and fingerprint both
    /// match (last valid record wins); a `mark` checkpoint survives iff
    /// its chip fingerprint matches. Must be called before
    /// [`begin`](ChipJournal::begin)/[`finish`](ChipJournal::finish).
    pub fn establish(&self, tiles: &[u64]) {
        let Ok(mut state) = self.state.lock() else { return };
        state.tiles = tiles.to_vec();
        state.chip_fp = ChipJournal::chip_fingerprint(tiles);
        state.replayed = vec![None; tiles.len()];
        for record in std::mem::take(&mut state.read) {
            match record {
                ChipRecord::Tile(tile) => {
                    if state.tiles.get(tile.index) == Some(&tile.fingerprint) {
                        let slot = tile.index;
                        state.replayed[slot] = Some(tile);
                    }
                }
                ChipRecord::Mark { fp, stage, checksum } => {
                    if fp == state.chip_fp {
                        state.checkpoints.insert(stage, checksum);
                    }
                }
            }
        }
    }

    /// The replayed record for a tile, if resume found a matching one.
    /// The chip flow still validates it against the tile before use.
    pub fn replay(&self, index: usize) -> Option<ChipTileRecord> {
        let state = self.state.lock().ok()?;
        state.replayed.get(index).and_then(|r| r.clone())
    }

    /// The established fingerprint for a tile.
    pub fn tile_fingerprint(&self, index: usize) -> Option<u64> {
        let state = self.state.lock().ok()?;
        state.tiles.get(index).copied()
    }

    /// The previous run's checkpoint for a stage, if one survived
    /// [`establish`](ChipJournal::establish).
    pub fn replayed_checkpoint(&self, stage: &str) -> Option<u64> {
        let state = self.state.lock().ok()?;
        state.checkpoints.get(stage).copied()
    }

    /// Appends the in-flight marker for a tile. Errors latch (see
    /// [`take_error`](ChipJournal::take_error)).
    pub fn begin(&self, index: usize) {
        let Some(fp) = self.tile_fingerprint(index) else { return };
        let record =
            Json::obj([("ev", Json::str("begin")), ("idx", Json::from(index)), ("fp", hex(fp))]);
        self.log.append(&record, false);
    }

    /// Appends and fsyncs the terminal record for a tile. Errors latch
    /// (see [`take_error`](ChipJournal::take_error)).
    pub fn finish(&self, record: &ChipTileRecord) {
        self.log.append(&record.encode(), true);
    }

    /// Appends and fsyncs a stage checkpoint, keyed by the established
    /// chip fingerprint. Errors latch.
    pub fn checkpoint(&self, stage: &str, checksum: u64) {
        let Ok(fp) = self.state.lock().map(|state| state.chip_fp) else { return };
        let mark = ChipRecord::Mark { fp, stage: stage.to_string(), checksum };
        self.log.append(&mark.encode(), true);
    }

    /// The first write error, if any — callers check once per run.
    pub fn take_error(&self) -> Option<String> {
        self.log.take_error()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("vroute-journal-{name}"));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn entry(index: usize, label: &str) -> JournalEntry {
        JournalEntry {
            index,
            label: label.to_string(),
            fingerprint: RunJournal::fingerprint(label),
            status: InstanceStatus::Complete,
            path: RecoveryPath::Direct,
            attempts: 1,
            checksum: Some(0xdead_beef),
            wire: 42,
            vias: 3,
            failed_nets: 0,
            lint_findings: None,
            error: None,
        }
    }

    fn keys(labels: &[&str]) -> Vec<(String, u64)> {
        labels.iter().map(|l| (l.to_string(), RunJournal::fingerprint(l))).collect()
    }

    fn tile_record(index: usize, fp: u64) -> ChipTileRecord {
        ChipTileRecord {
            index,
            fingerprint: fp,
            status: InstanceStatus::Complete,
            path: RecoveryPath::Direct,
            attempts: 1,
            routes: vec![vec![0, 1, 2, 0, 2, 2, 0], vec![1, 0, 0, 1, 0, 1, 1, index as i64]],
            failed: vec![],
            error: None,
        }
    }

    #[test]
    fn entries_round_trip_through_the_log() {
        let dir = temp_dir("roundtrip");
        let tricky = "b \"quoted\" \\path\n\u{e9}.sb";
        let instances = keys(&["a.sb", tricky]);
        let journal = RunJournal::create(&dir, &instances).unwrap();
        journal.begin(0);
        journal.finish(&entry(0, "a.sb"));
        let mut salvaged = entry(1, tricky);
        salvaged.status = InstanceStatus::Salvaged;
        salvaged.path = RecoveryPath::Salvaged;
        salvaged.failed_nets = 2;
        salvaged.lint_findings = Some(0);
        // A value that spells out another field must stay a value.
        salvaged.error = Some("deadline exceeded\",\"status\":\"complete".to_string());
        journal.begin(1);
        journal.finish(&salvaged);
        assert_eq!(journal.take_error(), None);
        drop(journal);

        let text = fs::read_to_string(dir.join(RunJournal::FILE_NAME)).unwrap();
        assert!(text.lines().all(|l| l.starts_with("{\"ev\":")), "{text}");
        let resumed = RunJournal::resume(&dir, &instances).unwrap();
        assert_eq!(resumed.resumed_count(), 2);
        assert_eq!(resumed.replay(0), Some(&entry(0, "a.sb")));
        assert_eq!(resumed.replay(1), Some(&salvaged));
    }

    #[test]
    fn edited_instances_are_not_replayed() {
        let dir = temp_dir("edited");
        let journal = RunJournal::create(&dir, &keys(&["a.sb"])).unwrap();
        journal.finish(&entry(0, "a.sb"));
        drop(journal);

        // Same label, different content fingerprint: must re-run.
        let edited = vec![("a.sb".to_string(), 0x1234u64)];
        let resumed = RunJournal::resume(&dir, &edited).unwrap();
        assert_eq!(resumed.resumed_count(), 0);
    }

    #[test]
    fn serve_journal_replays_unanswered_requests() {
        let dir = temp_dir("serve");
        let journal = ServeJournal::create(&dir).unwrap();
        let tricky = "{\"v\":1,\"op\":\"route\",\"instance\":\"switchbox 4 4\\n\u{e9}\"}";
        let r1 = journal.accept(tricky);
        let r2 = journal.accept("{\"v\":1,\"op\":\"ping\",\"id\":\"p\"}");
        let r3 = journal.accept("{\"v\":1,\"op\":\"route\",\"id\":\"x\"}");
        assert_eq!((r1, r2, r3), (1, 2, 3));
        journal.done(r2, "complete");
        assert_eq!(journal.take_error(), None);
        drop(journal);

        let (resumed, pending) = ServeJournal::resume(&dir).unwrap();
        assert_eq!(pending.len(), 2, "answered requests must not replay");
        assert_eq!(pending[0].rid, 1);
        assert_eq!(pending[0].body, tricky, "bodies survive byte-for-byte");
        assert_eq!(pending[1].rid, 3);
        // New rids continue after the highest seen.
        assert_eq!(resumed.accept("{}"), 4);
    }

    #[test]
    fn chip_journal_replays_matching_tiles() {
        let dir = temp_dir("chip");
        let tiles = [0x11u64, 0x22, 0x33];
        let journal = ChipJournal::create(&dir).unwrap();
        journal.establish(&tiles);
        journal.begin(0);
        journal.finish(&tile_record(0, 0x11));
        let mut salvaged = tile_record(2, 0x33);
        salvaged.status = InstanceStatus::Salvaged;
        salvaged.path = RecoveryPath::Salvaged;
        salvaged.attempts = 3;
        salvaged.failed = vec![4, 9];
        salvaged.error = Some("incomplete after 3 attempt(s): 2 net(s) unrouted".to_string());
        journal.begin(2);
        journal.finish(&salvaged);
        journal.checkpoint("stitch", 0xfeed_f00d);
        assert_eq!(journal.take_error(), None);
        drop(journal);

        let resumed = ChipJournal::resume(&dir).unwrap();
        resumed.establish(&tiles);
        assert_eq!(resumed.replay(0), Some(tile_record(0, 0x11)));
        assert_eq!(resumed.replay(1), None, "tile 1 never finished");
        assert_eq!(resumed.replay(2), Some(salvaged));
        assert_eq!(resumed.replayed_checkpoint("stitch"), Some(0xfeed_f00d));
        assert_eq!(resumed.replayed_checkpoint("final"), None);
    }

    #[test]
    fn chip_journal_rejects_stale_fingerprints() {
        let dir = temp_dir("chip-stale");
        let journal = ChipJournal::create(&dir).unwrap();
        journal.establish(&[0x11, 0x22]);
        journal.finish(&tile_record(0, 0x11));
        journal.finish(&tile_record(1, 0x22));
        journal.checkpoint("stitch", 0xabcd);
        drop(journal);

        // A different chip: tile 0 matches, tile 1 changed, and the
        // chip-level checkpoint must not validate.
        let resumed = ChipJournal::resume(&dir).unwrap();
        resumed.establish(&[0x11, 0x99]);
        assert!(resumed.replay(0).is_some());
        assert!(resumed.replay(1).is_none(), "edited tile must re-route");
        assert_eq!(resumed.replayed_checkpoint("stitch"), None);
    }

    // The shared record log: torn lines, last-valid-wins, fresh and
    // unreadable logs, and resume over deterministically damaged files.

    #[test]
    fn torn_lines_are_dropped_and_the_last_valid_record_wins() {
        let dir = temp_dir("torn");
        let instances = keys(&["a.sb", "a\u{e9}.sb"]);
        let journal = RunJournal::create(&dir, &instances).unwrap();
        journal.finish(&entry(0, "a.sb"));
        let mut rerun = entry(0, "a.sb");
        rerun.attempts = 2;
        journal.finish(&rerun);
        journal.finish(&entry(1, "a\u{e9}.sb"));
        drop(journal);

        // Tear the log one byte into the last `é`, as a crash mid-write
        // would: the tail is no longer valid UTF-8.
        let path = dir.join(RunJournal::FILE_NAME);
        let bytes = fs::read(&path).unwrap();
        let e_acute = "\u{e9}".as_bytes();
        let at = bytes.windows(2).rposition(|w| w == e_acute).unwrap();
        fs::write(&path, &bytes[..=at]).unwrap();

        let resumed = RunJournal::resume(&dir, &instances).unwrap();
        assert_eq!(resumed.resumed_count(), 1, "the torn record must be re-run");
        assert_eq!(resumed.replay(0), Some(&rerun), "last valid record wins");
        assert!(resumed.replay(1).is_none());

        // The torn tail was closed, so the next record survives too.
        resumed.finish(&entry(1, "a\u{e9}.sb"));
        drop(resumed);
        let again = RunJournal::resume(&dir, &instances).unwrap();
        assert_eq!(again.resumed_count(), 2);
    }

    #[test]
    fn missing_logs_resume_empty_and_unreadable_logs_fail() {
        let dir = temp_dir("fresh");
        let (serve, pending) = ServeJournal::resume(&dir).unwrap();
        assert!(pending.is_empty());
        assert_eq!(serve.accept("x"), 1);
        let chip = ChipJournal::resume(&dir).unwrap();
        chip.establish(&[0x1]);
        assert!(chip.replay(0).is_none());
        assert_eq!(RunJournal::resume(&dir, &keys(&["a.sb"])).unwrap().resumed_count(), 0);

        // A log that cannot be read is a real I/O failure.
        let blocked = temp_dir("blocked");
        fs::create_dir_all(blocked.join(RunJournal::FILE_NAME)).unwrap();
        assert!(RunJournal::resume(&blocked, &keys(&["a.sb"])).is_err());
    }

    /// SplitMix64: the deterministic stream behind the damage below.
    struct SplitMix(u64);

    impl SplitMix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n.max(1) as u64) as usize
        }
    }

    /// Raw JSON values a forger might reseal into a record.
    fn hostile_values() -> Vec<String> {
        let mut values: Vec<String> = [
            "\"x\"",
            "\"\"",
            "-1",
            "-9223372036854775808",
            "9223372036854775808",
            "99999999999999999999999",
            "1.5",
            "true",
            "null",
            "[]",
            "{}",
            "[1,\"a\"]",
            "[[-1,2147483648,0]]",
            "\"+00000000000000ff\"",
        ]
        .iter()
        .map(|v| v.to_string())
        .collect();
        values.push("[".repeat(200) + &"]".repeat(200));
        values
    }

    /// Seals a record head (everything before `,"crc"`) with a valid
    /// crc, as a forger would.
    fn reseal(head: &str) -> String {
        format!("{head},\"crc\":\"{:016x}\"}}", RunJournal::fingerprint(head))
    }

    /// Replaces one top-level value of a sealed line with `value` and
    /// reseals it; `None` if the line is not a sealed object.
    fn forge(line: &str, pick: usize, value: &str) -> Option<String> {
        let head = &line[..line.rfind(",\"crc\":\"")?];
        let Json::Obj(mut pairs) = Json::parse(&format!("{head}}}")).ok()? else { return None };
        if pairs.is_empty() {
            return None;
        }
        let slot = pick % pairs.len();
        pairs[slot].1 = Json::str("\u{1}");
        let text = Json::Obj(pairs).render_compact().replace("\"\\u0001\"", value);
        Some(reseal(&text[..text.len() - 1]))
    }

    /// One deterministic damage step over a whole journal.
    fn damage(bytes: &mut Vec<u8>, rng: &mut SplitMix, hostile: &[String]) {
        let mut lines: Vec<Vec<u8>> = bytes.split(|&b| b == b'\n').map(<[u8]>::to_vec).collect();
        match rng.below(7) {
            0 if !bytes.is_empty() => {
                let at = rng.below(bytes.len());
                bytes[at] ^= 1 << rng.below(8);
                return;
            }
            1 => {
                bytes.truncate(rng.below(bytes.len() + 1));
                return;
            }
            2 => {
                let line = lines[rng.below(lines.len())].clone();
                let at = rng.below(lines.len() + 1);
                lines.insert(at, line);
            }
            3 => {
                lines.remove(rng.below(lines.len()));
            }
            4 => {
                let (a, b) = (rng.below(lines.len()), rng.below(lines.len()));
                lines.swap(a, b);
            }
            5 => {
                let at = rng.below(lines.len());
                let value = &hostile[rng.below(hostile.len())];
                let pick = rng.below(16);
                let forged =
                    std::str::from_utf8(&lines[at]).ok().and_then(|l| forge(l, pick, value));
                if let Some(forged) = forged {
                    lines[at] = forged.into_bytes();
                }
            }
            _ => {
                let garbage: &[u8] = match rng.below(3) {
                    0 => b"{\"ev\":\"done\",\"idx\":0}",
                    1 => b"\xc3",
                    _ => b"{\"ev\":\"tile\",\"crc\":\"0\"}",
                };
                lines.push(garbage.to_vec());
            }
        }
        *bytes = lines.join(&b'\n');
    }

    /// Writes damaged copies of the journal at `path` and hands each to
    /// `check` along with its set of lines; returns how many records
    /// `check` saw replayed, so the caller can tell the test is not
    /// vacuous.
    fn for_each_damaged(
        path: &Path,
        seed: u64,
        mut check: impl FnMut(&HashSet<&[u8]>) -> usize,
    ) -> usize {
        let original = fs::read(path).unwrap();
        let hostile = hostile_values();
        let mut rng = SplitMix(seed);
        let mut run = |bytes: &[u8]| {
            fs::write(path, bytes).unwrap();
            check(&bytes.split(|&b| b == b'\n').collect())
        };
        // Truncation at every offset, as a crash at any byte would leave.
        let mut replayed: usize = (0..=original.len()).map(|cut| run(&original[..cut])).sum();
        for _ in 0..300 {
            let mut bytes = original.clone();
            for _ in 0..1 + rng.below(3) {
                damage(&mut bytes, &mut rng, &hostile);
            }
            replayed += run(&bytes);
        }
        replayed
    }

    fn sealed(record: &Json) -> Vec<u8> {
        seal(record).into_bytes()
    }

    #[test]
    fn damaged_journals_resume_without_panics_or_misreplay() {
        // Batch journal.
        let dir = temp_dir("damage-run");
        let instances = keys(&["a.sb", "b\u{e9}.sb", "c \"q\".sb"]);
        let journal = RunJournal::create(&dir, &instances).unwrap();
        for (i, (label, _)) in instances.iter().enumerate() {
            journal.begin(i);
            let mut e = entry(i, label);
            e.error = (i == 2).then(|| "no route\nfor net 3".to_string());
            journal.finish(&e);
        }
        drop(journal);
        let replayed = for_each_damaged(&dir.join(RunJournal::FILE_NAME), 1, |lines| {
            let journal =
                RunJournal::resume(&dir, &instances).expect("only I/O failures are errors");
            let mut n = 0;
            for (i, key) in instances.iter().enumerate() {
                if let Some(e) = journal.replay(i) {
                    assert_eq!((e.index, &e.label, e.fingerprint), (i, &key.0, key.1));
                    assert!(lines.contains(sealed(&e.encode()).as_slice()), "{e:?}");
                    n += 1;
                }
            }
            n
        });
        assert!(replayed > 0);

        // Service journal.
        let dir = temp_dir("damage-serve");
        let journal = ServeJournal::create(&dir).unwrap();
        for body in ["{\"v\":1,\"op\":\"ping\"}", "route \u{e9}\n", "{}", "last"] {
            let rid = journal.accept(body);
            if rid.is_multiple_of(2) {
                journal.done(rid, "complete");
            }
        }
        drop(journal);
        let replayed = for_each_damaged(&dir.join(ServeJournal::FILE_NAME), 2, |lines| {
            let (journal, pending) =
                ServeJournal::resume(&dir).expect("only I/O failures are errors");
            for req in &pending {
                assert!(lines.contains(sealed(&ServeRecord::Req(req.clone()).encode()).as_slice()));
            }
            assert!(pending.windows(2).all(|w| w[0].rid < w[1].rid));
            let next = journal.accept("next");
            assert!(pending.iter().all(|req| req.rid < next));
            pending.len()
        });
        assert!(replayed > 0);

        // Chip journal.
        let dir = temp_dir("damage-chip");
        let tiles = [0x11u64, 0x22, 0x33];
        let chip_fp = ChipJournal::chip_fingerprint(&tiles);
        let journal = ChipJournal::create(&dir).unwrap();
        journal.establish(&tiles);
        for (i, &fp) in tiles.iter().enumerate() {
            journal.begin(i);
            journal.finish(&tile_record(i, fp));
        }
        journal.checkpoint("stitch", 0xabcd);
        journal.checkpoint("final", 0xef01);
        drop(journal);
        let replayed = for_each_damaged(&dir.join(ChipJournal::FILE_NAME), 3, |lines| {
            let journal = ChipJournal::resume(&dir).expect("only I/O failures are errors");
            journal.establish(&tiles);
            let mut n = 0;
            for (i, &fp) in tiles.iter().enumerate() {
                if let Some(tile) = journal.replay(i) {
                    assert_eq!((tile.index, tile.fingerprint), (i, fp));
                    assert!(lines.contains(sealed(&tile.encode()).as_slice()), "{tile:?}");
                    n += 1;
                }
            }
            for stage in ["stitch", "final"] {
                if let Some(checksum) = journal.replayed_checkpoint(stage) {
                    let mark = ChipRecord::Mark { fp: chip_fp, stage: stage.into(), checksum };
                    assert!(lines.contains(sealed(&mark.encode()).as_slice()));
                    n += 1;
                }
            }
            n
        });
        assert!(replayed > 0);
    }
}
