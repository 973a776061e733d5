//! The `vroute serve` daemon and its `vroute client` counterpart.
//!
//! The daemon wraps [`mighty::RouteService`] — warm workers behind a
//! bounded admission queue — in a socket transport speaking the v1
//! line-delimited JSON protocol of [`route_proto::wire`]. Each accepted
//! connection gets one thread that processes its requests serially:
//! read a line, dispatch it, stream any subscribed events, write
//! exactly one terminal response, repeat. Malformed input (oversized
//! lines, bad JSON, wrong version, unknown ops) produces a structured
//! error response on the same connection — never a disconnect — so a
//! confused client can correct itself without reconnecting.
//!
//! With `--journal DIR` every accepted route request is appended to a
//! crash-safe WAL (`serve.ldj`, crc-sealed like the batch journal)
//! *before* routing starts, and marked done after its response is
//! written. `--resume` replays the unanswered suffix through the same
//! dispatch path at startup, so a daemon killed mid-request finishes
//! the work on restart.

use std::fmt;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use mighty::{
    JobSpec, PendingRequest, RouteService, ServeJournal, ServiceConfig, ServiceReply, ServiceStats,
    SubmitError,
};
use route_benchdata::format;
use route_model::{DetailedRouter, RouteError};
use route_proto::{
    decode_request, decode_server_msg, encode_request, event_line, response_err, response_ok,
    ErrorCode, Json, Request, RouteOutcomeReport, RouteRequest, ServerMsg, WireError,
    DEFAULT_PRIORITY, MAX_LINE_BYTES,
};

use crate::args::{unknown_name, BatchRouterKind, ClientArgs, Named, ServeArgs, ServeEndpoint};
use crate::run::{batch_router, fault_env, read_file, routed, ExecutionError};

/// A listening socket of either flavor.
enum Listener {
    Unix(UnixListener),
    Tcp(TcpListener),
}

impl Listener {
    fn bind(endpoint: &ServeEndpoint) -> io::Result<Listener> {
        match endpoint {
            ServeEndpoint::Unix(path) => {
                // A leftover socket file from a dead daemon blocks bind;
                // connecting distinguishes live from stale.
                if Path::new(path).exists() && UnixStream::connect(path).is_err() {
                    std::fs::remove_file(path)?;
                }
                UnixListener::bind(path).map(Listener::Unix)
            }
            ServeEndpoint::Tcp(addr) => TcpListener::bind(addr).map(Listener::Tcp),
        }
    }

    fn accept(&self) -> io::Result<Conn> {
        match self {
            Listener::Unix(l) => l.accept().map(|(s, _)| Conn::Unix(s)),
            Listener::Tcp(l) => l.accept().map(|(s, _)| Conn::Tcp(s)),
        }
    }
}

/// One accepted or dialed connection of either flavor.
enum Conn {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl Conn {
    fn connect(endpoint: &ServeEndpoint) -> io::Result<Conn> {
        match endpoint {
            ServeEndpoint::Unix(path) => UnixStream::connect(path).map(Conn::Unix),
            ServeEndpoint::Tcp(addr) => TcpStream::connect(addr).map(Conn::Tcp),
        }
    }

    fn try_clone(&self) -> io::Result<Conn> {
        match self {
            Conn::Unix(s) => s.try_clone().map(Conn::Unix),
            Conn::Tcp(s) => s.try_clone().map(Conn::Tcp),
        }
    }

    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        match self {
            Conn::Unix(s) => s.set_read_timeout(timeout),
            Conn::Tcp(s) => s.set_read_timeout(timeout),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Unix(s) => s.read(buf),
            Conn::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Unix(s) => s.write(buf),
            Conn::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Unix(s) => s.flush(),
            Conn::Tcp(s) => s.flush(),
        }
    }
}

/// State shared by the accept loop and every connection thread.
struct Daemon {
    service: RouteService,
    journal: Option<ServeJournal>,
    stop: AtomicBool,
}

/// One bounded line read off a connection.
enum LineRead {
    /// Clean end of stream (possibly after a final unterminated line).
    Eof,
    /// A complete line, newline stripped.
    Line(String),
    /// The line exceeded [`MAX_LINE_BYTES`]; input was discarded up to
    /// the next newline (or EOF) so the stream stays parseable.
    Oversized,
}

/// Reads one `\n`-terminated line without ever buffering more than
/// `cap` bytes of it.
///
/// The underlying stream may carry a read timeout; timeouts surface as
/// `WouldBlock`/`TimedOut` and are retried (partial lines stay
/// buffered) until `stop` is set, at which point the read reports EOF
/// so an idle client cannot pin the daemon's shutdown.
fn read_line_bounded(
    reader: &mut impl BufRead,
    cap: usize,
    stop: &AtomicBool,
) -> io::Result<LineRead> {
    // What the next buffered chunk holds, without any borrow escaping.
    enum Chunk {
        Eof,
        Stopped,
        Newline { at: usize },
        Partial { len: usize },
    }
    let next_chunk = |reader: &mut dyn BufRead| -> io::Result<Chunk> {
        loop {
            match reader.fill_buf() {
                Ok([]) => return Ok(Chunk::Eof),
                Ok(chunk) => {
                    return Ok(match chunk.iter().position(|&b| b == b'\n') {
                        Some(at) => Chunk::Newline { at },
                        None => Chunk::Partial { len: chunk.len() },
                    });
                }
                Err(e)
                    if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) =>
                {
                    if stop.load(Ordering::SeqCst) {
                        return Ok(Chunk::Stopped);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    };
    let deliver = |line: Vec<u8>| {
        if line.is_empty() {
            LineRead::Eof
        } else {
            LineRead::Line(String::from_utf8_lossy(&line).into_owned())
        }
    };
    let mut line: Vec<u8> = Vec::new();
    let mut discarding = false;
    loop {
        match next_chunk(reader)? {
            Chunk::Eof => {
                return Ok(if discarding { LineRead::Oversized } else { deliver(line) });
            }
            Chunk::Stopped => {
                // Shutdown: surface whatever arrived, then EOF.
                return Ok(if discarding { LineRead::Oversized } else { deliver(line) });
            }
            Chunk::Newline { at } => {
                let oversized = discarding || line.len() + at > cap;
                if !oversized {
                    let chunk = reader.fill_buf()?;
                    line.extend_from_slice(&chunk[..at]);
                }
                reader.consume(at + 1);
                return Ok(if oversized {
                    LineRead::Oversized
                } else {
                    LineRead::Line(String::from_utf8_lossy(&line).into_owned())
                });
            }
            Chunk::Partial { len } => {
                if !discarding && line.len() + len > cap {
                    // The line blew the cap: stop buffering, keep
                    // consuming until its newline so the stream stays
                    // parseable.
                    discarding = true;
                    line.clear();
                }
                if !discarding {
                    let chunk = reader.fill_buf()?;
                    line.extend_from_slice(&chunk[..len]);
                }
                reader.consume(len);
            }
        }
    }
}

/// The router a request names. `None` (no name, or `ripup`) selects the
/// daemon's warm arena-reusing path; any other name is routed cold
/// through the batch router of that name, exactly as `vroute batch
/// --router` would.
fn request_router(
    name: Option<&str>,
) -> Result<Option<Arc<dyn DetailedRouter + Send + Sync>>, WireError> {
    let Some(name) = name else { return Ok(None) };
    match BatchRouterKind::from_name(name) {
        Some(BatchRouterKind::Ripup) => Ok(None),
        Some(kind) => Ok(Some(Arc::from(batch_router(kind)))),
        None => Err(WireError::new(
            ErrorCode::BadRequest,
            unknown_name::<BatchRouterKind>("router", name),
        )),
    }
}

/// Writes one protocol line and flushes it.
fn send_line(sink: &mut dyn Write, doc: &Json) -> io::Result<()> {
    sink.write_all(doc.render_compact().as_bytes())?;
    sink.write_all(b"\n")?;
    sink.flush()
}

/// A snapshot of the service counters as the `stats` op's result.
fn stats_json(s: &ServiceStats) -> Json {
    Json::obj([
        ("workers", Json::from(s.workers as u64)),
        ("queue_capacity", Json::from(s.queue_capacity as u64)),
        ("queue_depth", Json::from(s.queue_depth as u64)),
        ("max_queue_depth", Json::from(s.max_queue_depth as u64)),
        ("accepted", Json::from(s.accepted)),
        ("rejected", Json::from(s.rejected)),
        ("completed", Json::from(s.completed)),
        ("expired", Json::from(s.expired)),
        ("panicked", Json::from(s.panicked)),
    ])
}

/// Dispatches one request line, writing every protocol line it produces
/// (streamed events, then exactly one response) to `sink`.
///
/// Returns the status word recorded in the journal's `done` entry.
/// `replay_rid` carries an already-journaled request id during
/// `--resume` replay; live lines journal themselves.
fn process_line(
    daemon: &Daemon,
    endpoint: &ServeEndpoint,
    line: &str,
    replay_rid: Option<u64>,
    sink: &mut dyn Write,
) -> io::Result<()> {
    let request = match decode_request(line) {
        Ok(request) => request,
        Err(err) => {
            let status = err.code.as_str().to_string();
            send_line(sink, &response_err(None, &err))?;
            if let Some(rid) = replay_rid {
                journal_done(daemon, rid, &status);
            }
            return Ok(());
        }
    };
    match request {
        Request::Ping { id } => {
            send_line(sink, &response_ok(id.as_deref(), Json::obj([("pong", Json::Bool(true))])))
        }
        Request::Stats { id } => {
            let stats = stats_json(&daemon.service.stats());
            send_line(sink, &response_ok(id.as_deref(), stats))
        }
        Request::Shutdown { id } => {
            send_line(
                sink,
                &response_ok(id.as_deref(), Json::obj([("stopping", Json::Bool(true))])),
            )?;
            daemon.stop.store(true, Ordering::SeqCst);
            daemon.service.begin_shutdown();
            // The accept loop is blocked in accept(); a throwaway
            // connection wakes it so it can observe the stop flag.
            drop(Conn::connect(endpoint));
            Ok(())
        }
        Request::Route(route) => {
            // WAL discipline: a live request hits the journal before any
            // routing work so a crash mid-route replays it on restart.
            let rid = match replay_rid {
                Some(rid) => Some(rid),
                None => daemon.journal.as_ref().map(|j| j.accept(line)),
            };
            let status = process_route(daemon, &route, sink)?;
            if let Some(rid) = rid {
                journal_done(daemon, rid, &status);
            }
            Ok(())
        }
    }
}

/// Marks a journaled request answered.
fn journal_done(daemon: &Daemon, rid: u64, status: &str) {
    if let Some(journal) = daemon.journal.as_ref() {
        journal.done(rid, status);
    }
}

/// Runs one route request through the service and writes its protocol
/// lines. Returns the journal status word.
fn process_route(
    daemon: &Daemon,
    route: &RouteRequest,
    sink: &mut dyn Write,
) -> io::Result<String> {
    let id = route.id.as_deref();
    let refuse = |sink: &mut dyn Write, err: WireError| -> io::Result<String> {
        let status = err.code.as_str().to_string();
        send_line(sink, &response_err(id, &err))?;
        Ok(status)
    };
    let problem = match format::parse_problem(&route.instance) {
        Ok(problem) => problem,
        Err(e) => {
            return refuse(sink, WireError::new(ErrorCode::BadRequest, format!("instance: {e}")));
        }
    };
    let router = match request_router(route.router.as_deref()) {
        Ok(router) => router,
        Err(err) => return refuse(sink, err),
    };
    let spec = JobSpec {
        tag: 0,
        problem: problem.clone(),
        router,
        priority: route.priority,
        deadline: route.deadline_ms.map(Duration::from_millis),
        stream_events: route.events,
    };
    let (tx, rx) = mpsc::channel();
    if let Err(e) = daemon.service.submit(spec, tx) {
        let code = match e {
            SubmitError::Saturated { .. } => ErrorCode::Overloaded,
            SubmitError::ShuttingDown => ErrorCode::ShuttingDown,
        };
        return refuse(sink, WireError::new(code, e.to_string()));
    }
    // Events stream as the worker emits them; the Done reply is
    // terminal, so the receive loop always ends.
    let mut event_count = 0u64;
    while let Ok(reply) = rx.recv() {
        match reply {
            ServiceReply::Event { event, .. } => {
                event_count += 1;
                send_line(sink, &event_line(id, &event))?;
            }
            ServiceReply::Done(done) => {
                let outcome = match done.result {
                    Ok(routing) => routed(&problem, &routing.db, routing.is_complete()).1,
                    Err(RouteError::Infeasible { reason }) => {
                        RouteOutcomeReport::Infeasible { reason }
                    }
                    Err(e) => RouteOutcomeReport::Failed { error: e.to_string() },
                };
                let status = outcome.status().to_string();
                let mut pairs = outcome.pairs();
                pairs.push(("ms".to_string(), Json::from(done.total_ms)));
                pairs.push(("queued_ms".to_string(), Json::from(done.queued_ms)));
                if route.events {
                    pairs.push(("events".to_string(), Json::from(event_count)));
                }
                send_line(sink, &response_ok(id, Json::Obj(pairs)))?;
                return Ok(status);
            }
        }
    }
    // The worker dropped the channel without a Done reply — only
    // possible if the service is torn down mid-request.
    refuse(sink, WireError::new(ErrorCode::Internal, "service dropped the request".to_string()))
}

/// Serves one accepted connection: requests are processed serially and
/// every request line gets exactly one response line.
fn handle_conn(conn: Conn, daemon: &Daemon, endpoint: &ServeEndpoint) {
    // A periodic read timeout lets this thread observe the stop flag
    // even when the client goes quiet, so an idle connection cannot
    // pin the daemon's shutdown.
    let _ = conn.set_read_timeout(Some(Duration::from_millis(200)));
    let Ok(reader) = conn.try_clone() else { return };
    let mut reader = BufReader::new(reader);
    let mut writer = conn;
    loop {
        match read_line_bounded(&mut reader, MAX_LINE_BYTES, &daemon.stop) {
            Err(_) | Ok(LineRead::Eof) => return,
            Ok(LineRead::Oversized) => {
                let err = WireError::new(
                    ErrorCode::Oversized,
                    format!("request line exceeds {MAX_LINE_BYTES} bytes"),
                );
                if send_line(&mut writer, &response_err(None, &err)).is_err() {
                    return;
                }
            }
            Ok(LineRead::Line(line)) => {
                if line.trim().is_empty() {
                    continue;
                }
                if process_line(daemon, endpoint, &line, None, &mut writer).is_err() {
                    return;
                }
            }
        }
    }
}

/// Parses a `VROUTE_SERVE_FAULT` spec (`delay-MS`): an injected per-job
/// stall used by the crash-replay smoke test to widen the kill window.
fn serve_fault_delay(spec: &str) -> Result<Duration, ExecutionError> {
    match spec.strip_prefix("delay-").and_then(|ms| ms.parse::<u64>().ok()) {
        Some(ms) => Ok(Duration::from_millis(ms)),
        None => Err(ExecutionError::Unroutable(format!(
            "VROUTE_SERVE_FAULT: unknown fault `{spec}` (expected delay-MS)"
        ))),
    }
}

/// The per-job stall `VROUTE_SERVE_FAULT` asks for, if any.
fn fault_delay_from_env() -> Result<Option<Duration>, ExecutionError> {
    fault_env("VROUTE_SERVE_FAULT").map(|spec| serve_fault_delay(&spec)).transpose()
}

/// Runs the daemon until a client sends `{"op":"shutdown"}`.
pub(crate) fn execute_serve(
    a: &ServeArgs,
    out: &mut dyn fmt::Write,
) -> Result<bool, ExecutionError> {
    let config = ServiceConfig::builder()
        .workers(a.workers)
        .queue_capacity(a.queue)
        .default_deadline(a.deadline_ms.map(Duration::from_millis))
        .fault_delay(fault_delay_from_env()?)
        .build()
        .map_err(|e| ExecutionError::Unroutable(format!("serve: {e}")))?;
    let service = RouteService::start(config)
        .map_err(|e| ExecutionError::Unroutable(format!("serve: {e}")))?;

    let fresh = |dir: &Path| ServeJournal::create(dir).map(|journal| (journal, Vec::new()));
    let (journal, pending) = a.journal.open(fresh, ServeJournal::resume)?.unzip();
    let pending = pending.unwrap_or_default();

    let daemon = Arc::new(Daemon { service, journal, stop: AtomicBool::new(false) });

    // Replay the unanswered journal suffix through the normal dispatch
    // path before any client can connect; results go to the journal,
    // not a socket (the original client is gone).
    if !pending.is_empty() {
        writeln!(out, "replaying {} journaled request(s)", pending.len()).expect("writing");
        for PendingRequest { rid, body } in &pending {
            process_line(&daemon, &a.endpoint, body, Some(*rid), &mut io::sink())
                .map_err(|e| ExecutionError::Io("journal replay".to_string(), e))?;
        }
    }

    let endpoint_name = a.endpoint.to_string();
    let listener =
        Listener::bind(&a.endpoint).map_err(|e| ExecutionError::Io(endpoint_name.clone(), e))?;

    let mut handlers = Vec::new();
    while !daemon.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Err(e) => {
                if daemon.stop.load(Ordering::SeqCst) {
                    break;
                }
                return Err(ExecutionError::Io(endpoint_name, e));
            }
            Ok(conn) => {
                let daemon = Arc::clone(&daemon);
                let endpoint = a.endpoint.clone();
                handlers.push(std::thread::spawn(move || {
                    handle_conn(conn, &daemon, &endpoint);
                }));
            }
        }
    }
    for handle in handlers {
        let _ = handle.join();
    }
    if let ServeEndpoint::Unix(path) = &a.endpoint {
        let _ = std::fs::remove_file(path);
    }

    let stats = daemon.service.shutdown();
    writeln!(
        out,
        "serve: {} accepted, {} completed, {} rejected, {} expired, {} panicked; peak queue {}",
        stats.accepted,
        stats.completed,
        stats.rejected,
        stats.expired,
        stats.panicked,
        stats.max_queue_depth
    )
    .expect("writing");
    if let Some(journal) = daemon.journal.as_ref() {
        if let Some(err) = journal.take_error() {
            return Err(ExecutionError::Unroutable(format!("serve journal write failed: {err}")));
        }
        writeln!(out, "journal: {}", journal.path().display()).expect("writing");
    }
    Ok(true)
}

/// Connects to a running daemon and drives one route request per file.
///
/// Returns `true` when every response came back `complete`, so the
/// binary exit code mirrors `vroute batch` semantics.
pub(crate) fn execute_client(
    a: &ClientArgs,
    out: &mut dyn fmt::Write,
) -> Result<bool, ExecutionError> {
    let endpoint_name = a.endpoint.to_string();
    let conn =
        Conn::connect(&a.endpoint).map_err(|e| ExecutionError::Io(endpoint_name.clone(), e))?;
    let reader = conn.try_clone().map_err(|e| ExecutionError::Io(endpoint_name.clone(), e))?;
    let mut reader = BufReader::new(reader);
    let mut writer = conn;
    let send = |writer: &mut Conn, request: &Request| -> Result<(), ExecutionError> {
        let line = encode_request(request).render_compact();
        writer
            .write_all(line.as_bytes())
            .and_then(|()| writer.write_all(b"\n"))
            .and_then(|()| writer.flush())
            .map_err(|e| ExecutionError::Io(endpoint_name.clone(), e))
    };

    let mut all_complete = true;
    for (i, file) in a.files.iter().enumerate() {
        let request = Request::Route(RouteRequest {
            id: Some(format!("r{i}")),
            instance: read_file(file)?,
            router: Some(a.router.name().to_string()),
            deadline_ms: a.deadline_ms,
            priority: a.priority.unwrap_or(DEFAULT_PRIORITY),
            events: a.events,
        });
        send(&mut writer, &request)?;
        let mut events = 0u64;
        loop {
            match read_server_line(&mut reader, &endpoint_name)? {
                ServerMsg::Event { .. } => events += 1,
                ServerMsg::Ok { result, .. } => {
                    let status = result.get("status").and_then(Json::as_str).unwrap_or("ok");
                    all_complete &= status == "complete";
                    write!(out, "{file}: {status}").expect("writing");
                    for key in ["wire", "vias", "ms"] {
                        if let Some(v) = result.get(key).and_then(Json::as_u64) {
                            write!(out, ", {key} {v}").expect("writing");
                        }
                    }
                    if let Some(sum) = result.get("checksum").and_then(Json::as_str) {
                        write!(out, ", checksum {sum}").expect("writing");
                    }
                    if let Some(reason) = result.get("reason").and_then(Json::as_str) {
                        write!(out, ": {reason}").expect("writing");
                    }
                    if let Some(error) = result.get("error").and_then(Json::as_str) {
                        write!(out, ": {error}").expect("writing");
                    }
                    if a.events {
                        write!(out, " ({events} events)").expect("writing");
                    }
                    writeln!(out).expect("writing");
                    break;
                }
                ServerMsg::Err { error, .. } => {
                    all_complete = false;
                    writeln!(out, "{file}: refused: {} ({})", error.message, error.code.as_str())
                        .expect("writing");
                    break;
                }
            }
        }
    }

    if a.shutdown {
        send(&mut writer, &Request::Shutdown { id: Some("stop".to_string()) })?;
        match read_server_line(&mut reader, &endpoint_name)? {
            ServerMsg::Ok { .. } => writeln!(out, "daemon stopping").expect("writing"),
            ServerMsg::Err { error, .. } => {
                all_complete = false;
                writeln!(out, "shutdown refused: {}", error.message).expect("writing");
            }
            ServerMsg::Event { .. } => {}
        }
    }
    Ok(all_complete)
}

/// Reads and decodes one server line, mapping EOF and undecodable
/// frames to execution errors (the *server* never sends bad frames;
/// this guards against talking to the wrong port).
fn read_server_line(
    reader: &mut impl BufRead,
    endpoint_name: &str,
) -> Result<ServerMsg, ExecutionError> {
    let mut line = String::new();
    let n = reader
        .read_line(&mut line)
        .map_err(|e| ExecutionError::Io(endpoint_name.to_string(), e))?;
    if n == 0 {
        return Err(ExecutionError::Unroutable(format!(
            "{endpoint_name}: connection closed before the response arrived"
        )));
    }
    decode_server_msg(line.trim_end()).map_err(|e| {
        ExecutionError::Unroutable(format!(
            "{endpoint_name}: undecodable server line: {}",
            e.message
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_reader_splits_lines_and_flags_oversized() {
        let stop = AtomicBool::new(false);
        let data = b"short\nanother line\n";
        let mut reader = BufReader::new(&data[..]);
        match read_line_bounded(&mut reader, 1 << 20, &stop).unwrap() {
            LineRead::Line(l) => assert_eq!(l, "short"),
            _ => panic!("expected a line"),
        }
        match read_line_bounded(&mut reader, 1 << 20, &stop).unwrap() {
            LineRead::Line(l) => assert_eq!(l, "another line"),
            _ => panic!("expected a line"),
        }
        assert!(matches!(read_line_bounded(&mut reader, 1 << 20, &stop).unwrap(), LineRead::Eof));
    }

    #[test]
    fn bounded_reader_discards_runaway_lines_and_recovers() {
        // An oversized line followed by a normal one: the reader must
        // flag the first and still deliver the second intact.
        let stop = AtomicBool::new(false);
        let mut data = vec![b'x'; 300];
        data.push(b'\n');
        data.extend_from_slice(b"after\n");
        let mut reader = BufReader::with_capacity(64, &data[..]);
        assert!(matches!(read_line_bounded(&mut reader, 100, &stop).unwrap(), LineRead::Oversized));
        match read_line_bounded(&mut reader, 100, &stop).unwrap() {
            LineRead::Line(l) => assert_eq!(l, "after"),
            _ => panic!("expected the line after the oversized one"),
        }
    }

    #[test]
    fn bounded_reader_flags_exact_boundary_correctly() {
        let stop = AtomicBool::new(false);
        let data = b"12345\n123456\n";
        let mut reader = BufReader::new(&data[..]);
        assert!(matches!(
            read_line_bounded(&mut reader, 5, &stop).unwrap(),
            LineRead::Line(l) if l == "12345"
        ));
        assert!(matches!(read_line_bounded(&mut reader, 5, &stop).unwrap(), LineRead::Oversized));
    }

    #[test]
    fn unterminated_final_line_is_still_delivered() {
        let stop = AtomicBool::new(false);
        let data = b"no newline at end";
        let mut reader = BufReader::new(&data[..]);
        match read_line_bounded(&mut reader, 1 << 20, &stop).unwrap() {
            LineRead::Line(l) => assert_eq!(l, "no newline at end"),
            _ => panic!("expected the final line"),
        }
        assert!(matches!(read_line_bounded(&mut reader, 1 << 20, &stop).unwrap(), LineRead::Eof));
    }

    #[test]
    fn fault_env_parses_delay_and_rejects_junk() {
        assert_eq!(serve_fault_delay("delay-40").ok(), Some(Duration::from_millis(40)));
        for junk in ["delay-", "delay-x", "panic", ""] {
            let msg = serve_fault_delay(junk).unwrap_err().to_string();
            assert!(msg.contains(&format!("unknown fault `{junk}`")), "{msg}");
        }
        // An empty variable counts as unset, as for every fault variable;
        // no other test in this binary reads it.
        std::env::set_var("VROUTE_SERVE_FAULT", "");
        let delay = fault_delay_from_env();
        std::env::remove_var("VROUTE_SERVE_FAULT");
        assert_eq!(delay.ok(), Some(None));
    }

    #[test]
    fn unknown_router_message_lists_the_batch_table() {
        let Err(err) = request_router(Some("bogus")) else { panic!("bogus routes") };
        let names: Vec<&str> = BatchRouterKind::NAMES.iter().map(|(_, n)| *n).collect();
        assert_eq!(err.message, format!("unknown router `bogus` ({})", names.join("|")));
        // Only rip-up, named or not, takes the warm path.
        assert!(matches!(request_router(None), Ok(None)));
        for (kind, name) in BatchRouterKind::NAMES {
            let warm = matches!(request_router(Some(name)), Ok(None));
            assert_eq!(warm, *kind == BatchRouterKind::Ripup, "{name}");
        }
    }
}
