//! `serve`: interactive callers of the routing service.
//!
//! A closed loop: two callers, each waiting for its reply before
//! sending the next request (as `vroute client` users do), against a
//! `RouteService` with two warm workers. A pass starts a service, warms
//! it, and sends one fixed sequence of 1,000 requests shuffled by
//! SplitMix64 from the seed: 90% the nine channel-suite instances of the
//! M1 batch and 10% 128 seed-drawn 48×48, 90-net `ChipGen` blocks, in
//! the same mix in every hundred requests.
//! Every request takes the v1 wire path in process: render the instance
//! and `encode_request`, then `decode_request`, `format::parse_problem`
//! and `submit`, and on `Done`, `verify` followed by `response_ok` and
//! rendering. Latency runs from the caller's encode to the rendered
//! response. Requests are small, so per-request overheads show here
//! while the snapshot and seam layers barely do.
//!
//! The callers send the sequence in chunks of 40 requests, and the pass
//! times the reference kernel before each chunk. Each request of the
//! sequence is timed at its median pass. The loop keeps two requests in
//! flight, so its rates are two requests per mean latency (Little's
//! law).

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::thread;
use std::time::Instant;

use mighty::{JobSpec, RouteService, ServiceConfig, ServiceReply};
use route_benchdata::format::{parse_problem, write_problem};
use route_benchdata::gen::ChipGen;
use route_benchdata::rng::SplitMix64;
use route_model::Problem;
use route_proto::{
    decode_request, encode_request, response_ok, Json, Request, RouteOutcomeReport, RouteRequest,
};

use super::maze::channel_batch;
use super::{check, overhead, secs, sub_seed, Measurement, Output, RunConfig, Shape};
use crate::trace::Tracer;

/// Chip blocks in the pool: enough that the blocks a run happens to
/// draw have the pool's average wire length.
const BLOCKS: usize = 128;
/// Suite channels in the pool, ahead of the blocks.
const CHANNELS: usize = 9;
/// Requests that route a block, in every hundred.
const BLOCKS_PER_100: usize = 10;
/// Concurrent callers, each waiting for its reply.
const CALLERS: usize = 2;
/// Warm service workers.
const WORKERS: usize = 2;
/// Requests of a pass.
const REQUESTS: u64 = 1000;
/// Requests of a quick run.
const QUICK_REQUESTS: u64 = 40;
/// Requests the callers send between two kernel samples.
const CHUNK: u64 = 40;
/// Generator family tag for [`sub_seed`].
const SALT: u64 = 2;
/// How the requests become metrics: rates over batches of a hundred
/// requests; with 1,000 requests, the 99th percentile is the highest
/// with ten beyond it.
pub const SHAPE: Shape = Shape { batch: 100, concurrency: CALLERS as f64, tail: 0.99 };

/// One instance callers can request, as its wire text.
struct Item {
    label: String,
    text: String,
}

fn pool(seed: u64, quick: bool) -> Vec<Item> {
    let blocks = if quick { 2 } else { BLOCKS };
    let mut items: Vec<(String, Problem)> = channel_batch(0, CHANNELS);
    items.extend((0..blocks as u64).map(|i| {
        let gen = ChipGen {
            width: 48,
            height: 48,
            nets: 90,
            macros: 2,
            ..ChipGen::small(sub_seed(seed, SALT, i))
        };
        (format!("block#{i}"), gen.build())
    }));
    items
        .into_iter()
        .map(|(label, problem)| Item { text: write_problem(&problem), label })
        .collect()
}

/// The pool index of every request of a pass. Each hundred requests ask
/// for every suite channel ten times and for ten blocks, in a shuffled
/// order; blocks are drawn without replacement until the pool runs out.
/// Every hundred thus holds the same mix: drawn request by request, the
/// number of the slowest channels in a hundred varied enough to move
/// the rates by 11% from seed to seed.
fn sequence(seed: u64, requests: usize, blocks: usize) -> Vec<usize> {
    let mut rng = SplitMix64::new(sub_seed(seed, SALT + 1, 0));
    let mut order: Vec<usize> = (CHANNELS..CHANNELS + blocks).collect();
    rng.shuffle(&mut order);
    let mut drawn = order.into_iter().cycle();
    let mut seq = Vec::with_capacity(requests + 100);
    while seq.len() < requests {
        let mut hundred: Vec<usize> = (0..100 - BLOCKS_PER_100)
            .map(|j| j % CHANNELS)
            .chain(drawn.by_ref().take(BLOCKS_PER_100))
            .collect();
        rng.shuffle(&mut hundred);
        seq.extend(hundred);
    }
    seq.truncate(requests);
    seq
}

/// Per-request layer times of a traced request, seconds.
#[derive(Debug, Clone, Copy, Default)]
struct Parts {
    /// Rendering and encoding the request, and rendering the response.
    encode: f64,
    /// Decoding the request line and parsing the instance.
    decode: f64,
    /// Queue wait, as the service reports it (whole milliseconds).
    queue: f64,
    /// Submit to reply on the caller's clock, less the queue wait:
    /// routing on a warm worker plus the reply hand-off.
    route: f64,
    /// Checking the routing.
    verify: f64,
}

impl Parts {
    fn add(&mut self, other: &Parts) {
        self.encode += other.encode;
        self.decode += other.decode;
        self.queue += other.queue;
        self.route += other.route;
        self.verify += other.verify;
    }
}

/// One answered request.
struct Reply {
    k: u64,
    item: usize,
    latency_s: f64,
    out: Result<Output, String>,
    parts: Parts,
}

/// Sends request `k` for pool item `item` down the whole wire path,
/// recording its spans when a tracer is given.
fn request(
    service: &RouteService,
    items: &[Item],
    item: usize,
    k: u64,
    tracer: Option<&mut Tracer>,
) -> Reply {
    let t0 = Instant::now();
    let mut req = RouteRequest::new(items[item].text.clone());
    req.id = Some(k.to_string());
    let line = encode_request(&Request::Route(req)).render_compact();
    let t1 = Instant::now();

    let served = serve_line(service, &line);
    let t5 = Instant::now();
    let mut reply = Reply {
        k,
        item,
        latency_s: t5.duration_since(t0).as_secs_f64(),
        out: Err(String::new()),
        parts: Parts::default(),
    };
    let (out, queued_s, [t2, t3, t4]) = match served {
        Ok(served) => served,
        Err(e) => {
            reply.out = Err(e);
            return reply;
        }
    };
    let span = |a: Instant, b: Instant| b.duration_since(a).as_secs_f64();
    reply.out = out;
    reply.parts = Parts {
        encode: span(t0, t1) + span(t4, t5),
        decode: span(t1, t2),
        queue: queued_s,
        route: span(t2, t3) - queued_s,
        verify: span(t3, t4),
    };
    if let Some(tracer) = tracer {
        let id = tracer.record("serve.request", None, t0, t5);
        tracer.field(id, "request", k as f64);
        for (name, a, b) in [
            ("serve.encode_request", t0, t1),
            ("serve.decode", t1, t2),
            ("serve.service", t2, t3),
            ("serve.verify", t3, t4),
            ("serve.encode_response", t4, t5),
        ] {
            let child = tracer.record(name, Some(id), a, b);
            if name == "serve.service" {
                tracer.field(child, "queued_ms", queued_s * 1e3);
            }
        }
    }
    reply
}

/// The server side of one request line: decode, parse, submit to a warm
/// worker, verify, encode. Returns the checked output, the queue wait
/// the service reported, and the instants `[decoded, reply received,
/// verified]`.
#[allow(clippy::type_complexity)]
fn serve_line(
    service: &RouteService,
    line: &str,
) -> Result<(Result<Output, String>, f64, [Instant; 3]), String> {
    let Request::Route(route) = decode_request(line).map_err(|e| e.to_string())? else {
        return Err("decoded a non-route request".into());
    };
    let problem = parse_problem(&route.instance).map_err(|e| format!("instance: {e}"))?;
    let t2 = Instant::now();
    let (tx, rx) = mpsc::channel();
    service.submit(JobSpec::new(0, problem.clone()), tx).map_err(|e| format!("refused: {e}"))?;
    let done = loop {
        match rx.recv() {
            Ok(ServiceReply::Done(done)) => break done,
            Ok(ServiceReply::Event { .. }) => {}
            Err(_) => return Err("the service dropped the request".into()),
        }
    };
    let t3 = Instant::now();
    let routing = done.result.map_err(|e| e.to_string())?;
    let out = check(&problem, &routing.db, &routing.failed);
    let t4 = Instant::now();
    let stats = routing.db.stats();
    let report = RouteOutcomeReport::Routed {
        legal: out.is_ok(),
        complete: routing.is_complete(),
        wire: stats.wirelength,
        vias: stats.vias,
        checksum: routing.db.checksum(),
    };
    let mut pairs = report.pairs();
    pairs.push(("ms".to_string(), Json::from(done.total_ms)));
    pairs.push(("queued_ms".to_string(), Json::from(done.queued_ms)));
    std::hint::black_box(response_ok(route.id.as_deref(), Json::Obj(pairs)).render_compact());
    Ok((out, done.queued_ms as f64 / 1e3, [t2, t3, t4]))
}

/// Runs `CALLERS` closed-loop callers over requests `ks`; request `k`
/// asks for pool item `choose(k)`. Spans go to `tracer` when one is
/// given. Returns the replies in request order.
fn closed_loop(
    service: &RouteService,
    items: &[Item],
    choose: &(dyn Fn(u64) -> usize + Sync),
    ks: Range<u64>,
    tracer: Option<&mut Tracer>,
) -> Vec<Reply> {
    let (next, n) = (AtomicU64::new(ks.start), ks.end);
    let template = tracer.as_deref().map(Tracer::child);
    let per_caller: Vec<(Vec<Reply>, Option<Tracer>)> = thread::scope(|s| {
        let handles: Vec<_> = (0..CALLERS)
            .map(|_| {
                s.spawn(|| {
                    let mut local = template.clone();
                    let mut replies = Vec::new();
                    loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        if k >= n {
                            break;
                        }
                        replies.push(request(service, items, choose(k), k, local.as_mut()));
                    }
                    (replies, local)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("caller thread panicked")).collect()
    });
    let mut replies = Vec::new();
    let mut tracer = tracer;
    for (r, local) in per_caller {
        replies.extend(r);
        if let (Some(tracer), Some(local)) = (tracer.as_deref_mut(), local) {
            tracer.absorb(local);
        }
    }
    replies.sort_by_key(|r| r.k);
    replies
}

fn start_service() -> RouteService {
    let config = ServiceConfig::builder()
        .workers(WORKERS)
        .queue_capacity(4 * CALLERS)
        .build()
        .expect("a valid service configuration");
    RouteService::start(config).expect("the service starts")
}

/// Counts one reply: checks it against its input's reference and, for
/// an untraced pass, times its slot.
fn tally(m: &mut Measurement, items: &[Item], reply: &Reply, timed: bool) {
    let label = &items[reply.item].label;
    match &reply.out {
        Ok(out) => {
            if m.accept(reply.item, label, *out) && timed {
                m.time(reply.k as usize, reply.latency_s, out.routed);
            }
        }
        Err(e) => m.reject(label, e),
    }
}

/// Runs the workload.
pub fn run(cfg: &RunConfig) -> Measurement {
    let blocks = if cfg.quick { 2 } else { BLOCKS };
    let requests = if cfg.quick { QUICK_REQUESTS } else { REQUESTS };
    let mut m = Measurement::new(CHANNELS + blocks, requests as usize, SHAPE);
    let seq = sequence(cfg.seed, requests as usize, blocks);
    let choose = |k: u64| seq[k as usize];
    let mut tracer = Tracer::new(Instant::now());
    let (mut sum, mut traced_n, mut plain_s, mut traced_s, mut max_depth) =
        (Parts::default(), 0, 0.0, 0.0, 0);
    let setup = |m: &mut Measurement| {
        let start = Instant::now();
        let items = pool(cfg.seed, cfg.quick);
        m.gen_s.push(secs(start));
        let service = start_service();
        // Warm-up: each suite channel once, spread over both workers.
        for reply in closed_loop(&service, &items, &|k| k as usize, 0..CHANNELS as u64, None) {
            if let Err(e) = reply.out {
                m.fail(format!("warm-up {}: {e}", items[reply.item].label));
            }
        }
        (items, service)
    };
    // A pass is one run of the request sequence on a fresh service, in
    // chunks with a kernel sample before each; a traced pass runs each
    // chunk again traced, so the overhead compares identical sequences
    // on the same service.
    let chunks = requests.div_ceil(CHUNK);
    cfg.passes(&mut m, chunks as usize, setup, |m, (items, service), c| {
        let ks = c as u64 * CHUNK..((c as u64 + 1) * CHUNK).min(requests);
        let plain = closed_loop(service, items, &choose, ks.clone(), None);
        for reply in &plain {
            tally(m, items, reply, true);
        }
        if cfg.trace {
            let traced = closed_loop(service, items, &choose, ks, Some(&mut tracer));
            for (p, t) in plain.iter().zip(&traced) {
                tally(m, items, t, false);
                sum.add(&t.parts);
                plain_s += p.latency_s;
                traced_s += t.latency_s;
            }
            traced_n += traced.len();
        }
        max_depth = max_depth.max(service.stats().max_queue_depth);
    });
    if cfg.trace {
        let per_ms = |v: f64| v / traced_n.max(1) as f64 * 1e3;
        m.layer("serve.encode_ms", per_ms(sum.encode));
        m.layer("serve.decode_ms", per_ms(sum.decode));
        m.layer("serve.queue_ms", per_ms(sum.queue));
        m.layer("serve.route_ms", per_ms(sum.route));
        m.layer("serve.verify_ms", per_ms(sum.verify));
        m.layer("serve.max_queue_depth", max_depth as f64);
        m.layer("trace.overhead_frac", overhead(traced_s, plain_s));
        m.tracer = Some(tracer);
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_hundred_requests_hold_the_same_mix() {
        let seq = sequence(7, REQUESTS as usize, BLOCKS);
        assert_eq!(seq, sequence(7, REQUESTS as usize, BLOCKS));
        assert_ne!(seq, sequence(8, REQUESTS as usize, BLOCKS));
        for hundred in seq.chunks(100) {
            for c in 0..CHANNELS {
                assert_eq!(hundred.iter().filter(|&&i| i == c).count(), 10);
            }
        }
        let mut blocks: Vec<usize> = seq.iter().copied().filter(|&i| i >= CHANNELS).collect();
        assert_eq!(blocks.len(), 100);
        blocks.sort_unstable();
        blocks.dedup();
        assert_eq!(blocks.len(), 100, "no block repeats within a pass");
        assert!(blocks.iter().all(|&b| b < CHANNELS + BLOCKS));
    }
}
