//! From a [`Measurement`] to named metrics, and the documents a run
//! prints.
//!
//! The metric catalogue — names, units, directions and bounds — is the
//! `BENCHMARK.json` at the repository root, compiled in, so the harness
//! and the file cannot drift apart: a value this module produces for an
//! undeclared name is an error, and the tests check that every declared
//! name is produced.

use std::collections::BTreeMap;
use std::fs;

use route_proto::Json;

use crate::stats::{beyond, median, quantile, sorted};
use crate::workload::{Measurement, RunConfig};

/// The benchmark definition, as committed.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Whether a metric improves upward or downward.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit it is reported in.
    pub unit: String,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which it may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The declared metrics and workloads.
#[derive(Debug, Clone, PartialEq)]
pub struct Catalogue {
    /// Measurement length of one run, seconds.
    pub run_seconds: f64,
    /// Workload names.
    pub workloads: Vec<String>,
    /// Metrics of untraced runs.
    pub end_to_end: Vec<Metric>,
    /// Metrics of traced runs.
    pub per_layer: Vec<Metric>,
}

impl Catalogue {
    /// Parses a `BENCHMARK.json` document.
    ///
    /// # Errors
    ///
    /// When the document is not JSON or a metric entry is malformed.
    pub fn parse(text: &str) -> Result<Catalogue, String> {
        let doc = Json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let list = |key: &str| -> Result<&[Json], String> {
            doc.get(key).and_then(Json::as_arr).ok_or(format!("BENCHMARK.json: no '{key}' list"))
        };
        let metrics = |key: &str| -> Result<Vec<Metric>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    let field = |f: &str| {
                        m.get(f)
                            .and_then(Json::as_str)
                            .ok_or(format!("BENCHMARK.json: a {key} entry lacks '{f}'"))
                    };
                    let better = match field("better")? {
                        "higher" => Better::Higher,
                        "lower" => Better::Lower,
                        other => return Err(format!("BENCHMARK.json: better = '{other}'")),
                    };
                    Ok(Metric {
                        name: field("name")?.to_string(),
                        unit: field("unit")?.to_string(),
                        better,
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        let workloads = list("workloads")?
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
            .collect::<Option<Vec<String>>>()
            .ok_or("BENCHMARK.json: a workload lacks 'name'")?;
        let run_seconds = doc
            .get("run_seconds")
            .and_then(Json::as_f64)
            .filter(|s| s.is_finite() && *s > 0.0)
            .ok_or("BENCHMARK.json: no positive 'run_seconds'")?;
        Ok(Catalogue {
            run_seconds,
            workloads,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    /// The compiled-in catalogue.
    ///
    /// # Panics
    ///
    /// If the committed `BENCHMARK.json` is malformed, which the tests
    /// rule out.
    pub fn builtin() -> Catalogue {
        Catalogue::parse(BENCHMARK_JSON).expect("the committed BENCHMARK.json parses")
    }

    /// The declared metric called `name`, in either list.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.end_to_end.iter().chain(&self.per_layer).find(|m| m.name == name)
    }
}

/// The end-to-end values of an untraced run, at the reference speed:
/// each slot timed at its median pass, set-up the median set-up.
pub fn end_to_end(m: &Measurement, peak_rss_mb: f64) -> BTreeMap<&'static str, f64> {
    let timed: Vec<(f64, u64)> =
        m.times_s.iter().zip(&m.nets).filter_map(|(times, &n)| Some((median(times)?, n))).collect();
    // The median over batches of consecutive slots (the whole set when
    // it is smaller than a batch) of the batch's rate.
    let rate = |count: fn(u64) -> f64| {
        let size = m.shape.batch.clamp(1, timed.len().max(1));
        let rates: Vec<f64> = timed
            .chunks_exact(size)
            .map(|b| {
                let work: f64 = b.iter().map(|&(_, n)| count(n)).sum();
                let time: f64 = b.iter().map(|&(t, _)| t).sum();
                m.shape.concurrency * work / time
            })
            .collect();
        median(&rates).unwrap_or(0.0)
    };
    let latencies = sorted(&timed.iter().map(|&(t, _)| t).collect::<Vec<f64>>());
    let ms = |q: f64| quantile(&latencies, q).unwrap_or(0.0) * 1e3;
    let q = &m.quality;
    let per = |a: u64, b: u64| if b > 0 { a as f64 / b as f64 } else { 0.0 };
    BTreeMap::from([
        ("setup_s", median(&m.setups_s).unwrap_or(0.0)),
        ("nets_per_s", rate(|n| n as f64)),
        ("rps", rate(|_| 1.0)),
        ("p50_ms", ms(0.50)),
        ("tail_ms", ms(m.shape.tail)),
        ("completion", per(q.routed, q.nets)),
        ("wire_per_net", per(q.wire, q.routed)),
        ("vias_per_net", per(q.vias, q.routed)),
        ("peak_rss_mb", peak_rss_mb),
    ])
}

/// The per-layer values of a traced run: what the workload measured,
/// plus input generation; declared layers it does not exercise read 0.
pub fn per_layer(m: &Measurement) -> BTreeMap<&'static str, f64> {
    let mut values = m.layers.clone();
    values.insert("gen_s", fastest(&m.gen_s));
    values
}

/// The smallest of `values`, 0 when there are none.
fn fastest(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Pairs every declared metric of `declared` with its value.
///
/// # Errors
///
/// When `values` holds a name `declared` does not, or lacks an
/// end-to-end one (`strict`).
pub fn emit(
    declared: &[Metric],
    values: &BTreeMap<&'static str, f64>,
    strict: bool,
) -> Result<Vec<(Metric, f64)>, String> {
    if let Some(extra) = values.keys().find(|k| !declared.iter().any(|m| m.name == **k)) {
        return Err(format!("metric '{extra}' is not declared in BENCHMARK.json"));
    }
    declared
        .iter()
        .map(|m| match values.get(m.name.as_str()) {
            Some(&v) => Ok((m.clone(), v)),
            None if !strict => Ok((m.clone(), 0.0)),
            None => Err(format!("metric '{}' was not measured", m.name)),
        })
        .collect()
}

/// The `metrics` object of a result document.
pub fn metrics_json(metrics: &[(Metric, f64)]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|(m, v)| {
                (
                    m.name.clone(),
                    Json::obj([("value", Json::from(*v)), ("unit", Json::str(m.unit.as_str()))]),
                )
            })
            .collect(),
    )
}

/// The one-line result document: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_json(m: &Measurement, metrics: &[(Metric, f64)]) -> Json {
    Json::obj([
        ("correct", Json::Bool(m.correct())),
        ("attempted", Json::from(m.attempted)),
        ("failed", Json::from(m.failures.len())),
        ("metrics", metrics_json(metrics)),
    ])
}

/// The run record `vbench compare` reads: the result plus what is
/// needed to reproduce and pair it.
pub fn record_json(cfg: &RunConfig, m: &Measurement, metrics: &[(Metric, f64)]) -> Json {
    let n = m.times_s.iter().filter(|t| !t.is_empty()).count();
    Json::obj([
        ("vbench", Json::from(1u64)),
        ("workload", Json::str(cfg.workload.name())),
        ("seed", Json::from(cfg.seed)),
        ("seconds", Json::from(cfg.seconds)),
        ("quick", Json::Bool(cfg.quick)),
        ("trace", Json::Bool(cfg.trace)),
        ("commit", Json::str(commit())),
        ("hardware_threads", Json::from(hardware_threads())),
        ("passes", Json::from(m.passes())),
        ("host_factor", Json::from(m.calibration.host_factor())),
        ("latency_samples", Json::from(n)),
        ("tail_percentile", Json::from(m.shape.tail * 100.0)),
        ("beyond_tail", Json::from(beyond(n, m.shape.tail))),
        ("attempted", Json::from(m.attempted)),
        ("failures", Json::arr(m.failures.iter().take(8).map(|f| Json::str(f.as_str())))),
        (
            "checksums",
            Json::Obj(
                m.checksums
                    .iter()
                    .map(|(label, c)| (label.clone(), Json::str(format!("{c:016x}"))))
                    .collect(),
            ),
        ),
        ("metrics", metrics_json(metrics)),
    ])
}

/// Hardware threads available to this process.
pub fn hardware_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size of this process in MB (`VmHWM`), if the
/// platform reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The commit of the working directory's git checkout, read from
/// `.git` directly; `unknown` outside one.
pub fn commit() -> String {
    let read = |p: &str| fs::read_to_string(format!(".git/{p}")).ok();
    let Some(head) = read("HEAD") else { return "unknown".into() };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else { return head.to_string() };
    if !reference.starts_with("refs/") || reference.contains("..") {
        return "unknown".into();
    }
    if let Some(hash) = read(reference) {
        return hash.trim().to_string();
    }
    read("packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                l.strip_suffix(reference).map(|h| h.trim().to_string()).filter(|h| !h.is_empty())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}
