//! `vbench compare A B`: two sets of run records, one verdict per
//! metric and workload.
//!
//! `A` is the parent (baseline) and `B` the change; each file holds the
//! line-delimited records `vbench --record` appends. Runs pair by seed.
//! The verdicts, checked in this order:
//!
//! * **worse** — B's median is worse than A's by more than the metric's
//!   bound;
//! * **improved** — at least ten pairs, B wins at least nine tenths of
//!   them (ties count for neither side), and the medians differ by more
//!   than A's interquartile distance;
//! * **unresolved** — A's or B's spread (interquartile distance over
//!   median) exceeds the bound, unless every run of B reads better than
//!   every run of A;
//! * **unchanged** — otherwise.
//!
//! Per-layer metrics have no bound; they are listed with their medians
//! and quartiles only.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use route_proto::Json;

use crate::report::{Better, Catalogue, Metric};
use crate::stats::{median, quartiles, spread};

/// A verdict on one metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better, by the pairing rule.
    Improved,
    /// Within the bound.
    Unchanged,
    /// Worse by more than the bound.
    Worse,
    /// The spread is wider than the bound.
    Unresolved,
}

impl Verdict {
    /// Lower-case name.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One run's value of one metric, with the seed it ran on.
type Sample = (u64, f64);

/// Runs grouped as workload → traced? → metric → samples.
type Grouped = BTreeMap<String, BTreeMap<bool, BTreeMap<String, Vec<Sample>>>>;

/// Parses line-delimited run records, skipping blank lines.
///
/// # Errors
///
/// On a line that is not a `vbench` run record.
pub fn parse_records(text: &str) -> Result<Vec<Json>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, l)| {
            let doc = Json::parse(l).map_err(|e| format!("line {}: {e}", i + 1))?;
            if doc.get("vbench").is_none() || doc.get("workload").is_none() {
                return Err(format!("line {}: not a vbench run record", i + 1));
            }
            Ok(doc)
        })
        .collect()
}

fn group(records: &[Json]) -> Grouped {
    let mut out = Grouped::new();
    for r in records {
        let workload = r.get("workload").and_then(Json::as_str).unwrap_or("?").to_string();
        let traced = r.get("trace").and_then(Json::as_bool).unwrap_or(false);
        let seed = r.get("seed").and_then(Json::as_u64).unwrap_or(0);
        let Some(Json::Obj(metrics)) = r.get("metrics") else { continue };
        for (name, value) in metrics {
            if let Some(v) = value.get("value").and_then(Json::as_f64) {
                out.entry(workload.clone())
                    .or_default()
                    .entry(traced)
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push((seed, v));
            }
        }
    }
    out
}

/// The verdict on one metric, `a` the parent's runs and `b` the
/// change's.
pub fn verdict(metric: &Metric, a: &[Sample], b: &[Sample]) -> Verdict {
    let values = |s: &[Sample]| s.iter().map(|&(_, v)| v).collect::<Vec<f64>>();
    let (va, vb) = (values(a), values(b));
    let (Some(ma), Some(mb)) = (median(&va), median(&vb)) else { return Verdict::Unresolved };
    let bound = metric.bound.unwrap_or(0.0);
    // Positive when `x` is better than `y`.
    let gain = |x: f64, y: f64| match metric.better {
        Better::Higher => x - y,
        Better::Lower => y - x,
    };
    if ma != 0.0 && -gain(mb, ma) / ma.abs() > bound {
        return Verdict::Worse;
    }
    let pairs: Vec<f64> = a
        .iter()
        .filter_map(|&(seed, x)| b.iter().find(|&&(s, _)| s == seed).map(|&(_, y)| gain(y, x)))
        .collect();
    let wins = pairs.iter().filter(|&&g| g > 0.0).count();
    let iqr_a = quartiles(&va).map_or(f64::INFINITY, |(q1, q3)| q3 - q1);
    if pairs.len() >= 10 && wins * 10 >= pairs.len() * 9 && gain(mb, ma) > iqr_a {
        return Verdict::Improved;
    }
    let all_better = va.iter().all(|&x| vb.iter().all(|&y| gain(y, x) > 0.0));
    let wide = |v: &[f64]| spread(v).is_none_or(|s| s > bound);
    if (wide(&va) || wide(&vb)) && !all_better {
        return Verdict::Unresolved;
    }
    Verdict::Unchanged
}

/// Renders the comparison of `a` (parent) against `b` (change) and
/// whether any metric got worse.
pub fn compare(catalogue: &Catalogue, a: &[Json], b: &[Json]) -> (String, bool) {
    let (ga, gb) = (group(a), group(b));
    let mut out = String::new();
    let mut any_worse = false;
    let fmt_side = |s: &[Sample]| {
        let v: Vec<f64> = s.iter().map(|&(_, x)| x).collect();
        match (median(&v), quartiles(&v)) {
            (Some(m), Some((q1, q3))) => format!("{m:.6} [{q1:.6}, {q3:.6}] n={}", v.len()),
            (Some(m), None) => format!("{m:.6} n=1"),
            _ => "-".to_string(),
        }
    };
    let _ = writeln!(out, "workload\tmetric\tunit\tA median [q1, q3]\tB median [q1, q3]\tverdict");
    for workload in &catalogue.workloads {
        for (traced, declared) in [(false, &catalogue.end_to_end), (true, &catalogue.per_layer)] {
            let side = |g: &Grouped, name: &str| -> Vec<Sample> {
                g.get(workload)
                    .and_then(|t| t.get(&traced))
                    .and_then(|m| m.get(name))
                    .cloned()
                    .unwrap_or_default()
            };
            for metric in declared {
                let (sa, sb) = (side(&ga, &metric.name), side(&gb, &metric.name));
                if sa.is_empty() && sb.is_empty() {
                    continue;
                }
                let v = if traced || sa.is_empty() || sb.is_empty() {
                    "-".to_string()
                } else {
                    let v = verdict(metric, &sa, &sb);
                    any_worse |= v == Verdict::Worse;
                    v.name().to_string()
                };
                let _ = writeln!(
                    out,
                    "{workload}\t{}\t{}\t{}\t{}\t{v}",
                    metric.name,
                    metric.unit,
                    fmt_side(&sa),
                    fmt_side(&sb)
                );
            }
        }
    }
    (out, any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(better: Better, bound: f64) -> Metric {
        Metric { name: "x".into(), unit: "s".into(), better, bound: Some(bound) }
    }

    fn runs(values: &[f64]) -> Vec<Sample> {
        values.iter().enumerate().map(|(i, &v)| (i as u64, v)).collect()
    }

    #[test]
    fn verdicts_follow_the_pairing_rule() {
        let m = metric(Better::Lower, 0.10);
        let base = runs(&[1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]);
        let same = runs(&[1.00, 1.00, 1.01, 0.99, 1.01, 0.99, 1.00, 1.00, 1.00, 1.01]);
        let faster = runs(&[0.80, 0.81, 0.79, 0.80, 0.82, 0.78, 0.80, 0.81, 0.79, 0.80]);
        let slower = runs(&[1.20, 1.21, 1.19, 1.20, 1.22, 1.18, 1.20, 1.21, 1.19, 1.20]);
        assert_eq!(verdict(&m, &base, &same), Verdict::Unchanged);
        assert_eq!(verdict(&m, &base, &faster), Verdict::Improved);
        assert_eq!(verdict(&m, &base, &slower), Verdict::Worse);
        // Nine pairs are too few to claim a gain, however clear.
        assert_eq!(verdict(&m, &base[..9], &faster[..9]), Verdict::Unchanged);
    }

    #[test]
    fn wide_spreads_are_unresolved() {
        let m = metric(Better::Higher, 0.05);
        let noisy = runs(&[1.0, 1.3, 0.8, 1.1, 0.9, 1.2, 0.7, 1.0, 1.1, 0.9]);
        let also = runs(&[1.1, 0.8, 1.2, 0.9, 1.0, 1.3, 0.9, 1.0, 0.8, 1.1]);
        assert_eq!(verdict(&m, &noisy, &also), Verdict::Unresolved);
    }

    #[test]
    fn records_group_by_workload_and_seed() {
        let text = concat!(
            r#"{"vbench":1,"workload":"maze","seed":3,"trace":false,"metrics":{"x":{"value":2.0,"unit":"s"}}}"#,
            "\n\n",
            r#"{"vbench":1,"workload":"maze","seed":4,"trace":false,"metrics":{"x":{"value":3.0,"unit":"s"}}}"#,
        );
        let records = parse_records(text).expect("valid records");
        let g = group(&records);
        assert_eq!(g["maze"][&false]["x"], vec![(3, 2.0), (4, 3.0)]);
        assert!(parse_records("{\"v\":1}").is_err());
    }
}
