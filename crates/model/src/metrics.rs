//! Metrics built on the [`RouteObserver`](crate::RouteObserver) event
//! stream: monotonic counters plus fixed-bucket log-scale histograms,
//! with no external dependencies.
//!
//! [`MetricsRecorder`] is the standard production observer: attach one
//! to any [`DetailedRouter`](crate::DetailedRouter) via
//! [`route_observed`](crate::DetailedRouter::route_observed) (or let the
//! batch engine attach one per instance) and read back a
//! [`RouterStats`] reconstructed from events, net-level completion
//! counters, and an expansion histogram describing how search effort is
//! distributed — the long tail the aggregate mean hides.
//!
//! # Examples
//!
//! ```
//! use route_model::{Histogram, MetricsRecorder, NetId, RouteObserver, SearchKind, SearchProbe};
//!
//! let mut rec = MetricsRecorder::new();
//! rec.on_net_scheduled(NetId(0));
//! rec.on_search_done(
//!     NetId(0),
//!     SearchKind::Hard,
//!     SearchProbe { expanded: 40, relaxed: 90, heap_peak: 12, found: true },
//! );
//! rec.on_net_committed(NetId(0));
//! assert_eq!(rec.router().hard_routes, 1);
//! assert_eq!(rec.nets_committed(), 1);
//! assert_eq!(rec.expansion().count(), 1);
//! ```

use std::fmt;

use crate::observe::{EventSink, RouteEvent, SearchKind};
use crate::RouterStats;

/// Number of histogram buckets: bucket 0 holds the value `0`, bucket
/// `i >= 1` holds `[2^(i-1), 2^i)`, and the last bucket absorbs
/// everything above `2^30`.
pub const HISTOGRAM_BUCKETS: usize = 32;

/// A fixed-size histogram with logarithmic (powers-of-two) buckets.
///
/// Log-scale buckets trade per-value precision for a constant, merge-
/// friendly footprint: recording is one branch and one increment, and
/// two histograms merge by adding buckets — exactly what the batch
/// engine needs to aggregate per-instance recorders without allocation
/// or locks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { counts: [0; HISTOGRAM_BUCKETS], count: 0, sum: 0, max: 0 }
    }
}

/// Bucket index of `value`: 0 for `0`, else `1 + floor(log2(value))`,
/// saturating at the last bucket.
fn bucket_of(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        ((64 - value.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }
}

/// Inclusive upper bound of bucket `i`.
fn bucket_bound(i: usize) -> u64 {
    match i {
        0 => 0,
        _ if i >= HISTOGRAM_BUCKETS - 1 => u64::MAX,
        _ => (1u64 << i) - 1,
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.counts[bucket_of(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }

    /// Adds every sample of `other` into this histogram.
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest recorded sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean of the samples, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket containing the `q`-quantile (`0..=1`),
    /// or 0 when empty. Log-scale buckets make this an upper estimate
    /// within a factor of two — plenty for spotting tail blow-ups.
    pub fn quantile_bound(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank.max(1) {
                return bucket_bound(i).min(self.max);
            }
        }
        self.max
    }

    /// Non-empty buckets as `(inclusive upper bound, sample count)`,
    /// ascending.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts.iter().enumerate().filter(|&(_, &c)| c > 0).map(|(i, &c)| (bucket_bound(i), c))
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n {}, mean {:.1}, p50<= {}, p99<= {}, max {}",
            self.count,
            self.mean(),
            self.quantile_bound(0.5),
            self.quantile_bound(0.99),
            self.max
        )
    }
}

/// A [`RouteObserver`](crate::RouteObserver) that folds the event
/// stream into monotonic counters and histograms.
///
/// The counter block is a [`RouterStats`] reconstructed from events, so
/// engine aggregates and CLI tables speak the same vocabulary as the
/// router's own accounting. On top of it the recorder tracks net-level
/// terminal counts, penalty escalation depth, and a histogram of
/// per-search expanded nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MetricsRecorder {
    router: RouterStats,
    nets_scheduled: u64,
    nets_committed: u64,
    nets_failed: u64,
    escalations: u64,
    max_penalty: u64,
    expansion: Histogram,
}

impl MetricsRecorder {
    /// A recorder with all counters at zero.
    pub fn new() -> Self {
        MetricsRecorder::default()
    }

    /// Work counters reconstructed from the event stream.
    ///
    /// `hard_routes` here counts *every* successful hard search
    /// (including weak-repair re-routes), and `reroutes`/`weak_rollbacks`
    /// stay zero — those distinctions are internal to the router and not
    /// part of the event vocabulary.
    pub fn router(&self) -> &RouterStats {
        &self.router
    }

    /// Queue events observed ([`on_net_scheduled`](crate::RouteObserver::on_net_scheduled)).
    pub fn nets_scheduled(&self) -> u64 {
        self.nets_scheduled
    }

    /// Terminal commit events observed.
    pub fn nets_committed(&self) -> u64 {
        self.nets_committed
    }

    /// Terminal failure events observed.
    pub fn nets_failed(&self) -> u64 {
        self.nets_failed
    }

    /// Penalty escalation events observed.
    pub fn escalations(&self) -> u64 {
        self.escalations
    }

    /// Highest per-slot crossing penalty any net reached.
    pub fn max_penalty(&self) -> u64 {
        self.max_penalty
    }

    /// Histogram of expanded nodes per search.
    pub fn expansion(&self) -> &Histogram {
        &self.expansion
    }

    /// Accumulates another recorder — the batch-engine aggregation
    /// primitive.
    pub fn merge(&mut self, other: &MetricsRecorder) {
        self.router.absorb(&other.router);
        self.nets_scheduled += other.nets_scheduled;
        self.nets_committed += other.nets_committed;
        self.nets_failed += other.nets_failed;
        self.escalations += other.escalations;
        self.max_penalty = self.max_penalty.max(other.max_penalty);
        self.expansion.merge(&other.expansion);
    }

    /// A human-readable metrics table (one `key  value` pair per line).
    pub fn table(&self) -> String {
        let r = &self.router;
        let mut out = String::new();
        let mut row = |k: &str, v: String| {
            out.push_str(&format!("  {k:<22} {v}\n"));
        };
        row("nets scheduled", self.nets_scheduled.to_string());
        row("nets committed", self.nets_committed.to_string());
        row("nets failed", self.nets_failed.to_string());
        row("hard searches won", r.hard_routes.to_string());
        row("soft searches won", r.soft_routes.to_string());
        row("weak modifications", r.weak_pushes.to_string());
        row("strong rip-ups", r.rips.to_string());
        row("penalty escalations", self.escalations.to_string());
        row("max penalty reached", self.max_penalty.to_string());
        row("nodes expanded", r.expanded.to_string());
        row("expansion/search", format!("{}", self.expansion));
        out
    }
}

impl EventSink for MetricsRecorder {
    fn event(&mut self, event: RouteEvent) {
        match event {
            RouteEvent::NetScheduled { .. } => {
                self.nets_scheduled += 1;
                self.router.events += 1;
            }
            RouteEvent::SearchDone { kind, probe, .. } => {
                self.router.expanded += probe.expanded;
                self.expansion.record(probe.expanded);
                if probe.found {
                    match kind {
                        SearchKind::Hard => self.router.hard_routes += 1,
                        SearchKind::Soft => self.router.soft_routes += 1,
                    }
                }
            }
            RouteEvent::WeakModification { .. } => self.router.weak_pushes += 1,
            RouteEvent::StrongRipup { .. } => self.router.rips += 1,
            RouteEvent::PenaltyEscalation { penalty, .. } => {
                self.escalations += 1;
                self.max_penalty = self.max_penalty.max(penalty);
            }
            RouteEvent::NetCommitted { .. } => self.nets_committed += 1,
            RouteEvent::NetFailed { .. } => self.nets_failed += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NetId, RouteObserver, SearchProbe};

    #[test]
    fn bucket_layout() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), HISTOGRAM_BUCKETS - 1);
        assert_eq!(bucket_bound(0), 0);
        assert_eq!(bucket_bound(1), 1);
        assert_eq!(bucket_bound(2), 3);
        assert_eq!(bucket_bound(HISTOGRAM_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn histogram_records_and_merges() {
        let mut a = Histogram::new();
        for v in [0, 1, 5, 5, 100] {
            a.record(v);
        }
        assert_eq!(a.count(), 5);
        assert_eq!(a.sum(), 111);
        assert_eq!(a.max(), 100);
        let mut b = Histogram::new();
        b.record(1000);
        a.merge(&b);
        assert_eq!(a.count(), 6);
        assert_eq!(a.max(), 1000);
        let buckets: Vec<(u64, u64)> = a.buckets().collect();
        assert!(buckets.iter().any(|&(bound, c)| bound == 0 && c == 1));
        assert_eq!(buckets.iter().map(|&(_, c)| c).sum::<u64>(), 6);
    }

    #[test]
    fn quantiles_bound_the_distribution() {
        let mut h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        assert!(h.quantile_bound(0.5) >= 50);
        assert!(h.quantile_bound(0.5) <= 100);
        assert_eq!(h.quantile_bound(1.0), 100);
        assert_eq!(Histogram::new().quantile_bound(0.5), 0);
    }

    #[test]
    fn recorder_folds_events_into_counters() {
        let mut rec = MetricsRecorder::new();
        rec.on_net_scheduled(NetId(0));
        rec.on_search_done(
            NetId(0),
            SearchKind::Hard,
            SearchProbe { expanded: 10, relaxed: 20, heap_peak: 8, found: false },
        );
        rec.on_search_done(
            NetId(0),
            SearchKind::Soft,
            SearchProbe { expanded: 30, relaxed: 70, heap_peak: 16, found: true },
        );
        rec.on_weak_modification(NetId(0), NetId(1));
        rec.on_strong_ripup(NetId(0), NetId(2), 1);
        rec.on_penalty_escalation(NetId(2), 16);
        rec.on_net_committed(NetId(0));
        rec.on_net_failed(NetId(2));

        assert_eq!(rec.router().hard_routes, 0, "failed hard search is not a win");
        assert_eq!(rec.router().soft_routes, 1);
        assert_eq!(rec.router().weak_pushes, 1);
        assert_eq!(rec.router().rips, 1);
        assert_eq!(rec.router().expanded, 40);
        assert_eq!(rec.escalations(), 1);
        assert_eq!(rec.max_penalty(), 16);
        assert_eq!(rec.nets_committed(), 1);
        assert_eq!(rec.nets_failed(), 1);
        assert_eq!(rec.expansion().count(), 2);

        let mut total = MetricsRecorder::new();
        total.merge(&rec);
        total.merge(&rec);
        assert_eq!(total.router().expanded, 80);
        assert_eq!(total.nets_scheduled(), 2);
        assert_eq!(total.max_penalty(), 16);

        let table = rec.table();
        assert!(table.contains("strong rip-ups"));
        assert!(table.contains("weak modifications"));
    }
}
