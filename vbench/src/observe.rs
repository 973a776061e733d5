//! Per-layer time of the rip-up router, measured from outside through
//! the public [`RouteObserver`] callbacks.
//!
//! [`TimingObserver`] timestamps every callback and charges the gap
//! since the previous one to the layer whose callback ends it:
//!
//! | gap ends at | charged to |
//! |---|---|
//! | `on_search_done(Hard)` for the scheduled net | `hard_search` |
//! | `on_search_done(Hard)` for another net (a victim repair) | `weak` |
//! | `on_search_done(Soft)` | `soft_search` |
//! | `on_weak_modification` | `weak` |
//! | `on_strong_ripup`, `on_penalty_escalation` | `strong` |
//! | `on_net_committed`, `on_net_failed` | `commit` |
//! | `on_net_scheduled` after a commit, or the routing call's return | `snapshot` |
//!
//! The last row covers `remember_best` (the best-state database clone)
//! and the connectivity recount that follow every commit. What is left
//! unattributed is the call's set-up before its first event and the
//! queue bookkeeping between a stuck attempt and the next net.
//! Observation never steers the router, so observed and unobserved runs
//! produce the same databases.

use std::time::Instant;

use route_model::{NetId, RouteObserver, SearchKind, SearchProbe};

/// Router time and work split by layer, summed over observed calls.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RouterLayers {
    /// Wall time of the observed routing calls, seconds.
    pub wall_s: f64,
    /// Hard (free-cells-only) searches of the scheduled net.
    pub hard_search_s: f64,
    /// Searches charged to `hard_search_s`.
    pub hard_searches: u64,
    /// Of those, searches that found a path.
    pub hard_found: u64,
    /// Nodes settled by every search, hard and soft.
    pub expanded: u64,
    /// Interference (soft) searches.
    pub soft_search_s: f64,
    /// Soft searches run.
    pub soft_searches: u64,
    /// Weak modification: lifting victims and repairing them in place.
    pub weak_s: f64,
    /// Victims repaired in place.
    pub weak_mods: u64,
    /// Strong rip-up bookkeeping.
    pub strong_s: f64,
    /// Victims ripped and re-queued.
    pub strong_ripups: u64,
    /// Final commit and connectivity check of a net (or its failure).
    pub commit_s: f64,
    /// Nets committed.
    pub commits: u64,
    /// Best-state snapshot and connectivity recount after a commit.
    pub snapshot_s: f64,
}

impl RouterLayers {
    /// Seconds charged to a named layer.
    pub fn attributed_s(&self) -> f64 {
        self.hard_search_s
            + self.soft_search_s
            + self.weak_s
            + self.strong_s
            + self.commit_s
            + self.snapshot_s
    }

    /// Share of the routing calls' wall time charged to a named layer.
    pub fn attributed_frac(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.attributed_s() / self.wall_s
        } else {
            0.0
        }
    }

    /// Share of hard searches that found a path.
    pub fn hard_found_frac(&self) -> f64 {
        if self.hard_searches > 0 {
            self.hard_found as f64 / self.hard_searches as f64
        } else {
            0.0
        }
    }

    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &RouterLayers) {
        self.wall_s += other.wall_s;
        self.hard_search_s += other.hard_search_s;
        self.hard_searches += other.hard_searches;
        self.hard_found += other.hard_found;
        self.expanded += other.expanded;
        self.soft_search_s += other.soft_search_s;
        self.soft_searches += other.soft_searches;
        self.weak_s += other.weak_s;
        self.weak_mods += other.weak_mods;
        self.strong_s += other.strong_s;
        self.strong_ripups += other.strong_ripups;
        self.commit_s += other.commit_s;
        self.commits += other.commits;
        self.snapshot_s += other.snapshot_s;
    }
}

/// Timestamping observer for one routing call: create it right before
/// the call with [`TimingObserver::start`], pass it in, and call
/// [`TimingObserver::finish`] right after the call returns.
#[derive(Debug)]
pub struct TimingObserver {
    start: Instant,
    last: Instant,
    after_commit: bool,
    scheduled: Option<NetId>,
    layers: RouterLayers,
}

impl TimingObserver {
    /// Starts timing a routing call.
    pub fn start() -> Self {
        let now = Instant::now();
        TimingObserver {
            start: now,
            last: now,
            after_commit: false,
            scheduled: None,
            layers: RouterLayers::default(),
        }
    }

    /// Ends the call: charges the final gap and returns the split.
    pub fn finish(mut self) -> RouterLayers {
        let gap = self.gap();
        if self.after_commit {
            self.layers.snapshot_s += gap;
        }
        self.layers.wall_s = self.start.elapsed().as_secs_f64();
        self.layers
    }

    fn gap(&mut self) -> f64 {
        let now = Instant::now();
        let gap = now.duration_since(self.last).as_secs_f64();
        self.last = now;
        gap
    }
}

impl RouteObserver for TimingObserver {
    fn on_net_scheduled(&mut self, net: NetId) {
        let gap = self.gap();
        if self.after_commit {
            self.layers.snapshot_s += gap;
        }
        self.after_commit = false;
        self.scheduled = Some(net);
    }

    fn on_search_done(&mut self, net: NetId, kind: SearchKind, probe: SearchProbe) {
        let gap = self.gap();
        self.after_commit = false;
        self.layers.expanded += probe.expanded;
        match kind {
            SearchKind::Soft => {
                self.layers.soft_search_s += gap;
                self.layers.soft_searches += 1;
            }
            SearchKind::Hard if self.scheduled == Some(net) => {
                self.layers.hard_search_s += gap;
                self.layers.hard_searches += 1;
                self.layers.hard_found += u64::from(probe.found);
            }
            SearchKind::Hard => self.layers.weak_s += gap,
        }
    }

    fn on_weak_modification(&mut self, _net: NetId, _victim: NetId) {
        self.layers.weak_s += self.gap();
        self.layers.weak_mods += 1;
    }

    fn on_strong_ripup(&mut self, _net: NetId, _victim: NetId, _rip_count: u32) {
        self.layers.strong_s += self.gap();
        self.layers.strong_ripups += 1;
    }

    fn on_penalty_escalation(&mut self, _victim: NetId, _penalty: u64) {
        self.layers.strong_s += self.gap();
    }

    fn on_net_committed(&mut self, _net: NetId) {
        self.layers.commit_s += self.gap();
        self.layers.commits += 1;
        self.after_commit = true;
    }

    fn on_net_failed(&mut self, _net: NetId) {
        self.layers.commit_s += self.gap();
        self.after_commit = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probe(found: bool) -> SearchProbe {
        SearchProbe { expanded: 10, relaxed: 20, heap_peak: 3, found }
    }

    #[test]
    fn gaps_are_charged_to_the_callback_that_ends_them() {
        let mut obs = TimingObserver::start();
        obs.on_net_scheduled(NetId(0));
        obs.on_search_done(NetId(0), SearchKind::Hard, probe(false));
        obs.on_search_done(NetId(0), SearchKind::Soft, probe(true));
        obs.on_search_done(NetId(1), SearchKind::Hard, probe(true)); // victim repair
        obs.on_weak_modification(NetId(0), NetId(1));
        obs.on_strong_ripup(NetId(0), NetId(2), 1);
        obs.on_penalty_escalation(NetId(2), 4);
        obs.on_search_done(NetId(0), SearchKind::Hard, probe(true));
        obs.on_net_committed(NetId(0));
        let layers = obs.finish();
        assert_eq!(layers.hard_searches, 2);
        assert_eq!(layers.hard_found, 1);
        assert_eq!(layers.soft_searches, 1);
        assert_eq!(layers.weak_mods, 1);
        assert_eq!(layers.strong_ripups, 1);
        assert_eq!(layers.commits, 1);
        assert_eq!(layers.expanded, 40);
        assert!((layers.hard_found_frac() - 0.5).abs() < 1e-12);
        // Everything after the first event is attributed.
        assert!(layers.attributed_s() <= layers.wall_s);
        assert!(layers.wall_s > 0.0);
    }

    #[test]
    fn layers_add_up() {
        let a = RouterLayers { wall_s: 1.0, hard_search_s: 0.5, commits: 3, ..Default::default() };
        let mut sum = a;
        sum.add(&a);
        assert_eq!(sum.commits, 6);
        assert!((sum.attributed_frac() - 0.5).abs() < 1e-12);
    }
}
