use std::fmt;

/// Counters describing how much work — and how much modification — a
/// routing run needed. The ablation experiments report these directly.
///
/// This is the workspace-wide work-accounting type: the rip-up router
/// fills it from its own control flow, and
/// [`MetricsRecorder`](crate::MetricsRecorder) reconstructs the same
/// counters from [`RouteObserver`](crate::RouteObserver) events, so the
/// engine and the bench tables consume one vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RouterStats {
    /// Connections routed through free space on the first try.
    pub hard_routes: u64,
    /// Connections that needed an interference (soft) path.
    pub soft_routes: u64,
    /// Weak modifications: blocking wiring pushed aside and immediately
    /// re-routed in place.
    pub weak_pushes: u64,
    /// Weak modifications rolled back because a victim could not be
    /// repaired in place (weak-only configurations).
    pub weak_rollbacks: u64,
    /// Strong modifications: victim traces ripped and re-enqueued.
    pub rips: u64,
    /// Re-route tasks processed for previously ripped nets.
    pub reroutes: u64,
    /// Total search nodes settled across all searches, found or failed.
    pub expanded: u64,
    /// Total queue events processed.
    pub events: u64,
}

impl RouterStats {
    /// Total modification events (weak pushes plus rips).
    pub fn modifications(&self) -> u64 {
        self.weak_pushes + self.rips
    }

    /// Accumulates another run's counters into this one — the batch
    /// engine's aggregation primitive.
    pub fn absorb(&mut self, other: &RouterStats) {
        self.hard_routes += other.hard_routes;
        self.soft_routes += other.soft_routes;
        self.weak_pushes += other.weak_pushes;
        self.weak_rollbacks += other.weak_rollbacks;
        self.rips += other.rips;
        self.reroutes += other.reroutes;
        self.expanded += other.expanded;
        self.events += other.events;
    }
}

impl fmt::Display for RouterStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "hard {}, soft {}, weak {} (rollback {}), rips {}, reroutes {}, expanded {}, events {}",
            self.hard_routes,
            self.soft_routes,
            self.weak_pushes,
            self.weak_rollbacks,
            self.rips,
            self.reroutes,
            self.expanded,
            self.events
        )
    }
}

/// Aggregate wiring statistics of a [`RouteDb`](crate::RouteDb).
///
/// Produced by [`RouteDb::stats`](crate::RouteDb::stats).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RouteStats {
    /// Occupied `(cell, layer)` slots beyond the pins — total wire cells.
    pub wirelength: u64,
    /// Number of vias (M1–M2 connections).
    pub vias: u64,
    /// Number of live committed traces.
    pub traces: u64,
}

impl RouteStats {
    /// Common scalar quality figure: wirelength plus a via penalty.
    ///
    /// Vias are conventionally weighted heavier than wire cells; `weight`
    /// is the cost of one via in wire-cell units.
    pub fn weighted_cost(&self, via_weight: u64) -> u64 {
        self.wirelength + via_weight * self.vias
    }
}

impl fmt::Display for RouteStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wirelength {}, vias {}, traces {}", self.wirelength, self.vias, self.traces)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modifications_sum() {
        let s = RouterStats { weak_pushes: 3, rips: 2, ..Default::default() };
        assert_eq!(s.modifications(), 5);
    }

    #[test]
    fn absorb_accumulates_every_counter() {
        let a = RouterStats {
            hard_routes: 1,
            soft_routes: 2,
            weak_pushes: 3,
            weak_rollbacks: 4,
            rips: 5,
            reroutes: 6,
            expanded: 7,
            events: 8,
        };
        let mut total = a;
        total.absorb(&a);
        assert_eq!(
            total,
            RouterStats {
                hard_routes: 2,
                soft_routes: 4,
                weak_pushes: 6,
                weak_rollbacks: 8,
                rips: 10,
                reroutes: 12,
                expanded: 14,
                events: 16,
            }
        );
    }

    #[test]
    fn router_display_is_nonempty() {
        assert!(!RouterStats::default().to_string().is_empty());
    }

    #[test]
    fn weighted_cost() {
        let s = RouteStats { wirelength: 10, vias: 3, traces: 2 };
        assert_eq!(s.weighted_cost(2), 16);
        assert_eq!(s.weighted_cost(0), 10);
    }

    #[test]
    fn display_mentions_all_fields() {
        let s = RouteStats { wirelength: 1, vias: 2, traces: 3 };
        let text = s.to_string();
        assert!(text.contains('1') && text.contains('2') && text.contains('3'));
    }
}
