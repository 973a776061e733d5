//! Experiment T2 driver: switchbox completion per router.

use mighty::{MightyRouter, RouterConfig};
use route_maze::{sequential, CostModel, SearchArena};
use route_model::{NopObserver, Problem};
use route_verify::verify;

/// What one router achieved on one switchbox.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoxScore {
    /// Nets fully routed.
    pub completed: usize,
    /// Total nets.
    pub total: usize,
    /// Total wire cells of the final (legal) routing.
    pub wirelength: u64,
    /// Vias of the final routing.
    pub vias: u64,
}

impl BoxScore {
    /// Whether every net completed.
    pub fn is_complete(&self) -> bool {
        self.completed == self.total
    }

    /// Compact cell text: `24/24` or `21/24`.
    pub fn cell(&self) -> String {
        format!("{}/{}", self.completed, self.total)
    }
}

/// Routes `problem` with the sequential Lee-style baseline (no
/// modification) and verifies the result is legal.
///
/// # Panics
///
/// Panics if the baseline produces an illegal routing.
pub fn score_sequential(problem: &Problem) -> BoxScore {
    let out = sequential::route_all(
        &mut SearchArena::new(),
        problem,
        CostModel::default(),
        &mut NopObserver,
    );
    let report = verify(problem, &out.db);
    assert!(
        report.is_clean() || report.is_legal_but_incomplete(),
        "sequential baseline produced illegal routing: {report}"
    );
    let stats = out.db.stats();
    BoxScore {
        completed: problem.nets().len() - out.failed.len(),
        total: problem.nets().len(),
        wirelength: stats.wirelength,
        vias: stats.vias,
    }
}

/// Routes `problem` with the rip-up/reroute router under `cfg` and
/// verifies the result is legal.
///
/// # Panics
///
/// Panics if the router produces an illegal routing.
pub fn score_mighty(problem: &Problem, cfg: RouterConfig) -> BoxScore {
    let out = MightyRouter::new(cfg).route(problem);
    let report = verify(problem, out.db());
    assert!(
        report.is_clean() || report.is_legal_but_incomplete(),
        "rip-up/reroute produced illegal routing: {report}"
    );
    let stats = out.db().stats();
    BoxScore {
        completed: problem.nets().len() - out.failed().len(),
        total: problem.nets().len(),
        wirelength: stats.wirelength,
        vias: stats.vias,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use route_benchdata::gen::SwitchboxGen;

    #[test]
    fn scores_agree_on_totals() {
        let p = SwitchboxGen { width: 10, height: 10, nets: 6, seed: 5 }.build();
        let seq = score_sequential(&p);
        let mig = score_mighty(&p, RouterConfig::default());
        assert_eq!(seq.total, 6);
        assert_eq!(mig.total, 6);
        assert!(mig.completed >= seq.completed, "modification never hurts completion here");
    }

    #[test]
    fn cell_format() {
        let s = BoxScore { completed: 3, total: 4, wirelength: 10, vias: 2 };
        assert_eq!(s.cell(), "3/4");
        assert!(!s.is_complete());
    }
}
