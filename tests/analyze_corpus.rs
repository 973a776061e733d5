//! Golden diagnostics for the static analyzer over the fuzz corpus.
//!
//! Every corpus case is run through the pre-route feasibility analysis
//! and its rendered diagnostics are compared against a pinned golden
//! string — most cases are feasible and must stay diagnostic-free,
//! while `obstructed-infeasible.case` must keep firing its
//! density-overflow certificate. A second test closes the acceptance
//! loop: the batch engine's precheck skips the certified case with an
//! `Infeasible` outcome instead of burning router budget on it.

use vlsi_route::analyze::{analyze_problem, lint_db, render_text, Severity};
use vlsi_route::fuzz::FuzzCase;
use vlsi_route::mighty::{MightyRouter, RetryPolicy, RouterConfig, Supervisor};
use vlsi_route::model::RouteError;
use vlsi_route::{EngineConfig, RouteEngine};

fn corpus() -> Vec<(String, FuzzCase)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/corpus");
    let mut cases: Vec<(String, FuzzCase)> = std::fs::read_dir(dir)
        .expect("tests/corpus exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "case"))
        .map(|p| {
            let name = p.file_name().expect("case file name").to_string_lossy().into_owned();
            let text = std::fs::read_to_string(&p).expect("readable case file");
            let case =
                FuzzCase::parse(&text).unwrap_or_else(|e| panic!("{name} does not parse: {e}"));
            (name, case)
        })
        .collect();
    cases.sort_by(|a, b| a.0.cmp(&b.0));
    cases
}

/// The expected feasibility diagnostics per corpus case. Everything
/// not listed here must analyze clean.
const GOLDEN: &[(&str, &str)] = &[(
    "obstructed-infeasible.case",
    "error[F001/density-overflow]: density overflow at the cut between rows 4 and 5: \
     3 crossing nets, 2 free cell pairs\n  --> (0, 4)..(7, 5)\n  \
     = hint: widen the channel, add a layer, or move pins off the saturated cut\n1 error\n",
)];

#[test]
fn corpus_feasibility_diagnostics_match_the_golden_set() {
    let mut fired = 0usize;
    for (name, case) in corpus() {
        let report = analyze_problem(&case.build());
        let rendered = render_text(report.diagnostics());
        let expected =
            GOLDEN.iter().find(|(n, _)| *n == name.as_str()).map_or("", |(_, text)| *text);
        assert_eq!(rendered, expected, "{name}: feasibility diagnostics drifted");
        if !report.is_feasible() {
            fired += 1;
        }
    }
    assert_eq!(fired, GOLDEN.len(), "every golden entry corresponds to a certificate");
}

#[test]
fn corpus_certificates_replay_against_their_instances() {
    for (name, case) in corpus() {
        let problem = case.build();
        for cert in analyze_problem(&problem).certificates() {
            assert!(
                cert.replay(&problem),
                "{name}: certificate does not replay: {}",
                cert.summary()
            );
        }
    }
}

#[test]
fn corpus_routings_lint_without_unexpected_errors() {
    // The lint registry over every honest rip-up result: warnings are
    // permitted (dead wires on failed nets, say), and the only legal
    // error is a disconnected-net finding on a net the router itself
    // reported as failed — the lint form of "legal but incomplete".
    let router = MightyRouter::new(RouterConfig::default());
    for (name, case) in corpus() {
        let problem = case.build();
        let routing = vlsi_route::model::DetailedRouter::route(&router, &problem).expect("routes");
        let report = lint_db(&problem, &routing.db);
        let errors: Vec<_> = report
            .diagnostics()
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .filter(|d| d.code != "L004" || !d.net.is_some_and(|n| routing.failed.contains(&n)))
            .collect();
        assert!(errors.is_empty(), "{name}: lint errors on an honest routing: {errors:?}");
    }
}

#[test]
fn engine_precheck_skips_the_certified_corpus_case() {
    let problems: Vec<_> = corpus()
        .into_iter()
        .filter(|(name, _)| name == "obstructed-infeasible.case" || name == "switchbox-min-01.case")
        .map(|(name, case)| (name, case.build()))
        .collect();
    assert_eq!(problems.len(), 2, "both driver cases present");
    let infeasible_at = problems
        .iter()
        .position(|(name, _)| name == "obstructed-infeasible.case")
        .expect("certified case present");
    let instances: Vec<_> = problems.into_iter().map(|(_, p)| p).collect();

    let engine = RouteEngine::new(EngineConfig { jobs: 1, precheck: true, ..Default::default() });
    let router = MightyRouter::new(RouterConfig::default());
    let supervisor = Supervisor::with_primary(&router, RetryPolicy::default());
    let batch = engine.route_batch(&supervisor, &instances, None);
    assert_eq!(batch.stats.infeasible, 1, "exactly the certified case is skipped");
    assert_eq!(batch.stats.complete, 1, "the feasible case still routes");
    match &batch.outcomes[infeasible_at].as_ref().and_then(|o| o.result.as_ref()) {
        Some(Err(RouteError::Infeasible { reason })) => {
            assert!(reason.contains("density overflow"), "{reason}");
        }
        other => panic!("expected an infeasible outcome, got {other:?}"),
    }
}
