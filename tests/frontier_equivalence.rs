//! Frontier equivalence: the bucket-queue and binary-heap frontiers
//! are defined to be *bit-identical*, not merely both-correct. Every
//! corpus case and a fuzz-seed sweep must produce the same
//! `RouteDb::checksum()`, the same failed set, and the same golden
//! observer event sequence under both [`FrontierKind`]s, for both the
//! rip-up router and the sequential Lee baseline.

use vlsi_route::fuzz::{case_for_seed, FuzzCase};
use vlsi_route::maze::sequential::route_all_in;
use vlsi_route::maze::{CostModel, ProbeKind, SearchArena};
use vlsi_route::mighty::{FrontierKind, MightyRouter, RouterConfig};
use vlsi_route::model::{EventLog, Problem};

fn corpus_problems() -> Vec<(String, Problem)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/corpus");
    let mut cases: Vec<(String, Problem)> = std::fs::read_dir(dir)
        .expect("tests/corpus exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "case"))
        .map(|p| {
            let name = p.file_name().expect("case file name").to_string_lossy().into_owned();
            let text = std::fs::read_to_string(&p).expect("readable case file");
            let case =
                FuzzCase::parse(&text).unwrap_or_else(|e| panic!("{name} does not parse: {e}"));
            (name, case.build())
        })
        .collect();
    cases.sort_by(|a, b| a.0.cmp(&b.0));
    cases
}

fn router(frontier: FrontierKind) -> MightyRouter {
    MightyRouter::new(RouterConfig { frontier, ..RouterConfig::default() })
}

#[test]
fn corpus_checksums_match_across_frontiers() {
    let (heap, buckets) = (router(FrontierKind::Heap), router(FrontierKind::Buckets));
    for (name, problem) in corpus_problems() {
        let a = heap.route(&problem);
        let b = buckets.route(&problem);
        assert_eq!(a.db().checksum(), b.db().checksum(), "{name}: checksum parity");
        assert_eq!(a.failed(), b.failed(), "{name}: failed-set parity");
    }
}

#[test]
fn corpus_event_sequences_match_across_frontiers() {
    // Stronger than checksum parity: the frontiers must drive the
    // router through the *same* schedule — every rip-up, penalty, and
    // commit event in the same order with the same payloads.
    let (heap, buckets) = (router(FrontierKind::Heap), router(FrontierKind::Buckets));
    for (name, problem) in corpus_problems() {
        let mut log_a = EventLog::default();
        let mut log_b = EventLog::default();
        let a = heap.route_observed(&problem, &mut log_a);
        let b = buckets.route_observed(&problem, &mut log_b);
        assert_eq!(a.db().checksum(), b.db().checksum(), "{name}");
        assert_eq!(log_a, log_b, "{name}: golden event sequences diverge");
        assert!(!log_a.events().is_empty(), "{name}: observer saw the route");
    }
}

#[test]
fn fuzz_seed_sweep_checksums_match_across_frontiers() {
    // A slice of the same deterministic seed walk `vroute fuzz` uses;
    // the full 0..3000 sweep runs release-mode via the fuzz oracle
    // (`FrontierDivergence`), this pins a fast cross-section in tier 1.
    let (heap, buckets) = (router(FrontierKind::Heap), router(FrontierKind::Buckets));
    for seed in 0..120 {
        let case = case_for_seed(seed);
        let Some(problem) = case.try_build() else { continue };
        let a = heap.route(&problem);
        let b = buckets.route(&problem);
        assert_eq!(a.db().checksum(), b.db().checksum(), "seed {seed}: {case}");
        assert_eq!(a.failed(), b.failed(), "seed {seed}: {case}");
    }
}

#[test]
fn lee_baseline_matches_across_frontiers_and_probes() {
    // The sequential Lee router consumes the arena directly; sweep all
    // frontier x probe corners against the default configuration.
    for (name, problem) in corpus_problems() {
        let mut reference = SearchArena::with_config(FrontierKind::Heap, ProbeKind::Scalar);
        let want = route_all_in(&problem, CostModel::default(), &mut reference);
        for kind in [FrontierKind::Heap, FrontierKind::Buckets] {
            for probe in [ProbeKind::Scalar, ProbeKind::Bits] {
                let mut arena = SearchArena::with_config(kind, probe);
                let got = route_all_in(&problem, CostModel::default(), &mut arena);
                assert_eq!(
                    got.db.checksum(),
                    want.db.checksum(),
                    "{name}: lee {kind:?}/{probe:?} diverged"
                );
                assert_eq!(got.failed, want.failed, "{name}: lee {kind:?}/{probe:?}");
            }
        }
    }
}
