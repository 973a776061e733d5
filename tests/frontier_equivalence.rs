//! Frontier equivalence: the bucket-queue and binary-heap frontiers
//! are defined to be *bit-identical*, not merely both-correct. Every
//! corpus case and a fuzz-seed sweep must produce the same
//! `RouteDb::checksum()`, the same failed set, and the same golden
//! observer event sequence under both [`FrontierKind`]s, for both the
//! rip-up router and the sequential Lee baseline. The default side
//! routes through the router's own arena; the heap reference is reached
//! through [`SearchArena::with_frontier`].

use vlsi_route::fuzz::{case_for_seed, FuzzCase};
use vlsi_route::maze::{sequential, CostModel, FrontierKind, SearchArena};
use vlsi_route::mighty::MightyRouter;
use vlsi_route::model::{EventLog, NopObserver, Problem};

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

fn heap_arena() -> SearchArena {
    SearchArena::with_frontier(FrontierKind::Heap)
}

#[test]
fn corpus_checksums_match_across_frontiers() {
    let (router, mut heap) = (MightyRouter::default(), heap_arena());
    for (name, problem) in corpus_problems() {
        let a = router.route_warm(&problem, &mut heap);
        let b = router.route(&problem);
        assert_eq!(a.db().checksum(), b.db().checksum(), "{name}: checksum parity");
        assert_eq!(a.failed(), b.failed(), "{name}: failed-set parity");
    }
}

#[test]
fn corpus_event_sequences_match_across_frontiers() {
    // Stronger than checksum parity: the frontiers must drive the
    // router through the *same* schedule — every rip-up, penalty, and
    // commit event in the same order with the same payloads.
    let (router, mut heap) = (MightyRouter::default(), heap_arena());
    for (name, problem) in corpus_problems() {
        let mut log_a = EventLog::default();
        let mut log_b = EventLog::default();
        let a = router.route_warm_observed(&problem, &mut heap, &mut log_a);
        let b = router.route_observed(&problem, &mut log_b);
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
    let (router, mut heap) = (MightyRouter::default(), heap_arena());
    for seed in 0..120 {
        let case = case_for_seed(seed);
        let Some(problem) = case.try_build() else { continue };
        let a = router.route_warm(&problem, &mut heap);
        let b = router.route(&problem);
        assert_eq!(a.db().checksum(), b.db().checksum(), "seed {seed}: {case}");
        assert_eq!(a.failed(), b.failed(), "seed {seed}: {case}");
    }
}

#[test]
fn lee_baseline_matches_across_frontiers() {
    // The sequential Lee router consumes the arena directly: the
    // default arena must route exactly as the heap reference does.
    for (name, problem) in corpus_problems() {
        let lee = |arena: &mut SearchArena| {
            sequential::route_all(arena, &problem, CostModel::default(), &mut NopObserver)
        };
        let want = lee(&mut heap_arena());
        let got = lee(&mut SearchArena::new());
        assert_eq!(got.db.checksum(), want.db.checksum(), "{name}: lee buckets diverged");
        assert_eq!(got.failed, want.failed, "{name}: lee failed-set parity");
    }
}
