//! Golden chip-flow tests: fixed-seed synthetic chips routed through
//! the full hierarchical pipeline (plan → parallel per-tile detail →
//! seam repair by whole-die reroute → fallback) must be bit-for-bit
//! deterministic across worker counts, and the pasted-back database
//! must hold up under the independent verifier and the whole-database
//! lint registry.

use vlsi_route::analyze::{lint_db, lint_salvage_chip};
use vlsi_route::benchdata::gen::ChipGen;
use vlsi_route::global::{
    route_hierarchical, route_hierarchical_supervised, ChipSupervision, GlobalConfig, GlobalOutcome,
};
use vlsi_route::mighty::ChipJournal;
use vlsi_route::model::Problem;
use vlsi_route::verify::verify;

/// The fixed golden instances: small enough for debug-mode CI, large
/// enough that every tile boundary mechanism (crossings, seam repair,
/// fallback) is exercised.
fn golden_chips() -> Vec<(Problem, GlobalConfig)> {
    let cfg16 = GlobalConfig { tile: 16, ..GlobalConfig::default() };
    vec![
        (
            ChipGen { width: 64, height: 64, nets: 260, macros: 4, ..ChipGen::small(11) }.build(),
            cfg16,
        ),
        (
            ChipGen { width: 96, height: 96, nets: 420, macros: 6, ..ChipGen::small(3) }.build(),
            cfg16,
        ),
    ]
}

fn route_with_jobs(problem: &Problem, cfg: &GlobalConfig, jobs: usize) -> GlobalOutcome {
    let cfg = GlobalConfig { jobs, ..*cfg };
    route_hierarchical(problem, &cfg)
}

#[test]
fn chip_flow_is_deterministic_across_worker_counts() {
    for (i, (problem, cfg)) in golden_chips().into_iter().enumerate() {
        let one = route_with_jobs(&problem, &cfg, 1);
        for jobs in [2, 4] {
            let many = route_with_jobs(&problem, &cfg, jobs);
            assert_eq!(
                one.db().checksum(),
                many.db().checksum(),
                "chip {i}: jobs 1 vs {jobs} databases differ"
            );
            assert_eq!(one.failed(), many.failed(), "chip {i}: failed sets differ at jobs {jobs}");
            assert_eq!(one.stats(), many.stats(), "chip {i}: global stats differ at jobs {jobs}");
            assert_eq!(
                one.chip_stats(),
                many.chip_stats(),
                "chip {i}: chip stats differ at jobs {jobs}"
            );
        }
    }
}

#[test]
fn stitched_databases_pass_verifier_and_lints() {
    for (i, (problem, cfg)) in golden_chips().into_iter().enumerate() {
        let out = route_with_jobs(&problem, &cfg, 4);
        let report = verify(&problem, out.db());
        assert!(report.is_clean() || report.is_legal_but_incomplete(), "chip {i}: {report}");
        // The whole-database lint registry (L001..L009) over the
        // pasted-back result, chip-aware: every error rule must pass
        // once honestly declared failures are excused (L004 fires on
        // *undeclared* disconnections only). Every orphaned anchor stub
        // is reported as an L009 warning, and each marks a pin the seam
        // repair left stranded — those must all belong to nets the flow
        // honestly reported failed, never to nets it claims routed.
        let salvage = lint_salvage_chip(&problem, out.db(), out.failed());
        assert!(salvage.is_legal(), "chip {i}: lint errors: {:?}", salvage.diagnostics());
        let failed: std::collections::BTreeSet<_> = out.failed().iter().copied().collect();
        for finding in salvage.findings().iter().filter(|f| f.rule().code == "L009") {
            let d = finding.to_diagnostic();
            assert!(
                d.net.is_some_and(|n| failed.contains(&n)),
                "chip {i}: seam surgery stranded an anchor on a net it claims routed: {d:?}"
            );
        }
        let lint = lint_db(&problem, out.db());
        assert!(
            lint.findings().iter().all(|f| f.rule().code != "L008"),
            "chip {i}: dead wire after stitch: {:?}",
            lint.diagnostics()
        );
    }
}

#[test]
fn chip_flow_accounts_for_every_net_exactly_once() {
    // Honesty golden: routed + failed partitions the net list, and
    // `is_complete` answers from the final database, not the plan.
    let (problem, cfg) = golden_chips().remove(0);
    let out = route_with_jobs(&problem, &cfg, 2);
    let nets = problem.nets().len();
    assert!(out.failed().len() <= nets);
    let verified = verify(&problem, out.db());
    assert_eq!(
        out.is_complete(),
        verified.is_clean(),
        "is_complete must agree with the independent verifier"
    );
    // Failed nets are exactly the disconnected ones in the verifier's eyes.
    let mut failed: Vec<_> = out.failed().to_vec();
    failed.sort_unstable();
    let mut disconnected: Vec<_> = verified
        .violations()
        .iter()
        .filter_map(|v| match v {
            vlsi_route::verify::Violation::Disconnected { net, .. } => Some(*net),
            _ => None,
        })
        .collect();
    disconnected.sort_unstable();
    disconnected.dedup();
    assert_eq!(failed, disconnected);
    // Completion floor: golden chip 0 connects at least 253 of its 260
    // nets, so no repair-stage change may silently lose nets.
    assert!(
        nets - out.failed().len() >= 253,
        "golden chip 0 connected {}/{nets}, below the 253 floor",
        nets - out.failed().len()
    );
    // The routed metal itself is pinned: a change that moves it must
    // say so and re-pin.
    assert_eq!(out.db().checksum(), 0x2b0e_1509_67a6_6402, "golden chip 0 checksum moved");
}

#[test]
fn seed_727_stitch_finding_routes_to_completion() {
    // Regression for the fuzz finding at switchbox seed 727: the
    // tiled flow once left one crossing net disconnected after the
    // seam pass. Seam repair now reroutes the whole die incrementally,
    // which completes it. The shrunk case lives in
    // tests/corpus/stitch-727.case; this test pins the hierarchical
    // flow itself completing it.
    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/corpus/stitch-727.case"
    ))
    .expect("the shrunk seed-727 case is in the corpus");
    let case = vlsi_route::fuzz::FuzzCase::parse(&text).expect("case parses");
    let problem = case.try_build().expect("case builds");
    let cfg = GlobalConfig { tile: 8, ..GlobalConfig::default() };
    let out = route_hierarchical(&problem, &cfg);
    assert!(
        out.is_complete(),
        "seed 727 must complete through the whole-die seam repair reroute: failed {:?} ({:?})",
        out.failed(),
        out.chip_stats()
    );
    assert!(verify(&problem, out.db()).is_clean());
}

#[test]
fn journaled_chip_resumes_byte_identically_after_a_simulated_kill() {
    // Crash-safety golden: journal a chip run, cut the journal off
    // mid-file the way a SIGKILL would, and resume. Replayed tiles
    // must reproduce the uninterrupted database byte for byte — the
    // journal's stitch/final checkpoints cross-check that claim from
    // inside the flow, and this test re-checks it from outside.
    let dir = std::env::temp_dir().join("vroute-chip-flow-kill-resume");
    let _ = std::fs::remove_dir_all(&dir);
    let (problem, cfg) = golden_chips().remove(0);
    let sup = ChipSupervision::default();

    let journal = ChipJournal::create(&dir).expect("journal dir");
    let first = route_hierarchical_supervised(&problem, &cfg, &sup, Some(&journal));
    assert_eq!(first.journal_error(), None);
    drop(journal);

    let path = dir.join(ChipJournal::FILE_NAME);
    let bytes = std::fs::read(&path).expect("journal written");
    assert!(bytes.len() > 64, "the journal holds per-tile records");
    std::fs::write(&path, &bytes[..bytes.len() / 2]).expect("simulated kill");

    let journal = ChipJournal::resume(&dir).expect("journal reopens");
    let resumed = route_hierarchical_supervised(&problem, &cfg, &sup, Some(&journal));
    assert!(resumed.resumed_tiles() > 0, "the surviving journal prefix must replay");
    assert_eq!(resumed.journal_error(), None, "checkpoints must match the first run");
    assert_eq!(first.db().checksum(), resumed.db().checksum());
    assert_eq!(first.failed(), resumed.failed());
    assert_eq!(first.stats(), resumed.stats());
    assert_eq!(first.chip_stats(), resumed.chip_stats());
    let _ = std::fs::remove_dir_all(&dir);
}
