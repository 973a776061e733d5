//! Supervised recovery contract tests: every recovery path fires under
//! fault injection, deadline edge cases salvage instead of discarding,
//! counters are deterministic across thread counts, and a journal
//! "killed" mid-run resumes to the exact uninterrupted outcome.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::Duration;

use mighty::engine::{BatchOutcome, EngineConfig, RouteEngine};
use mighty::{
    EngineFault, FallbackChain, FaultPlan, InstanceStatus, JournalEntry, RecoveryPath, RetryPolicy,
    RouterConfig, RunJournal, Supervisor,
};
use route_benchdata::gen::routable_switchbox;
use route_model::{Problem, RouteError};

fn batch(count: u64) -> Vec<Problem> {
    (0..count).map(|i| routable_switchbox(12, 12, 5, 0xfa11 ^ i)).collect()
}

fn keys(problems: &[Problem]) -> Vec<(String, u64)> {
    (0..problems.len()).map(|i| (format!("inst-{i}.sb"), 1000 + i as u64)).collect()
}

/// The deterministic slice of [`mighty::EngineStats`]: everything but
/// wall-clock timings and thread bookkeeping.
fn counters(s: &mighty::EngineStats) -> [u64; 12] {
    [
        s.instances as u64,
        s.complete as u64,
        s.salvaged as u64,
        s.infeasible as u64,
        s.errored as u64,
        s.panicked as u64,
        s.timed_out as u64,
        s.retried as u64,
        s.fell_back as u64,
        s.failed_nets as u64,
        s.wirelength,
        s.vias,
    ]
}

/// Every instance's journal entry: the record the batch replayed or
/// wrote, or one built (and, for a salvage, linted) from its live
/// outcome under the [`keys`] label.
fn entries(out: &BatchOutcome, problems: &[Problem]) -> Vec<JournalEntry> {
    let keys = keys(problems);
    let slots = out.outcomes.iter().zip(&out.records).enumerate();
    slots
        .map(|(i, (outcome, record))| {
            record.clone().unwrap_or_else(|| {
                let outcome = outcome.as_ref().expect("an unrecorded instance ran live");
                JournalEntry::from_outcome(i, &keys[i].0, keys[i].1, &problems[i], outcome)
            })
        })
        .collect()
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vroute-recovery-{name}"));
    let _ = fs::remove_dir_all(&dir);
    dir
}

#[test]
fn every_recovery_path_fires_with_deterministic_stats() {
    let problems = batch(6);
    // Spurious failures on the first attempt of instances 1 and 4: the
    // retry completes them. Everything else routes directly.
    let fault = FaultPlan::new(EngineFault::SpuriousFail, Some(vec![1, 4]), 1);
    let run = |jobs: usize| -> BatchOutcome {
        let sup = Supervisor::new(RouterConfig::default(), RetryPolicy::with_retries(2))
            .with_fallbacks(FallbackChain::lee())
            .with_fault(fault.clone());
        RouteEngine::with_jobs(jobs).route_batch(&sup, &problems, None)
    };

    let serial = run(1);
    assert_eq!(serial.stats.complete, 6);
    assert_eq!(serial.stats.retried, 2);
    let serial_entries = entries(&serial, &problems);
    assert_eq!(serial_entries[1].path, RecoveryPath::Retried { attempt: 1 });
    assert_eq!(serial_entries[4].path, RecoveryPath::Retried { attempt: 1 });
    assert_eq!(serial_entries[0].path, RecoveryPath::Direct);

    // The same batch across thread counts: identical counters, paths
    // and checksums (--jobs 1 vs --jobs N).
    let parallel = run(4);
    assert_eq!(counters(&serial.stats), counters(&parallel.stats));
    for (a, b) in serial_entries.iter().zip(&entries(&parallel, &problems)) {
        assert_eq!(a.path, b.path, "instance {}", a.index);
        assert_eq!(a.checksum, b.checksum, "instance {}", a.index);
        assert_eq!(a.attempts, b.attempts, "instance {}", a.index);
    }
}

#[test]
fn exhausted_retries_fall_back_to_lee() {
    let problems = batch(3);
    // Fail the primary on every attempt of instance 2 (retries
    // included); the Lee fallback rescues it.
    let sup = Supervisor::new(RouterConfig::default(), RetryPolicy::with_retries(1))
        .with_fallbacks(FallbackChain::lee())
        .with_fault(FaultPlan::new(EngineFault::SpuriousFail, Some(vec![2]), 2));
    let out = RouteEngine::with_jobs(2).route_batch(&sup, &problems, None);
    let entries = entries(&out, &problems);
    assert_eq!(entries[2].path, RecoveryPath::FellBack { router: "lee".to_string() });
    assert_eq!(entries[2].status, InstanceStatus::Complete);
    assert_eq!(out.stats.fell_back, 1);
    assert_eq!(out.stats.complete, 3);
}

#[test]
fn zero_deadline_salvages_every_instance() {
    // A zero wall-clock budget disqualifies even instant attempts, but
    // the engine must return the routed metal as salvage, not nothing.
    let problems = batch(3);
    let sup = Supervisor::new(RouterConfig::default(), RetryPolicy::default());
    let engine = RouteEngine::new(EngineConfig {
        jobs: 2,
        deadline: Some(Duration::ZERO),
        ..EngineConfig::default()
    });
    let out = engine.route_batch(&sup, &problems, None);
    assert_eq!(out.stats.complete, 0, "nothing may beat a zero deadline");
    assert_eq!(out.stats.salvaged, 3);
    assert_eq!(out.stats.timed_out, 0, "salvage absorbs the deadline failures");
    for (entry, outcome) in entries(&out, &problems).iter().zip(&out.outcomes) {
        assert_eq!(entry.status, InstanceStatus::Salvaged);
        assert_eq!(entry.lint_findings, Some(0), "salvaged db must lint clean");
        assert!(entry.error.as_deref().is_some_and(|e| e.contains("deadline")));
        let outcome = outcome.as_ref().expect("live outcome");
        assert!(outcome.salvage.is_some(), "salvage info");
    }
}

#[test]
fn deadline_on_the_final_retry_still_salvages() {
    let problems = batch(1);
    // Every attempt sleeps past the deadline, including the final one
    // of the retry chain; the routing from those disqualified attempts
    // must still be salvaged.
    let sup = Supervisor::new(RouterConfig::default(), RetryPolicy::with_retries(2))
        .with_fault(FaultPlan::new(EngineFault::Delay(25), None, 99));
    let engine = RouteEngine::new(EngineConfig {
        jobs: 1,
        deadline: Some(Duration::from_millis(5)),
        ..EngineConfig::default()
    });
    let out = engine.route_batch(&sup, &problems, None);
    let entries = entries(&out, &problems);
    assert_eq!(entries[0].status, InstanceStatus::Salvaged);
    assert_eq!(entries[0].attempts, 3, "the whole retry chain ran");
    assert_eq!(entries[0].lint_findings, Some(0), "salvaged snapshot must be legal");
    let outcome = out.outcomes[0].as_ref().expect("live outcome");
    assert_eq!(outcome.path, RecoveryPath::Salvaged);
    let salvage = outcome.salvage.as_ref().expect("salvage info");
    assert!(
        matches!(salvage.terminal, Some(RouteError::DeadlineExceeded { .. })),
        "{:?}",
        salvage.terminal
    );
}

#[test]
fn panicked_instances_without_snapshots_fail_terminally() {
    let problems = batch(2);
    // Panic on every attempt of instance 0; no routing ever exists, so
    // there is nothing to salvage and the panic surfaces.
    let sup = Supervisor::new(RouterConfig::default(), RetryPolicy::with_retries(3))
        .with_fault(FaultPlan::new(EngineFault::Panic, Some(vec![0]), 99));
    let out = RouteEngine::with_jobs(1).route_batch(&sup, &problems, None);
    let entries = entries(&out, &problems);
    assert_eq!(entries[0].status, InstanceStatus::Panicked);
    assert_eq!(entries[0].attempts, 2, "panics retry at most once");
    assert_eq!(entries[1].status, InstanceStatus::Complete);
    assert_eq!(out.stats.panicked, 1);
    assert_eq!(out.stats.complete, 1);
}

/// Routes a journaled batch, returning it with its journal.
fn journaled_run(problems: &[Problem], dir: &Path, resume: bool) -> (BatchOutcome, RunJournal) {
    let instances = keys(problems);
    let journal = if resume {
        RunJournal::resume(dir, &instances).expect("journal opens")
    } else {
        RunJournal::create(dir, &instances).expect("journal opens")
    };
    let sup = Supervisor::new(RouterConfig::default(), RetryPolicy::with_retries(1));
    let out = RouteEngine::with_jobs(2).route_batch(&sup, problems, Some(&journal));
    assert!(out.records.iter().all(Option::is_some), "a journaled batch records every instance");
    assert_eq!(journal.take_error(), None);
    (out, journal)
}

#[test]
fn a_killed_run_resumes_to_the_identical_outcome() {
    let problems = batch(8);
    let dir = temp_dir("kill-resume");

    // The uninterrupted reference run.
    let (reference, _) = journaled_run(&problems, &dir, false);
    assert_eq!(reference.stats.complete, 8);

    // Simulate a SIGKILL mid-run: keep the first 3 completed records,
    // leave one in-flight marker and a torn half-line, exactly as a
    // dying process would.
    let log = dir.join(RunJournal::FILE_NAME);
    let text = fs::read_to_string(&log).expect("journal exists");
    let done: Vec<&str> = text.lines().filter(|l| l.contains("\"ev\":\"done\"")).collect();
    let begins: Vec<&str> = text.lines().filter(|l| l.contains("\"ev\":\"begin\"")).collect();
    let torn = &done[3][..done[3].len() / 2];
    let crashed = format!("{}\n{}\n{}", done[..3].join("\n"), begins[4], torn);
    fs::write(&log, crashed).expect("journal rewritten");

    // Resume: the three intact records are skipped, everything else —
    // including the in-flight and torn instances — re-runs.
    let (resumed, journal) = journaled_run(&problems, &dir, true);
    assert_eq!(resumed.stats.resumed_skips, 3);
    assert_eq!(journal.resumed_count(), 3);
    assert_eq!(resumed.stats.complete, 8);

    // The final per-instance records are identical to the
    // uninterrupted run, field for field.
    assert_eq!(resumed.records, reference.records);
    // Resumed slots have no live routing; re-run slots do.
    let live = resumed.outcomes.iter().filter(|o| o.is_some()).count();
    assert_eq!(live, 5);

    // A second resume skips everything and still reports identically.
    let (replayed, _) = journaled_run(&problems, &dir, true);
    assert_eq!(replayed.stats.resumed_skips, 8);
    assert_eq!(replayed.records, reference.records);
    assert!(replayed.outcomes.iter().all(Option::is_none));
}

#[test]
fn precheck_infeasibility_is_journaled_and_resumed() {
    use route_geom::Point;
    use route_model::{PinSide, ProblemBuilder};
    let mut b = ProblemBuilder::switchbox(5, 4);
    for y in 0..4 {
        b.obstacle(Point::new(2, y));
    }
    b.net("a").pin_side(PinSide::Left, 1).pin_side(PinSide::Right, 1);
    let problems = vec![routable_switchbox(10, 10, 4, 3), b.build().expect("valid problem")];

    let dir = temp_dir("infeasible");
    let instances = keys(&problems);
    let journal = RunJournal::create(&dir, &instances).expect("journal opens");
    let sup = Supervisor::new(RouterConfig::default(), RetryPolicy::default());
    let engine =
        RouteEngine::new(EngineConfig { jobs: 1, precheck: true, ..EngineConfig::default() });
    let out = engine.route_batch(&sup, &problems, Some(&journal));
    let entries = entries(&out, &problems);
    assert_eq!(entries[1].status, InstanceStatus::Infeasible);
    assert_eq!(entries[1].attempts, 0, "the proof spares the router entirely");
    assert_eq!(out.stats.infeasible, 1);
    drop(journal);

    let journal = RunJournal::resume(&dir, &instances).expect("journal reopens");
    let resumed = engine.route_batch(&sup, &problems, Some(&journal));
    assert_eq!(resumed.stats.resumed_skips, 2, "proofs are cached in the journal too");
    assert_eq!(resumed.records, out.records);
}

#[test]
fn supervised_observation_reports_every_returned_attempt_in_order() {
    use mighty::engine::ObserveMode;
    let problems = batch(3);
    let traced = |retries: u32, fault: EngineFault, jobs: usize| {
        let sup = Supervisor::new(RouterConfig::default(), RetryPolicy::with_retries(retries))
            .with_fault(FaultPlan::new(fault, Some(vec![1]), 1));
        let engine = RouteEngine::new(EngineConfig {
            jobs,
            deadline: Some(Duration::ZERO),
            observe: ObserveMode::Trace,
            ..EngineConfig::default()
        });
        let out = engine.route_batch(&sup, &problems, None);
        (out.stats.router, out.observation.expect("traced").events)
    };
    // Under a zero deadline every attempt routes and is disqualified, so
    // each one reports: the retry's events follow the first attempt's.
    let (_, one) = traced(0, EngineFault::Delay(0), 1);
    let (_, two) = traced(1, EngineFault::Delay(0), 1);
    assert_eq!(two.len(), problems.len(), "one event stream per instance");
    assert!(two[0].len() > one[0].len() && two[0].starts_with(&one[0]));
    // A panicking or spuriously failing first attempt reports nothing.
    let (panicked_stats, panicked) = traced(1, EngineFault::Panic, 1);
    let (failed_stats, failed) = traced(1, EngineFault::SpuriousFail, 2);
    assert_eq!(panicked, failed);
    assert_eq!(panicked_stats, failed_stats);
    assert!(panicked[1].len() < two[1].len(), "instance 1 lost its first attempt's events");
    assert_eq!(panicked[0], two[0], "untargeted instances are untouched");
}
