//! The benchmark's output contract, checked in quick mode: every
//! workload emits exactly the metrics `BENCHMARK.json` declares, with
//! their units, and the last line of every run is the result document.

use std::collections::BTreeSet;
use std::process::Command;

use route_proto::Json;
use vbench::report::{emit, end_to_end, per_layer, Catalogue};
use vbench::stats::beyond;
use vbench::workload::{self, chip, flat, maze, serve, Measurement, RunConfig, Workload};

fn run(workload: Workload, trace: bool) -> Measurement {
    let cfg = RunConfig { workload, seed: 3, seconds: 0.0, quick: true, trace };
    let m = workload::run(&cfg);
    assert!(m.failures.is_empty(), "{}: {:?}", workload.name(), m.failures);
    assert!(m.attempted > 0, "{} attempted nothing", workload.name());
    m
}

/// The per-layer metrics each workload must measure itself (the rest of
/// the declared list reads 0 on it): the layer map of the crate docs.
fn exercised(workload: Workload) -> BTreeSet<&'static str> {
    let router = [
        "router.hard_search_s",
        "router.hard_searches",
        "router.hard_found_frac",
        "router.expanded",
        "router.soft_search_s",
        "router.soft_searches",
        "router.weak_s",
        "router.weak_mods",
        "router.strong_s",
        "router.strong_ripups",
        "router.commit_s",
        "router.commits",
        "router.snapshot_s",
        "router.attributed_frac",
    ];
    let chip = [
        "chip.plan_s",
        "chip.tiles_s",
        "chip.seam_s",
        "chip.flat_repair_s",
        "chip.tile_failures",
        "chip.seams_repaired",
        "chip.seam_escalations",
        "chip.seam_completed",
        "chip.fallback_completed",
        "chip.pruned_steps",
        "sup.tiles_retried",
        "sup.tiles_salvaged",
        "sup.tiles_fell_back",
    ];
    let mut set: BTreeSet<&'static str> = ["gen_s", "trace.overhead_frac"].into();
    match workload {
        Workload::Maze | Workload::Flat => set.extend(router),
        Workload::Chip => {
            set.extend(router.into_iter().chain(chip).chain(["journal.write_s", "journal.bytes"]))
        }
        Workload::Serve => set.extend([
            "serve.decode_ms",
            "serve.encode_ms",
            "serve.queue_ms",
            "serve.route_ms",
            "serve.verify_ms",
            "serve.max_queue_depth",
        ]),
    }
    set
}

#[test]
fn benchmark_json_declares_the_workloads_this_binary_runs() {
    let catalogue = Catalogue::builtin();
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(catalogue.workloads, names);
    for m in catalogue.end_to_end.iter().chain(&catalogue.per_layer) {
        assert!(
            !catalogue
                .end_to_end
                .iter()
                .chain(&catalogue.per_layer)
                .any(|o| o.name == m.name && !std::ptr::eq(o, m)),
            "{} declared twice",
            m.name
        );
    }
    let setup = catalogue.metric("setup_s").expect("setup_s is declared");
    let widest = catalogue.end_to_end.iter().filter_map(|m| m.bound).fold(0.0, f64::max);
    assert_eq!(setup.bound, Some(widest), "setup_s carries the widest bound");
}

#[test]
fn every_tail_keeps_ten_samples_beyond_it() {
    // Full-size slot counts: maze instances, flat and chip chips, serve
    // requests of one pass.
    for (shape, slots) in [
        (maze::SHAPE, maze::POOL),
        (flat::SHAPE, flat::CHIPS),
        (chip::SHAPE, chip::CHIPS),
        (serve::SHAPE, 1000),
    ] {
        assert!(beyond(slots, shape.tail) >= 10, "p{} of {slots}", shape.tail * 100.0);
        assert_eq!(slots % shape.batch, 0, "batches of {} tile {slots} slots", shape.batch);
    }
    // Flat and chip report the highest percentile their count allows.
    assert!(beyond(flat::CHIPS, flat::SHAPE.tail + 0.01) < 10);
    assert!(beyond(chip::CHIPS, chip::SHAPE.tail + 0.01) < 10);
    assert!(beyond(1000, serve::SHAPE.tail + 0.01) < 10);
}

#[test]
fn every_workload_emits_every_declared_metric() {
    let catalogue = Catalogue::builtin();
    let mut measured: BTreeSet<&'static str> = BTreeSet::new();
    for workload in Workload::ALL {
        let m = run(workload, false);
        let values = end_to_end(&m, 1.0);
        let metrics = emit(&catalogue.end_to_end, &values, true)
            .unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
        for (metric, value) in &metrics {
            assert!(
                value.is_finite() && *value > 0.0,
                "{} {} = {value}",
                workload.name(),
                metric.name
            );
        }

        let m = run(workload, true);
        let values = per_layer(&m);
        emit(&catalogue.per_layer, &values, false)
            .unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
        let populated: BTreeSet<&'static str> = values.keys().copied().collect();
        let missing: Vec<_> = exercised(workload).difference(&populated).copied().collect();
        assert!(missing.is_empty(), "{} does not measure {missing:?}", workload.name());
        measured.extend(populated);
    }
    let declared: BTreeSet<&str> = catalogue.per_layer.iter().map(|m| m.name.as_str()).collect();
    let unmeasured: Vec<_> = declared.difference(&measured).collect();
    assert!(unmeasured.is_empty(), "declared but measured by no workload: {unmeasured:?}");
}

#[test]
fn the_binary_ends_every_run_with_the_result_line() {
    let catalogue = Catalogue::builtin();
    for workload in Workload::ALL {
        for trace in ["0", "1"] {
            let out = Command::new(env!("CARGO_BIN_EXE_vbench"))
                .args(["--workload", workload.name(), "--seed", "5", "--quick", "--trace", trace])
                .output()
                .expect("the binary runs");
            assert!(out.status.success(), "{} trace {trace}: {:?}", workload.name(), out);
            let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
            let last = stdout.lines().last().expect("some output");
            let doc = Json::parse(last).expect("the last line is JSON");
            let Json::Obj(pairs) = &doc else { panic!("not an object: {last}") };
            let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true));
            assert_eq!(doc.get("failed").and_then(Json::as_u64), Some(0));
            assert!(doc.get("attempted").and_then(Json::as_u64).is_some_and(|n| n >= 1));
            let declared = if trace == "0" { &catalogue.end_to_end } else { &catalogue.per_layer };
            let Some(Json::Obj(metrics)) = doc.get("metrics") else { panic!("no metrics: {last}") };
            assert_eq!(metrics.len(), declared.len());
            for (decl, (name, value)) in declared.iter().zip(metrics) {
                assert_eq!(&decl.name, name);
                assert_eq!(value.get("unit").and_then(Json::as_str), Some(decl.unit.as_str()));
                assert!(value.get("value").and_then(Json::as_f64).is_some(), "{name}");
            }
        }
    }
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    for args in [&["--workload", "nope"][..], &["--seed", "1"], &["--workload", "maze", "--bogus"]]
    {
        let out = Command::new(env!("CARGO_BIN_EXE_vbench")).args(args).output().expect("runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed {:?}", out.stdout);
    }
}
