//! Golden schema tests for the machine-readable reports.
//!
//! `vroute route --json` and `vroute batch --json` are consumed by
//! scripts and dashboards, so their field names and shape are a
//! contract: adding a field is fine (extend the golden set here,
//! deliberately), but renaming or dropping one must fail a test.

use std::collections::BTreeSet;

use route_cli::{execute, parse_args};

/// Runs a command line through the CLI library, returning its report.
fn run(line: &str) -> String {
    let cmd = parse_args(line.split_whitespace().map(str::to_owned)).expect("parses");
    let mut out = String::new();
    execute(&cmd, &mut out).expect("executes");
    out
}

/// Extracts every key path from a JSON document, dotted by nesting
/// (`stats.complete`) with `[]` marking arrays (`instances[].file`).
/// A 40-line scanner keeps the test dependency-free; it assumes the
/// well-formed output of the CLI's own writer.
fn key_paths(json: &str) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    let mut stack: Vec<String> = Vec::new();
    let mut pending: Option<String> = None;
    let chars: Vec<char> = json.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        match chars[i] {
            '"' => {
                let mut s = String::new();
                i += 1;
                while i < chars.len() && chars[i] != '"' {
                    if chars[i] == '\\' {
                        i += 1;
                    }
                    if i < chars.len() {
                        s.push(chars[i]);
                    }
                    i += 1;
                }
                let mut j = i + 1;
                while j < chars.len() && chars[j].is_whitespace() {
                    j += 1;
                }
                if j < chars.len() && chars[j] == ':' {
                    let prefix: Vec<&str> =
                        stack.iter().map(String::as_str).filter(|s| !s.is_empty()).collect();
                    let path = if prefix.is_empty() {
                        s.clone()
                    } else {
                        format!("{}.{}", prefix.join("."), s)
                    };
                    out.insert(path);
                    pending = Some(s);
                } else {
                    pending = None;
                }
            }
            '{' => stack.push(pending.take().unwrap_or_default()),
            '[' => stack.push(pending.take().map(|k| format!("{k}[]")).unwrap_or_default()),
            '}' | ']' => {
                stack.pop();
                pending = None;
            }
            ',' => pending = None,
            _ => {}
        }
        i += 1;
    }
    out
}

fn metrics_keys(prefix: &str) -> Vec<String> {
    [
        "nets_scheduled",
        "nets_committed",
        "nets_failed",
        "hard_searches_won",
        "soft_searches_won",
        "weak_modifications",
        "strong_ripups",
        "penalty_escalations",
        "max_penalty",
        "expanded",
        "searches",
        "expanded_per_search_mean",
        "expanded_max",
    ]
    .iter()
    .map(|k| format!("{prefix}.{k}"))
    .collect()
}

fn golden(mut base: Vec<&str>, extra: Vec<String>) -> BTreeSet<String> {
    base.sort_unstable();
    base.iter().map(|s| s.to_string()).chain(extra).collect()
}

/// A routable instance on disk, shared by the schema tests.
fn instance(dir: &std::path::Path, name: &str) -> String {
    std::fs::create_dir_all(dir).expect("creating the test directory");
    let path = dir.join(name);
    let text = run("gen switchbox --width 10 --height 8 --nets 5 --seed 4");
    std::fs::write(&path, text).expect("writing the test instance");
    path.display().to_string()
}

#[test]
fn route_json_schema_is_pinned() {
    let dir = std::env::temp_dir().join("vroute-json-schema-route");
    let sb = instance(&dir, "box.sb");
    let report = dir.join("report.json");
    run(&format!("route {sb} --json {}", report.display()));
    let json = std::fs::read_to_string(&report).unwrap();

    let expected = golden(
        vec![
            "v", "command", "file", "router", "status", "complete", "clean", "wire", "vias",
            "checksum", "metrics",
        ],
        metrics_keys("metrics"),
    );
    assert_eq!(key_paths(&json), expected, "route --json schema changed:\n{json}");
    assert!(json.contains("\"v\": 1"), "{json}");
    assert!(json.contains("\"command\": \"route\""), "{json}");
    assert!(json.contains("\"router\": \"ripup\""), "{json}");
    assert!(json.contains("\"status\": \"complete\""), "{json}");
}

#[test]
fn batch_json_schema_is_pinned() {
    let dir = std::env::temp_dir().join("vroute-json-schema-batch");
    let a = instance(&dir, "a.sb");
    let b = instance(&dir, "b.sb");
    let report = dir.join("batch.json");
    run(&format!("batch {a} {b} --jobs 1 --json {}", report.display()));
    let json = std::fs::read_to_string(&report).unwrap();

    let expected = golden(
        vec![
            "v",
            "command",
            "router",
            "jobs",
            "digest",
            "instances",
            "instances[].file",
            "instances[].status",
            "instances[].wire",
            "instances[].vias",
            "instances[].ms",
            "instances[].checksum",
            "stats",
            "stats.complete",
            "stats.incomplete",
            "stats.infeasible",
            "stats.errored",
            "stats.panicked",
            "stats.timed_out",
            "stats.failed_nets",
            "stats.wirelength",
            "stats.vias",
            "stats.batch_ms",
            "stats.busy_ms",
            "stats.throughput_per_sec",
        ],
        Vec::new(),
    );
    assert_eq!(key_paths(&json), expected, "batch --json schema changed:\n{json}");
    assert!(json.contains("\"v\": 1"), "{json}");
    assert!(json.contains("\"command\": \"batch\""), "{json}");
}

#[test]
fn analyze_json_schema_is_pinned() {
    let dir = std::env::temp_dir().join("vroute-json-schema-analyze");
    let sb = instance(&dir, "box.sb");
    let routes = dir.join("box.routes");
    run(&format!("route {sb} --save {}", routes.display()));
    let report = dir.join("analyze.json");
    run(&format!("analyze {sb} {} --json {}", routes.display(), report.display()));
    let json = std::fs::read_to_string(&report).unwrap();

    // A clean instance has an empty diagnostics array, so pin the
    // per-diagnostic keys on an infeasible one afterwards.
    let mut expected = golden(
        vec![
            "v",
            "command",
            "file",
            "feasible",
            "clean",
            "certificates",
            "lint_findings",
            "diagnostics",
        ],
        Vec::new(),
    );
    assert_eq!(key_paths(&json), expected, "analyze --json schema changed:\n{json}");
    assert!(json.contains("\"command\": \"analyze\""), "{json}");
    assert!(json.contains("\"diagnostics\": []"), "{json}");

    let walled = dir.join("walled.sb");
    std::fs::write(
        &walled,
        "sb 5 4\nobstacle 2 0\nobstacle 2 1\nobstacle 2 2\nobstacle 2 3\n\
         net a 0 1 M1  4 2 M1\n",
    )
    .unwrap();
    let report = dir.join("walled.json");
    let cmd = parse_args(
        format!("analyze {} --json {}", walled.display(), report.display())
            .split_whitespace()
            .map(str::to_owned),
    )
    .expect("parses");
    let mut out = String::new();
    assert!(!execute(&cmd, &mut out).expect("executes"), "{out}");
    let json = std::fs::read_to_string(&report).unwrap();
    expected.extend(
        [
            "diagnostics[].severity",
            "diagnostics[].code",
            "diagnostics[].rule",
            "diagnostics[].message",
            "diagnostics[].span",
            "diagnostics[].span.from",
            "diagnostics[].span.to",
            "diagnostics[].span.layer",
            "diagnostics[].net",
            "diagnostics[].hint",
        ]
        .iter()
        .map(|s| s.to_string()),
    );
    assert_eq!(key_paths(&json), expected, "analyze diagnostic schema changed:\n{json}");
}

#[test]
fn chip_json_schema_is_pinned() {
    let dir = std::env::temp_dir().join("vroute-json-schema-chip");
    std::fs::create_dir_all(&dir).expect("creating the test directory");
    let report = dir.join("chip.json");
    run(&format!(
        "chip --width 32 --height 32 --nets 40 --seed 3 --tile 8 --jobs 1 --analyze --json {}",
        report.display()
    ));
    let json = std::fs::read_to_string(&report).unwrap();

    let expected = golden(
        vec![
            "v",
            "command",
            "width",
            "height",
            "nets",
            "seed",
            "tile",
            "jobs",
            "status",
            "wire",
            "vias",
            "checksum",
            "legal",
            "complete",
            "failed",
            "crossings",
            "dropped",
            "tiles_routed",
            "tiles_errored",
            "seams",
            "seams_repaired",
            "seam_ripups",
            "seam_completed",
            "fallback_completed",
            "pruned_steps",
            "infeasible",
            "certified_nets",
            "features",
            "ms",
        ],
        Vec::new(),
    );
    assert_eq!(key_paths(&json), expected, "chip --json schema changed:\n{json}");
    assert!(json.contains("\"command\": \"chip\""), "{json}");
    // The analyze/ordering keys are constant-shape: present (with the
    // same names) whether or not the gate fires, so report diffing
    // over reruns stays key-stable.
    assert!(json.contains("\"features\": \"bbox\""), "{json}");
}

#[test]
fn supervised_chip_json_schema_is_pinned() {
    // The supervised report swaps the wall-clock field for the recovery
    // counters: everything else matches the plain chip schema, and no
    // timing-dependent key remains (a killed-and-resumed run must
    // reproduce this report byte for byte).
    let dir = std::env::temp_dir().join("vroute-json-schema-chip-supervised");
    std::fs::create_dir_all(&dir).expect("creating the test directory");
    let report = dir.join("chip.json");
    run(&format!(
        "chip --width 32 --height 32 --nets 40 --seed 3 --tile 8 --jobs 1 --analyze \
         --retries 1 --json {}",
        report.display()
    ));
    let json = std::fs::read_to_string(&report).unwrap();

    let expected = golden(
        vec![
            "v",
            "command",
            "width",
            "height",
            "nets",
            "seed",
            "tile",
            "jobs",
            "status",
            "wire",
            "vias",
            "checksum",
            "legal",
            "complete",
            "failed",
            "crossings",
            "dropped",
            "tiles_routed",
            "tiles_errored",
            "seams",
            "seams_repaired",
            "seam_ripups",
            "seam_completed",
            "fallback_completed",
            "pruned_steps",
            "infeasible",
            "certified_nets",
            "features",
            "tiles_retried",
            "tiles_fell_back",
            "tiles_salvaged",
            "seam_escalations",
        ],
        Vec::new(),
    );
    assert_eq!(key_paths(&json), expected, "supervised chip --json schema changed:\n{json}");
    assert!(!json.contains("\"ms\""), "supervised chip reports must omit wall-clock:\n{json}");
}

#[test]
fn analyze_chip_json_schema_is_pinned() {
    let dir = std::env::temp_dir().join("vroute-json-schema-analyze-chip");
    std::fs::create_dir_all(&dir).expect("creating the test directory");
    // A sealed wall at x = 2 splits the 5x4 board into separate tile
    // regions at tile size 2: the report carries certificates, the
    // congestion heatmap and the per-net feature vectors at once.
    let walled = dir.join("walled.sb");
    std::fs::write(
        &walled,
        "sb 5 4\nobstacle 2 0\nobstacle 2 1\nobstacle 2 2\nobstacle 2 3\n\
         net a 0 1 M1  4 2 M1\n",
    )
    .unwrap();
    let report = dir.join("analyze-chip.json");
    let cmd = parse_args(
        format!("analyze {} --chip --tile 2 --json {}", walled.display(), report.display())
            .split_whitespace()
            .map(str::to_owned),
    )
    .expect("parses");
    let mut out = String::new();
    assert!(!execute(&cmd, &mut out).expect("executes"), "{out}");
    let json = std::fs::read_to_string(&report).unwrap();

    let expected = golden(
        vec![
            "v",
            "command",
            "file",
            "tile",
            "feasible",
            "clean",
            "certificates",
            "certified_nets",
            "congestion",
            "congestion.cols",
            "congestion.rows",
            "congestion.peak",
            "congestion.heatmap",
            "features",
            "features[].net",
            "features[].congestion",
            "features[].pin_density",
            "features[].bbox_area",
            "features[].crossings",
            "diagnostics",
            "diagnostics[].severity",
            "diagnostics[].code",
            "diagnostics[].rule",
            "diagnostics[].message",
            "diagnostics[].span",
            "diagnostics[].span.from",
            "diagnostics[].span.to",
            "diagnostics[].span.layer",
            "diagnostics[].net",
            "diagnostics[].hint",
        ],
        Vec::new(),
    );
    assert_eq!(key_paths(&json), expected, "analyze --chip --json schema changed:\n{json}");
    assert!(json.contains("\"command\": \"analyze-chip\""), "{json}");
    assert!(json.contains("\"code\": \"F004\""), "{json}");
    assert!(json.contains("\"code\": \"F006\""), "{json}");
    assert!(json.contains("\"feasible\": false"), "{json}");
}

#[test]
fn batch_infeasible_outcome_keys_are_pinned() {
    let dir = std::env::temp_dir().join("vroute-json-schema-batch-inf");
    std::fs::create_dir_all(&dir).unwrap();
    let walled = dir.join("walled.sb");
    std::fs::write(
        &walled,
        "sb 5 4\nobstacle 2 0\nobstacle 2 1\nobstacle 2 2\nobstacle 2 3\n\
         net a 0 1 M1  4 2 M1\n",
    )
    .unwrap();
    let report = dir.join("batch.json");
    let cmd = parse_args(
        format!("batch {} --analyze --jobs 1 --json {}", walled.display(), report.display())
            .split_whitespace()
            .map(str::to_owned),
    )
    .expect("parses");
    let mut out = String::new();
    assert!(!execute(&cmd, &mut out).expect("executes"), "{out}");
    let json = std::fs::read_to_string(&report).unwrap();
    let keys = key_paths(&json);
    // Infeasible records swap the routed-stats keys for a reason.
    for key in ["instances[].file", "instances[].status", "instances[].reason", "instances[].ms"] {
        assert!(keys.contains(key), "missing {key} in:\n{json}");
    }
    for key in ["instances[].wire", "instances[].vias", "instances[].checksum"] {
        assert!(!keys.contains(key), "unexpected {key} in:\n{json}");
    }
    assert!(json.contains("\"status\": \"infeasible\""), "{json}");
    assert!(json.contains("\"infeasible\": 1"), "{json}");
}

#[test]
fn supervised_batch_json_schema_is_pinned() {
    let dir = std::env::temp_dir().join("vroute-json-schema-batch-sup");
    let a = instance(&dir, "a.sb");
    let b = instance(&dir, "b.sb");
    let report = dir.join("supervised.json");
    run(&format!("batch {a} {b} --retries 1 --fallback lee --jobs 1 --json {}", report.display()));
    let json = std::fs::read_to_string(&report).unwrap();

    // The supervised report is a deterministic contract: no wall-clock
    // keys (ms, batch_ms, busy_ms, throughput) and no resume counter,
    // so a killed-and-resumed run reproduces it byte for byte.
    let expected = golden(
        vec![
            "v",
            "command",
            "router",
            "jobs",
            "retries",
            "fallbacks",
            "digest",
            "instances",
            "instances[].file",
            "instances[].status",
            "instances[].path",
            "instances[].attempts",
            "instances[].wire",
            "instances[].vias",
            "instances[].checksum",
            "stats",
            "stats.complete",
            "stats.salvaged",
            "stats.infeasible",
            "stats.errored",
            "stats.panicked",
            "stats.timed_out",
            "stats.retried",
            "stats.fell_back",
            "stats.failed_nets",
            "stats.wirelength",
            "stats.vias",
        ],
        Vec::new(),
    );
    assert_eq!(key_paths(&json), expected, "supervised batch --json schema changed:\n{json}");
    assert!(json.contains("\"command\": \"batch\""), "{json}");
    assert!(json.contains("\"router\": \"ripup\""), "{json}");
    assert!(json.contains("\"retries\": 1"), "{json}");
    assert!(json.contains("\"lee\""), "{json}");
    assert!(json.contains("\"status\": \"complete\""), "{json}");
    assert!(json.contains("\"path\": \"direct\""), "{json}");
}

#[test]
fn supervised_salvage_outcome_keys_are_pinned() {
    let dir = std::env::temp_dir().join("vroute-json-schema-batch-sup-salvage");
    let a = instance(&dir, "a.sb");
    // A net whose first pin is walled in on every side: the router
    // cannot complete the instance, so the supervisor salvages it.
    let mut text = std::fs::read_to_string(&a).unwrap();
    text.push_str(
        "obstacle 3 4\nobstacle 5 4\nobstacle 4 3\nobstacle 4 5\nnet walled 4 4 M1 7 4 M1\n",
    );
    std::fs::write(&a, text).unwrap();
    let report = dir.join("salvaged.json");
    let cmd = parse_args(
        format!("batch {a} --retries 0 --jobs 1 --json {}", report.display())
            .split_whitespace()
            .map(str::to_owned),
    )
    .expect("parses");
    let mut out = String::new();
    assert!(!execute(&cmd, &mut out).expect("executes"), "{out}");
    let json = std::fs::read_to_string(&report).unwrap();
    let keys = key_paths(&json);
    // Salvaged records keep the routed-stats keys (the snapshot db is
    // real metal) and add the salvage accounting.
    for key in [
        "instances[].wire",
        "instances[].vias",
        "instances[].checksum",
        "instances[].failed_nets",
        "instances[].lint",
        "instances[].error",
    ] {
        assert!(keys.contains(key), "missing {key} in:\n{json}");
    }
    assert!(json.contains("\"status\": \"salvaged\""), "{json}");
    assert!(json.contains("\"salvaged\": 1"), "{json}");
}

#[test]
fn serve_v1_envelope_key_paths_are_pinned() {
    use route_proto::{event_line, response_err, response_ok, ErrorCode, Json, WireError};

    // The serve wire envelopes are the same versioned contract as the
    // report files: pin their key paths so the daemon cannot drift.
    let ok = response_ok(Some("r0"), Json::obj([("status", Json::str("complete"))]));
    let expected: BTreeSet<String> =
        ["v", "id", "ok", "result", "result.status"].iter().map(|s| s.to_string()).collect();
    assert_eq!(key_paths(&ok.render()), expected, "{}", ok.render());

    let err = response_err(None, &WireError::new(ErrorCode::BadJson, "truncated".to_string()));
    let expected: BTreeSet<String> = ["v", "id", "ok", "error", "error.code", "error.message"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    assert_eq!(key_paths(&err.render()), expected, "{}", err.render());
    assert!(err.render_compact().starts_with("{\"v\":1,"), "{}", err.render_compact());

    let ev = event_line(
        Some("r0"),
        &route_model::RouteEvent::NetCommitted { net: route_model::NetId(3) },
    );
    let expected: BTreeSet<String> =
        ["v", "id", "ev", "net"].iter().map(|s| s.to_string()).collect();
    assert_eq!(key_paths(&ev.render()), expected, "{}", ev.render());
}

#[test]
fn batch_json_with_metrics_adds_only_the_metrics_block() {
    let dir = std::env::temp_dir().join("vroute-json-schema-batch-metrics");
    let a = instance(&dir, "a.sb");
    let plain = dir.join("plain.json");
    let metered = dir.join("metered.json");
    run(&format!("batch {a} --jobs 1 --json {}", plain.display()));
    run(&format!("batch {a} --jobs 1 --metrics --json {}", metered.display()));

    let plain_keys = key_paths(&std::fs::read_to_string(&plain).unwrap());
    let metered_keys = key_paths(&std::fs::read_to_string(&metered).unwrap());

    let mut expected_extra: BTreeSet<String> = metrics_keys("metrics").into_iter().collect();
    expected_extra.insert("metrics".to_string());
    let actual_extra: BTreeSet<String> = metered_keys.difference(&plain_keys).cloned().collect();
    assert_eq!(actual_extra, expected_extra, "--metrics must only add the metrics block");
    assert!(plain_keys.is_subset(&metered_keys));
}
