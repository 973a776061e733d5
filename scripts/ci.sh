#!/usr/bin/env bash
# Offline CI gate: build, test, format and lint the whole workspace.
#
#   scripts/ci.sh            # everything
#   scripts/ci.sh --quick    # skip the release build
#
# The workspace has no external dependencies, so every step runs with
# the network off (--offline keeps cargo from even trying).

set -euo pipefail
cd "$(dirname "$0")/.."

QUICK=0
[[ "${1:-}" == "--quick" ]] && QUICK=1

run() {
  echo "==> $*"
  "$@"
}

run cargo build --workspace --offline
run cargo test --workspace --offline --quiet
if command -v rustfmt >/dev/null 2>&1; then
  run cargo fmt --all -- --check
else
  echo "==> rustfmt not installed; skipping format check"
fi
if cargo clippy --version >/dev/null 2>&1; then
  run cargo clippy --workspace --all-targets --offline -- -D warnings
else
  echo "==> clippy not installed; skipping lint"
fi
echo "==> cargo doc --workspace --no-deps (denying rustdoc warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline --quiet
if [[ "$QUICK" == 0 ]]; then
  run cargo build --workspace --release --offline
fi

# Static analysis over the corpus: every case must analyze with the
# verdict its name encodes — `*infeasible*` cases carry a certificate
# (non-zero exit), everything else is diagnostic-free. This pins the
# analyzer's soundness on real instances, not just unit fixtures.
if [[ "$QUICK" == 0 ]]; then
  VROUTE=./target/release/vroute
else
  run cargo build --offline --quiet -p route-cli
  VROUTE=./target/debug/vroute
fi
for case in tests/corpus/*.case; do
  if [[ "$case" == *infeasible* ]]; then
    echo "==> $VROUTE analyze $case (expecting a certificate)"
    if "$VROUTE" analyze "$case" > /dev/null; then
      echo "ci: $case must carry an infeasibility certificate" >&2
      exit 1
    fi
  else
    echo "==> $VROUTE analyze $case"
    "$VROUTE" analyze "$case" > /dev/null
  fi
done

# Chip-scale corpus gate: the committed chip-*.sb cases carry golden
# F004/F006 certificates (tile-cut saturation, walled tile regions),
# so `analyze --chip` must keep convicting them — a zero exit means
# the hierarchical analyzer lost a certificate it used to prove.
for case in tests/corpus/chip-*.sb; do
  echo "==> $VROUTE analyze $case --chip --tile 8 (expecting a certificate)"
  if "$VROUTE" analyze "$case" --chip --tile 8 > /dev/null; then
    echo "ci: $case must carry a chip-scale infeasibility certificate" >&2
    exit 1
  fi
done

# Out-of-range numbers are argument errors (exit 2), never wrapped into range.
rc=0; "$VROUTE" chip --width 4294967336 2>/dev/null || rc=$?; [[ "$rc" == 2 ]] || { echo "ci: chip --width 4294967336 exited $rc, not 2" >&2; exit 1; }
rc=0; "$VROUTE" batch x.sb --deadline-ms 0 2>/dev/null || rc=$?; [[ "$rc" == 2 ]] || { echo "ci: batch --deadline-ms 0 exited $rc, not 2" >&2; exit 1; }
# A grid whose cell count wraps u32 is a parse error (exit 1), not a panic.
huge=$(mktemp); printf 'sb 65536 65536\nnet a 0 0 M1 5 5 M1\n' > "$huge"
rc=0; err=$("$VROUTE" route "$huge" 2>&1 >/dev/null) || rc=$?; rm -f "$huge"
[[ "$rc" == 1 && "$err" == *"parse error"* ]] || { echo "ci: route on a 65536x65536 grid exited $rc ($err), not a parse error" >&2; exit 1; }

# Concurrency-sanitizer lane: mighty-core hosts the multithreaded
# engine and service, so its tests get a ThreadSanitizer pass when the
# nightly toolchain can support one. TSan needs an instrumented std
# (-Zbuild-std, hence rust-src) — against an uninstrumented std every
# wait inside the standard library surfaces as a false race — so the
# lane is gated on the whole toolchain being present and skips cleanly
# elsewhere.
if command -v rustup >/dev/null 2>&1 \
   && rustup toolchain list 2>/dev/null | grep -q '^nightly' \
   && rustup component list --toolchain nightly 2>/dev/null \
      | grep -q 'rust-src (installed)'; then
  echo "==> ThreadSanitizer lane (mighty-core engine/service tests)"
  RUSTFLAGS="-Zsanitizer=thread" \
    cargo +nightly test -p mighty-core --offline --quiet \
    -Zbuild-std --target x86_64-unknown-linux-gnu
else
  echo "==> nightly rust-src not installed; skipping ThreadSanitizer lane"
fi

# Miri smoke: the grid/occupancy core of route-model carries the
# bit-packed occupancy planes the routers trust blindly, and the
# RouteDb undo log re-enters its refcount and plane code on rewind; a
# bounded miri pass over their tests catches undefined behaviour that
# ordinary tests cannot.
if command -v rustup >/dev/null 2>&1 \
   && rustup component list --toolchain nightly 2>/dev/null \
      | grep -q 'miri.* (installed)'; then
  echo "==> miri smoke (route-model grid/occupancy/rewind tests)"
  cargo +nightly miri test -p route-model --offline -- grid occupancy rewind
else
  echo "==> nightly miri not installed; skipping miri smoke"
fi

# Supervised recovery smoke: SIGKILL a journaled batch mid-run, resume
# it, and require the resumed JSON report to be byte-identical to an
# uninterrupted run's. This exercises the crash path for real — a
# process death, not a simulated truncation — so the journal's torn-
# line handling and replay semantics are proven end to end.
SMOKE=$(mktemp -d)
trap 'rm -rf "$SMOKE"' EXIT
# Damages a killed journal the way a crash and a bad disk could: every
# surviving line twice, a record with no crc seal, and a lone UTF-8
# lead byte. Resume must skip the damage and still match the reference.
damage_journal() {
  mkdir -p "$(dirname "$1")" && touch "$1"
  cat "$1" "$1" > "$1.damaged"
  printf '%s\n\303' '{"ev":"done","idx":0}' >> "$1.damaged"
  mv "$1.damaged" "$1"
}
for seed in 0 1 2 3 4 5 6 7; do
  "$VROUTE" gen switchbox --width 16 --height 16 --nets 8 --seed "$seed" \
    > "$SMOKE/s$seed.sb"
done
FILES=("$SMOKE"/s*.sb)
echo "==> $VROUTE batch (journaled reference run)"
"$VROUTE" batch "${FILES[@]}" --retries 1 --jobs 2 \
  --journal "$SMOKE/ref" --json "$SMOKE/ref.json" > /dev/null
echo "==> $VROUTE batch (killed mid-run)"
# A tiny per-attempt delay keeps the batch alive long enough to die.
VROUTE_FAULT=delay-40 timeout -s KILL 0.15 \
  "$VROUTE" batch "${FILES[@]}" --retries 1 --jobs 2 \
  --journal "$SMOKE/kill" > /dev/null || true
damage_journal "$SMOKE/kill/journal.ldj"
echo "==> $VROUTE batch --resume (after the kill)"
"$VROUTE" batch "${FILES[@]}" --retries 1 --jobs 2 \
  --journal "$SMOKE/kill" --resume --json "$SMOKE/resumed.json" > /dev/null
run diff "$SMOKE/ref.json" "$SMOKE/resumed.json"

# Serve smoke: start the daemon on a unix socket, drive requests
# through the bundled client, and require complete responses plus a
# clean shutdown. Then the crash path: kill the daemon mid-request
# (an injected per-job delay widens the window), restart it with
# --journal --resume, and require the journaled request to replay —
# the resumed WAL must hold no pending work afterwards.
SOCK="$SMOKE/serve.sock"
echo "==> $VROUTE serve + client smoke"
"$VROUTE" serve --socket "$SOCK" --workers 2 > "$SMOKE/serve.out" &
SERVE_PID=$!
for _ in $(seq 1 100); do [[ -S "$SOCK" ]] && break; sleep 0.05; done
[[ -S "$SOCK" ]] || { echo "ci: serve never bound $SOCK" >&2; exit 1; }
"$VROUTE" client --socket "$SOCK" "${FILES[@]}" --shutdown > "$SMOKE/client.out"
wait "$SERVE_PID"
COMPLETE=$(grep -c ": complete" "$SMOKE/client.out")
if [[ "$COMPLETE" != "${#FILES[@]}" ]]; then
  echo "ci: expected ${#FILES[@]} complete serve responses, got $COMPLETE" >&2
  cat "$SMOKE/client.out" >&2
  exit 1
fi
grep -q "daemon stopping" "$SMOKE/client.out" || {
  echo "ci: client never saw the shutdown acknowledgement" >&2; exit 1; }

echo "==> $VROUTE serve (VROUTE_FAULT=melt is refused before binding)"
rm -f "$SOCK"
set +e
VROUTE_FAULT=melt timeout 10 "$VROUTE" serve --socket "$SOCK" > /dev/null 2>&1
STATUS=$?
set -e
if [[ "$STATUS" != 1 ]]; then
  echo "ci: serve with an unparsable fault plan exited $STATUS, expected 1" >&2
  exit 1
fi
if [[ -e "$SOCK" ]]; then
  echo "ci: serve bound $SOCK despite an unparsable fault plan" >&2
  exit 1
fi

echo "==> $VROUTE serve (killed mid-request)"
rm -f "$SOCK"; mkdir -p "$SMOKE/swal"
VROUTE_FAULT=delay-800 \
  "$VROUTE" serve --socket "$SOCK" --workers 1 --journal "$SMOKE/swal" \
  > /dev/null 2>&1 &
SERVE_PID=$!
for _ in $(seq 1 100); do [[ -S "$SOCK" ]] && break; sleep 0.05; done
# Fire one request, wait for its WAL record, then kill the daemon
# while the injected 800ms fault delay still holds the job.
"$VROUTE" client --socket "$SOCK" "${FILES[0]}" > /dev/null 2>&1 &
CLIENT_PID=$!
for _ in $(seq 1 100); do
  grep -q '"ev":"req"' "$SMOKE/swal/serve.ldj" 2>/dev/null && break
  sleep 0.05
done
kill -KILL "$SERVE_PID" 2>/dev/null || true
wait "$SERVE_PID" 2>/dev/null || true
wait "$CLIENT_PID" 2>/dev/null || true
grep -q '"ev":"req"' "$SMOKE/swal/serve.ldj" || {
  echo "ci: the killed daemon never journaled the request" >&2; exit 1; }
if grep -q '"ev":"done"' "$SMOKE/swal/serve.ldj"; then
  echo "ci: the kill window missed — request finished before SIGKILL" >&2
  exit 1
fi
echo "==> $VROUTE serve --resume (after the kill)"
rm -f "$SOCK"
"$VROUTE" serve --socket "$SOCK" --workers 1 --journal "$SMOKE/swal" --resume \
  > "$SMOKE/resume.out" &
SERVE_PID=$!
for _ in $(seq 1 100); do [[ -S "$SOCK" ]] && break; sleep 0.05; done
"$VROUTE" client --socket "$SOCK" --shutdown > /dev/null
wait "$SERVE_PID"
grep -q "replaying 1 journaled request(s)" "$SMOKE/resume.out" || {
  echo "ci: the resumed daemon did not replay the pending request" >&2
  cat "$SMOKE/resume.out" >&2
  exit 1
}
DONE=$(grep -c '"ev":"done"' "$SMOKE/swal/serve.ldj")
if [[ "$DONE" != 1 ]]; then
  echo "ci: replay did not settle the journal (done records: $DONE)" >&2
  exit 1
fi

# Bounded smoke fuzz: a fixed seed window through every router and
# every oracle (see crates/fuzz) — including the infeasibility-
# soundness oracle, which fails any run where a router completes an
# instance the analyzer certified as unroutable. Deterministic, so a
# failure here is a real regression with a replayable case. The full
# window runs to 800 so it covers the chip-salvage oracle over the
# seed range that produced the stitch-727 finding (now a corpus case).
if [[ "$QUICK" == 0 ]]; then
  run "$VROUTE" fuzz --seeds 0..800 --shrink
else
  run "$VROUTE" fuzz --seeds 0..40 --shrink
fi

# Chip-flow determinism gate: the hierarchical flow (plan → parallel
# per-tile detail → seam stitch → fallback) must produce a byte-
# identical database regardless of the worker count, and the stitched
# result must come out legal and complete. The checksum comparison is
# the real assertion — any worker-count-dependent merge order, seam
# repair order, or fallback order changes it.
echo "==> $VROUTE chip determinism gate (jobs 1 vs jobs 4)"
"$VROUTE" chip --width 40 --height 40 --nets 70 --macros 2 --seed 3 \
  --tile 10 --jobs 1 --json "$SMOKE/chip1.json" > /dev/null
"$VROUTE" chip --width 40 --height 40 --nets 70 --macros 2 --seed 3 \
  --tile 10 --jobs 4 --json "$SMOKE/chip4.json" > /dev/null
# Everything but the wall-clock and the worker count itself must be
# byte-identical: checksum, per-stage stats, failed set, legality.
run diff <(grep -v '"ms"\|"jobs"' "$SMOKE/chip1.json") \
         <(grep -v '"ms"\|"jobs"' "$SMOKE/chip4.json")
grep -q '"legal": true' "$SMOKE/chip1.json" || {
  echo "ci: the chip gate instance routed illegally" >&2; exit 1; }
grep -q '"complete": true' "$SMOKE/chip1.json" || {
  echo "ci: the chip gate instance did not route completely" >&2; exit 1; }

# Batch determinism gate: every batch runs through the supervisor, so
# the smoke switchboxes must report identically at --jobs 1 and 4, wall-
# clock fields aside, both plain and supervised; and a supervised run
# must be observable (a non-empty --trace).
WALL='"ms"\|"jobs"\|"batch_ms"\|"busy_ms"\|"throughput_per_sec"'
for mode in plain supervised; do
  FLAGS=()
  [[ "$mode" == supervised ]] && FLAGS=(--retries 1 --fallback lee)
  for jobs in 1 4; do
    echo "==> $VROUTE batch determinism gate ($mode, jobs $jobs)"
    "$VROUTE" batch "${FILES[@]}" ${FLAGS[@]+"${FLAGS[@]}"} --jobs "$jobs" \
      --json "$SMOKE/batch-$mode$jobs.json" > /dev/null
  done
  run diff <(grep -v "$WALL" "$SMOKE/batch-${mode}1.json") \
           <(grep -v "$WALL" "$SMOKE/batch-${mode}4.json")
done
echo "==> $VROUTE batch --retries 1 --trace (supervised observation)"
"$VROUTE" batch "${FILES[@]}" --retries 1 --jobs 2 --trace "$SMOKE/batch.ldj" > /dev/null
[[ -s "$SMOKE/batch.ldj" ]] || {
  echo "ci: a supervised --trace batch wrote no events" >&2; exit 1; }

# Seam-fault smoke: fail, then panic, every seam repair of the gate
# instance. Each faulted seam is skipped before it touches the
# database, so the flat fallback must still finish the chip legally,
# and the report must show that no seam repair completed anything.
for fault in fail@seam panic@seam; do
  echo "==> $VROUTE chip (VROUTE_FAULT=$fault)"
  VROUTE_FAULT="$fault" \
    "$VROUTE" chip --width 40 --height 40 --nets 70 --macros 2 --seed 3 \
    --tile 10 --jobs 2 --retries 0 --json "$SMOKE/chipseam.json" > /dev/null 2>&1 || {
    echo "ci: the chip run under $fault failed" >&2; exit 1; }
  for want in '"legal": true' '"complete": true' '"seam_completed": 0'; do
    grep -q "$want" "$SMOKE/chipseam.json" || {
      echo "ci: the chip run under $fault lacks $want" >&2
      cat "$SMOKE/chipseam.json" >&2
      exit 1
    }
  done
done

# Supervised chip crash smoke: SIGKILL a journaled chip run mid-tile
# (an injected per-tile delay widens the window), resume it, and
# require the resumed JSON report to be byte-identical to an
# uninterrupted run's. Supervised chip reports carry no wall-clock
# field, so a plain diff is the whole assertion.
echo "==> $VROUTE chip (journaled reference run)"
"$VROUTE" chip --width 40 --height 40 --nets 70 --macros 2 --seed 3 \
  --tile 10 --jobs 2 --retries 1 --journal "$SMOKE/chipref" \
  --json "$SMOKE/chipref.json" > /dev/null
echo "==> $VROUTE chip (killed mid-run)"
VROUTE_FAULT=delay-60 timeout -s KILL 0.35 \
  "$VROUTE" chip --width 40 --height 40 --nets 70 --macros 2 --seed 3 \
  --tile 10 --jobs 2 --retries 1 --journal "$SMOKE/chipkill" \
  > /dev/null || true
damage_journal "$SMOKE/chipkill/chip.ldj"
echo "==> $VROUTE chip --resume (after the kill)"
"$VROUTE" chip --width 40 --height 40 --nets 70 --macros 2 --seed 3 \
  --tile 10 --jobs 2 --retries 1 --journal "$SMOKE/chipkill" --resume \
  --json "$SMOKE/chipresumed.json" > "$SMOKE/chipresume.out"
run diff "$SMOKE/chipref.json" "$SMOKE/chipresumed.json"

# Fault-injected chip smoke: panic one tile's first attempt and require
# the supervised flow to retry it to a complete, legal routing — the
# recovery must be visible in the report, not silent.
echo "==> $VROUTE chip (VROUTE_FAULT=panic@tile:3)"
VROUTE_FAULT=panic@tile:3 \
  "$VROUTE" chip --width 40 --height 40 --nets 70 --macros 2 --seed 3 \
  --tile 10 --jobs 2 --retries 1 --json "$SMOKE/chipfault.json" > /dev/null
grep -q '"complete": true' "$SMOKE/chipfault.json" || {
  echo "ci: the fault-injected chip did not complete" >&2; exit 1; }
grep -q '"legal": true' "$SMOKE/chipfault.json" || {
  echo "ci: the fault-injected chip routed illegally" >&2; exit 1; }
RETRIED=$(grep -o '"tiles_retried": [0-9]*' "$SMOKE/chipfault.json" | grep -o '[0-9]*$')
if [[ -z "$RETRIED" || "$RETRIED" -lt 1 ]]; then
  echo "ci: the injected tile fault was not recovered by a retry" >&2
  cat "$SMOKE/chipfault.json" >&2
  exit 1
fi

# Chip-scale benchmark: flat vs hierarchical at 1..N workers. The
# binary asserts jobs-parity checksums and (in full mode) a verifier-
# clean 256-tile, 10k-net routing with the pinned flat and hierarchical
# checksums, then refreshes BENCH_chip.json.
if [[ "$QUICK" == 0 ]]; then
  run cargo run --release --offline --quiet -p route-bench --bin exp_c1_chip
else
  run cargo run --release --offline --quiet -p route-bench --bin exp_c1_chip -- --quick
fi

# Hot-path throughput gate: route the channel suite under both
# frontier modes (bit-identical checksums asserted inside the
# sweep) and fail if the default bucket-queue frontier is slower than
# the binary heap on the rip-up router. Perf ratios are only meaningful
# in release, so both modes build the bench binary optimized; the full
# run also refreshes the BENCH_maze.json artifact.
if [[ "$QUICK" == 0 ]]; then
  run cargo run --release --offline --quiet -p route-bench --bin exp_m1_hotpath -- --gate
else
  run cargo run --release --offline --quiet -p route-bench --bin exp_m1_hotpath -- --quick --gate
fi

# Benchmark build gate: vbench/ is its own workspace with path
# dependencies on the router crates it measures, so the workspace build
# above never compiles it. Build and test it against the current crates
# and run every workload once in quick mode; each must exit 0. Quick
# mode only type-checks it, which still catches a router API change
# that breaks the benchmark.
if [[ "$QUICK" == 0 ]]; then
  run cargo test --release --offline --quiet --manifest-path vbench/Cargo.toml
  for workload in maze flat chip serve; do
    run cargo run --release --offline --quiet --manifest-path vbench/Cargo.toml \
      --bin vbench -- --workload "$workload" --quick
  done
else
  run cargo check --offline --all-targets --manifest-path vbench/Cargo.toml
fi

echo "ci: all checks passed"
