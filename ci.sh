#!/usr/bin/env sh
# Offline CI gate for the workspace. Mirrors .github/workflows/ci.yml so the
# same checks run locally and in automation; everything resolves against the
# vendored shim crates under crates/shims/, so no network access is needed.
#
# Usage: ./ci.sh
set -eu

cd "$(dirname "$0")"

# --workspace matters: the root manifest is both a package and a workspace,
# so a bare `cargo build` covers only the root package and would skip the
# harness binaries entirely.
echo "==> cargo build --release --workspace"
cargo build --release --workspace

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo clippy -p bench --features bench --all-targets -- -D warnings"
cargo clippy -p bench --features bench --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> trace export smoke test"
out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT
cargo run --release -p harness --bin trace -- --n 256 --plan all --out "$out/trace.json"
cargo run --release -p harness --bin trace -- --n 256 --plan jw --out "$out/trace.csv"
for f in trace.json trace.csv; do
    test -s "$out/$f" || { echo "FAIL: $f is empty"; exit 1; }
done
grep -q '"traceEvents"' "$out/trace.json" || { echo "FAIL: not a Chrome trace"; exit 1; }

echo "==> fault-injection smoke test"
cargo run --release -p harness --bin faults -- --seed 7 --dir "$out/faults" | tee "$out/faults.log"
grep -q 'FAULTS OK' "$out/faults.log" || { echo "FAIL: fault recovery smoke did not pass"; exit 1; }

echo "==> threaded repro smoke test (--threads 4, small N)"
cargo run --release -p harness --bin repro-all -- --quick --max-n 1024 --threads 4 \
    > "$out/repro-threaded.log"
grep -q 'jw-parallel' "$out/repro-threaded.log" || { echo "FAIL: threaded repro produced no tables"; exit 1; }

echo "==> bench-json smoke test"
# The speedup gate self-waives on single-core machines (BENCH SKIP); the
# bit-exactness gate inside the benchmark always applies, so BENCH FAIL
# means either divergent forces or a real slowdown on a multicore machine.
# quick sizes bench at N in {1024, 8192}, so the N >= 4096 speedup gate is
# active whenever the machine has more than one core.
cargo run --release -p harness --bin repro-all -- --quick --threads 4 \
    --bench-json "$out/BENCH_pr4.json" > "$out/bench.log"
test -s "$out/BENCH_pr4.json" || { echo "FAIL: BENCH_pr4.json missing or empty"; exit 1; }
grep -q '"rows"' "$out/BENCH_pr4.json" || { echo "FAIL: BENCH_pr4.json has no rows"; exit 1; }
grep -q 'BENCH OK\|BENCH SKIP' "$out/bench.log" || {
    echo "FAIL: bench gate did not pass:"; grep 'BENCH' "$out/bench.log" || true; exit 1; }

# The same repro-all run writes the PR5 hot-path rows next to the pr4 file.
# The JSON must parse (have rows), every row must be bit-exact, and the
# greppable verdict must not be a failure.
test -s "$out/BENCH_pr5.json" || { echo "FAIL: BENCH_pr5.json missing or empty"; exit 1; }
grep -q '"rows"' "$out/BENCH_pr5.json" || { echo "FAIL: BENCH_pr5.json has no rows"; exit 1; }
if grep -q '"bitexact": false' "$out/BENCH_pr5.json"; then
    echo "FAIL: BENCH_pr5.json reports an inexact optimized path"; exit 1
fi
grep -q 'BENCH_PR5 OK\|BENCH_PR5 SKIP' "$out/bench.log" || {
    echo "FAIL: pr5 bench gate did not pass:"; grep 'BENCH_PR5' "$out/bench.log" || true; exit 1; }

# The same repro-all run also writes the out-of-core tree-pipeline rows.
# Both bit-exactness columns must hold at every size; the 1.5x speedup and
# PTPM-agreement gates only arm at N >= 1M (the SHARD smoke below).
test -s "$out/BENCH_pr10.json" || { echo "FAIL: BENCH_pr10.json missing or empty"; exit 1; }
grep -q '"rows"' "$out/BENCH_pr10.json" || { echo "FAIL: BENCH_pr10.json has no rows"; exit 1; }
if grep -q '"device_bitexact": false\|"sharded_bitexact": false' "$out/BENCH_pr10.json"; then
    echo "FAIL: BENCH_pr10.json reports an inexact out-of-core path"; exit 1
fi
grep -q 'BENCH_PR10 OK\|BENCH_PR10 SKIP' "$out/bench.log" || {
    echo "FAIL: pr10 bench gate did not pass:"; grep 'BENCH_PR10' "$out/bench.log" || true; exit 1; }

echo "==> bench-history trajectory gate (append-and-verify + negative control)"
# The committed trajectory (bench/history.jsonl) is copied aside, this run's
# snapshot is appended, and the noise-banded gate must say OK or SKIP (SKIP
# is legitimate: first run on a new parallelism class has no comparable
# baseline — DESIGN.md section 13). CI never rewrites the committed file;
# appending a canonical entry is a reviewed `--write` against the real path.
hist="$out/history.jsonl"
cp bench/history.jsonl "$hist"
./target/release/bench-history --history "$hist" --ingest "$out/BENCH_pr4.json" \
    --label ci --write | tee "$out/history.log"
grep -q 'BENCH HISTORY OK\|BENCH HISTORY SKIP' "$out/history.log" || {
    echo "FAIL: bench-history gate did not pass:"
    grep 'BENCH HISTORY' "$out/history.log" || true; exit 1; }
# negative control: the same snapshot with a synthetic 10x slowdown injected
# must FAIL against the baseline the previous ingest just wrote (same
# machine, same class), and the bin must exit 1. A gate that cannot fail is
# not a gate.
set +e
./target/release/bench-history --history "$hist" --ingest "$out/BENCH_pr4.json" \
    --label slow --inject-slowdown 10 > "$out/history-slow.log" 2>&1
slow_code=$?
set -e
test "$slow_code" -eq 1 || {
    echo "FAIL: injected 10x slowdown exited $slow_code, want 1"; exit 1; }
grep -q 'BENCH HISTORY FAIL' "$out/history-slow.log" || {
    echo "FAIL: injected 10x slowdown was not flagged:"
    grep 'BENCH HISTORY' "$out/history-slow.log" || true; exit 1; }

echo "==> SHARD release smoke (million-body out-of-core tree pipeline)"
# The full PR10 gate: at N = 1M the on-device tree pipeline must beat the
# host tree path by >= 1.5x, the PTPM pipeline forecast must agree with the
# simulated clock within (0.8, 1.25), Morton sharding must shrink the peak
# device working set, and both the device-built tree and every shard split
# must reproduce the in-core forces bit-for-bit — all encoded in the
# BENCH_PR10 OK verdict (a SKIP here means the 1M size never ran: fail).
./target/release/bench-pr10 --quick --n 1048576 --shards 16 \
    --json "$out/BENCH_pr10_1m.json" | tee "$out/shard-smoke.log"
grep -q 'BENCH_PR10 OK' "$out/shard-smoke.log" || {
    echo "FAIL: million-body shard smoke did not pass:"
    grep 'BENCH_PR10' "$out/shard-smoke.log" || true; exit 1; }
test -s "$out/BENCH_pr10_1m.json" || { echo "FAIL: BENCH_pr10_1m.json missing or empty"; exit 1; }

echo "==> autotuner smoke test (forecast/measured, then db-hit, then --plan auto provenance)"
# First resolution on a fresh spool must come from the model or a
# measurement; the second must replay the persisted winner from tuning.json.
# Then a --plan auto submission must carry the db-hit provenance through the
# server into the job's bench.json artifact.
aspool="$out/tune-spool"
./target/release/autotune --spool "$aspool" --n 256 --seed 3 | tee "$out/autotune-cold.log"
grep -Eq 'AUTOTUNE OK plan=.* source=(forecast|measured)' "$out/autotune-cold.log" || {
    echo "FAIL: cold autotune did not resolve via forecast/measured"; exit 1; }
./target/release/autotune --spool "$aspool" --n 256 --seed 3 | tee "$out/autotune-warm.log"
grep -q 'AUTOTUNE OK.*source=db-hit' "$out/autotune-warm.log" || {
    echo "FAIL: warm autotune did not hit the tuning DB"; exit 1; }
./target/release/submit --spool "$aspool" --plan auto --n 256 --seed 3 --steps 2 --every 2 \
    | tee "$out/submit-auto.log"
grep -q 'plan auto: .*source=db-hit' "$out/submit-auto.log" || {
    echo "FAIL: submit --plan auto did not hit the tuning DB"; exit 1; }
./target/release/serve --spool "$aspool" | tee "$out/serve-auto.log"
grep -q 'JOBS OK' "$out/serve-auto.log" || { echo "FAIL: auto-plan job did not complete"; exit 1; }
grep -rq '"plan_source": *"auto:db-hit"' "$aspool/jobs" || {
    echo "FAIL: bench.json artifact does not record the auto resolution path"; exit 1; }

echo "==> job-server crash-recovery smoke test (SIGKILL mid-job)"
# Submit a small batch, kill the server with SIGKILL mid-job, restart it,
# and require the summary's JOBS OK tail: the interrupted job must resume
# from its checkpoint and verify bit-exact against an uninterrupted
# reference run. The server binary is exec'd directly (not via cargo run)
# so the SIGKILL hits the server process itself.
spool="$out/spool"
./target/release/submit --spool "$spool" --n 96 --steps 12 --seed 1 --every 2
./target/release/submit --spool "$spool" --n 96 --steps 12 --seed 2 --every 2 --priority high
./target/release/submit --spool "$spool" --n 96 --steps 12 --seed 3 --every 2 --fault-seed 7
./target/release/serve --spool "$spool" --throttle-ms 80 > "$out/serve-killed.log" 2>&1 &
serve_pid=$!
sleep 1
kill -9 "$serve_pid" 2>/dev/null || true
wait "$serve_pid" 2>/dev/null || true
test "$(ls "$spool/running" "$spool/submitted" 2>/dev/null | grep -c json || true)" -gt 0 || {
    echo "FAIL: SIGKILL landed after the drain finished; nothing left to recover"; exit 1; }
./target/release/serve --spool "$spool" | tee "$out/serve-restart.log"
grep -q 'JOBS OK' "$out/serve-restart.log" || { echo "FAIL: restarted server did not report JOBS OK"; exit 1; }
grep -q 'requeued=[1-9]' "$out/serve-restart.log" || { echo "FAIL: no killed job was requeued"; exit 1; }

# identical resubmission of the full batch must be served 100% from cache
./target/release/submit --spool "$spool" --n 96 --steps 12 --seed 1 --every 2
./target/release/submit --spool "$spool" --n 96 --steps 12 --seed 2 --every 2 --priority high
./target/release/submit --spool "$spool" --n 96 --steps 12 --seed 3 --every 2 --fault-seed 7
./target/release/serve --spool "$spool" | tee "$out/serve-cached.log"
grep -q 'completed=3 computed=0 cache-hits=3' "$out/serve-cached.log" || {
    echo "FAIL: resubmitted batch was not served entirely from cache"; exit 1; }

echo "==> supervised daemon smoke test (SIGKILL mid-wave, restart, poison, SIGTERM drain)"
# Typed exit codes first: missing --spool is a configuration error (2),
# distinct from degradation (1) and spool corruption (3).
set +e
./target/release/serve >/dev/null 2>&1
usage_code=$?
set -e
test "$usage_code" -eq 2 || { echo "FAIL: serve without --spool exited $usage_code, want 2"; exit 1; }

dspool="$out/daemon-spool"
# a deliberately-unrunnable tenant: every compute unit dies on first touch,
# so supervision must requeue it until the attempt budget poisons it
./target/release/submit --spool "$dspool" --n 64 --steps 6 --every 2 --priority batch \
    --fault-seed 1 --fault-prob 0.2 --fault-loss-prob 1.0
./target/release/submit --spool "$dspool" --n 96 --steps 12 --seed 4 --every 2 --priority batch
./target/release/submit --spool "$dspool" --n 96 --steps 12 --seed 5 --every 2
./target/release/serve --spool "$dspool" --daemon --throttle-ms 60 > "$out/daemon-killed.log" 2>&1 &
daemon_pid=$!
sleep 1
# a high-priority job lands mid-wave (the daemon preempts batch for it),
# then SIGKILL the daemon exactly as a crashed host would
./target/release/submit --spool "$dspool" --n 96 --steps 12 --seed 6 --every 2 --priority high
sleep 0.3
kill -9 "$daemon_pid" 2>/dev/null || true
wait "$daemon_pid" 2>/dev/null || true
test "$(ls "$dspool/running" "$dspool/submitted" 2>/dev/null | grep -c json || true)" -gt 0 || {
    echo "FAIL: SIGKILL landed after the daemon drained; nothing left to recover"; exit 1; }

# restart in daemon mode: recovery requeues, supervision poisons the doomed
# tenant; submit --wait mirrors outcomes into exit codes (0 done, 3 poisoned)
./target/release/serve --spool "$dspool" --daemon > "$out/daemon-drain.log" 2>&1 &
daemon_pid=$!
./target/release/submit --spool "$dspool" --n 96 --steps 12 --seed 8 --every 2 --wait \
    | tee "$out/wait-done.log"
grep -q 'outcome: .* done' "$out/wait-done.log" || { echo "FAIL: submit --wait did not report done"; exit 1; }
set +e
./target/release/submit --spool "$dspool" --n 64 --steps 6 --seed 9 --every 2 --priority batch \
    --fault-seed 2 --fault-prob 0.2 --fault-loss-prob 1.0 --wait > "$out/wait-poisoned.log" 2>&1
wait_code=$?
set -e
test "$wait_code" -eq 3 || { echo "FAIL: submit --wait on a poisoned job exited $wait_code, want 3"; exit 1; }
# let the queue drain fully, then SIGTERM: the daemon must exit 0 cleanly
for _ in $(seq 1 120); do
    test "$(ls "$dspool/running" "$dspool/submitted" 2>/dev/null | grep -c json || true)" -eq 0 && break
    sleep 0.5
done
kill -TERM "$daemon_pid"
set +e
wait "$daemon_pid"
daemon_code=$?
set -e
test "$daemon_code" -eq 0 || { echo "FAIL: SIGTERM drain exited $daemon_code, want 0"; exit 1; }
grep -q 'JOBS OK' "$out/daemon-drain.log" || { echo "FAIL: daemon did not report JOBS OK"; exit 1; }
grep -q 'poisoned=[1-9]' "$out/daemon-drain.log" || { echo "FAIL: daemon never poisoned the doomed tenant"; exit 1; }
test "$(ls "$dspool/poisoned" 2>/dev/null | grep -c json || true)" -gt 0 || {
    echo "FAIL: poisoned/ is empty; the unrunnable tenant was not quarantined"; exit 1; }
test -s "$dspool/daemon.json" || { echo "FAIL: daemon heartbeat was never written"; exit 1; }

echo "==> crash-point fuzz gate (every durable mutation prefix must recover)"
cargo test --release -q --test crashpoint_fuzz -- --nocapture | tee "$out/crashpoint.log"
grep -q 'CRASHPOINT OK' "$out/crashpoint.log" || {
    echo "FAIL: crash-point fuzz gate did not pass"; exit 1; }

echo "==> cross-backend conformance gate (sim / host matrix)"
# The full differential matrix (workloads x N x all four plans x {1,2,4}
# threads across both backends, DESIGN.md section 11) runs in well
# under a second in release mode, so CI takes the non---quick sweep. The
# bin exits 1 on any contract violation; grep the verdict line anyway so a
# silent early exit can never pass.
cargo run --release -p harness --bin conformance | tee "$out/conformance.log"
grep -q 'CONFORMANCE OK' "$out/conformance.log" || {
    echo "FAIL: cross-backend conformance matrix did not pass"; exit 1; }

echo "==> allocation-regression gate (zero allocs per steady-state step)"
# tests/alloc_steady_state.rs installs the counting global allocator and
# asserts the serial PP/treecode/walk/Morton steps allocate nothing after
# warmup; run it in release so the gate matches shipping codegen.
cargo test --release -q --test alloc_steady_state

echo "==> kernel asm spot check (packed sqrt/div in both builds of both sweeps, no FMA)"
# nbody_core::soa::sweep is the lane loop of the tiled PP kernel and the
# packed walk-group kernel; plans::common::sweep_f32 is its f32 sibling, the
# force-eval phase of every simulated-device kernel. Each dispatches at run
# time to an AVX2 build or the baseline build of one body. Both builds must
# keep the lane loops vectorized, and the AVX2 builds must never contract
# to FMA, which would change the bits the exactness tests pin. The release
# test binary the allocation gate just built links both f64 builds; the
# release conformance binary links both f32 builds.
case "$(uname -m)" in
x86_64)
    asm_bin="$(cargo test --release --no-run --test alloc_steady_state 2>&1 \
        | sed -n 's/.*Executable .*(\(.*\))$/\1/p')"
    test -x "$asm_bin" || { echo "FAIL: release alloc_steady_state binary not found"; exit 1; }
    objdump -d --no-show-raw-insn "$asm_bin" > "$out/kernels.asm"
    # the instructions of every function whose symbol contains $1
    fn_asm() {
        awk -v name="$1" '/^[0-9a-f]+ <.*>:$/ { inside = index($0, name) > 0 } inside' \
            "$out/kernels.asm"
    }
    fn_asm nbody_core3soa14sweep_portable > "$out/sweep-portable.asm"
    fn_asm nbody_core3soa10sweep_avx2 > "$out/sweep-avx2.asm"
    for op in sqrtpd divpd; do
        grep -Eq "[[:space:]]$op[[:space:]]" "$out/sweep-portable.asm" || {
            echo "FAIL: the portable sweep has no packed $op"; exit 1; }
    done
    for op in vsqrtpd vdivpd; do
        grep -Eq "[[:space:]]$op[[:space:]].*ymm" "$out/sweep-avx2.asm" || {
            echo "FAIL: the AVX2 sweep has no $op on ymm registers"; exit 1; }
    done
    if grep -q vfmadd "$out/sweep-avx2.asm"; then
        echo "FAIL: the AVX2 sweep contains FMA instructions"; exit 1
    fi
    objdump -d --no-show-raw-insn target/release/conformance > "$out/kernels.asm"
    fn_asm plans6common18sweep_f32_portable > "$out/sweep-f32-portable.asm"
    fn_asm plans6common14sweep_f32_avx2 > "$out/sweep-f32-avx2.asm"
    for op in sqrtps divps; do
        grep -Eq "[[:space:]]$op[[:space:]]" "$out/sweep-f32-portable.asm" || {
            echo "FAIL: the portable f32 sweep has no packed $op"; exit 1; }
    done
    for op in vsqrtps vdivps; do
        grep -Eq "[[:space:]]$op[[:space:]].*ymm" "$out/sweep-f32-avx2.asm" || {
            echo "FAIL: the AVX2 f32 sweep has no $op on ymm registers"; exit 1; }
    done
    if grep -q vfmadd "$out/sweep-f32-avx2.asm"; then
        echo "FAIL: the AVX2 f32 sweep contains FMA instructions"; exit 1
    fi
    ;;
*) echo "SKIP: the sweep asm check reads x86_64 instructions" ;;
esac

echo "CI OK"
