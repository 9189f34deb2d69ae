#!/usr/bin/env bash
# CI performance gate: build release, regenerate the sweep/sims
# benchmark, and fail when
#   * the benchmark package in perfbench/ does not build, or
#   * clippy reports any warning on the workspace (all targets), or
#   * parallel figure output diverges from serial (determinism), or
#   * the serial figure output's FNV-1a 64 digest differs from the
#     committed BENCH_sweep.json's "output_digest" at the same
#     subsample (byte identity across builds; checked inside
#     perf_report; a deliberate re-baseline updates that one line), or
#   * any sims/sec figure (seesaw, vllm, its chunked-prefill twin
#     "vllm_chunked", the online-serving
#     load-point rate "serving", the 4-replica-JSQ fleet grid-cell
#     rate "fleet", the same cell on the live-feedback global event
#     loop "fleet_live", that cell with telemetry recording on
#     "fleet_live_traced", the reactive-diurnal autoscale grid-cell
#     rate "autoscale", the controller's metrics-phase rate "metrics"
#     (windowed_metrics + burn-rate evaluation over a precomputed
#     day; also held to >= 1.5x "autoscale" inside perf_report), or
#     the seeded-kill fault-injection grid-cell rate "chaos")
#     regresses >20% vs the committed BENCH_sweep.json,
#   * the telemetry-disabled instrumented path costs >5% vs plain
#     fleet_live, or the controller self-profile explains <90% of
#     wall time (both checked inside perf_report), or
#   * the fleet, autoscale or chaos bin's --trace-out export is not
#     a well-formed Perfetto document with the expected tracks, spans
#     and instants, or
#   * one of those bins' --metrics-out snapshot is not valid JSON
#     carrying the recorder's dropped-event health counters at zero,
#     or its route counters disagree with what it dispatched (fleet:
#     event counters vs Σ requests per replica; the fault-free
#     autoscale run: Σ routes per replica vs attempts), or
#   * full-fidelity figure generation (`all_figures 1 --jobs 1`)
#     peaks above ALL_FIGURES_MAX_RSS_MIB of resident memory, or the
#     chaos bin's one-hour day (`chaos --day 3600 --jobs 1`) peaks
#     above CHAOS_DAY_MAX_RSS_MIB, or
#   * the serving bin's sweep (the fleet scaling sweep at one
#     replica) prints different bytes at --jobs 1 and --jobs 2, or its
#     --json is not valid JSON with one point per load and offered
#     load rising, or
#   * the fleet bin (`fleet 48`: scaling grid, router table and the
#     heterogeneous head-to-head, whose tables run both live policies
#     and so read live depth and remaining work) prints different
#     bytes at --jobs 1 and --jobs 2, or
#   * the autoscale or chaos bin's frontier on an 1800 s day
#     (`--day 1800 --window 60`) prints different bytes at --jobs 1
#     and --jobs 2, or
#   * a heavy-fault chaos grid (1500 kills and 40 outages per day,
#     on an 1800 s day; ~0.5 s) has a cell where `completed + failed`
#     differs from the offered request count (request reconciliation).
#
# Usage: scripts/bench.sh [subsample] [--jobs N]
#   subsample defaults to 8 (the committed artifact's setting).
#
# The fresh artifact is written to target/BENCH_sweep.json; after a
# deliberate performance change, review it and copy it over the
# committed BENCH_sweep.json to move the baseline.
set -euo pipefail
cd "$(dirname "$0")/.."

# Peak-RSS ceilings, in MiB, measured on x86-64 Linux as the child's
# own high-water mark (see check_peak_rss).
# `all_figures 1 --jobs 1` peaks near 4.5 MiB (6.0 MiB while the vLLM
# baseline search built every candidate's report before taking the
# best). The ceiling also fails on per-thread retention across figure
# cells (a memo kept per thread for the process lifetime peaked at
# 460 MiB; pooled simulator arenas at 29 MiB).
ALL_FIGURES_MAX_RSS_MIB=5.5
# `chaos --day 3600 --jobs 1` peaks near 13 MiB (14.5 MiB while the
# controller kept a table entry per minted retry id and a request-id
# index). Earlier figures, read with the launcher's resident set
# included, put it near 20 MiB while every fleet replica's report kept
# a second copy of its request timings, near 27.5 MiB while the
# controller queued every arrival and kill up front, and at 95 MiB
# when the simulator kept a task arena that grew with simulated time.
CHAOS_DAY_MAX_RSS_MIB=15.5

cargo build --release -p seesaw-bench --bin perf_report --bin fleet --bin autoscale \
    --bin chaos --bin all_figures --bin serving
# The benchmark package pins library names (its own workspace, built as
# the benchmark builds it): a change that breaks them fails here.
cargo build --release --offline --manifest-path perfbench/Cargo.toml
cargo clippy --workspace --all-targets -- -D warnings

./target/release/perf_report "$@" \
    --out target/BENCH_sweep.json \
    --baseline BENCH_sweep.json

# Telemetry smoke test: each bin exports one traced cell plus its
# metric snapshot; validate both files. Usage: check_telemetry NAME
# TRACKS ARGS..., where TRACKS is an exact track count, or N+ for at
# least N.
check_telemetry() {
    local name=$1 tracks=$2
    shift 2
    local trace=target/$name.trace.json metrics=target/$name.metrics.json
    ./target/release/"$name" "$@" --trace-out "$trace" --metrics-out "$metrics" > /dev/null
    python3 - "$name" "$tracks" "$trace" "$metrics" <<'EOF'
import json, sys
name, want, trace, metrics = sys.argv[1:]
with open(trace) as f:
    doc = json.load(f)
events = doc["traceEvents"]
tracks = [e for e in events if e.get("name") == "thread_name"]
if want.endswith("+"):
    assert len(tracks) >= int(want[:-1]), f"{name}: expected {want} tracks, got {len(tracks)}"
else:
    assert len(tracks) == int(want), f"{name}: expected {want} tracks, got {len(tracks)}"
assert any(e.get("ph") == "X" for e in events), f"{name}: no spans recorded"
assert any(e.get("ph") == "i" for e in events), f"{name}: no instants recorded"
print(f"bench.sh: {name} trace OK ({len(events)} events, {len(tracks)} tracks)")
with open(metrics) as f:
    snap = json.load(f)
for key in ("counters", "gauges", "histograms"):
    assert key in snap, f"{name}: metrics snapshot missing {key!r}"
for drop in ("telemetry.dropped_spans", "telemetry.dropped_instants"):
    assert drop in snap["counters"], f"{name}: missing health counter {drop!r}"
    assert snap["counters"][drop] == 0, f"{name}: {drop} nonzero on an uncapped run"
if name == "fleet":
    # The fleet loop routes each arrival once, in order.
    c = snap["counters"]
    routed = sum(v for k, v in c.items() if k.startswith("fleet.requests.replica"))
    pushed, popped = c["fleet.events.pushed"], c["fleet.events.popped"]
    assert pushed == popped == routed > 0, f"fleet: events {pushed}/{popped}, routed {routed}"
if name == "autoscale":
    # No faults: every dispatch attempt is routed exactly once.
    c = snap["counters"]
    routed = sum(v for k, v in c.items() if k.startswith("autoscale.route.replica"))
    attempts = c["autoscale.attempts"]
    assert routed == attempts > 0, f"autoscale: routed {routed}, attempts {attempts}"
print(f"bench.sh: {name} metrics OK ({len(snap['counters'])} counters)")
EOF
}

# controller + router + 2 replica tracks from --compare-replicas 2.
check_telemetry fleet 4 16 --replicas 1 --loads 0.5 --no-hetero --compare-replicas 2
# At least the controller and router tracks.
check_telemetry autoscale 2+ --day 1800 --window 60
check_telemetry chaos 2+ --day 1800 --window 60

# Memory smoke: the child's own peak RSS, its VmHWM sampled every
# millisecond until it exits (a lower bound that misses at most the
# last sample interval). `ru_maxrss` would not do: a child forked from
# the Python launcher keeps the launcher's resident set as its maximum
# across `exec` (`/bin/true` reads ~14 MiB that way). Usage:
# check_peak_rss LIMIT_MIB COMMAND...
check_peak_rss() {
    python3 - "$@" <<'EOF'
import re, subprocess, sys, time
limit, cmd = float(sys.argv[1]), sys.argv[2:]
name = " ".join(cmd).removeprefix("./target/release/")
child = subprocess.Popen(cmd, stdout=subprocess.DEVNULL)
peak_kib = 0
while child.poll() is None:
    try:
        with open(f"/proc/{child.pid}/status") as f:
            hwm = re.search(r"^VmHWM:\s+(\d+) kB", f.read(), re.M)
    except OSError:
        hwm = None
    if hwm:
        peak_kib = max(peak_kib, int(hwm.group(1)))
    time.sleep(0.001)
assert child.returncode == 0, f"{name} exited with {child.returncode}"
assert peak_kib > 0, f"{name} exited before its memory was sampled"
peak = peak_kib / 1024
assert peak <= limit, f"{name} peaked at {peak:.1f} MiB > {limit:g} MiB"
print(f"bench.sh: memory OK ({name} peak RSS {peak:.1f} MiB <= {limit:g} MiB)")
EOF
}

check_peak_rss "$ALL_FIGURES_MAX_RSS_MIB" ./target/release/all_figures 1 --jobs 1
check_peak_rss "$CHAOS_DAY_MAX_RSS_MIB" ./target/release/chaos --day 3600 --jobs 1

# Serving smoke: the one-replica sweep is byte-identical across job
# counts, and its JSON carries one point per load in rising offered
# load.
serial=$(./target/release/serving 48 --loads 0.5,2 --jobs 1)
parallel=$(./target/release/serving 48 --loads 0.5,2 --jobs 2)
[ "$serial" = "$parallel" ] || { echo "bench.sh: serving output differs across --jobs" >&2; exit 1; }
./target/release/serving 48 --loads 0.5,2 --json > target/serving.json
python3 - target/serving.json <<'EOF'
import json, sys
points = json.load(open(sys.argv[1]))["points"]
loads = [p["load_multiplier"] for p in points]
rates = [p["offered_rps"] for p in points]
assert loads == [0.5, 2.0], f"serving: expected one point per load, got {loads}"
assert all(a < b for a, b in zip(rates, rates[1:])), f"serving: offered load not rising: {rates}"
print(f"bench.sh: serving OK ({len(points)} points, byte-identical across --jobs)")
EOF

# Fleet determinism: the router tables, both live policies included,
# print the same bytes at any job count.
serial=$(./target/release/fleet 48 --jobs 1)
parallel=$(./target/release/fleet 48 --jobs 2)
[ "$serial" = "$parallel" ] || { echo "bench.sh: fleet output differs across --jobs" >&2; exit 1; }
echo "bench.sh: fleet OK (byte-identical across --jobs)"

# Elastic determinism: the autoscale and chaos frontiers print the
# same bytes at any job count.
for bin in autoscale chaos; do
    serial=$(./target/release/"$bin" --day 1800 --window 60 --jobs 1)
    parallel=$(./target/release/"$bin" --day 1800 --window 60 --jobs 2)
    [ "$serial" = "$parallel" ] || { echo "bench.sh: $bin output differs across --jobs" >&2; exit 1; }
    echo "bench.sh: $bin OK (byte-identical across --jobs)"
done

# Reconciliation smoke: under heavy faults every chaos cell must still
# account for each offered request as completed or failed.
./target/release/chaos --day 1800 --window 60 --warmup 60 --kills 1500 --outages 40 \
    --groups 2 --max 4 --json > target/chaos_heavy.json
python3 - target/chaos_heavy.json <<'EOF'
import json, sys
points = json.load(open(sys.argv[1]))["points"]
for p in points:
    cell = f"{p['fault']} x {p['recovery']}"
    assert p["completed"] + p["failed"] == p["n_requests"], (
        f"{cell}: completed {p['completed']} + failed {p['failed']} != offered {p['n_requests']}")
print(f"bench.sh: reconciliation OK ({len(points)} heavy-fault chaos cells)")
EOF

echo "bench.sh: OK (fresh artifact at target/BENCH_sweep.json)"
