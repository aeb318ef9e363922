#!/usr/bin/env bash
# End-to-end checks of the observability surface (docs/observability.md),
# one per ctest labelled "observability" (tests/CMakeLists.txt):
#
#   observability_checks.sh STEP SBN_SWEEP SBN_SWEEPD SBN_TRACE
#
# STEP is one of telemetry-keys, shard-sidecars, metrics-verb,
# traced-faulty-sweep, latency-threads. Each step runs in its own
# temporary directory, removed on exit.
set -eu

step=$1
SWEEP=$2
SWEEPD=$3
TRACE=$4

tmp=$(mktemp -d)
trap 'kill $(jobs -p) 2>/dev/null || true; rm -rf "$tmp"' EXIT
cd "$tmp"

case "$step" in
telemetry-keys)
    # A telemetry-enabled sweep dumps every documented counter key.
    "$SWEEP" --n=8 --m=16 --p=0.2,0.6 \
        --warmup=1000 --measure=20000 \
        --telemetry=telemetry.json > sweep.jsonl
    test -s sweep.jsonl
    python3 - <<'EOF'
import json
d = json.load(open("telemetry.json"))
assert d["type"] == "sbn.telemetry.v1", d
for key in ["ctr.sim.runs", "ctr.sim.heap_events",
            "ctr.sim.think_draws", "ctr.sim.requests_issued",
            "ctr.sim.requests_completed",
            "ctr.exec.adaptive_rounds_grown",
            "ctr.shard.records_written",
            "ctr.shard.records_merged",
            "ctr.supervisor.respawns",
            "tmr.sim.run_ns"]:
    assert key in d, f"missing {key}"
assert d["ctr.sim.runs"] > 0
assert d["ctr.sim.requests_completed"] > 0
print("telemetry dump carries every documented key")
EOF
    ;;

shard-sidecars)
    # A spawned sweep leaves per-shard telemetry sidecars.
    "$SWEEP" --n=8 --m=16 --p=0.2,0.4,0.6,0.8 \
        --warmup=1000 --measure=20000 --spawn=2 --dir=shards \
        --telemetry=spawned-telemetry.json > spawned.jsonl
    ls shards/telemetry-shard-*.jsonl
    python3 - <<'EOF'
import glob, json
paths = sorted(glob.glob("shards/telemetry-shard-*.jsonl"))
assert len(paths) == 2, paths
for path in paths:
    for line in open(path):
        d = json.loads(line)
        assert d["type"] == "sbn.telemetry.v1", path
        assert d["ctr.shard.records_written"] > 0, path
print("each shard worker appended a parsable sidecar")
EOF
    ;;

metrics-verb)
    # The daemon answers the metrics verb before and after a job.
    st="$tmp/state"
    "$SWEEPD" --state="$st" --heartbeat=0.2 &
    pid=$!
    for i in $(seq 150); do
        test -f "$st/port" && break
        sleep 0.1
    done
    # Idle snapshot: nothing ran yet, active_job is null.
    "$SWEEP" --connect="$st" --metrics > before.json
    python3 - <<'EOF'
import json
d = json.load(open("before.json"))
assert d["type"] == "sbn.metrics.v1", d
assert d["jobs_total"] == 0 and d["done"] == 0, d
assert d["active_job"] is None, d
EOF
    "$SWEEP" --connect="$st" \
        --submit="--n=8 --m=16 --p=0.2,0.4,0.6,0.8 --warmup=2000 --measure=200000 --spawn=2" \
        --wait > daemon-merged.jsonl
    "$SWEEP" --connect="$st" --metrics > after.json
    "$SWEEP" --connect="$st" --metrics --job=0 > job0.json
    # The heartbeat carries the same snapshot, tagged v2, with every
    # v1 key still present.
    grep -q '"type":"sbn.heartbeat.v2"' "$st/heartbeat"
    grep -q '"ts_unix":' "$st/heartbeat"
    grep -q '"queued":' "$st/heartbeat"
    python3 - <<'EOF'
import json
d = json.load(open("after.json"))
assert d["done"] == 1 and d["jobs_total"] == 1, d
assert d["journal_appends"] >= 4, d
assert d["journal_fsyncs"] >= d["journal_appends"], d
assert d["results_bytes_served"] > 0, d
j = json.load(open("job0.json"))
assert j["state"] == "done" and j["launches"] == 1, j
assert j["wall_s"] >= 0 and j["cpu_s"] > 0, j
EOF
    "$SWEEP" --connect="$st" --drain
    wait "$pid"
    echo "metrics verb answered idle and loaded; heartbeat is v2"
    ;;

traced-faulty-sweep)
    # A traced faulty sweep merges into one Perfetto-loadable timeline.
    flags='--n=8 --m=16 --p=0.2,0.6,1.0 --warmup=1000 --measure=20000'
    "$SWEEP" $flags > trace-serial.jsonl
    # Kill shard 1's first attempt so the supervisor retries it with
    # backoff - the timeline must show the whole story and the merged
    # records must still match the serial bytes.
    SBN_FAULT='shard=1,kill_after_records=1' \
        "$SWEEP" $flags --spawn=3 --backoff=0.02 \
        --trace --dir=traced > traced.jsonl
    diff trace-serial.jsonl traced.jsonl
    "$TRACE" --dir=traced --check
    "$TRACE" --dir=traced --summary | tee trace-summary.txt
    grep -q 'critical path' trace-summary.txt
    grep -q ' 1 trace(s)' trace-summary.txt
    "$TRACE" --dir=traced --merge > trace.json
    python3 - <<'EOF'
import json
doc = json.load(open("trace.json"))
events = doc["traceEvents"]
assert events, "empty trace"
spans = {}
for e in events:
    assert e["ph"] == "X", e
    assert e["ts"] >= 0 and e["dur"] >= 0, e
    spans[e["args"]["span"]] = e
kinds = {e["cat"] for e in events}
for kind in ["supervise", "attempt", "backoff",
             "shard_run", "merge"]:
    assert kind in kinds, f"missing kind {kind}: {sorted(kinds)}"
# The killed attempt and its successful retry are visible.
outcomes = [e["args"].get("outcome") for e in events
            if e["cat"] == "attempt"]
assert "fail" in outcomes and "ok" in outcomes, outcomes
# Monotone nesting: no child starts before its parent.
for e in events:
    parent = spans.get(e["args"]["parent"])
    if parent is not None:
        assert e["ts"] >= parent["ts"], (e, parent)
print(f"{len(events)} spans, kinds={sorted(kinds)}, "
      "retry visible, nesting monotone")
EOF
    ;;

latency-threads)
    # Latency-enabled records are byte-identical across thread counts.
    flags='--n=8 --m=16 --p=0.2,0.6 --warmup=1000 --measure=20000 --latency'
    "$SWEEP" $flags --threads=1 > lat-t1.jsonl
    "$SWEEP" $flags --threads=4 > lat-t4.jsonl
    diff lat-t1.jsonl lat-t4.jsonl
    grep -q '"lat_n":' lat-t1.jsonl
    grep -q '"lw99_bits":' lat-t1.jsonl
    echo "latency quantile group deterministic at 1 vs 4 threads"
    ;;

*)
    echo "unknown step: $step" >&2
    exit 2
    ;;
esac
