#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the EBW sweep stack.

Run from the repository root:

    python3 sweepbench/run.py --workload grid_exact --seed 1 \
        --seconds 24 --trace 0

The first run builds the shipped front ends (sbn_sweep, sbn_sweepd)
and the layer probe into $CARGO_TARGET_DIR (default .bench_build).
--trace 0 prints the end-to-end metrics, --trace 1 the per-layer
ones; the last stdout line is one JSON object. README.md describes
the workloads, every metric and the measurement caveats.
"""

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import harness  # noqa: E402
from checks import check_job  # noqa: E402

# Load comes from this one process with at most this many
# threads or worker processes, the core count of the reference host.
THREADS = 4

P_FINE = ",".join("%.2f" % (k / 20) for k in range(1, 21))

# axes: the grid; mode: kernel and latency flags; cycles: per-point
# length; front: how users run it. README.md says why each was chosen.
WORKLOADS = {
    "grid_exact": {
        "axes": "--n=4,8,16 --m=8,16,32 --r=4,8,16 --p=0.1,0.5,1.0",
        "mode": "",
        "cycles": "--warmup=1000 --measure=100000",
        "front": ["--threads=%d" % THREADS],
    },
    "fleet_fine": {
        "axes": "--n=4,8,16 --m=8,16,32 --r=4,8 --p=%s --buffered=0,1"
                % P_FINE,
        "mode": "--kernel=faststat --latency",
        "cycles": "--warmup=500 --measure=5000",
        "front": ["--spawn=%d" % THREADS],
    },
    "daemon_tiny": {
        "axes": "--n=4,8 --m=8,16 --p=0.2,0.6 --buffered=0,1",
        "mode": "",
        "cycles": "--warmup=500 --measure=5000",
        "front": ["--spawn=2"],
        "daemon": True,
    },
}

# setup_s of the in-process and --spawn front ends: the same flags on
# a one-point, one-cycle grid.
ONE_POINT = "--n=4 --m=8 --r=4 --p=0.1 --warmup=0 --measure=1"
SETUP_REPS = 31
# Jobs of the traced daemon session that gives grid_exact and
# fleet_fine their service-layer numbers; daemon_tiny's traced run
# is itself a daemon session.
SERVICE_JOBS = 3
PROBE_JOBS = 10

END_TO_END = [("points_per_s", "1/s"), ("job_p50_ms", "ms"),
              ("job_p90_ms", "ms"), ("setup_s", "s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MB")]

PER_LAYER = [
    ("core.kernel_s", "s"),
    ("core.sim_cycles_per_s", "cycles/s"),
    ("core.heap_events_per_cycle", "events/cycle"),
    ("core.think_draws_per_cycle", "draws/cycle"),
    ("core.latency_on_cost", "ratio"),
    ("exec.busy_frac", "frac"),
    ("shard.format_us", "us"),
    ("shard.parse_us", "us"),
    ("shard.record_bytes", "bytes"),
    ("shard.merge_s", "s"),
    ("shard.attempt_overhead_ms", "ms"),
    ("shard.dup_frac", "frac"),
    ("shard.supervise_s", "s"),
    ("service.submit_ms", "ms"),
    ("service.status_ms", "ms"),
    ("service.results_ms", "ms"),
    ("service.results_bytes", "bytes"),
    ("service.queued_ms", "ms"),
    ("service.running_ms", "ms"),
    ("service.merging_ms", "ms"),
    ("service.fsyncs_per_job", "fsyncs/job"),
    ("service.unaccounted_ms", "ms"),
    ("bench.unaccounted_frac", "frac"),
    ("trace.overhead_frac", "frac"),
]


def log(message):
    print("sweepbench: " + message, file=sys.stderr, flush=True)


def mean(values):
    return sum(values) / len(values)


def build():
    """Build the front ends and the probe; return the build directory."""
    needed = ("CMakeLists.txt", "src", "tools/sbn_sweep.cc",
              "tools/sbn_sweepd.cc")
    missing = [p for p in needed if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        log("repository sources not found next to the benchmark (%s); "
            "run it from a full checkout" % ", ".join(missing))
        sys.exit(2)
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR")
                             or ".bench_build")
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "sbn_sweep",
                  "sbn_sweepd", "sbn_layerprobe", "-j%d" % THREADS])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, env=env).returncode != 0:
            log("build failed: " + " ".join(step))
            sys.exit(1)
    return build_dir


class JobRun:
    """What one closed loop of jobs produced."""

    def __init__(self):
        self.walls = []   # seconds, launch to reap, per job
        self.oks = []     # per job: output checked correct
        self.usage = harness.Usage()
        self.extras = []  # traced runs: per-job trace figures
        self.probe = None
        self.metrics = None


class Bench:
    def __init__(self, workload, seed, build_dir, work):
        self.w = WORKLOADS[workload]
        self.work = work
        self.tmp = self.path("tmp")
        os.makedirs(self.tmp)
        tools = os.path.join(build_dir, "sbn", "tools")
        self.sweep = os.path.join(tools, "sbn_sweep")
        self.sweepd = os.path.join(tools, "sbn_sweepd")
        self.probe = os.path.join(build_dir, "sbn_layerprobe")
        self.daemon = self.w.get("daemon", False)
        self.spawn = not self.daemon and self.w["front"][0].startswith(
            "--spawn")
        # The seed reaches the program only as --seed= in the spec.
        seed_flag = "--seed=%d" % seed
        self.spec = " ".join([self.w["axes"], self.w["mode"],
                              self.w["cycles"], seed_flag]).split()
        self.one_point = " ".join([ONE_POINT, self.w["mode"],
                                   seed_flag]).split()
        self.serial = 0
        self.setups = None  # end-to-end runs: set-up samples
        self.attempted = 0
        self.failures = []
        self.reference = self.serial_reference(self.spec)
        self.reference_path = self.path("reference.jsonl")
        with open(self.reference_path, "wb") as f:
            f.write(self.reference)
        self.points = self.reference.count(b"\n")
        self.one_point_reference = self.serial_reference(self.one_point)

    def path(self, name):
        return os.path.join(self.work, name)

    def fresh(self, stem):
        self.serial += 1
        return self.path("%s-%d" % (stem, self.serial))

    def serial_reference(self, spec):
        """The serial --threads=1 stream of ``spec`` from this build."""
        out = self.fresh("reference")
        code, _, _ = harness.run([self.sweep] + spec + ["--threads=1"], out,
                                 harness.clean_env(self.tmp))
        if code != 0:
            raise RuntimeError("serial reference run exited %d" % code)
        return harness.read(out)

    def verdict(self, reason, what):
        self.attempted += 1
        if reason:
            self.failures.append("%s: %s" % (what, reason))
        return not reason

    def job_dir_flag(self, argv):
        if not self.spawn:
            return None
        job_dir = self.fresh("fleet")
        argv.append("--dir=" + job_dir)
        return job_dir

    # -- setup -----------------------------------------------------------

    def setup_sample(self):
        """Seconds of one set-up (see ONE_POINT and README.md)."""
        if self.daemon:
            daemon = harness.Daemon(self.sweepd, self.fresh("state"),
                                    harness.clean_env(self.tmp),
                                    self.path("daemon.log"))
            try:
                ready = daemon.wait_ready()
                daemon.drain()
            finally:
                daemon.kill()
            return ready
        out = self.fresh("setup")
        argv = [self.sweep] + self.one_point + self.w["front"]
        job_dir = self.job_dir_flag(argv)
        code, wall, _ = harness.run(argv, out, harness.clean_env(self.tmp))
        self.verdict(check_job(code, harness.read(out),
                               self.one_point_reference, job_dir),
                     "setup run")
        return wall

    def spread_setups(self, deadline, seconds):
        """Between jobs, take the set-ups due by now: SETUP_REPS of them
        spread evenly over the measured window, so that the median sees
        the whole window rather than its first second."""
        if self.setups is None:
            return
        elapsed = time.perf_counter() - (deadline - seconds)
        due = min(SETUP_REPS, 1 + int(SETUP_REPS * elapsed / seconds))
        while len(self.setups) < due:
            self.setups.append(self.setup_sample())

    # -- sbn_sweep in-process and --spawn jobs ---------------------------

    def cli_jobs(self, seconds, pattern):
        """Closed loop of sbn_sweep runs for ``seconds``; job k is traced
        when ``pattern[k % len(pattern)]`` is true. Returns one JobRun
        per mode."""
        runs = {traced: JobRun() for traced in pattern}
        deadline = time.perf_counter() + seconds
        k = 0
        while k < len(pattern) or time.perf_counter() < deadline:
            self.spread_setups(deadline, seconds)
            traced = pattern[k % len(pattern)]
            k += 1
            run = runs[traced]
            out = self.fresh("out")
            argv = [self.sweep] + self.spec + self.w["front"]
            job_dir = self.job_dir_flag(argv)
            trace_dir = telemetry = None
            if traced:
                trace_dir = self.fresh("trace")
                os.makedirs(trace_dir)
                telemetry = self.fresh("telemetry")
                argv.append("--telemetry=" + telemetry)
            code, wall, rusage = harness.run(
                argv, out, harness.clean_env(self.tmp, trace_dir))
            run.walls.append(wall)
            run.usage.add(rusage)
            what = "job %d" % k
            ok = self.verdict(check_job(code, harness.read(out),
                                        self.reference, job_dir), what)
            if traced and ok:
                try:
                    run.extras.append(self.cli_trace_extras(
                        job_dir, trace_dir, telemetry))
                except (ValueError, KeyError) as error:
                    ok = False
                    self.failures.append("%s: trace: %s" % (what, error))
            run.oks.append(ok)
            for d in (job_dir, trace_dir):
                if d:
                    shutil.rmtree(d)
            os.remove(out)
        return runs

    def cli_trace_extras(self, job_dir, trace_dir, telemetry_path):
        with open(telemetry_path) as f:
            telemetry = json.loads(f.readline())
        extra = {"sim_run_s": telemetry["tmr.sim.run_ns"] / 1e9}
        if job_dir:
            extra.update(harness.fleet_summary(harness.load_spans(trace_dir)))
            extra["dup"] = telemetry["ctr.shard.records_deduped"]
            extra["dup_files"] = harness.count_records(job_dir) - self.points
        return extra

    # -- sbn_sweepd jobs ---------------------------------------------------

    def daemon_jobs(self, pattern, seconds=None, jobs=None, probe_jobs=0):
        """One client in a closed loop: each job is
        ``sbn_sweep --connect --submit=... --wait``, for ``seconds`` or
        for ``jobs`` jobs. Traced jobs go to a daemon started with
        SBN_TRACE_DIR and carry --telemetry in their spec, untraced
        ones to a daemon without either; job k's mode is
        ``pattern[k % len(pattern)]``. The traced daemon then serves
        ``probe_jobs`` service-probe jobs and its metrics verb. Every
        daemon is drained and reaped, so its CPU time and that of each
        runner and worker it reaped count in its mode's usage."""
        runs = {traced: JobRun() for traced in pattern}
        daemons, states, trace_dirs, job_ids = {}, {}, {}, {True: []}
        try:
            for traced in runs:
                states[traced] = self.fresh("state")
                trace_dirs[traced] = None
                if traced:
                    trace_dirs[traced] = self.fresh("daemon-trace")
                    os.makedirs(trace_dirs[traced])
                daemons[traced] = harness.Daemon(
                    self.sweepd, states[traced],
                    harness.clean_env(self.tmp, trace_dirs[traced]),
                    self.path("daemon.log"))
            for daemon in daemons.values():
                daemon.wait_ready()
            deadline = time.perf_counter() + (seconds or 0)
            k = 0
            while (k < jobs if jobs else
                   k < len(pattern) or time.perf_counter() < deadline):
                if seconds:
                    self.spread_setups(deadline, seconds)
                traced = pattern[k % len(pattern)]
                k += 1
                run = runs[traced]
                out = self.fresh("out")
                code, wall, rusage = harness.run(
                    [self.sweep, "--connect=" + states[traced],
                     "--submit=" + " ".join(self.job_spec(traced)), "--wait"],
                    out, harness.clean_env(self.tmp))
                run.walls.append(wall)
                run.usage.add(rusage)
                run.oks.append(self.verdict(
                    check_job(code, harness.read(out), self.reference),
                    "daemon job %d" % k))
                if traced:
                    found = re.search(rb"submitted job (\d+)",
                                      harness.read(out + ".err"))
                    job_ids[True].append(int(found.group(1)) if found
                                         else None)
                os.remove(out)
            if True in runs:
                run = runs[True]
                if probe_jobs:
                    run.probe = self.run_probe(
                        ["--mode=service", "--connect=" + states[True],
                         "--spec=" + " ".join(self.job_spec(True)),
                         "--jobs=%d" % probe_jobs], "service")
                run.metrics = daemons[True].request({"cmd": "metrics"})
            for traced, daemon in daemons.items():
                runs[traced].usage.add(daemon.drain())
        finally:
            for daemon in daemons.values():
                daemon.kill()
        if True in runs:
            runs[True].extras = self.daemon_trace_extras(
                states[True], trace_dirs[True], runs[True], job_ids[True])
        for state in states.values():
            shutil.rmtree(state)
        return runs

    def job_spec(self, traced):
        return (self.spec + self.w["front"]
                + (["--telemetry"] if traced else []))

    def daemon_trace_extras(self, state, trace_dir, run, job_ids):
        """Per front-end job: its daemon spans and its fleet's spans."""
        by_trace = {}
        for span in harness.load_spans(trace_dir):
            by_trace.setdefault(span["trace"], []).append(span)
        roots = {}
        for spans in by_trace.values():
            for span in spans:
                if span["kind"] == "job":
                    roots[int(span["name"].split()[1])] = (span, spans)
        extras = []
        for wall, ok, job in zip(run.walls, run.oks, job_ids):
            if not ok:
                continue
            try:
                root, spans = roots[job]
                extra = {"client_ms": wall * 1e3,
                         "job_ms": harness.span_ms(root)}
                for kind in ("queued", "running", "merging"):
                    extra[kind + "_ms"] = sum(harness.span_ms(s)
                                              for s in spans
                                              if s["kind"] == kind)
                extra.update(harness.fleet_summary(spans))
                extra["dup"] = harness.count_records(
                    os.path.join(state, "job-%d" % job)) - self.points
                extras.append(extra)
            except (ValueError, KeyError) as error:
                self.failures.append("daemon job %s: trace: %s" % (job, error))
        return extras

    # -- layer probe -------------------------------------------------------

    def run_probe(self, args, what):
        """One sbn_layerprobe run; its JSON line."""
        out = self.fresh("probe")
        code, _, _ = harness.run(
            [self.probe] + args + ["--reference=" + self.reference_path], out,
            harness.clean_env(self.tmp))
        if code != 0:
            raise RuntimeError("sbn_layerprobe --mode=%s exited %d"
                               % (what, code))
        result = json.loads(harness.read(out))
        self.verdict("%d probe stream(s) differ from the serial reference"
                     % result["failed"] if result["failed"] else "",
                     what + " probe")
        return result

    # -- the two kinds of run ------------------------------------------------

    def measure(self, seconds, pattern):
        """Closed-loop jobs through this workload's front end."""
        if self.daemon:
            return self.daemon_jobs(pattern, seconds=seconds,
                                    probe_jobs=PROBE_JOBS)
        return self.cli_jobs(seconds, pattern)

    def end_to_end(self, seconds):
        self.setups = []
        run = self.measure(seconds, [False])[False]
        setup = self.setups
        while len(setup) < SETUP_REPS:
            setup.append(self.setup_sample())
        # A failed job counts as missing any latency limit.
        worst = max(run.walls)
        latency = sorted(w if ok else worst
                         for w, ok in zip(run.walls, run.oks))
        p90 = (statistics.quantiles(latency, n=10)[8] if len(latency) > 1
               else latency[0])
        values = {
            "points_per_s": self.points / statistics.median(latency),
            "job_p50_ms": 1e3 * statistics.median(latency),
            "job_p90_ms": 1e3 * p90,
            "setup_s": statistics.median(setup),
            "cpu_s": run.usage.cpu_s / len(run.walls),
            "peak_rss_mb": run.usage.maxrss_kb / 1024,
        }
        notes = {
            "points_per_s": "%d point(s) per job / median wall of %d job(s)"
                            % (self.points, len(latency)),
            "job_p50_ms": "median of %d job(s)" % len(latency),
            "job_p90_ms": "%d job(s), %d beyond p90"
                          % (len(latency), sum(x > p90 for x in latency)),
            "setup_s": "median of %d set-up(s)" % len(setup),
            "cpu_s": "user+sys of every process, reaped descendants "
                     "included, / %d job(s)" % len(run.walls),
            "peak_rss_mb": "largest resident set of any process",
        }
        return [(name, unit, values[name], notes[name])
                for name, unit in END_TO_END]

    def service_session(self):
        """The workload's own spec as traced daemon jobs."""
        return self.daemon_jobs([True], jobs=SERVICE_JOBS,
                                probe_jobs=SERVICE_JOBS)[True]

    def per_layer(self, seconds):
        # Untraced and traced jobs alternate, so drift on the host
        # lands on both sides of trace.overhead_frac.
        runs = self.measure(seconds, [False, True])
        untraced, traced = runs[False], runs[True]
        if not traced.extras:
            raise RuntimeError("no traced job succeeded")
        local = self.run_probe(
            ["--mode=local", "--spec=" + " ".join(self.spec),
             "--threads=%d" % THREADS, "--dir=" + self.fresh("probe-shards")],
            "local")
        service = traced if self.daemon else self.service_session()
        fleets = traced.extras if self.spawn else service.extras
        if not fleets:
            raise RuntimeError("no traced fleet succeeded")
        probe = service.probe
        jobs = service.extras

        def fleet_mean(key):
            return mean([f[key] for f in fleets])

        cycles = local["cycles"]
        v = {
            "core.kernel_s": local["kernel_s"],
            "core.sim_cycles_per_s": cycles / local["kernel_s"],
            "core.heap_events_per_cycle": local["heap_events"] / cycles,
            "core.think_draws_per_cycle": local["think_draws"] / cycles,
            "core.latency_on_cost": local["latency_on_cost"],
            "exec.busy_frac": local["exec_busy_frac"],
            "shard.format_us": local["format_us"],
            "shard.parse_us": local["parse_us"],
            "shard.record_bytes": local["record_bytes"],
            "shard.merge_s": local["merge_s"],
            "shard.attempt_overhead_ms": mean(
                [o for f in fleets for o in f["attempt_overheads_ms"]]),
            "shard.dup_frac": sum(f["dup"] for f in fleets)
                              / (self.points * len(fleets)),
            "shard.supervise_s": fleet_mean("supervise_ms") / 1e3,
            "service.submit_ms": probe["submit_ms"],
            "service.status_ms": probe["status_ms"],
            "service.results_ms": probe["results_ms"],
            "service.results_bytes": probe["results_bytes"],
            "service.queued_ms": mean([j["queued_ms"] for j in jobs]),
            "service.running_ms": mean([j["running_ms"] for j in jobs]),
            "service.merging_ms": mean([j["merging_ms"] for j in jobs]),
            "service.fsyncs_per_job": service.metrics["journal_fsyncs"]
                                      / service.metrics["jobs_total"],
            "service.unaccounted_ms": mean([j["client_ms"] - j["job_ms"]
                                            for j in jobs]),
            "trace.overhead_frac": mean(traced.walls) / mean(untraced.walls)
                                   - 1,
        }
        # Layer self-times on the blocking path of one traced job.
        format_s = self.points * local["format_us"] / 1e6
        if self.daemon:
            covered = (mean([j["job_ms"] for j in jobs])
                       + probe["submit_ms"] + probe["results_ms"]) / 1e3
            wall = mean([j["client_ms"] for j in jobs]) / 1e3
        elif self.spawn:
            covered = (fleet_mean("supervise_ms")
                       + fleet_mean("merge_ms")) / 1e3 + format_s
            wall = mean(traced.walls)
        else:
            setup_s = statistics.median(self.setup_sample()
                                        for _ in range(5))
            covered = (setup_s + mean([e["sim_run_s"] for e in traced.extras])
                       / THREADS + format_s)
            wall = mean(traced.walls)
        v["bench.unaccounted_frac"] = 1 - covered / wall

        calls = "%d probe job(s), %d status call(s)" % (probe["jobs"],
                                                       probe["status_calls"])
        cross = {
            "service.submit_ms": calls,
            "service.status_ms": calls,
            "service.results_ms": calls,
            "shard.merge_s": "telemetry tmr.shard.merge %.6f s"
                             % local["merge_tmr_s"],
            "shard.dup_frac": "over %d fleet(s)" % len(fleets),
            "service.fsyncs_per_job": "%d fsyncs / %d jobs"
                                      % (service.metrics["journal_fsyncs"],
                                         service.metrics["jobs_total"]),
            "service.results_bytes": "daemon served %.1f bytes/job"
                                     % (service.metrics["results_bytes_served"]
                                        / service.metrics["jobs_total"]),
            "service.unaccounted_ms": "client wall - daemon job span, "
                                      "%d job(s)" % len(jobs),
            "trace.overhead_frac": "%d traced vs %d untraced job(s)"
                                   % (len(traced.walls), len(untraced.walls)),
            "bench.unaccounted_frac": "1 - %.4f s covered / %.4f s wall"
                                      % (covered, wall),
        }
        if self.spawn:
            cross["shard.dup_frac"] += ", record files agree: %s" % all(
                f["dup"] == f["dup_files"] for f in fleets)
        return [(name, unit, v[name], cross.get(name, ""))
                for name, unit in PER_LAYER]


def run_workload(workload, args, build_dir):
    """One workload's run: its text report on stdout, then
    (correct, attempted, failed, metric rows)."""
    runs = os.path.join(ROOT, ".bench_run")
    work = os.path.join(runs, "%s-%d" % (workload, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        bench = Bench(workload, args.seed, build_dir, work)
        rows = (bench.per_layer(args.seconds) if args.trace
                else bench.end_to_end(args.seconds))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not os.listdir(runs):
            os.rmdir(runs)

    failed = len(bench.failures)
    print("%s seed=%d trace=%d: %d operation(s), %d failed (failed_frac %g)"
          % (workload, args.seed, args.trace, bench.attempted, failed,
             failed / bench.attempted))
    for failure in bench.failures:
        print("  FAILED " + failure)
    for name, unit, value, note in rows:
        print("  %-28s %14.6g %-12s %s" % (name, value, unit, note))
    return not failed, bench.attempted, failed, rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"],
                        help="one workload, or all of them in turn (metric "
                             "names then carry a '<workload>.' prefix)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    # A terminated run still unwinds: every finally block kills and
    # reaps the processes it started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    build_dir = build()
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        correct, attempted, failed, rows = run_workload(workload, args,
                                                        build_dir)
        result["correct"] = result["correct"] and correct
        result["attempted"] += attempted
        result["failed"] += failed
        prefix = workload + "." if len(workloads) > 1 else ""
        for name, unit, value, _ in rows:
            result["metrics"][prefix + name] = {"value": value, "unit": unit}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
