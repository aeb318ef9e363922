"""Process, daemon and trace plumbing of the sweep benchmark.

Every program process is started in its own session and reaped with
``os.wait4``, so its CPU time and peak RSS (its own plus every
descendant it reaped) are read exactly, and a timeout can kill the
whole process group it leads.
"""

import glob
import json
import os
import signal
import socket
import subprocess
import threading
import time

# Variables that change what the program does or where it writes.
# Untraced runs never see them; traced runs set SBN_TRACE_DIR only.
SCRUBBED_ENV = ("SBN_THREADS", "SBN_FAULT", "SBN_FAULT_ATTEMPT",
                "SBN_CACHE_DIR", "SBN_CACHE_MAX_BYTES", "SBN_TRACE_DIR",
                "SBN_TRACE_CTX")

JOB_TIMEOUT_S = 120


def clean_env(tmpdir, trace_dir=None):
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env["TMPDIR"] = tmpdir
    if trace_dir is not None:
        env["SBN_TRACE_DIR"] = trace_dir
    return env


class Usage:
    """CPU seconds and peak RSS summed over reaped process trees."""

    def __init__(self):
        self.cpu_s = 0.0
        self.maxrss_kb = 0

    def add(self, rusage):
        self.cpu_s += rusage.ru_utime + rusage.ru_stime
        self.maxrss_kb = max(self.maxrss_kb, rusage.ru_maxrss)


def _kill_group(pid):
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _reap(proc, timeout):
    """wait4 on ``proc``; past ``timeout`` its process group is killed."""
    timer = threading.Timer(timeout, _kill_group, (proc.pid,))
    timer.start()
    try:
        _, status, rusage = os.wait4(proc.pid, 0)
    except BaseException:
        # Interrupted (SIGTERM, Ctrl-C): leave no process behind.
        _kill_group(proc.pid)
        os.wait4(proc.pid, 0)
        raise
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    # Descendants a killed leader never reaped must not outlive the run.
    if proc.returncode < 0:
        _kill_group(proc.pid)
    return proc.returncode, rusage


def run(argv, out_path, env, timeout=JOB_TIMEOUT_S):
    """Run one program process to completion, stdout to ``out_path``
    and stderr to ``out_path + '.err'``.

    Returns (exit code, wall seconds from launch to reap, rusage).
    """
    start = time.perf_counter()
    with open(out_path, "wb") as out, open(out_path + ".err", "wb") as err:
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env,
                                start_new_session=True)
    code, rusage = _reap(proc, timeout)
    return code, time.perf_counter() - start, rusage


def read(path):
    with open(path, "rb") as f:
        return f.read()


class Daemon:
    """One sbn_sweepd on a fresh state directory."""

    def __init__(self, exe, state_dir, env, log_path):
        self.state_dir = state_dir
        self.launched = time.perf_counter()
        with open(log_path, "ab") as log:
            self.proc = subprocess.Popen(
                [exe, "--state=" + state_dir], stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=log, env=env,
                start_new_session=True)
        self.port = None

    def wait_ready(self, timeout=30.0):
        """Seconds from launch until the daemon answers ``status``."""
        port_path = os.path.join(self.state_dir, "port")
        deadline = self.launched + timeout
        while time.perf_counter() < deadline:
            try:
                with open(port_path) as f:
                    self.port = int(f.read())
                reply = self.request({"cmd": "status"})
                if reply.get("ok"):
                    return time.perf_counter() - self.launched
            except (OSError, ValueError):
                pass
            time.sleep(0.0002)
        raise RuntimeError("sbn_sweepd did not answer status within %gs"
                           % timeout)

    def request(self, obj):
        """One request line over a fresh connection; the reply object."""
        with socket.create_connection(("127.0.0.1", self.port),
                                      timeout=30) as conn:
            conn.sendall(json.dumps(obj, separators=(",", ":")).encode()
                         + b"\n")
            with conn.makefile("rb") as reply:
                return json.loads(reply.readline())

    def drain(self, timeout=60):
        """Drain, then reap the daemon and everything it ran."""
        reply = self.request({"cmd": "drain"})
        if not reply.get("ok"):
            raise RuntimeError("drain refused: %r" % reply)
        code, rusage = _reap(self.proc, timeout)
        if code != 0:
            raise RuntimeError("sbn_sweepd exited %d after drain" % code)
        return rusage

    def kill(self):
        if self.proc.returncode is None:
            _kill_group(self.proc.pid)
            _reap(self.proc, 10)


def load_spans(trace_dir):
    """Every sbn.trace.v1 span under ``trace_dir``."""
    spans = []
    for path in sorted(glob.glob(os.path.join(trace_dir, "trace-*.jsonl"))):
        with open(path) as f:
            for line in f:
                span = json.loads(line)
                if span.get("type") != "sbn.trace.v1":
                    raise ValueError("%s: not an sbn.trace.v1 line" % path)
                spans.append(span)
    return spans


def span_ms(span):
    return (span["end_us"] - span["start_us"]) / 1e3


def fleet_summary(spans):
    """Shard-layer timings of ONE supervised fleet's spans.

    attempt overhead = each attempt span minus its worker's own
    shard_run/steal_run child: fork, exit and reap lag.
    """
    runs = {}
    for s in spans:
        if s["kind"] in ("shard_run", "steal_run"):
            runs.setdefault(s["parent"], []).append(span_ms(s))
    overheads = [span_ms(a) - sum(runs[a["span"]])
                 for a in spans
                 if a["kind"] == "attempt" and a["span"] in runs]
    supervise = [span_ms(s) for s in spans if s["kind"] == "supervise"]
    merge = [span_ms(s) for s in spans if s["kind"] == "merge"]
    if len(supervise) != 1 or len(merge) != 1 or not overheads:
        raise ValueError("fleet trace lacks supervise/merge/attempt spans")
    return {"supervise_ms": supervise[0], "merge_ms": merge[0],
            "attempt_overheads_ms": overheads}


def count_records(job_dir):
    """Record lines the fleet's workers wrote (shard and steal files)."""
    total = 0
    for name in os.listdir(job_dir):
        if name.startswith(("shard-", "steal-")) and name.endswith(".jsonl"):
            with open(os.path.join(job_dir, name), "rb") as f:
                total += sum(1 for _ in f)
    return total
