"""Benchmark of the ``python -m epsbialg`` command line.

Usage, from any directory:

    python3 bench/run.py --workload matrix-laws --seed 1 --seconds 40 --trace 0

With ``--trace 0`` one client drives the real CLI as subprocesses in a closed
loop: each call starts after the previous one has exited, never two at once.
It repeats the workload's session while the next one is expected to end
within ``--seconds``, checks every call against its expected result, and
prints the end-to-end metrics.  Set-up time is measured separately, in fresh
interpreters that only import the package and construct the algebras.

Times are adjusted for the speed of the machine.  Where CPUs are shared with
other tenants, the speed of pure-Python code drifts by tens of per cent
within a minute.  While a child runs, a probe thread times a fixed pass of
rational arithmetic every 10 ms on the other CPU (about 1.5% of one CPU); each time
of that child is scaled by ``REFERENCE_PROBE_S`` / (mean pass time over its
lifetime).  A reported second is thus a second at the reference probe speed.
The probe assumes the program runs on one CPU, as it does.  The unscaled
medians of the same times are printed in the ``meta`` line (``unscaled``).

With ``--trace 1`` one session first runs as subprocesses without speed
scaling; its times are the ``raw.*`` metrics, the program's own times against
which a gain on the scaled metrics can be checked.  Then the same calls run in
this process, once plain and once under the layer tracer (``tracer.py``), and
the per-layer metrics are printed together with the tracing overhead.  The two
passes must give identical stdout and exit codes, and every wrapped function
must be restored.  A traced run does exactly this, whatever ``--seconds`` says.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A fuller record (metadata, every
session, failures) goes to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from workloads import WORKLOADS, check

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
ENV = dict(os.environ, PYTHONPATH=str(SRC))
SETUPS_PER_SESSION = 3
CALL_TIMEOUT_S = 150

# Runs in a fresh interpreter: import the package and construct every algebra
# the workload uses, without running any check.
SETUP_CODE = """\
import json, sys, time
t0 = time.perf_counter()
from epsbialg.cli import build_algebra
for selector, weight in json.loads(sys.argv[1]):
    build_algebra(selector, weight)
print(repr(time.perf_counter() - t0))
"""


PROBE_PERIOD_S = 0.01
REFERENCE_PROBE_S = 1.5e-4


def _probe_pass():
    """Exact rational sums in a dict, the kind of work the program itself does."""
    sums = {}
    for i in range(60):
        key = (i % 7, i % 5)
        sums[key] = sums.get(key, 0) + Fraction(i % 7 + 1, i % 5 + 1)
    return sums


class SpeedProbe:
    """Background thread timing ``_probe_pass`` every ``PROBE_PERIOD_S``."""

    def __init__(self):
        self.samples = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _sample(self):
        t0 = time.perf_counter()
        _probe_pass()
        self.samples.append(time.perf_counter() - t0)

    def _run(self):
        while not self._stop.wait(PROBE_PERIOD_S):
            self._sample()

    def __enter__(self):
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def scale(self, since):
        """Reference over mean pass time since sample ``since`` (the last few if none)."""
        window = self.samples[since:] or self.samples[-3:]
        return REFERENCE_PROBE_S / statistics.fmean(window)


@dataclass
class Finished:
    """One reaped child; ``scale`` converts its times to the reference machine speed."""

    code: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    scale: float


def run_child(args, probe=None) -> Finished:
    """Run ``python <args>`` to completion and reap it with ``os.wait4``."""
    since = len(probe.samples) if probe else 0
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *args], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=ENV, cwd=ROOT,
    )
    killer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
    killer.start()
    errors = []
    reader = threading.Thread(target=lambda: errors.append(proc.stderr.read()))
    reader.start()
    try:
        stdout = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
        proc.stdout.close()
        proc.stderr.close()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Finished(
        proc.returncode, stdout, errors[0] if errors else b"", wall,
        usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
        probe.scale(since) if probe else 1.0,
    )


def run_cli(argv, probe=None) -> Finished:
    return run_child(["-m", "epsbialg", *argv], probe)


def setup_once(pairs, probe):
    """(scaled, unscaled) seconds a fresh interpreter spends on import and construction."""
    done = run_child(["-c", SETUP_CODE, json.dumps(pairs)], probe)
    if done.code != 0:
        raise RuntimeError("set-up child failed:\n" + done.stderr.decode(errors="replace"))
    seconds = float(done.stdout.decode().strip().splitlines()[-1])
    return seconds * done.scale, seconds


def _failure(call, code, stdout, stderr):
    return {
        "argv": list(call.argv),
        "exit_code": code,
        "stdout_head": stdout[:400].decode(errors="replace"),
        "stderr_tail": stderr[-400:].decode(errors="replace"),
    }


def run_session(calls, probe, pairs, setups):
    """All calls of one session, one after another; scaled timings and checked results.

    ``SETUPS_PER_SESSION`` set-up measurements are spread between the calls and
    appended to ``setups``, so that they sample the machine as the calls do.
    """
    due = Counter(j * len(calls) // SETUPS_PER_SESSION for j in range(SETUPS_PER_SESSION))
    latencies, raw_latencies, failures = [], [], []
    cpu = raw_cpu = checks = 0.0
    maxrss = 0
    for i, call in enumerate(calls):
        setups.extend(setup_once(pairs, probe) for _ in range(due[i]))
        done = run_cli(call.argv, probe)
        ok, n = check(call, done.code, done.stdout)
        if not ok:
            failures.append(_failure(call, done.code, done.stdout, done.stderr))
        latencies.append(done.wall_s * done.scale)
        raw_latencies.append(done.wall_s)
        cpu += done.cpu_s * done.scale
        raw_cpu += done.cpu_s
        checks += n
        maxrss = max(maxrss, done.maxrss_kb)
    return {
        "wall_s": sum(latencies), "cpu_s": cpu, "raw_wall_s": sum(raw_latencies),
        "raw_cpu_s": raw_cpu, "checks": checks, "maxrss_kb": maxrss,
        "latencies_s": latencies, "raw_latencies_s": raw_latencies, "failures": failures,
    }


def unscaled_medians(sessions, setups):
    """Medians of the times as measured, without speed scaling."""
    return {
        "setup_s": statistics.median(raw for _, raw in setups),
        "wall_s": statistics.median(s["raw_wall_s"] for s in sessions),
        "cpu_s": statistics.median(s["raw_cpu_s"] for s in sessions),
        "call_p50_ms": statistics.median(t for s in sessions for t in s["raw_latencies_s"]) * 1000,
    }


def timed_run(workload, seconds):
    pairs = workload.setup_selectors()
    setups, sessions = [], []
    with SpeedProbe() as probe:
        setup_once(pairs, probe)  # warm-up: writes the byte-code cache, as any earlier use would
        start = time.perf_counter()
        while True:
            sessions.append(run_session(workload.calls, probe, pairs, setups))
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(sessions) > seconds:
                break
    latencies = [t for s in sessions for t in s["latencies_s"]]
    p90 = statistics.quantiles(latencies, n=10, method="inclusive")[-1] if len(latencies) > 1 else latencies[0]
    metrics = {
        "setup_s": (statistics.median(scaled for scaled, _ in setups), "s"),
        "wall_s": (statistics.median(s["wall_s"] for s in sessions), "s"),
        "cpu_s": (statistics.median(s["cpu_s"] for s in sessions), "s"),
        "checks_per_s": (statistics.median(s["checks"] / s["wall_s"] for s in sessions), "1/s"),
        "call_p50_ms": (statistics.median(latencies) * 1000, "ms"),
        "call_p90_ms": (p90 * 1000, "ms"),
        "peak_rss_mb": (max(s["maxrss_kb"] for s in sessions) / 1024, "MB"),
    }
    failures = [f for s in sessions for f in s["failures"]]
    record = {
        "setup_s_samples": [scaled for scaled, _ in setups],
        "raw_setup_s_samples": [raw for _, raw in setups],
        "probe_samples": len(probe.samples),
        "probe_mean_s": statistics.fmean(probe.samples),
        "sessions": [{k: v for k, v in s.items() if k != "failures"} for s in sessions],
        "checks_per_session": [s["checks"] for s in sessions],
        "unscaled": unscaled_medians(sessions, setups),
    }
    return metrics, len(latencies), failures, record


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------


def in_process_pass(calls):
    """Run each call through ``epsbialg.cli.main`` in this process, capturing output."""
    cli = sys.modules["epsbialg.cli"]
    results = []
    t0 = time.perf_counter()
    for call in calls:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(call.argv))
            except Exception:  # an uncaught error ends the CLI with status 1
                traceback.print_exc()
                code = 1
        results.append((code, out.getvalue().encode(), err.getvalue().encode()))
    return results, time.perf_counter() - t0


def traced_run(workload):
    pairs = workload.setup_selectors()
    setup_once(pairs, None)  # warm-up, as in a timed run
    setups = []
    session = run_session(workload.calls, None, pairs, setups)
    failures = session["failures"]

    sys.path.insert(0, str(SRC))
    import epsbialg.cli  # noqa: F401  (loads every layer module)
    from tracer import Tracer

    plain, plain_s = in_process_pass(workload.calls)
    tracer = Tracer()
    tracer.install()
    try:
        traced, traced_s = in_process_pass(workload.calls)
    finally:
        tracer.uninstall()
    if not tracer.restored():
        failures.append({"error": "a wrapped function was not restored"})
    for call, (code_p, out_p, err_p), (code_t, out_t, err_t) in zip(workload.calls, plain, traced):
        if not check(call, code_p, out_p)[0]:
            failures.append(_failure(call, code_p, out_p, err_p))
        if (code_t, out_t) != (code_p, out_p) or not check(call, code_t, out_t)[0]:
            failures.append(dict(_failure(call, code_t, out_t, err_t), traced=True))
    metrics = tracer.metrics()
    units = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "call_p50_ms": "ms"}
    for name, value in unscaled_medians([session], setups).items():
        metrics[f"raw.{name}"] = (value, units[name])
    metrics["trace.traced_s"] = (traced_s, "s")
    metrics["trace.untraced_s"] = (plain_s, "s")
    metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
    origin = tracer.spans[0][1] if tracer.spans else 0.0
    spans = [[n, s - origin, e - origin, p] for n, s, e, p in tracer.spans]
    record = {"missing_targets": tracer.missing, "spans": spans}
    return metrics, 3 * len(workload.calls), failures, record


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def git_sha():
    """HEAD of the checkout, or None where it is not a git checkout."""
    if not (ROOT / ".git").exists():  # never look above the checkout
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "epsbialg" / "__init__.py").is_file():
        print(f"error: no epsbialg sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    outcome = traced_run(workload) if args.trace else timed_run(workload, args.seconds)
    metrics, attempted, failures, record = outcome
    spans = record.pop("spans", None)
    unscaled = record.pop("unscaled", None)

    meta = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "problem_sizes": workload.sizes,
        "calls_per_session": len(workload.calls),
        "failed_frac": len(failures) / attempted,
    }
    if unscaled is not None:
        meta["unscaled"] = unscaled
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(
        {"meta": meta, "result": result, "failures": failures, **record}, indent=1,
    ))
    if spans is not None:
        (OUT / f"{stem}-spans.json").write_text(json.dumps({"spans": spans}))
    for failure in failures[:5]:
        print("FAILED", json.dumps(failure), file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:14.6f} {unit}")
    print("meta " + json.dumps(meta))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
