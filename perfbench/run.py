"""Benchmark of frcodes: time to answer, repair throughput and memory.

    python3 perfbench/run.py --workload soak56 --seed 1 --seconds 15 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src`` directory.  Each workload runs in fresh
single-threaded worker processes (``worker.py``), one at a time, so load
comes from one process only.  Workloads (the reasons are also in
BENCHMARK.json):

- ``soak56``: ``frcodes simulate`` on the 56-state partition code, strict
  mode, 500 events per process: newcomer cache, ``find_repair_witness``,
  ``Subspace.__add__`` and ``collect`` over every spanning k-subset.
- ``soak_family``: the library calls ``family_state_space(3, 1, 2)``,
  ``verify``, ``dss_init``, ``run_random``, 300 events per process:
  membership by the ``is_good`` predicate, new states keep appearing.
- ``search56``: ``frcodes search`` on the 56-state seed with group cap
  5000 and orbit cap 500: group closures and orbit verification.
- ``maxcheck``: ``frcodes partition --max-check``: the exhaustive
  maximality search of ``partition_code``.

With ``--trace 0`` the run starts worker processes that stop at the entry
of the main phase (set-up samples), then full worker processes while the
next one is expected to end within ``--seconds``, always at least one.
Every time is scaled to the reference speed of ``speed.py``: the machine
speed is sampled by fixed work all through set-up and the main phase,
because on a shared virtual machine it drifts by up to a factor of two
within seconds, which raw times would report as a change of the
program.  It prints, per workload and with units:

- ``wall_s``: median time to answer of the main phase, at reference
  speed.
- ``events_per_s``: median completed events per second of the main
  phase, at reference speed; an event is one fail/repair/recover cycle
  of a soak workload and one whole answer of ``search56`` and
  ``maxcheck``.
- ``setup_s``: median time from the worker's first statement to the entry
  of the main phase (imports, parsing, verification, ``dss_init``), at
  reference speed.  The sources are compiled to bytecode before the first
  worker starts.
- ``peak_rss_mb``: median peak resident memory of a full worker.
- ``error_rate``: failed operations over attempted ones (an event of a
  soak workload, a whole run otherwise).  It is 0 when the program is
  correct, so it is printed and carried by ``attempted``/``failed`` of
  the result line, not reported as a metric.

With ``--trace 1`` it runs one untraced and one traced worker on the same
inputs, checks that both gave the same output digest, and reports the
per-layer metrics of ``tracer.py`` plus ``trace_overhead_ratio``, the
traced time to answer over the untraced one (raw times: the traced
worker runs no speed probe, whose passes would count as layer time).
The traced worker is traced from its imports to its answer, so set-up
work (parsing, verification) counts too.  A layer a workload does not use reports 0.

Every worker's output is checked against the known answer.  The last line
of standard output is the JSON result: ``correct``, ``attempted``,
``failed`` and ``metrics``.  A line starting with ``# env`` before it
records the git sha, Python version, processor count and load average.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("soak56", "soak_family", "search56", "maxcheck")
# Workloads that read the files of inputs.py.
USES_DATA = ("soak56", "search56")
# Set-up samples: at least SETUP_SAMPLES workers that stop at the entry of
# the main phase, more while they took less than SETUP_BUDGET_S together.
SETUP_SAMPLES = 5
SETUP_BUDGET_S = 3.0
# Stop starting workers this long after the run began; the run must end
# within 180 s even when a worker is slow.
DEADLINE_S = 170.0
END_TO_END_UNITS = {"wall_s": "s", "events_per_s": "1/s", "setup_s": "s",
                    "peak_rss_mb": "MB"}


def environment(args) -> dict:
    """Where and when this result was measured."""
    sha = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=30,
                                 check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = None
    return {"git_sha": sha, "python": platform.python_version(),
            "nproc": os.cpu_count(), "loadavg": list(os.getloadavg()),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


def run_worker(workload: str, seed: int, index: int, mode: str, trace: int,
               deadline: float) -> Optional[dict]:
    """Result line of one worker process, or None when it failed to give one."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--index", str(index), "--mode", mode,
           "--trace", str(trace)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"worker {workload}/{index} timed out", file=sys.stderr)
        return None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"worker {workload}/{index} exited {proc.returncode}: {err[-2000:]}",
              file=sys.stderr)
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print(f"worker {workload}/{index} gave no result line", file=sys.stderr)
        return None
    if result["error"]:
        print(f"worker {workload}/{index}: {result['error']}", file=sys.stderr)
    return result


class Tally:
    """Operations attempted and failed over the workers of one run."""

    def __init__(self, workload: str):
        from worker import STEPS

        self.per_worker = STEPS.get(workload, 1)
        self.attempted = 0
        self.failed = 0

    def add(self, result: Optional[dict]) -> None:
        if result is None:
            self.attempted += self.per_worker
            self.failed += self.per_worker
        else:
            self.attempted += result["attempted"]
            self.failed += result["failed"]


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def measure(args, deadline: float, tally: Tally) -> dict[str, float]:
    """End-to-end metrics of the workload, untraced."""
    setups: list[float] = []
    index = 0
    started = time.monotonic()
    while index < SETUP_SAMPLES or time.monotonic() - started < SETUP_BUDGET_S:
        result = run_worker(args.workload, args.seed, index, "setup", 0, deadline)
        index += 1
        tally.add(result)
        if result is not None and result["entered"]:
            setups.append(result["setup_s"])
    walls: list[float] = []
    rates: list[float] = []
    rss: list[float] = []
    speeds: list[float] = []
    index = 0
    started = time.monotonic()
    last = 0.0
    while index == 0 or (time.monotonic() - started + last <= args.seconds
                         and time.monotonic() + last < deadline):
        before = time.monotonic()
        result = run_worker(args.workload, args.seed, index, "full", 0, deadline)
        last = time.monotonic() - before
        index += 1
        tally.add(result)
        if result is None or not result["entered"]:
            continue
        setups.append(result["setup_s"])
        walls.append(result["wall_s"])
        rss.append(result["peak_rss_mb"])
        if result["wall_raw_s"] > 0:
            speeds.append(result["wall_s"] / result["wall_raw_s"])
        completed = result["attempted"] - result["failed"]
        rates.append(completed / result["wall_s"] if result["wall_s"] > 0 else 0.0)
    if speeds:
        print(f"# speed relative to the reference: median {_median(speeds):.3f}, "
              f"min {min(speeds):.3f}, max {max(speeds):.3f} over {len(speeds)} workers")
    return {
        "wall_s": _median(walls),
        "events_per_s": _median(rates),
        "setup_s": _median(setups),
        "peak_rss_mb": _median(rss),
    }


def trace(args, deadline: float, tally: Tally) -> tuple[dict[str, float], bool]:
    """Per-layer metrics, and whether traced and untraced outputs agree."""
    from tracer import PER_LAYER_UNITS

    plain = run_worker(args.workload, args.seed, 0, "full", 0, deadline)
    traced = run_worker(args.workload, args.seed, 0, "full", 1, deadline)
    tally.add(plain)
    tally.add(traced)
    metrics = {name: 0.0 for name in PER_LAYER_UNITS}
    if plain is None or traced is None:
        return metrics, False
    metrics.update(traced["per_layer"])
    if plain["wall_raw_s"] > 0:
        metrics["trace_overhead_ratio"] = traced["wall_raw_s"] / plain["wall_raw_s"]
    same = bool(plain["digest"]) and plain["digest"] == traced["digest"]
    if not same:
        print("traced and untraced runs gave different outputs", file=sys.stderr)
    return metrics, same


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "frcodes", "__init__.py")):
        print(f"no frcodes sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    print("# env " + json.dumps(environment(args)), flush=True)
    # Compile once, as installing a package does, so that workers import
    # bytecode and setup_s measures the program's set-up, not the compiler.
    compileall.compile_dir(os.path.join(SRC, "frcodes"), quiet=2)
    compileall.compile_dir(HERE, maxlevels=0, quiet=2)

    sys.path.insert(0, SRC)
    import inputs

    try:
        stale = inputs.check() if args.workload in USES_DATA else []
    except Exception as err:  # a broken construction fails the run, not the benchmark
        stale = [f"all ({type(err).__name__}: {err})"]
    for name in stale:
        print(f"input file {name} differs from a fresh render", file=sys.stderr)
    tally = Tally(args.workload)
    if args.trace:
        from tracer import PER_LAYER_UNITS as units

        metrics, same = trace(args, deadline, tally)
    else:
        units = END_TO_END_UNITS
        metrics = measure(args, deadline, tally)
        same = True
    for name, value in metrics.items():
        print(f"{args.workload} {name} {value!r} {units[name]}")
    error_rate = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"{args.workload} error_rate {error_rate!r} ratio")
    result = {
        "correct": tally.failed == 0 and tally.attempted > 0 and not stale and same,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
