"""Run one workload once, in this fresh process, and print one JSON line.

    python3 perfbench/worker.py --workload soak56 --seed 1 --index 0 \
        --mode full --trace 0

The line holds ``setup_raw_s`` (from the first statement of this file to
the entry of the workload's main phase), ``wall_raw_s`` (from that entry
to the answer), the same two times scaled to the reference speed of
``speed.py`` (``setup_s``, ``wall_s``), ``peak_rss_mb``, the operations
attempted and failed, a digest of the program's output and, with
``--trace 1``, the per-layer metrics.  ``--mode setup`` stops at the
entry of the main phase.

Untraced, a ``speed.Probe`` times its passes during and at the end of
set-up (the scale of ``setup_s``) and during and at both ends of the main
phase (the scale of ``wall_s``); the time of the passes is counted in
neither.  Traced, there is no probe, since its passes would count as
self time of the traced layers; the times are raw.

The program sees only the inputs made here from ``--seed`` and
``--index``: the data vector and simulation seed of the soak workloads.
The search and maximality workloads have fixed inputs, the paper's
56-state instance.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402

from speed import Probe  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DATA = HERE / "data"

# Events per process.  soak56 spends its first 56 events filling the
# newcomer cache; soak_family keeps meeting new states throughout.
STEPS = {"soak56": 500, "soak_family": 300}
# Every repair of either code downloads r * beta = 3 symbols.
DOWNLOADS_PER_EVENT = 3
SEARCH_ARGS = ["--group-cap", "5000", "--orbit-cap", "500"]
# The main phase of each workload starts at the entry of this function.
MAIN_PHASE = {
    "soak56": ("frcodes.simulator", "run_random"),
    "soak_family": ("frcodes.simulator", "run_random"),
    "search56": ("frcodes.groupsearch", "symmetry_search"),
    "maxcheck": ("frcodes.partition_code", "max_collection_size"),
}


class SetupDone(BaseException):
    """Raised at the entry of the main phase in setup mode.

    A BaseException, so that neither the program's handlers nor the
    workload's error accounting catch it.
    """


@dataclass
class Outcome:
    """What one workload execution did, as checked against the known answer."""

    attempted: int
    failed: int
    digest: str
    error: str = ""


def soak_inputs(workload: str, seed: int, index: int) -> tuple[str, int]:
    """Data vector (as digits) and simulation seed for one soak process."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    data = "".join(str(rng.randrange(2)) for _ in range(5))
    return data, rng.randrange(2**31)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Exit code and standard output of one frcodes command, in process."""
    from frcodes import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _last_json(text: str) -> dict:
    lines = text.strip().splitlines()
    try:
        value = json.loads(lines[-1]) if lines else {}
    except json.JSONDecodeError:
        return {}
    return value if isinstance(value, dict) else {}


def simulate_cli(path: str, data: str, steps: int, seed: int) -> Outcome:
    """`frcodes simulate`: integrity ok and 3 downloads per event.

    The text report is used rather than --json because its event log makes
    the digest depend on the whole run.
    """
    code, out = run_cli(["simulate", path, "--data", data, "--steps", str(steps),
                         "--seed", str(seed)])
    lines = out.splitlines()
    ok = (code == 0 and "integrity: ok" in lines
          and f"downloads: {DOWNLOADS_PER_EVENT * steps} symbols" in lines)
    return Outcome(steps, 0 if ok else steps, _digest(out),
                   "" if ok else f"simulate exit {code}: {out[-300:]!r}")


def simulate_family(data: str, steps: int, seed: int) -> Outcome:
    """The library calls that soak the (3, 1) family code over GF(2)."""
    from frcodes import family, simulator

    code = family.family_state_space(3, 1, 2)
    code.verify()
    state = simulator.dss_init(code, tuple(int(c) for c in data), seed=seed)
    report = simulator.run_random(state, steps)
    ok = (report.verdict == "ok"
          and report.downloads == DOWNLOADS_PER_EVENT * steps)
    return Outcome(steps, 0 if ok else steps, _digest(report.render()),
                   "" if ok else f"run verdict {report.verdict}, "
                                 f"downloads {report.downloads}")


def search_cli(path: str) -> Outcome:
    """`frcodes search --json`: group order 168 and orbit size 56."""
    code, out = run_cli(["search", path, *SEARCH_ARGS, "--json"])
    report = _last_json(out)
    ok = (code == 0 and report.get("group_order") == 168
          and report.get("orbit_size") == 56)
    return Outcome(1, 0 if ok else 1, _digest(out),
                   "" if ok else f"search exit {code}: {out[-300:]!r}")


def partition_cli() -> Outcome:
    """`frcodes partition --max-check`: 56 states and maximum size 8."""
    code, out = run_cli(["partition", "--max-check"])
    lines = out.splitlines()
    ok = (code == 0 and any(line.startswith("56 states verified") for line in lines)
          and "maximum collection size: 8" in lines)
    return Outcome(1, 0 if ok else 1, _digest(out),
                   "" if ok else f"partition exit {code}: {out[-300:]!r}")


def run_workload(workload: str, seed: int, index: int) -> Outcome:
    if workload == "soak56":
        data, sim_seed = soak_inputs(workload, seed, index)
        return simulate_cli(str(DATA / "code56.fsc"), data, STEPS[workload], sim_seed)
    if workload == "soak_family":
        data, sim_seed = soak_inputs(workload, seed, index)
        return simulate_family(data, STEPS[workload], sim_seed)
    if workload == "search56":
        return search_cli(str(DATA / "seed56.fsc"))
    if workload == "maxcheck":
        return partition_cli()
    raise ValueError(f"unknown workload {workload!r}")


def import_frcodes() -> None:
    """Import every frcodes module from this checkout's src directory."""
    sys.path.insert(0, str(SRC))
    import frcodes
    for name in ("gf", "subspace", "storage", "family", "groupsearch",
                 "partition_code", "simulator", "fsc", "cli"):
        __import__(f"frcodes.{name}")
    location = pathlib.Path(frcodes.__file__).resolve()
    if SRC not in location.parents:
        raise ImportError(f"frcodes imported from {location}, not from {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(MAIN_PHASE))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--index", type=int, default=0)
    parser.add_argument("--mode", choices=("setup", "full"), default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    probe = None if args.trace else Probe()
    if probe is not None:
        probe.start()

    import_frcodes()
    from tracer import Bindings, Tracer

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    # Raw set-up time and its speed factor, and the clock at the start of
    # the main phase.
    marks: dict[str, float] = {}

    def mark_entry(fn):
        def entry(*a, **kw):
            if probe is not None:
                probe.stop()
            setup_end = time.perf_counter()
            factor, in_handler = probe.end_phase() if probe is not None else (1.0, 0.0)
            marks["setup_raw"] = setup_end - _START - in_handler
            marks["setup_factor"] = factor
            if args.mode == "setup":
                raise SetupDone
            if probe is not None:
                probe.start()
            marks["main_start"] = time.perf_counter()
            return fn(*a, **kw)
        return entry

    hook = Bindings()
    module, attribute = MAIN_PHASE[args.workload]
    hook.replace(sys.modules[module], attribute, mark_entry)
    try:
        outcome = run_workload(args.workload, args.seed, args.index)
    except SetupDone:
        outcome = Outcome(0, 0, "")
    except Exception as err:  # a crash of the program is a failed operation
        attempted = STEPS.get(args.workload, 1)
        outcome = Outcome(attempted, attempted, "", f"{type(err).__name__}: {err}")
    if probe is not None:
        probe.stop()
    done = time.perf_counter()
    wall_raw = done - marks["main_start"] if "main_start" in marks else 0.0
    wall_factor = 1.0
    if probe is not None and "main_start" in marks:
        wall_factor, in_handler = probe.end_phase()
        wall_raw -= in_handler
    hook.restore()
    if tracer is not None:
        tracer.restore()
    setup_raw = marks.get("setup_raw", 0.0)
    result = {
        "setup_raw_s": setup_raw,
        "wall_raw_s": wall_raw,
        "setup_s": setup_raw * marks.get("setup_factor", 1.0),
        "wall_s": wall_raw * wall_factor,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "entered": "setup_raw" in marks,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "digest": outcome.digest,
        "error": outcome.error,
    }
    if tracer is not None:
        result["per_layer"] = tracer.metrics()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
