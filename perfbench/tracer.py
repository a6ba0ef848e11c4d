"""Per-layer call counts and self times for frcodes, installed from outside.

A :class:`Tracer` wraps public functions and methods of the frcodes
modules.  A module-level function is replaced at every binding, so a name
another module imported with ``from .storage import find_repair_witness``
is wrapped too; a method is replaced on its class.  ``restore`` puts every
original back.

Each wrapped call is a span on one stack.  A span's self time is its
duration minus the time of the wrapped calls it made, and a layer's self
time is the sum over its spans.  Spans are aggregated per name as they
close (calls, total time, self time); only ``simulator.repair`` keeps its
individual durations, for percentiles.  A wrapper costs a few hundred
nanoseconds per call, which inflates the times of layers made of many
cheap calls (``gf``, ``subspace``); ``trace_overhead_ratio`` reports the
total cost.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from typing import Any, Callable, Optional

_clock = time.perf_counter


class Stat:
    """Aggregate of every closed span with one name."""

    __slots__ = ("calls", "returned", "total", "self_time", "yielded",
                 "distinct", "amount", "durations")

    def __init__(self) -> None:
        self.calls = 0
        self.returned = 0
        self.total = 0.0
        self.self_time = 0.0
        self.yielded = 0
        self.distinct = 0
        self.amount = 0
        self.durations: Optional[list[float]] = None


def _candidate_key(item) -> bytes:
    return item[0].key


def _transcript_downloads(transcript) -> int:
    return transcript.total_download


def _report_checks(report) -> int:
    return len(report.checks)


def _group_elements(group) -> int:
    return len(group.elements)


def _text_bytes(args, kwargs) -> int:
    text = args[0] if args else kwargs["text"]
    return len(text.encode("utf-8"))


# (span name, module, attribute, options).  A dotted attribute names a
# method.  Options: gen (wrap a generator function), distinct (key of a
# yielded item; distinct keys are counted per call), amount (adds a
# number taken from the result), arg_amount (adds a number taken from
# the arguments), durations (keep each call's duration), keep (hold the
# result for a summary after the run).  Spans that feed no metric of
# their own (is_recovery_set, run_random, symmetry_search) are
# there so that their time is charged to their own layer, not to the
# self time of the nearest wrapped caller.
SPANS: tuple[tuple[str, str, str, dict], ...] = (
    ("gf.add", "frcodes.gf", "Field.add", {}),
    ("gf.mul", "frcodes.gf", "Field.mul", {}),
    ("gf.inv", "frcodes.gf", "Field.inv", {}),
    ("subspace.add", "frcodes.subspace", "Subspace.__add__", {}),
    ("subspace.le", "frcodes.subspace", "Subspace.__le__", {}),
    ("subspace.meet", "frcodes.subspace", "Subspace.__and__", {}),
    ("subspace.enum", "frcodes.subspace", "Subspace.subspaces", {"gen": True}),
    ("subspace.enum", "frcodes.subspace", "subspaces", {"gen": True}),
    ("subspace.rank_of", "frcodes.subspace", "rank_of", {}),
    ("subspace.matmul", "frcodes.subspace", "matmul", {}),
    ("subspace.express", "frcodes.subspace", "express", {}),
    ("subspace.solve", "frcodes.subspace", "solve", {}),
    ("storage.find_repair_witness", "frcodes.storage", "find_repair_witness", {}),
    ("storage.iter_obtainable", "frcodes.storage", "iter_obtainable",
     {"gen": True, "distinct": _candidate_key}),
    ("storage.valid_newcomers", "frcodes.storage", "valid_newcomers", {}),
    ("storage.check_repair_property", "frcodes.storage", "check_repair_property",
     {"amount": _report_checks}),
    ("storage.membership", "frcodes.storage", "StateSet.__contains__", {}),
    ("storage.replace", "frcodes.storage", "RepairingCollection.replace", {}),
    ("storage.is_recovery_set", "frcodes.storage", "is_recovery_set", {}),
    ("family.is_good", "frcodes.family", "is_good", {}),
    ("family.family_state_space", "frcodes.family", "family_state_space",
     {"keep": True}),
    ("groupsearch.compose", "frcodes.groupsearch", "LinearMap.compose", {}),
    ("groupsearch.group_closure", "frcodes.groupsearch", "group_closure",
     {"amount": _group_elements}),
    ("groupsearch.orbit_code", "frcodes.groupsearch", "orbit_code", {}),
    ("groupsearch.transition_maps", "frcodes.groupsearch", "transition_maps", {}),
    ("groupsearch.stabilizer", "frcodes.groupsearch", "stabilizer", {}),
    ("groupsearch.symmetry_search", "frcodes.groupsearch", "symmetry_search", {}),
    ("partition_code.build_partition", "frcodes.partition_code", "build_partition", {}),
    ("partition_code.code_states", "frcodes.partition_code", "code_states", {}),
    ("partition_code.max_collection_size", "frcodes.partition_code",
     "max_collection_size", {}),
    ("simulator.dss_init", "frcodes.simulator", "dss_init", {"keep": True}),
    ("simulator.repair", "frcodes.simulator", "repair",
     {"durations": True, "amount": _transcript_downloads}),
    ("simulator.collect", "frcodes.simulator", "collect", {}),
    ("simulator.run_random", "frcodes.simulator", "run_random", {}),
    ("fsc.parse_fsc", "frcodes.fsc", "parse_fsc", {"arg_amount": _text_bytes}),
    ("fsc.document_to_states", "frcodes.fsc", "document_to_states", {}),
    ("cli.main", "frcodes.cli", "main", {}),
)

# Per-layer metric name -> unit, in report order.
PER_LAYER_UNITS: dict[str, str] = {
    "gf.mul.calls": "count",
    "gf.add.calls": "count",
    "gf.inv.calls": "count",
    "subspace.add.calls": "count",
    "subspace.le.calls": "count",
    "subspace.meet.calls": "count",
    "subspace.enum.calls": "count",
    "subspace.enum.yielded": "count",
    "subspace.rank_of.calls": "count",
    "subspace.matmul.calls": "count",
    "subspace.express.calls": "count",
    "subspace.solve.calls": "count",
    "subspace.self_s": "s",
    "storage.find_repair_witness.calls": "count",
    "storage.find_repair_witness.self_s": "s",
    "storage.iter_obtainable.yielded": "count",
    "storage.iter_obtainable.distinct": "count",
    "storage.candidate_distinct_ratio": "ratio",
    "storage.valid_newcomers.calls": "count",
    "storage.valid_newcomers.self_s": "s",
    "storage.check_repair_property.self_s": "s",
    "storage.collections_checked": "count",
    "storage.membership_tests": "count",
    "storage.replace.calls": "count",
    "storage.self_s": "s",
    "family.is_good.calls": "count",
    "family.is_good.self_s": "s",
    "family.cached_collections": "count",
    "groupsearch.group_closure.calls": "count",
    "groupsearch.group_elements": "count",
    "groupsearch.compose.calls": "count",
    "groupsearch.group_closure.self_s": "s",
    "groupsearch.orbit_code.calls": "count",
    "groupsearch.orbit_code.self_s": "s",
    "groupsearch.orbits_verified_ratio": "ratio",
    "groupsearch.transition_maps.self_s": "s",
    "groupsearch.stabilizer.self_s": "s",
    "partition_code.max_collection_size.self_s": "s",
    "partition_code.build_partition.s": "s",
    "partition_code.code_states.s": "s",
    "simulator.repair.p50_ms": "ms",
    "simulator.repair.p99_ms": "ms",
    "simulator.collect.self_s": "s",
    "simulator.newcomer_cache_hit_ratio": "ratio",
    "simulator.downloads_per_event": "count",
    "fsc.parse_fsc.s": "s",
    "fsc.bytes_parsed": "B",
    "fsc.document_to_states.s": "s",
    "cli.self_s": "s",
    "trace_overhead_ratio": "ratio",
}


def _resolve(module_name: str, attribute: str) -> tuple[Any, str]:
    owner: Any = sys.modules[module_name]
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class Bindings:
    """Replaces functions at every binding in the frcodes modules, reversibly."""

    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, Any]] = []

    def replace(self, owner: Any, name: str,
                make: Callable[[Callable], Callable]) -> None:
        """Bind make(current) wherever the current object is bound.

        On a class only the class attribute itself is replaced; subclasses
        that do not override it see the replacement through inheritance.
        """
        if isinstance(owner, type):
            current = owner.__dict__[name]
            targets = [(owner, name)]
        else:
            current = getattr(owner, name)
            targets = [(module, attr) for module in _frcodes_modules()
                       for attr, value in vars(module).items() if value is current]
        replacement = make(current)
        for target, attr in targets:
            self._saved.append((target, attr, current))
            setattr(target, attr, replacement)

    def restore(self) -> None:
        while self._saved:
            target, attr, original = self._saved.pop()
            setattr(target, attr, original)


def _frcodes_modules() -> list[Any]:
    return [module for name, module in sorted(sys.modules.items())
            if module is not None and (name == "frcodes" or name.startswith("frcodes."))]


class Tracer:
    """Counts and times the calls listed in SPANS while installed."""

    def __init__(self) -> None:
        self.stats: dict[str, Stat] = {}
        self.kept: dict[str, list[Any]] = {}
        # each frame holds the summed duration of its closed child spans
        self._stack: list[list[float]] = [[0.0]]
        self._bindings = Bindings()

    def install(self) -> None:
        for name, module, attribute, options in SPANS:
            owner, attr = _resolve(module, attribute)
            stat = self.stats.setdefault(name, Stat())
            if options.get("durations"):
                stat.durations = []
            kept = self.kept.setdefault(name, []) if options.get("keep") else None
            if options.get("gen"):
                make = functools.partial(self._wrap_generator, stat,
                                         options.get("distinct"))
            else:
                make = functools.partial(self._wrap_call, stat, options.get("amount"),
                                         options.get("arg_amount"), kept)
            self._bindings.replace(owner, attr, make)

    def restore(self) -> None:
        self._bindings.restore()

    def _wrap_call(self, stat: Stat, amount, arg_amount, kept, fn):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = _clock() - start
                stack.pop()
                stack[-1][0] += elapsed
                stat.calls += 1
                stat.total += elapsed
                stat.self_time += elapsed - frame[0]
                if stat.durations is not None:
                    stat.durations.append(elapsed)
            stat.returned += 1
            if amount is not None:
                stat.amount += amount(result)
            if arg_amount is not None:
                stat.amount += arg_amount(args, kwargs)
            if kept is not None:
                kept.append(result)
            return result

        return traced

    def _wrap_generator(self, stat: Stat, distinct, fn):
        stack = self._stack

        def drive(inner):
            # every resumption of the inner generator is one span
            seen: set = set()
            try:
                while True:
                    frame = [0.0]
                    stack.append(frame)
                    start = _clock()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        elapsed = _clock() - start
                        stack.pop()
                        stack[-1][0] += elapsed
                        stat.total += elapsed
                        stat.self_time += elapsed - frame[0]
                    stat.yielded += 1
                    if distinct is not None:
                        seen.add(distinct(item))
                    yield item
            finally:
                stat.distinct += len(seen)
                inner.close()

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stat.calls += 1
            return drive(fn(*args, **kwargs))

        return traced

    # ------------------------------------------------------------------

    def _self(self, prefix: str) -> float:
        return sum(stat.self_time for name, stat in self.stats.items()
                   if name.startswith(prefix))

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric except trace_overhead_ratio."""
        s = self.stats
        out: dict[str, float] = {}
        for name in ("gf.mul", "gf.add", "gf.inv", "subspace.add", "subspace.le",
                     "subspace.meet", "subspace.enum", "subspace.rank_of",
                     "subspace.matmul", "subspace.express", "subspace.solve",
                     "storage.find_repair_witness", "storage.valid_newcomers",
                     "storage.replace", "family.is_good",
                     "groupsearch.group_closure", "groupsearch.compose",
                     "groupsearch.orbit_code"):
            out[f"{name}.calls"] = s[name].calls
        for name in ("storage.find_repair_witness", "storage.valid_newcomers",
                     "storage.check_repair_property", "family.is_good",
                     "groupsearch.group_closure", "groupsearch.orbit_code",
                     "groupsearch.transition_maps", "groupsearch.stabilizer",
                     "partition_code.max_collection_size", "simulator.collect"):
            out[f"{name}.self_s"] = s[name].self_time
        for name in ("partition_code.build_partition", "partition_code.code_states",
                     "fsc.parse_fsc", "fsc.document_to_states"):
            out[f"{name}.s"] = s[name].total
        for layer in ("subspace", "storage", "cli"):
            out[f"{layer}.self_s"] = self._self(layer + ".")
        out["subspace.enum.yielded"] = s["subspace.enum"].yielded
        obtainable = s["storage.iter_obtainable"]
        out["storage.iter_obtainable.yielded"] = obtainable.yielded
        out["storage.iter_obtainable.distinct"] = obtainable.distinct
        out["storage.candidate_distinct_ratio"] = _ratio(obtainable.distinct,
                                                         obtainable.yielded)
        out["storage.collections_checked"] = s["storage.check_repair_property"].amount
        out["storage.membership_tests"] = s["storage.membership"].calls
        out["family.cached_collections"] = sum(
            len(code.collections) for code in self.kept["family.family_state_space"])
        out["groupsearch.group_elements"] = s["groupsearch.group_closure"].amount
        orbits = s["groupsearch.orbit_code"]
        out["groupsearch.orbits_verified_ratio"] = _ratio(orbits.returned, orbits.calls)
        repair = s["simulator.repair"]
        durations = sorted(repair.durations or ())
        out["simulator.repair.p50_ms"] = (
            1000 * statistics.median(durations) if durations else 0.0)
        out["simulator.repair.p99_ms"] = (
            1000 * durations[min(len(durations) - 1, int(0.99 * len(durations)))]
            if durations else 0.0)
        # the newcomer cache starts empty, so each entry is one miss
        misses = sum(len(state.newcomer_cache)
                     for state in self.kept["simulator.dss_init"])
        out["simulator.newcomer_cache_hit_ratio"] = _ratio(repair.calls - misses,
                                                           repair.calls)
        out["simulator.downloads_per_event"] = _ratio(repair.amount, repair.calls)
        out["fsc.bytes_parsed"] = s["fsc.parse_fsc"].amount
        return {name: out[name] for name in PER_LAYER_UNITS if name in out}
