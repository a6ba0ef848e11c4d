"""Speed of the machine while a workload runs, for times at a reference speed.

The benchmark runs on virtual machines whose speed drifts over seconds to
minutes (other tenants of the host), in CPU time as much as in wall
time; on a 2-vCPU VM the same loop flips between two speeds a factor of
two apart.  A raw time to answer then mostly measures the moment it was
taken.  A :class:`Probe` times passes of fixed pure-Python work
(dictionaries, tuples, small objects, finite-field row operations and
frozensets, as in frcodes) every ``PERIOD_S`` seconds during a phase of
the process (from a ``SIGALRM`` handler, so that the passes are spread
evenly over the whole phase) and at its ends.  The time spent in the
handler is kept apart, so that it can be taken out of the phase's time.

``factor()`` is the mean over the passes of ``REFERENCE_S`` over the pass
time, the machine's mean speed relative to the reference: multiplying a
time measured meanwhile by it gives the time on a machine where one pass
takes ``REFERENCE_S`` seconds.  A change to frcodes cannot move the
passes, so a change in a scaled time is a change in the program.
"""

from __future__ import annotations

import signal
import statistics
import time

_clock = time.perf_counter

# Time of one pass at the reference speed (between the fast and the slow
# state of a 2-vCPU Xeon VM at 2.0 GHz, Python 3.11: about 1.5 and 3 ms).
REFERENCE_S = 0.002
# Seconds between passes during a phase.
PERIOD_S = 0.05
# Passes at the end of a phase, which also open the next one.
EDGE_PASSES = 10


def _dict_tuple(n: int = 1500) -> int:
    """Tuple keys into a growing dictionary, small-integer arithmetic."""
    table: dict[tuple[int, int], int] = {}
    acc = 1
    for i in range(n):
        key = (i & 255, acc & 15)
        acc = (acc * 31 + table.get(key, i)) % 65521
        table[key] = acc ^ i
    return acc


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b

    def mix(self, other: "_Pair") -> "_Pair":
        return _Pair(self.a ^ other.b, (self.b + other.a) & 1023)


def _objects(n: int = 1100) -> int:
    """Small objects: allocation, attribute access and method calls."""
    pair = _Pair(1, 2)
    out = []
    for i in range(n):
        pair = pair.mix(_Pair(i, i >> 1))
        out.append(pair.a)
    return len(out)


def _gf256_tables() -> tuple[list[int], list[int]]:
    """Exponent (doubled, so sums of logarithms index it) and log tables of GF(256)."""
    exp = [0] * 510
    log = [0] * 256
    x = 1
    for i in range(255):
        exp[i] = exp[i + 255] = x
        log[x] = i
        x <<= 1
        if x & 256:
            x ^= 0x11D
    return exp, log


_EXP, _LOG = _gf256_tables()


def _gmul(a: int, b: int) -> int:
    return 0 if a == 0 or b == 0 else _EXP[_LOG[a] + _LOG[b]]


def _rows(size: int = 8) -> int:
    """Elimination on an 8 x 8 matrix over GF(256) by log/exp tables."""
    rows = [[(r * 7 + c * 13 + 1) % 256 for c in range(size)] for r in range(size)]
    for p in range(size):
        for r in range(size):
            if r != p:
                f = rows[r][p]
                rows[r] = [a ^ _gmul(f, b) for a, b in zip(rows[r], rows[p])]
    return rows[0][0]


def _sets(n: int = 500) -> int:
    """Frozensets as set members, sorting and tuple hashing."""
    seen: set[frozenset[int]] = set()
    count = 0
    for i in range(n):
        item = frozenset((i % 37, (i * 7) % 41, (i * 13) % 43))
        count += item in seen
        seen.add(item)
        count += hash(tuple(sorted(item))) & 1
    return count


def _pass() -> None:
    """One pass: a little of each kind of work frcodes does."""
    _dict_tuple()
    _objects()
    for _ in range(3):
        _rows()
    _sets()


class Probe:
    """Pass times taken around and during the phases of a process."""

    def __init__(self) -> None:
        self.passes: list[float] = []
        self.in_handler = 0.0
        self._previous = None
        self._running = False

    def sample(self, count: int) -> None:
        for _ in range(count):
            before = _clock()
            _pass()
            self.passes.append(_clock() - before)

    def _on_alarm(self, signum, frame) -> None:
        before = _clock()
        self.sample(1)
        self.in_handler += _clock() - before

    def start(self) -> None:
        """Take a pass every PERIOD_S seconds until ``stop``."""
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._running = True

    def stop(self) -> None:
        if self._running:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
            self._running = False

    def factor(self) -> float:
        """Mean speed relative to the reference (below 1: slower)."""
        return statistics.fmean(REFERENCE_S / p for p in self.passes)

    def end_phase(self) -> tuple[float, float]:
        """Close the current phase: its speed factor and its time in the handler.

        Stops the periodic passes (stop first, before reading the clock
        that ends the phase) and takes EDGE_PASSES more, which also open
        the next phase.
        """
        self.stop()
        in_handler = self.in_handler
        self.sample(EDGE_PASSES)
        factor = self.factor()
        self.passes = self.passes[-EDGE_PASSES:]
        self.in_handler = 0.0
        return factor, in_handler
