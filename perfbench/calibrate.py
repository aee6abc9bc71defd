"""Host speed, measured by a fixed piece of pure-Python work.

On a shared host the speed of one core drifts by a quarter and more over a
few minutes, and CPU time drifts with wall time, so neither a longer run nor
CPU time takes it out.  A run therefore also times ``reference()`` between
passes, keeps its best time the way it keeps each instance's best time, and
reports every time scaled to a host on which ``reference()`` takes
``NOMINAL_S``.  ``reference()`` does the kind of work the solvers do (a
backtracking search over sets, a table of small frozensets) and touches no
zedkit code, so no change to zedkit can move it.
"""

from __future__ import annotations

from time import perf_counter

# best time of reference() on a quiet 2-core VM with Python 3.11; it sets
# the unit of the scaled times and nothing else
NOMINAL_S = 0.005
QUEENS = 7
TABLE = 6000


def reference() -> int:
    """Count the placements of QUEENS queens, then build and probe a table of
    TABLE small frozensets."""
    count = 0
    cols: set[int] = set()
    up: set[int] = set()
    down: set[int] = set()

    def place(row: int) -> None:
        nonlocal count
        if row == QUEENS:
            count += 1
            return
        for c in range(QUEENS):
            if c in cols or row + c in up or row - c in down:
                continue
            cols.add(c)
            up.add(row + c)
            down.add(row - c)
            place(row + 1)
            cols.discard(c)
            up.discard(row + c)
            down.discard(row - c)

    place(0)
    table: dict[tuple[int, int], frozenset[int]] = {}
    for i in range(TABLE):
        block = frozenset((i, i * 3 % 1001, i % 17))
        table[i * 7919 % 4099, len(block)] = block
    hits = sum(len(table.get((i * 31 % 4099, 3), ())) for i in range(TABLE))
    return count + hits


class HostSpeed:
    """Best time of reference() over the samples taken so far."""

    def __init__(self) -> None:
        self.best = float("inf")

    def sample(self, repeats: int) -> None:
        for _ in range(repeats):
            t0 = perf_counter()
            reference()
            self.best = min(self.best, perf_counter() - t0)

    def scale(self) -> float:
        """Factor that turns a time measured here into one on a host where
        reference() takes NOMINAL_S."""
        return NOMINAL_S / self.best
