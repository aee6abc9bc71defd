"""The forward-checking backjump search that both exact solvers run on
their own domains and compatibility filters."""

from __future__ import annotations

import contextlib
import math
import sys
import time
from typing import Callable, Sequence, TypeVar

from .errors import SearchTimeoutError

C = TypeVar("C")
D = TypeVar("D")


def timeout_error(timeout_s: float) -> SearchTimeoutError:
    """The error every exact search raises once its timeout_s budget is spent."""
    return SearchTimeoutError(f"exceeded the {timeout_s:g}s budget")


def deadline(timeout_s: float) -> float:
    """The time.monotonic() reading at which a timeout_s budget runs out.

    inf means no limit; NaN is refused, because every comparison with it is
    false and it would switch the clock off."""
    if math.isnan(timeout_s):
        raise ValueError("timeout_s must be a number of seconds, not NaN")
    return time.monotonic() + timeout_s


@contextlib.contextmanager
def recursion_room(depth: int):
    """Raise the recursion limit to at least depth inside the with-block and
    put the previous limit back when it exits, however it exits."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, depth))
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


def backjump_search(
    domains: Sequence[D],
    degree: Sequence[int],
    keep: Callable[[C, D], D],
    timeout_s: float,
    touches: Callable[[C], Sequence[int]] | None = None,
) -> list[C] | None:
    """One candidate per item, pairwise compatible, or None when none exists.

    Items are the indices of domains.  A domain is any object with len() that
    iterates its candidates in the order to try them; the kernel never changes
    one.  keep(chosen, live) returns a domain of the same kind with the
    candidates of live compatible with chosen, a candidate of another item;
    compatibility must be symmetric.

    touches(c), when given, lists in ascending order a superset of the items
    whose live candidates c can rule out (it may name bound items, which are
    skipped); a binding to c then filters only those items.  None means every
    pending item.  Items outside touches(c) never shrink, so the same domains
    shrink and wipe out in the same order either way: the search, and the
    candidates it returns, are the same, with fewer keep calls.

    Forward checking with conflict-directed backjumping (Prosser 1993,
    "Hybrid algorithms for the constraint satisfaction problem"): the next
    item is the one with the fewest live candidates (ties: larger
    degree[x], then smaller x; an item with one live candidate is taken at
    once).  Binding it filters the live candidates of each pending item it
    touches through keep and records the binding as a pruner of each domain
    it shrank.  A domain wiped out returns its pruners as the conflict set,
    and a failed subtree whose conflict set misses the current item is jumped
    over.  Raises SearchTimeoutError (not a NO answer) once timeout_s seconds
    have passed, ValueError when timeout_s is NaN.
    """
    n = len(domains)
    stop = deadline(timeout_s)
    live = list(domains)
    sizes = [len(d) for d in domains]
    pruners: list[list[int]] = [[] for _ in range(n)]
    # undo trail: (item, its live candidates and their count before a shrink)
    trail: list[tuple[int, D, int]] = []
    chosen: list = [None] * n
    bound = [False] * n

    def solve(pending: list[int]):
        """True on success (bindings left in place); otherwise a conflict set
        of bound items under which the failure persists."""
        if time.monotonic() > stop:
            raise timeout_error(timeout_s)
        if not pending:
            return True
        pick = best = None
        for y in pending:
            size = sizes[y]
            if size == 1:
                pick = y
                break
            if best is None or size < best or size == best and degree[y] > degree[pick]:
                pick, best = y, size
        rest = pending.copy()
        rest.remove(pick)
        conflict = set(pruners[pick])
        bound[pick] = True
        for c in live[pick]:
            mark = len(trail)
            chosen[pick] = c
            sub = None
            # both orders are ascending, so the same domain wipes out first
            for y in rest if touches is None else touches(c):
                if bound[y]:
                    continue
                after = keep(c, live[y])
                size = len(after)
                if size < sizes[y]:
                    trail.append((y, live[y], sizes[y]))
                    live[y] = after
                    sizes[y] = size
                    pruners[y].append(pick)
                    if not size:
                        sub = set(pruners[y])
                        break
            if sub is None:
                sub = solve(rest)
                if sub is True:
                    return True
            while len(trail) > mark:
                y, live[y], sizes[y] = trail.pop()
                pruners[y].pop()
            if pick not in sub:
                # the failure does not involve this item's binding
                bound[pick] = False
                return sub
            conflict |= sub
        bound[pick] = False
        conflict.discard(pick)
        return conflict

    with recursion_room(2 * n + 100):
        return chosen if solve(list(range(n))) is True else None
