"""The forward-checking backjump search that both exact solvers run on
their own domains and compatibility filters."""

from __future__ import annotations

import math
import time
from typing import Callable, Iterator, Sequence, TypeVar

from .errors import SearchTimeoutError

DEFAULT_TIMEOUT_S = 120.0  # wall budget of every exact search unless told otherwise

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


def backjump_search(
    domains: Sequence[D],
    degree: Sequence[int],
    keep: Callable[[C, D], D],
    timeout_s: float,
    touches: Callable[[C], Sequence[int]],
) -> list[C] | None:
    """One candidate per item, pairwise compatible, or None when none exists.

    Items are the indices of domains.  A domain is any object with len() that
    iterates its candidates in the order to try them; the kernel never changes
    one.  keep(chosen, live) returns a domain of the same kind with the
    candidates of live compatible with chosen, a candidate of another item;
    compatibility must be symmetric.

    touches(c) lists in ascending order a superset of the items whose live
    candidates c can rule out (bound items in it are skipped); binding c
    filters only those.  Items outside it never shrink, so every such superset
    gives the same search step for step, with fewer keep calls the smaller it
    is.

    Forward checking with conflict-directed backjumping (Prosser 1993,
    "Hybrid algorithms for the constraint satisfaction problem"): the next
    item is the one with the fewest live candidates (ties: larger
    degree[x], then smaller x; an item with one live candidate is taken at
    once).  Binding it filters the live candidates of each pending item it
    touches through keep and records the binding as a pruner of each domain
    it shrank.  A domain wiped out adds its pruners to the binding's conflict
    set, and an item out of candidates jumps back to the latest item in its
    conflict set, over every item bound since.  The search is a loop over a
    stack of frames, as Prosser states it, so its depth is not bounded by
    the interpreter's recursion limit.  Raises SearchTimeoutError (not a NO
    answer) once timeout_s seconds have passed, ValueError when timeout_s is
    NaN.
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
    # one frame per bound item: (item, items pending under it, its untried
    # candidates, its conflict set, the trail length before its binding)
    stack: list[tuple[int, list[int], Iterator[C], set[int], int]] = []

    def undo(mark: int) -> None:
        while len(trail) > mark:
            y, live[y], sizes[y] = trail.pop()
            pruners[y].pop()

    pending: list[int] | None = list(range(n))
    while True:
        if pending is not None:  # descend: bind the next item
            if time.monotonic() > stop:
                raise timeout_error(timeout_s)
            if not pending:
                return chosen
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
            bound[pick] = True
            stack.append((pick, rest, iter(live[pick]), set(pruners[pick]), len(trail)))
        pick, rest, cands, conflict, mark = stack[-1]
        pending = None
        for c in cands:
            chosen[pick] = c
            for y in touches(c):
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
                        conflict.update(pruners[y])
                        break
            else:
                pending = rest  # no domain wiped out
                break
            undo(mark)
        if pending is None:
            # out of candidates: jump back to the latest item in the conflict
            # set; the frames above it fail under the same bindings
            conflict.discard(pick)
            while stack and stack[-1][0] not in conflict:
                bound[stack.pop()[0]] = False
            if not stack:
                return None
            stack[-1][3].update(conflict)
            undo(stack[-1][4])
