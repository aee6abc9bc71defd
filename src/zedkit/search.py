"""The forward-checking backjump search that both exact solvers run on
their own domains and compatibility filters."""

from __future__ import annotations

import math
import time
from heapq import heapify, heappop, heappush
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
    "Hybrid algorithms for the constraint satisfaction problem").  The next
    item is the smallest-index one with one live candidate, else the pending
    item that minimizes (live size, -degree[x], x).  Binding it filters the
    live candidates of each pending item it touches through keep and records
    the binding as a pruner of each domain it shrank.  A domain wiped out
    adds its pruners to the binding's conflict set, and an item out of
    candidates jumps back to the latest item in its conflict set, over every
    item bound since.  The search is a loop over a stack of frames, as
    Prosser states it, so its depth is not bounded by the interpreter's
    recursion limit.  Raises SearchTimeoutError (not a NO answer) once
    timeout_s seconds have passed, ValueError when timeout_s is NaN.

    The pick pops a min-heap of integer keys that order the items as (live
    size, -degree, index), except that one-candidate items come first, by
    index alone.  An accepted binding pushes a key for each item it shrank, a
    backjump one for each item it unbinds or restores, and a refuted
    candidate none; a popped key that no longer matches its item is dropped.
    Each key is pushed and popped at most once, at O(log(items + trail))
    each, so a pick costs that much per shrink, unbinding or restore since
    the one before it.  The heap is rebuilt from the pending items whenever
    it would outgrow twice the items plus the undo trail, so the selection
    state is O(items + trail) at every point, inside one frame's candidate
    loop too.
    """
    n = len(domains)
    stop = deadline(timeout_s)
    sizes = [len(d) for d in domains]
    if 0 in sizes:
        return None
    live = list(domains)
    pruners: list[list[int]] = [[] for _ in range(n)]
    # undo trail: (item, its live candidates and their count before a shrink)
    trail: list[tuple[int, D, int]] = []
    chosen: list = [None] * n
    bound = [False] * n
    # one frame per bound item: (item, its untried candidates, its conflict
    # set, the trail length before its binding); the items not bound are the
    # pending ones
    stack: list[tuple[int, Iterator[C], set[int], int]] = []

    # selection keys: y for an item y of one live candidate, else
    # size * step + base[y], where base[y] < step orders by larger degree,
    # then index; key % n is the item.  A key in the heap counts while its
    # item is pending with that key, and every pending item has one whenever
    # the next is picked.
    top = max(degree, default=0)
    step = n * (top - min(degree, default=0) + 1)
    base = [(top - d) * n + y for y, d in enumerate(degree)]
    heap = [y if s == 1 else s * step + base[y] for y, s in enumerate(sizes)]
    heapify(heap)

    def undo(mark: int) -> None:
        while len(trail) > mark:
            y, live[y], sizes[y] = trail.pop()
            pruners[y].pop()

    descend = True
    while True:
        if descend:  # bind the next item
            if time.monotonic() > stop:
                raise timeout_error(timeout_s)
            if len(stack) == n:
                return chosen
            while True:
                key = heappop(heap)
                pick = key % n
                if bound[pick]:
                    continue
                size = sizes[pick]
                if key == (pick if size == 1 else size * step + base[pick]):
                    break
            bound[pick] = True
            stack.append((pick, iter(live[pick]), set(pruners[pick]), len(trail)))
        pick, cands, conflict, mark = stack[-1]
        descend = False
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
                descend = True  # no domain wiped out
                break
            undo(mark)
        if descend:  # the items the binding shrank rank by their new sizes
            for y, _, _ in trail[mark:]:
                size = sizes[y]
                heappush(heap, y if size == 1 else size * step + base[y])
        else:
            # out of candidates: jump back to the latest item in the conflict
            # set; the frames above it fail under the same bindings
            conflict.discard(pick)
            changed = set()
            while stack and stack[-1][0] not in conflict:
                y = stack.pop()[0]
                bound[y] = False
                changed.add(y)
            if not stack:
                return None
            _, _, target, mark = stack[-1]
            target.update(conflict)
            changed.update(y for y, _, _ in trail[mark:])
            undo(mark)
            if len(heap) + len(changed) > 2 * (n + len(trail)):
                changed = [y for y in range(n) if not bound[y]]
                heap = []
            for y in changed:  # the unbound and restored items
                size = sizes[y]
                heappush(heap, y if size == 1 else size * step + base[y])
