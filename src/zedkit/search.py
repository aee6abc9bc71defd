"""The forward-checking backjump search that both exact solvers run on
their own domains and compatibility filters, with arc revision for the
solvers that can test support cheaply."""

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
    revise: Callable[[D], Callable[[D], D]] | None = None,
) -> list[C] | None:
    """One candidate per item, pairwise compatible, or None when none exists.

    Items are the indices of domains.  A domain is any object with len() that
    iterates its candidates in the order to try them; the kernel never changes
    one.  keep(chosen, live) returns a domain of the same kind with the
    candidates of live compatible with chosen, a candidate of another item,
    and may return live itself when it removes none, which then costs no
    len(); compatibility must be symmetric.

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

    revise, when given, maintains arc consistency as well (Mackworth 1977,
    AC-3; Sabin & Freuder 1994, MAC).  revise(live) returns a filter that
    keeps the candidates of a domain that have a compatible candidate in
    live.  Four rules:
    - Revision starts at the search's first refuted candidate, so a search
      that never refutes one does forward checking's work and no more.
    - After each accepted binding it walks the items shrunk since the
      binding, in trail order, shrinks made meanwhile joining the end.  Each
      item y whose live size changed since it was last walked filters, in
      ascending order, the pending items z that touches(d) lists for every
      live candidate d of y: a d that does not touch z supports every
      candidate of z.  The fixed order makes runs repeat exactly.
    - A candidate it removes from z is charged to all of y's pruners, the
      bindings that shrank y, which z gains as one frozen set (MAC with
      conflict-directed backjumping, Prosser 1995).  Charging only the
      current binding would backjump over live alternatives.
    - A domain it wipes out refutes the binding, as one wiped out by keep
      does.
    Each shrink adds one trail entry and one pruner entry: a binding, or a
    frozen set of bound items built once per walked item and shared by every
    item it cut.  So the state stays O(items + trail) entries, the selection
    state included.
    """
    n = len(domains)
    stop = deadline(timeout_s)
    sizes = [len(d) for d in domains]
    if 0 in sizes:
        return None
    live = list(domains)
    # the bindings that shrank each item, and frozen sets of them that arc
    # revision passed on; one entry per trail entry of the item
    pruners: list[list[int | frozenset[int]]] = [[] for _ in range(n)]
    # undo trail: (item, its live candidates and their count before a shrink)
    trail: list[tuple[int, D, int]] = []
    chosen: list = [None] * n
    bound = [False] * n
    # one frame per bound item: (item, its untried candidates, its conflict
    # set, the trail length before its binding); the items not bound are the
    # pending ones
    stack: list[tuple[int, Iterator[C], set[int], int]] = []
    armed = False  # arc revision runs from the first refuted candidate on

    # selection keys: y for an item y of one live candidate, else
    # size * step + base[y], where base[y] < step orders by larger degree,
    # then index; key % n is the item.  A key in the heap counts while its
    # item is pending with that key, and every pending item has one whenever
    # the next is picked.
    top, low = max(degree, default=0), min(degree, default=0)
    step = n * (top - low + 1)
    base = [(top - d) * n + y for y, d in enumerate(degree)]
    heap = [y if s == 1 else s * step + base[y] for y, s in enumerate(sizes)]
    heapify(heap)

    def undo(mark: int) -> None:
        while len(trail) > mark:
            y, live[y], sizes[y] = trail.pop()
            pruners[y].pop()

    def blamed(y: int) -> set[int]:
        # y's pruners: bindings, and the frozen sets of them that arc
        # revision passed on to y
        out: set[int] = set()
        for p in pruners[y]:
            if type(p) is int:
                out.add(p)
            else:
                out.update(p)
        return out

    def propagate(mark: int, conflict: set[int]) -> bool:
        # arc revision after the binding that started the trail at mark;
        # False on a wipe-out, whose pruners join conflict
        walked: dict[int, int] = {}  # item -> its size when last walked
        k = mark
        while k < len(trail):
            y = trail[k][0]
            k += 1
            if walked.get(y) == sizes[y]:
                continue
            walked[y] = sizes[y]
            # the pending items that every live candidate of y touches: only
            # they can lose support in y
            cands = iter(live[y])
            near = [z for z in touches(next(cands)) if not bound[z] and z != y]
            for d in cands:
                if not near:
                    break
                other = set(touches(d))
                near = [z for z in near if z in other]
            if not near:
                continue
            supported = revise(live[y])
            blame = None
            for z in near:
                after = supported(live[z])
                size = len(after)
                if size < sizes[z]:
                    if blame is None:
                        blame = frozenset(blamed(y))
                    trail.append((z, live[z], sizes[z]))
                    live[z] = after
                    sizes[z] = size
                    pruners[z].append(blame)
                    if not size:
                        conflict.update(blamed(z))
                        return False
        return True

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
            conflict = blamed(pick) if armed else set(pruners[pick])
            stack.append((pick, iter(live[pick]), conflict, len(trail)))
        pick, cands, conflict, mark = stack[-1]
        descend = False
        for c in cands:
            chosen[pick] = c
            for y in touches(c):
                if bound[y]:
                    continue
                before = live[y]
                after = keep(c, before)
                if after is before:
                    continue
                size = len(after)
                if size < sizes[y]:
                    trail.append((y, before, sizes[y]))
                    live[y] = after
                    sizes[y] = size
                    pruners[y].append(pick)
                    if not size:
                        conflict.update(blamed(y) if armed else pruners[y])
                        break
            else:  # no domain wiped out
                if not armed or propagate(mark, conflict):
                    descend = True
                    break
            undo(mark)
            armed = revise is not None
        if descend:  # the items the binding shrank rank by their new sizes
            shrunk = trail[mark:]
            if armed:  # arc revision can shrink an item more than once
                shrunk = {e[0]: e for e in shrunk}.values()
            for y, _, _ in shrunk:
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
