"""Algorithms on ordered genomes.

Covers the subsequence test, plain and weighted longest common subsequence
with a canonical traceback, the polynomial special cases for mandatory-symbol
LCS feasibility and maximization, and two exact searches for desk-scale
instances of the NP-hard general problem.
"""

from __future__ import annotations

import heapq
import time
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from itertools import repeat
from typing import Mapping

from .errors import (
    CapExceededError,
    MissingWeightError,
    PreconditionViolatedError,
)
from .model import (
    Alphabet,
    InstanceClass,
    SeqGenome,
    _subsequence_embeds,
    classify_instance,
)
from .search import DEFAULT_TIMEOUT_S, backjump_search, deadline, timeout_error


@dataclass(frozen=True)
class SeqDecision:
    """Yes/no answer with a verifying certificate when the answer is yes."""

    answer: bool
    certificate: SeqGenome | None = None


@dataclass(frozen=True)
class WeightAssignment:
    """Non-negative per-family weights."""

    weight_of: Mapping[int, int]

    def __post_init__(self):
        for f, w in self.weight_of.items():
            if w < 0:
                raise ValueError(f"negative weight {w} for family {f}")

    @classmethod
    def uniform(cls, families) -> "WeightAssignment":
        """Weight 1 on every family: weighted_lcs is then lcs."""
        return cls({f: 1 for f in families})

    @classmethod
    def elcs(cls, alphabet: Alphabet, a: SeqGenome, b: SeqGenome) -> "WeightAssignment":
        """Weights that make every mandatory symbol outweigh all optional ones
        combined: min(len(a), len(b)) + 1 on mandatory families, 1 elsewhere."""
        w = min(len(a), len(b)) + 1
        families = a.families | b.families | alphabet.mandatory | alphabet.optional
        return cls({f: (w if f in alphabet.mandatory else 1) for f in families})


def is_subsequence(x: SeqGenome, y: SeqGenome) -> bool:
    """True iff x embeds order-preservingly into y under exact signed equality."""
    return _subsequence_embeds(x.genes, y.genes)


# Measured costs in dense-table cells (see CHANGES.md): the sparse kernel
# spends about as long on one match pair as the dense one on 200 cells, and
# the dense one spends about as long on the numpy calls for one row of a as
# on 1500 cells.  On random n = m pairs the rule switches at nm/r of about
# 6, 50 and 150 for n = 50, 500 and 5000; the measured crossovers were
# about 4, 50 and 170.
_CELLS_PER_MATCH = 200
_CELLS_PER_ROW = 1500


def _max_weight_subsequence(
    a: tuple[int, ...], b: tuple[int, ...], weight_of: Mapping[int, int]
) -> tuple[int, ...]:
    """Maximum-total-weight common subsequence, canonical traceback: read
    from the end, it prefers a match over dropping from a over dropping
    from b, which pins a unique output among equal-weight optima.

    The sparse kernel runs when every family of a weighs more than 0 and
    the r signed match pairs cost no more than the dense table would; the
    dense kernel runs otherwise.  Both return the same tuple."""
    count = Counter(b)
    r = sum(count[g] for g in a)
    if (r * _CELLS_PER_MATCH <= len(a) * (len(b) + _CELLS_PER_ROW)
            and all(weight_of[abs(g)] > 0 for g in a)):
        return _sparse_max_weight_subsequence(a, b, weight_of)
    return _dense_max_weight_subsequence(a, b, weight_of)


def _sparse_max_weight_subsequence(
    a: tuple[int, ...], b: tuple[int, ...], weight_of: Mapping[int, int]
) -> tuple[int, ...]:
    """_max_weight_subsequence over the signed match pairs, for positive
    weights only: O((r + n) log m) time and O(r + m) memory for r pairs
    (Hunt & Szymanski 1977, with weights).

    A match (p, q) gets the chain value w(a[p]) plus the best value of a
    match strictly above and left of it, read from a staircase of
    (column, value) pairs, both increasing.  With positive weights the
    matches of one value form an antichain, so their columns fall as their
    rows rise.  From a cell (i, j) of value v, the dense traceback's walk up
    and left then ends at a level-v match in the largest column q <= j
    that holds one, and every match in column q carries b[q]: the output
    depends on the columns alone."""
    at: dict[int, list[int]] = {}  # signed gene -> its 1-based positions in b
    for q, g in enumerate(b, 1):
        at.setdefault(g, []).append(q)
    cols: list[int] = []
    vals: list[int] = []
    levels: dict[int, list[int]] = {}  # value -> minus the columns of its matches
    for g in a:
        qs = at.get(g)
        if qs is None:
            continue
        w = weight_of[abs(g)]
        # right to left, so a match never reads a value of its own row
        for q in reversed(qs):
            k = bisect_left(cols, q)
            v = (vals[k - 1] if k else 0) + w
            end = k
            while end < len(vals) and vals[end] <= v:
                end += 1
            if end > k or k == len(cols) or cols[k] > q:  # else column q holds more
                cols[k:end] = (q,)
                vals[k:end] = (v,)
            levels.setdefault(v, []).append(-q)
    out: list[int] = []
    j, v = len(b), vals[-1] if vals else 0
    while v:
        negcols = levels[v]
        j = -negcols[bisect_left(negcols, -j)] - 1
        out.append(b[j])
        v -= weight_of[abs(b[j])]
    out.reverse()
    return tuple(out)


def _dense_max_weight_subsequence(
    a: tuple[int, ...], b: tuple[int, ...], weight_of: Mapping[int, int]
) -> tuple[int, ...]:
    """_max_weight_subsequence over the full table: row recurrence
    vectorized with a running maximum, then the canonical traceback.  numpy
    loads on the first call, not with the package."""
    n, m = len(a), len(b)
    if n == 0 or m == 0:
        return ()
    import numpy as np

    A = np.asarray(a, dtype=np.int64)
    B = np.asarray(b, dtype=np.int64)
    wa64 = np.asarray([weight_of[abs(g)] for g in a], dtype=np.int64)
    bound = int(wa64.max(initial=0)) * min(n, m)
    dtype = np.int32 if bound < 2**31 else np.int64
    wa = wa64.astype(dtype)
    eq = A[:, None] == B[None, :]
    W = np.zeros((n + 1, m + 1), dtype=dtype)
    for i in range(1, n + 1):
        cand = np.where(eq[i - 1], W[i - 1, :-1] + wa[i - 1], 0)
        np.maximum(W[i - 1, 1:], cand, out=cand)
        np.maximum.accumulate(cand, out=cand)
        W[i, 1:] = cand
    out: list[int] = []
    i, j = n, m
    while i and j:
        if a[i - 1] == b[j - 1] and W[i, j] == W[i - 1, j - 1] + wa[i - 1]:
            out.append(a[i - 1])
            i -= 1
            j -= 1
        elif W[i, j] == W[i - 1, j]:
            i -= 1
        else:
            j -= 1
    out.reverse()
    return tuple(out)


def lcs(a: SeqGenome, b: SeqGenome) -> SeqGenome:
    """A longest common subsequence under exact signed equality (canonical)."""
    ones = {abs(g): 1 for g in (*a.genes, *b.genes)}
    return SeqGenome(_max_weight_subsequence(a.genes, b.genes, ones))


def weighted_lcs(a: SeqGenome, b: SeqGenome, weights: WeightAssignment) -> SeqGenome:
    """A common subsequence of maximum total weight (canonical traceback)."""
    for g in (*a.genes, *b.genes):
        if abs(g) not in weights.weight_of:
            raise MissingWeightError(f"no weight assigned to family {abs(g)}")
    return SeqGenome(_max_weight_subsequence(a.genes, b.genes, weights.weight_of))


def zed_one_side_duplicate_free(exemplar_side: SeqGenome, other: SeqGenome) -> SeqDecision:
    """Linear-time decision when one genome is already duplicate-free: the
    distance is zero iff both hold the same families and that genome embeds
    into the other."""
    dup = sorted(exemplar_side.duplicated)
    if dup:
        raise PreconditionViolatedError(f"exemplar side repeats families {dup[:5]}")
    if exemplar_side.families == other.families and is_subsequence(exemplar_side, other):
        return SeqDecision(True, exemplar_side)
    return SeqDecision(False)


def _check_mandatory_special(a: SeqGenome, b: SeqGenome, alphabet: Alphabet) -> None:
    bad = sorted(alphabet.mandatory & a.duplicated & b.duplicated)
    if bad:
        raise PreconditionViolatedError(
            f"mandatory families {bad[:5]} occur at least twice in both sequences"
        )


def elcs_feasible(a: SeqGenome, b: SeqGenome, alphabet: Alphabet) -> bool:
    """Decide whether some common subsequence carries every mandatory family.

    Valid when no mandatory family is duplicated in both inputs (then a common
    subsequence can carry each mandatory symbol at most once): delete the
    non-mandatory symbols and test whether the residues' LCS covers all of
    them.  Symbols outside the alphabet are treated as optional.
    """
    _check_mandatory_special(a, b, alphabet)
    ra = SeqGenome(tuple(g for g in a.genes if abs(g) in alphabet.mandatory))
    rb = SeqGenome(tuple(g for g in b.genes if abs(g) in alphabet.mandatory))
    core = lcs(ra, rb)
    return alphabet.mandatory <= {abs(g) for g in core.genes}


def elcs_special(a: SeqGenome, b: SeqGenome, alphabet: Alphabet) -> SeqGenome | None:
    """Longest common subsequence containing every mandatory family, in the
    same special case as elcs_feasible.

    Maximizes total weight with mandatory symbols weighted min(len(a), len(b)) + 1
    and all others weighted 1; the optimum then contains every mandatory
    family (each exactly once) whenever any feasible subsequence does, and is
    a longest such subsequence.  Returns None when infeasible.
    """
    _check_mandatory_special(a, b, alphabet)
    best = weighted_lcs(a, b, WeightAssignment.elcs(alphabet, a, b))
    if alphabet.mandatory <= {abs(g) for g in best.genes}:
        return best
    return None


def zed_seq_special(g1: SeqGenome, g2: SeqGenome) -> SeqDecision:
    """Polynomial decision when every family occurs exactly once in at least
    one genome: distance zero iff the LCS covers all families.  When one
    genome is duplicate-free that LCS would have to be all of it, so the
    answer is g1 == g2 if both are, and otherwise whether the duplicate-free
    side embeds into the other.  A family mismatch answers NO."""
    cls = classify_instance(g1, g2)
    if cls is InstanceClass.GENERAL:
        raise PreconditionViolatedError(
            "instance is general: some family occurs at least twice in both genomes"
        )
    return _special_decision(g1, g2, cls)


def _special_decision(g1: SeqGenome, g2: SeqGenome, cls: InstanceClass) -> SeqDecision:
    """zed_seq_special on a pair already classified as cls (not GENERAL)."""
    if cls is InstanceClass.FAMILY_MISMATCH:
        return SeqDecision(False)
    if cls is InstanceClass.BOTH_EXEMPLAR:
        return SeqDecision(True, g1) if g1.genes == g2.genes else SeqDecision(False)
    if cls is InstanceClass.ONE_SIDE_DUPLICATE_FREE:
        x, y = (g1, g2) if len(g1) == len(g1.families) else (g2, g1)
        return zed_one_side_duplicate_free(x, y)
    cert = lcs(g1, g2)
    if len(cert) == len(g1.families):
        return SeqDecision(True, cert)
    return SeqDecision(False)


class _LivePairs:
    """The live occurrence pairs of one family, never listed one by one: each
    cell (a, lo1, hi1, b, lo2, hi2) holds every p in a[lo1:hi1] with every q
    in b[lo2:hi2], a and b being the sorted positions of one signed form of
    the family in g1 and g2.  size is their number, which the caller adds up
    as it builds the cells.  Memory is linear in the copy counts."""

    __slots__ = ("cells", "size")

    def __init__(self, cells: list[tuple], size: int):
        self.cells = cells
        self.size = size

    def __len__(self) -> int:
        return self.size

    def __iter__(self):
        """Smallest p + q first, then smallest p.  A lone cell of one row or
        one column is already in that order; otherwise the pairs come from a
        heap with one entry per g1 position."""
        if len(self.cells) == 1:
            a, lo1, hi1, b, lo2, hi2 = self.cells[0]
            if hi1 - lo1 == 1:
                return zip(repeat(a[lo1]), b[lo2:hi2])
            if hi2 - lo2 == 1:
                return zip(a[lo1:hi1], repeat(b[lo2]))
        return self._merged()

    def _merged(self):
        heap = [(p + b[lo2], p, lo2, b, hi2) for a, lo1, hi1, b, lo2, hi2 in self.cells
                for p in a[lo1:hi1]]
        heapq.heapify(heap)
        while heap:
            s, p, j, b, hi2 = heap[0]
            yield p, s - p
            if j + 1 < hi2:
                heapq.heapreplace(heap, (p + b[j + 1], p, j + 1, b, hi2))
            else:
                heapq.heappop(heap)


def _non_crossing(c: tuple[int, int], live: _LivePairs) -> _LivePairs:
    """The pairs of live both before c or both after it; live itself when
    that is all of them.  Positions p and q hold another family, so
    bisection splits each cell cleanly."""
    p, q = c
    for a, lo1, hi1, b, lo2, hi2 in live.cells:
        if not (a[hi1 - 1] < p and b[hi2 - 1] < q or a[lo1] > p and b[lo2] > q):
            break
    else:
        return live  # every cell lies wholly before or wholly after c
    cells, size = [], 0
    for a, lo1, hi1, b, lo2, hi2 in live.cells:
        m1, m2 = bisect_left(a, p, lo1, hi1), bisect_left(b, q, lo2, hi2)
        if lo1 < m1 and lo2 < m2:
            cells.append((a, lo1, m1, b, lo2, m2))
            size += (m1 - lo1) * (m2 - lo2)
        if m1 < hi1 and m2 < hi2:
            cells.append((a, m1, hi1, b, m2, hi2))
            size += (hi1 - m1) * (hi2 - m2)
    return _LivePairs(cells, size)


# Boxes are tested in runs of this many consecutive families behind the
# run's joint box, so a binding skips the runs that hold no pair crossing it.
# On a shared 2-core VM the 2999-family identity pair (`zed bench` "seq exact
# identity 2999 families") took 0.1-0.17 s this way and 0.5-0.8 s with every
# box tested; a search over at most 32 families (every ordered search in the
# benchmark has 8 to 28) is one run and pays one extra test per binding.
_RUN = 32


def _crossing_families(boxes: list[tuple[int, int, int, int, int]]):
    """touches for the ordered search, over boxes (x, lo1, hi1, lo2, hi2)
    with x ascending: the x of each box that holds a position pair crossing
    (p, q), that is a (p', q') with p' < p and q' > q or p' > p and q' < q.
    A run's joint box holds such a pair whenever one of its boxes does."""
    runs = []
    for i in range(0, len(boxes), _RUN):
        run = boxes[i:i + _RUN]
        _, lo1, hi1, lo2, hi2 = zip(*run)
        runs.append((min(lo1), max(hi1), min(lo2), max(hi2), run))

    def touches(c: tuple[int, int]) -> list[int]:
        p, q = c
        return [x for rlo1, rhi1, rlo2, rhi2, run in runs
                if rlo1 < p and rhi2 > q or rhi1 > p and rlo2 < q
                for x, lo1, hi1, lo2, hi2 in run
                if lo1 < p and hi2 > q or hi1 > p and lo2 < q]
    return touches


def _search_inputs(g1: SeqGenome, g2: SeqGenome):
    """The families in increasing order and, for backjump_search over them
    (item x is fams[x]), their domains, degrees and touches; None when some
    family has no signed form in both genomes."""
    fams = sorted(g1.families | g2.families)
    at1, at2 = {}, {}  # signed gene -> its positions in g1, g2
    for at, g in (at1, g1), (at2, g2):
        for p, v in enumerate(g.genes):
            at.setdefault(v, []).append(p)
    domains, boxes = [], []
    for x, f in enumerate(fams):
        # the cells of f, one per signed form in both genomes, and the box
        # (lo1, hi1, lo2, hi2) around them: the live pairs of f stay inside
        # it, so a binding that crosses no pair of the box never shrinks f
        cells, size, box = [], 0, None
        for v in f, -f:
            a, b = at1.get(v), at2.get(v)
            if a is None or b is None:
                continue
            cells.append((a, 0, len(a), b, 0, len(b)))
            size += len(a) * len(b)
            if box is None:
                box = a[0], a[-1], b[0], b[-1]
            else:  # the other signed form
                lo1, hi1, lo2, hi2 = box
                box = min(lo1, a[0]), max(hi1, a[-1]), min(lo2, b[0]), max(hi2, b[-1])
        if box is None:
            return None
        domains.append(_LivePairs(cells, size))
        boxes.append((x, *box))
    # every two families constrain each other, so all degrees tie
    degree = [len(fams) - 1] * len(fams)
    return fams, domains, degree, _crossing_families(boxes)


def zed_seq_exact(
    g1: SeqGenome, g2: SeqGenome, *, timeout_s: float = DEFAULT_TIMEOUT_S,
    max_families: int | None = None,
) -> SeqDecision:
    """Exact decision for the general (NP-hard) problem.

    Every family must pick one occurrence pair (p, q) with g1[p] == g2[q],
    signs included, and the chosen pairs must not cross (p < p' iff q < q');
    the genes at the chosen positions, read in order, are then a common
    exemplar subsequence.  Pairs are tried earliest first (by p + q) in the
    forward-checking backjump search shared with the unordered solver;
    binding a pair filters only the families with a pair that crosses it.
    Raises SearchTimeoutError once timeout_s seconds have passed.  A family
    with no signed form in both genomes answers NO at once.  max_families,
    when given, caps the family count (CapExceededError)."""
    inputs = _search_inputs(g1, g2)
    if inputs is None:
        return SeqDecision(False)  # no signed form of some family is in both genomes
    fams, domains, degree, touches = inputs
    if max_families is not None and len(fams) > max_families:
        raise CapExceededError(f"{len(fams)} families exceeds the cap of {max_families}")
    chosen = backjump_search(domains, degree, _non_crossing, timeout_s, touches)
    if chosen is None:
        return SeqDecision(False)
    return SeqDecision(True, SeqGenome(tuple(g1.genes[p] for p, _ in sorted(chosen))))


MODES = ("auto", "special", "exact")  # solve_seq's modes

_SEQ_ROUTES = {
    InstanceClass.FAMILY_MISMATCH: "family-mismatch",
    InstanceClass.BOTH_EXEMPLAR: "equality",
    InstanceClass.ONE_SIDE_DUPLICATE_FREE: "subsequence",
    InstanceClass.PER_GENE_SPECIAL: "special",
    InstanceClass.GENERAL: "exact",
}


def solve_seq(
    g1: SeqGenome, g2: SeqGenome, *, mode: str = "auto", timeout_s: float = DEFAULT_TIMEOUT_S
) -> tuple[str, SeqDecision]:
    """Decide zero exemplar distance and name the route taken.

    Mode "special" runs zed_seq_special and "exact" runs zed_seq_exact with
    the timeout_s wall budget.  Mode "auto" answers a family mismatch NO
    ("family-mismatch"), sends the special classes to zed_seq_special
    ("equality", "subsequence", "special") and a general pair to the exact
    search ("exact").
    """
    if mode not in MODES:
        expected = f"{', '.join(MODES[:-1])} or {MODES[-1]}"
        raise ValueError(f"unknown mode {mode!r} (expected {expected})")
    route = mode
    if mode == "auto":
        cls = classify_instance(g1, g2)
        route = _SEQ_ROUTES[cls]
        if route != "exact":
            return route, _special_decision(g1, g2, cls)
    if route == "exact":
        return route, zed_seq_exact(g1, g2, timeout_s=timeout_s)
    return route, zed_seq_special(g1, g2)


# elcs_exact_oracle's table holds at most this many mask -> length entries:
# a 91x101 pair with 15 mandatory families reaches it in about 0.5 s at
# 168 MB, and a 2040x2040 pair with none, one entry a cell, peaks at 945 MB.
_MAX_TABLE_ENTRIES = 1 << 22


def elcs_exact_oracle(
    a: SeqGenome, b: SeqGenome, alphabet: Alphabet, *, timeout_s: float = DEFAULT_TIMEOUT_S,
) -> SeqGenome | None:
    """Reference solver for the mandatory-symbol LCS, exact for arbitrary
    occurrence counts: dynamic programming over prefixes of a and b and the
    set of mandatory families used, maximizing length and never reusing a
    mandatory family.  The traceback is lcs's canonical one, so with no
    mandatory families the result is lcs(a, b).  Returns None when no common
    subsequence covers all of them.  Raises CapExceededError past 2^22 table
    entries, SearchTimeoutError once timeout_s seconds have passed (the clock
    is read once per symbol of a), ValueError when timeout_s is NaN."""
    stop = deadline(timeout_s)
    if not (alphabet.mandatory <= a.families and alphabet.mandatory <= b.families):
        return None
    mandatory = sorted(alphabet.mandatory)
    bit = {f: 1 << k for k, f in enumerate(mandatory)}
    full = (1 << len(mandatory)) - 1
    ga, gb = a.genes, b.genes
    # best[i][j] maps a set of mandatory families, each used once, to the
    # longest common subsequence of a[:i] and b[:j] using exactly that set
    best = [[{0: 0}] * (len(gb) + 1)]
    left = _MAX_TABLE_ENTRIES - len(ga) - len(gb) - 1  # the border cells hold {0: 0}
    for i, x in enumerate(ga, 1):
        if time.monotonic() > stop:
            raise timeout_error(timeout_s)
        up, row = best[-1], [{0: 0}]
        fb = bit.get(abs(x), 0)  # 0 for an optional family: no bit to test or set
        for j, y in enumerate(gb):
            cell = dict(up[j + 1])
            for mask, k in row[j].items():
                if cell.get(mask, -1) < k:
                    cell[mask] = k
            if x == y:
                for mask, k in up[j].items():
                    if not mask & fb and cell.get(mask | fb, -1) <= k:
                        cell[mask | fb] = k + 1
            left -= len(cell)
            if left < 0:
                raise CapExceededError(f"the table passed {_MAX_TABLE_ENTRIES} entries at row {i}")
            row.append(cell)
        best.append(row)
    i, j, mask = len(ga), len(gb), full
    if mask not in best[i][j]:
        return None
    # lcs's canonical traceback: a match, then a drop from a, then from b
    out: list[int] = []
    while i and j:
        k = best[i][j][mask]
        x = ga[i - 1]
        fb = bit.get(abs(x), 0)
        if x == gb[j - 1] and mask & fb == fb and best[i - 1][j - 1].get(mask ^ fb) == k - 1:
            out.append(x)
            i, j, mask = i - 1, j - 1, mask ^ fb
        elif best[i - 1][j].get(mask) == k:
            i -= 1
        else:
            j -= 1
    out.reverse()
    return SeqGenome(tuple(out))
