"""Algorithms on unordered multichromosomal genomes.

A common reduced genome here is a partition of the shared ground set whose
blocks embed injectively, by containment, into the chromosomes of each input.
The special case where every family occurs exactly once in at least one genome
reduces to maximum-weight bipartite matching on chromosome intersections, which
there reaches the ground-set size iff a plain matching of covering chromosome
pairs saturates every chromosome that holds a single-copy gene; the general
case is handled by a permutation scan (fixed-parameter in the chromosome count)
and by the exact backjump search shared with ordered genomes.  One plain-Python
Hopcroft-Karp kernel (_row_covering_matching) decides the special case and
checks that a certificate's blocks embed injectively.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from dataclasses import dataclass

from .errors import PreconditionViolatedError
from .model import (
    NO_EMBEDDING_IN_G1,
    NO_EMBEDDING_IN_G2,
    NOT_PARTITION,
    CertificateCheck,
    InstanceClass,
    SetGenome,
    classify_instance,
)
from .search import DEFAULT_TIMEOUT_S, backjump_search, deadline, timeout_error


@dataclass(frozen=True)
class IntersectionGraph:
    """Bipartite graph on chromosome pairs: entry (i, j) holds the size of the
    non-empty intersection of left chromosome i with right chromosome j
    (0-based), in (i, j) order; a pair that shares no gene is absent and
    weighs 0.  The intersections themselves are not kept."""

    left_size: int
    right_size: int
    weights: dict[tuple[int, int], int]

    def weight(self, i: int, j: int) -> int:
        return self.weights.get((i, j), 0)


@dataclass(frozen=True)
class Matching:
    """Bipartite matching as index pairs; zero-weight pairs are omitted."""

    pairs: frozenset[tuple[int, int]]
    total_weight: int


@dataclass(frozen=True)
class SetDecision:
    """Yes/no answer with a partition certificate and the witness that found it."""

    answer: bool
    certificate: SetGenome | None = None
    witness_matching: Matching | None = None
    witness_permutation: tuple[int, ...] | None = None


def build_intersection_graph(g1: SetGenome, g2: SetGenome) -> IntersectionGraph:
    """The sizes of the non-empty chromosome intersections, counted through
    g2's gene -> chromosome index (the genome builds it once and every route
    shares it) without building a block: O(sum over genes of occ1 * occ2)
    work."""
    hosts = g2.hosts
    weights: dict[tuple[int, int], int] = {}
    for i, c in enumerate(g1.chromosomes):
        row: dict[int, int] = {}
        for f in c:
            for j in hosts.get(f, ()):
                row[j] = row.get(j, 0) + 1
        for j in sorted(row):
            weights[(i, j)] = row[j]
    return IntersectionGraph(len(g1.chromosomes), len(g2.chromosomes), weights)


def max_weight_bipartite_matching(graph: IntersectionGraph) -> Matching:
    """Matching of maximum total intersection size (assignment-problem solver).
    numpy and scipy.optimize load on the first call, not with the package.
    No route calls it: zed_set_matching decides without weights."""
    if graph.left_size == 0 or graph.right_size == 0:
        return Matching(frozenset(), 0)
    import numpy as np
    from scipy.optimize import linear_sum_assignment

    w = np.zeros((graph.left_size, graph.right_size), dtype=np.int64)
    n = len(graph.weights)
    ij = np.fromiter(itertools.chain.from_iterable(graph.weights), np.intp, 2 * n)
    w[ij[0::2], ij[1::2]] = np.fromiter(graph.weights.values(), np.int64, n)
    rows, cols = linear_sum_assignment(w, maximize=True)
    picked = w[rows, cols]
    used = picked > 0
    pairs = frozenset(zip(rows[used].tolist(), cols[used].tolist()))
    return Matching(pairs, int(picked.sum()))


def zed_set_matching(g1: SetGenome, g2: SetGenome) -> SetDecision:
    """Polynomial decision in the per-gene special case: the distance is zero
    iff a maximum-weight matching of chromosome intersections covers every
    gene, i.e. its weight equals the ground-set size.  It is decided without
    weights, by Hopcroft-Karp over covering chromosome pairs
    (_matching_decision), with no k1 x k2 structure.  A YES carries its
    matching, of weight the ground-set size; a NO, and a family mismatch,
    carry none."""
    cls = classify_instance(g1, g2)
    if cls is InstanceClass.GENERAL:
        raise PreconditionViolatedError(
            "instance is general: some family occurs at least twice in both genomes"
        )
    return _matching_decision(g1, g2, cls)


def _matching_decision(g1: SetGenome, g2: SetGenome, cls: InstanceClass) -> SetDecision:
    """zed_set_matching on a pair already classified as cls (not GENERAL),
    decided by a cardinality matching over covering pairs, with no weights.

    Let S_i = c1[i] - g1.duplicated and T_j = c2[j] - g2.duplicated: the genes
    that chromosome i of g1, or j of g2, holds as its genome's only copy.  No
    gene is duplicated in both genomes, so every gene lies in some S_i or T_j,
    a matching counts each gene at most once, and its weight is |U| iff it
    covers every gene.  A gene of S_i is covered only by (i, M(i)), so M
    covers every gene iff each i with S_i non-empty is matched to a j with
    S_i <= c2[j], and each j with T_j non-empty to an i with T_j <= c1[i].
    Call (i, j) covering when S_i <= c2[j], T_j <= c1[i] and S_i or T_j is
    non-empty (a pair with both empty shares no gene, or the pair would be
    GENERAL), and call a chromosome needy when its S_i or T_j is non-empty.
    The answer is YES iff some matching of covering pairs saturates every
    needy chromosome on both sides.

    That is one row-covering matching on a mirrored graph: the rows are the
    k1 left chromosomes, then a mirror of the k2 right ones; the columns are
    the k2 right chromosomes, then a mirror of the k1 left ones.  Left row i
    takes its covering j, then its own mirror column k2 + i if it is not
    needy; mirror row k1 + j takes the mirror columns k2 + i of its covering
    i, then column j if it is not needy.  Every column is then matched too,
    and a needy j's column only by a covering left row.  The certificate is
    c1[i] & c2[j] over the left rows i matched to a column j < k2.

    Every covering partner of a needy chromosome holds any one of its
    single-copy genes, so its candidates are that gene's hosts in the other
    genome, kept when both subset tests pass; a chromosome that is not needy
    gets its partners from the needy ones on the other side.  A NO carries
    no witness."""
    if cls is InstanceClass.FAMILY_MISMATCH:
        return SetDecision(False)
    c1, c2 = g1.chromosomes, g2.chromosomes
    k1, k2 = len(c1), len(c2)
    once1 = [c - g1.duplicated for c in c1]
    once2 = [c - g2.duplicated for c in c2]
    h1, h2 = g1.hosts, g2.hosts
    partners: list[list[int]] = [[] for _ in c1]  # the covering j of each i, ascending
    for i, s in enumerate(once1):
        if s:
            ci = c1[i]
            partners[i] = [j for j in h2[next(iter(s))] if s <= c2[j] and once2[j] <= ci]
    for j, t in enumerate(once2):
        if t:
            for i in h1[next(iter(t))]:
                if not once1[i] and t <= c1[i]:
                    partners[i].append(j)
    mirror: list[list[int]] = [[] for _ in c2]
    for i, js in enumerate(partners):
        for j in js:
            mirror[j].append(k2 + i)
    rows = [js if s else [*js, k2 + i] for i, (s, js) in enumerate(zip(once1, partners))]
    rows += (m if t else [*m, j] for j, (t, m) in enumerate(zip(once2, mirror)))
    match = _row_covering_matching(rows, k2 + k1)
    if match is None:
        return SetDecision(False)
    pairs = sorted((i, j) for j, i in enumerate(match[:k2]) if i < k1)
    # only the matched blocks are built; they intersect checked chromosomes
    cert = SetGenome._trusted(tuple(c1[i] & c2[j] for i, j in pairs))
    # the blocks partition the ground set, which both genomes share (cls is
    # no FAMILY_MISMATCH), so the matching weighs |U|
    return SetDecision(True, cert, witness_matching=Matching(frozenset(pairs), len(g1.ground_set)))


def zed_set_fpt(
    g1: SetGenome, g2: SetGenome, *, timeout_s: float = DEFAULT_TIMEOUT_S
) -> SetDecision:
    """Exact decision for the general case, fixed-parameter in the chromosome
    count: with k = max(k1, k2) (the shorter genome read as padded by empty
    chromosomes), scan all k! pairings of chromosomes for one whose
    intersections cover every gene.  The witness is the lexicographically
    smallest covering permutation; the certificate keeps each gene only in its
    lowest-index covering pair, so it is a partition.  The bitmasks of the
    non-empty intersections are filled from the two genomes' gene ->
    chromosome indexes, and only the witness pairing's blocks are built.
    Genomes over different gene sets answer NO at once.  Raises
    SearchTimeoutError (not a NO answer) once timeout_s seconds have passed,
    ValueError when timeout_s is NaN."""
    stop = deadline(timeout_s)
    if g1.ground_set != g2.ground_set:
        return SetDecision(False)
    k = max(len(g1.chromosomes), len(g2.chromosomes))
    universe = sorted(g1.ground_set)
    # the bitmask over universe of each non-empty intersection, row by row:
    # a dense k x k table would outgrow memory long before the scan's budget
    inter: list[dict[int, int]] = [{} for _ in range(k)]
    h1, h2 = g1.hosts, g2.hosts
    for x, f in enumerate(universe):
        bit = 1 << x
        for i in h1[f]:
            row = inter[i]
            for j in h2[f]:
                row[j] = row.get(j, 0) | bit
    mask = [row.get for row in inter]
    full = (1 << len(universe)) - 1
    scan = itertools.permutations(range(k))
    # the clock is read once per batch of 4096 pairings: a read per pairing,
    # even behind a counter test, slows the scan by a tenth or more
    for _ in range(0, math.factorial(k), 4096):
        if time.monotonic() > stop:
            raise timeout_error(timeout_s)
        for perm in itertools.islice(scan, 4096):
            acc = 0
            for i in range(k):
                acc |= mask[i](perm[i], 0)
            if acc == full:
                # the shorter genome is padded by empty chromosomes
                pad = (frozenset(),) * k
                c1, c2 = g1.chromosomes + pad, g2.chromosomes + pad
                covered: frozenset[int] = frozenset()
                blocks = []
                for i in range(k):
                    mine = (c1[i] & c2[perm[i]]) - covered
                    covered |= mine
                    if mine:
                        blocks.append(mine)
                return SetDecision(
                    True, SetGenome(tuple(blocks)), witness_permutation=perm
                )
    return SetDecision(False)


def _disjoint_pairs(c: tuple[int, int], cands: list[tuple[int, int]]) -> list[tuple[int, int]]:
    i, j = c
    return [d for d in cands if (i == d[0]) == (j == d[1])]


def _supported_by(live: list[tuple[int, int]]):
    """The arc revision filter: it keeps the pairs with a compatible pair in
    live.  One live pair filters as _disjoint_pairs does.  Otherwise a pair
    (i, j) not in live conflicts with exactly the rows[i] + cols[j] pairs of
    live that share one of its indices, so it is supported iff live has more."""
    if len(live) == 1:
        return functools.partial(_disjoint_pairs, live[0])
    have = set(live)
    rows: dict[int, int] = {}
    cols: dict[int, int] = {}
    for i, j in live:
        rows[i] = rows.get(i, 0) + 1
        cols[j] = cols.get(j, 0) + 1
    n = len(live)

    def supported(cands: list[tuple[int, int]]) -> list[tuple[int, int]]:
        return [d for d in cands if d in have or n > rows.get(d[0], 0) + cols.get(d[1], 0)]

    return supported


def _search_inputs(g1: SetGenome, g2: SetGenome):
    """The genes in increasing order and, for backjump_search over them (item
    x is genes[x]), their domains, degrees and touches; None when some gene
    has no covering pair.  A gene's domain is its covering pairs in (i, j)
    order, the product of its two ascending host tuples."""
    genes = sorted(g1.ground_set | g2.ground_set)
    h1, h2 = g1.hosts, g2.hosts
    cands = [list(itertools.product(h1.get(g, ()), h2.get(g, ()))) for g in genes]
    if not all(cands):
        return None
    item = {g: x for x, g in enumerate(genes)}
    # static degree: genes sharing a host chromosome interact
    degree = [0] * len(genes)
    for chrom in (*g1.chromosomes, *g2.chromosomes):
        for g in chrom:
            degree[item[g]] += len(chrom) - 1
    left = [[item[g] for g in c] for c in g1.chromosomes]
    right = [[item[g] for g in c] for c in g2.chromosomes]

    @functools.cache
    def touches(c: tuple[int, int]) -> list[int]:
        # a candidate (i', j') of gene h conflicts with c = (i, j) only when
        # exactly one of i' = i and j' = j holds, and (i', j') covers h, so h
        # lies in chromosome i of g1 or in chromosome j of g2
        i, j = c
        return sorted({*left[i], *right[j]})

    return genes, cands, degree, touches


def zed_set_exact(
    g1: SetGenome, g2: SetGenome, *, timeout_s: float = DEFAULT_TIMEOUT_S
) -> SetDecision:
    """Exact decision by search over genes.

    Every gene must pick a covering chromosome pair (i, j) with the gene in
    both chromosomes, and the distinct chosen pairs must form a matching (no
    chromosome index shared between different pairs); a gene's covering
    pairs are read off the two genomes' gene -> chromosome indexes.  Solved
    by the forward-checking backjump search shared with the ordered solver,
    trying pairs in (i, j) order; binding a pair filters only the genes that
    share a chromosome with it.  From the first refuted pair on, the search
    also revises arcs between pending genes through _supported_by, so that
    two genes whose live pairs cannot agree show the conflict before either
    is bound.  Raises SearchTimeoutError when the wall budget runs out, which
    is reported distinctly from a NO answer.
    """
    inputs = _search_inputs(g1, g2)
    if inputs is None:
        return SetDecision(False)
    genes, domains, degree, touches = inputs
    chosen = backjump_search(
        domains, degree, _disjoint_pairs, timeout_s, touches, _supported_by
    )
    if chosen is None:
        return SetDecision(False)
    groups: dict[tuple[int, int], set[int]] = {}
    for g, p in zip(genes, chosen):
        groups.setdefault(p, set()).add(g)
    pairs = sorted(groups)
    cert = SetGenome(tuple(frozenset(groups[p]) for p in pairs))
    c1, c2 = g1.chromosomes, g2.chromosomes
    total = sum(len(c1[i] & c2[j]) for i, j in pairs)
    return SetDecision(
        True, cert, witness_matching=Matching(frozenset(pairs), total)
    )


MODES = ("auto", "matching", "fpt", "exact")  # solve_set's modes


def solve_set(
    g1: SetGenome, g2: SetGenome, *, mode: str = "auto", timeout_s: float = DEFAULT_TIMEOUT_S
) -> tuple[str, SetDecision]:
    """Decide zero exemplar distance and name the route taken.

    Modes "matching", "fpt" and "exact" run zed_set_matching, zed_set_fpt and
    zed_set_exact; both searches get the timeout_s wall budget.  Mode
    "auto" answers a family mismatch NO ("family-mismatch"), sends the special
    classes to the matching and a general pair to the exact search; the
    permutation scan runs only when asked for.
    """
    if mode not in MODES:
        expected = f"{', '.join(MODES[:-1])} or {MODES[-1]}"
        raise ValueError(f"unknown mode {mode!r} (expected {expected})")
    route = mode
    if mode == "auto":
        cls = classify_instance(g1, g2)
        if cls is not InstanceClass.GENERAL:
            route = "family-mismatch" if cls is InstanceClass.FAMILY_MISMATCH else "matching"
            return route, _matching_decision(g1, g2, cls)
        route = "exact"
    if route == "matching":
        return route, zed_set_matching(g1, g2)
    if route == "fpt":
        return route, zed_set_fpt(g1, g2, timeout_s=timeout_s)
    return route, zed_set_exact(g1, g2, timeout_s=timeout_s)


def _row_covering_matching(adj: list[list[int]], n_cols: int) -> list[int] | None:
    """A matching of the bipartite graph in which row r is joined to the
    columns adj[r] (each below n_cols) that covers every row, as the row of
    each column (-1 for a free one); None when no matching covers every row.
    With no columns the matching is [], which is falsy: test it against None.

    Hopcroft-Karp (1973) from a greedy start: each row first takes its first
    free column; then each phase layers the rows by BFS from the free ones,
    up to the first layer that reaches a free column, and augments along a
    maximal set of disjoint shortest paths.  The DFS keeps its path on an
    explicit stack, so no path length meets the recursion limit, and each
    row resumes its scan where the phase left it."""
    match_col = [-1] * n_cols  # column -> its row
    free = []
    for r, cols in enumerate(adj):
        for c in cols:
            if match_col[c] < 0:
                match_col[c] = r
                break
        else:
            if not cols:
                return None
            free.append(r)
    while free:
        layer = [-1] * len(adj)  # -1: not in this phase's layers, or dead
        for r in free:
            layer[r] = 0
        frontier, reached = free, False
        while frontier and not reached:
            below = []
            for r in frontier:
                d = layer[r] + 1
                for c in adj[r]:
                    r2 = match_col[c]
                    if r2 < 0:
                        reached = True
                    elif layer[r2] < 0:
                        layer[r2] = d
                        below.append(r2)
            frontier = below
        if not reached:
            return None  # the matching is maximum and leaves a row free
        scanned, unmatched = [0] * len(adj), []
        for root in free:
            path, via = [root], []  # via[t]: the column path[t] steps through
            while path:
                r = path[-1]
                cols, i = adj[r], scanned[r]
                step = -1
                while i < len(cols):
                    c = cols[i]
                    i += 1
                    r2 = match_col[c]
                    if r2 < 0 or layer[r2] == layer[r] + 1:
                        step = c
                        break
                scanned[r] = i
                if step < 0:  # a dead end for the rest of the phase
                    layer[r] = -1
                    path.pop()
                    if via:
                        via.pop()
                elif r2 < 0:
                    via.append(step)
                    for r, c in zip(path, via):
                        match_col[c] = r
                    break
                else:
                    path.append(r2)
                    via.append(step)
            else:
                unmatched.append(root)
        free = unmatched
    return match_col


def _embeds_injectively(blocks: tuple[frozenset[int], ...], genome: SetGenome) -> bool:
    """Each block must be a subset of a distinct chromosome of genome, which
    holds every gene of the blocks.

    A non-empty block's candidate hosts are those holding its rarest gene
    (the first gene with the fewest hosts, read off the gene -> chromosome
    index; the scan stops at a gene with one host) that also pass the subset
    test; the blocks embed iff a matching covers every non-empty block
    (_row_covering_matching) and enough hosts are left over for the empty
    ones."""
    chromosomes = genome.chromosomes
    if len(blocks) > len(chromosomes):
        return False
    hosts = genome.hosts
    adj = []  # the candidate hosts of each non-empty block
    for b in blocks:
        if b:
            rare: tuple[int, ...] = ()
            for f in b:
                held = hosts[f]
                if len(held) == 1:
                    rare = held
                    break
                if not rare or len(held) < len(rare):
                    rare = held
            adj.append([h for h in rare if b <= chromosomes[h]])
    return _row_covering_matching(adj, len(chromosomes)) is not None


def verify_set_certificate(g1: SetGenome, g2: SetGenome, cert: SetGenome) -> CertificateCheck:
    """Check that cert partitions the common ground set and embeds, block by
    block and injectively, into the chromosomes of each input genome.  Each
    genome's gene -> chromosome index is built once and shared with the
    solvers that read it."""
    ground = g1.ground_set | g2.ground_set
    seen: set[int] = set()
    for c in cert.chromosomes:
        if c & seen:
            return CertificateCheck(False, NOT_PARTITION)
        seen |= c
    if seen != ground:
        return CertificateCheck(False, NOT_PARTITION)
    # a gene that a genome lacks leaves its block no host there
    if len(g1.ground_set) < len(ground) or not _embeds_injectively(cert.chromosomes, g1):
        return CertificateCheck(False, NO_EMBEDDING_IN_G1)
    if len(g2.ground_set) < len(ground) or not _embeds_injectively(cert.chromosomes, g2):
        return CertificateCheck(False, NO_EMBEDDING_IN_G2)
    return CertificateCheck(True)
