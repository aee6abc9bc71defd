"""Algorithms on unordered multichromosomal genomes.

A common reduced genome here is a partition of the shared ground set whose
blocks embed injectively, by containment, into the chromosomes of each input.
The special case where every family occurs exactly once in at least one genome
reduces to maximum-weight bipartite matching on chromosome intersections; the
general case is handled by a permutation scan (fixed-parameter in the
chromosome count) and by the exact backjump search shared with ordered genomes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import CapExceededError, FamilyMismatchError, PreconditionViolatedError
from .model import (
    NO_EMBEDDING_IN_G1,
    NO_EMBEDDING_IN_G2,
    NOT_PARTITION,
    CertificateCheck,
    InstanceClass,
    SetGenome,
    classify_instance,
)
from .search import backjump_search


@dataclass(frozen=True)
class IntersectionGraph:
    """Complete bipartite graph on chromosome pairs; entry (i, j) holds the
    intersection of left chromosome i with right chromosome j (0-based)."""

    left_size: int
    right_size: int
    reduced: dict[tuple[int, int], frozenset[int]]

    def weight(self, i: int, j: int) -> int:
        return len(self.reduced[(i, j)])


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


def _masks(genome: SetGenome, position: dict[int, int]) -> list[int]:
    out = []
    for c in genome.chromosomes:
        m = 0
        for f in c:
            m |= 1 << position[f]
        out.append(m)
    return out


def _decode(mask: int, universe: list[int]) -> frozenset[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(universe[low.bit_length() - 1])
        mask ^= low
    return frozenset(out)


def build_intersection_graph(g1: SetGenome, g2: SetGenome) -> IntersectionGraph:
    """All pairwise chromosome intersections with their sizes."""
    universe = sorted(g1.ground_set | g2.ground_set)
    position = {f: k for k, f in enumerate(universe)}
    m1 = _masks(g1, position)
    m2 = _masks(g2, position)
    reduced = {
        (i, j): _decode(a & b, universe)
        for i, a in enumerate(m1)
        for j, b in enumerate(m2)
    }
    return IntersectionGraph(len(m1), len(m2), reduced)


def max_weight_bipartite_matching(graph: IntersectionGraph) -> Matching:
    """Matching of maximum total intersection size (assignment-problem solver)."""
    if graph.left_size == 0 or graph.right_size == 0:
        return Matching(frozenset(), 0)
    w = np.zeros((graph.left_size, graph.right_size), dtype=np.int64)
    for (i, j), c in graph.reduced.items():
        w[i, j] = len(c)
    rows, cols = linear_sum_assignment(w, maximize=True)
    pairs = frozenset(
        (int(i), int(j)) for i, j in zip(rows, cols) if w[i, j] > 0
    )
    return Matching(pairs, int(w[rows, cols].sum()))


def zed_set_matching(g1: SetGenome, g2: SetGenome) -> SetDecision:
    """Polynomial decision in the per-gene special case: the distance is zero
    iff a maximum-weight matching of chromosome intersections covers every
    gene, i.e. its weight equals the ground-set size."""
    try:
        cls = classify_instance(g1, g2)
    except FamilyMismatchError:
        return SetDecision(False)
    if cls is InstanceClass.GENERAL:
        raise PreconditionViolatedError(
            "instance is general: some family occurs at least twice in both genomes"
        )
    graph = build_intersection_graph(g1, g2)
    matching = max_weight_bipartite_matching(graph)
    if matching.total_weight != len(g1.ground_set | g2.ground_set):
        return SetDecision(False, witness_matching=matching)
    cert = SetGenome(tuple(graph.reduced[p] for p in sorted(matching.pairs)))
    return SetDecision(True, cert, witness_matching=matching)


def pad_to_equal_k(g1: SetGenome, g2: SetGenome) -> tuple[SetGenome, SetGenome]:
    """Append empty chromosomes so both genomes have max(k1, k2) chromosomes."""
    k = max(len(g1.chromosomes), len(g2.chromosomes))

    def pad(g: SetGenome) -> SetGenome:
        return SetGenome(g.chromosomes + (frozenset(),) * (k - len(g.chromosomes)))

    return pad(g1), pad(g2)


def zed_set_fpt(g1: SetGenome, g2: SetGenome, *, max_k: int = 10) -> SetDecision:
    """Exact decision for the general case, fixed-parameter in the chromosome
    count: pad to equal size k and scan all k! pairings of chromosomes for one
    whose intersections cover every gene.  The witness is the lexicographically
    smallest covering permutation; the certificate keeps each gene only in its
    lowest-index covering pair, so it is a partition."""
    p1, p2 = pad_to_equal_k(g1, g2)
    k = len(p1.chromosomes)
    if k > max_k:
        raise CapExceededError(f"chromosome count {k} exceeds the cap of {max_k}")
    universe = sorted(g1.ground_set | g2.ground_set)
    position = {f: x for x, f in enumerate(universe)}
    m1 = _masks(p1, position)
    m2 = _masks(p2, position)
    inter = [[a & b for b in m2] for a in m1]
    full = (1 << len(universe)) - 1
    for perm in itertools.permutations(range(k)):
        acc = 0
        for i in range(k):
            acc |= inter[i][perm[i]]
        if acc == full:
            covered = 0
            blocks = []
            for i in range(k):
                mine = inter[i][perm[i]] & ~covered
                covered |= mine
                if mine:
                    blocks.append(_decode(mine, universe))
            return SetDecision(
                True, SetGenome(tuple(blocks)), witness_permutation=perm
            )
    return SetDecision(False)


def _disjoint_pairs(c: tuple[int, int], cands: list[tuple[int, int]]) -> list[tuple[int, int]]:
    i, j = c
    return [d for d in cands if (i == d[0]) == (j == d[1])]


def zed_set_exact(
    g1: SetGenome,
    g2: SetGenome,
    *,
    timeout_s: float = 120.0,
    max_candidates_per_gene: int = 100,
) -> SetDecision:
    """Exact decision by search over genes.

    Every gene must pick a covering chromosome pair (i, j) with the gene in
    both chromosomes, and the distinct chosen pairs must form a matching (no
    chromosome index shared between different pairs).  Solved by the
    forward-checking backjump search shared with the ordered solver, trying
    pairs in (i, j) order.  Raises SearchTimeoutError when the wall budget
    runs out, which is reported distinctly from a NO answer, and
    CapExceededError when a gene has more covering pairs than the cap; the
    default of 100 admits every pair of genomes with up to 10 chromosomes.
    """
    if g1.ground_set != g2.ground_set:
        return SetDecision(False)
    genes = sorted(g1.ground_set)
    cands: dict[int, list[tuple[int, int]]] = {g: [] for g in genes}
    for i, a in enumerate(g1.chromosomes):
        for j, b in enumerate(g2.chromosomes):
            for g in a & b:
                cands[g].append((i, j))
    for g in genes:
        if not cands[g]:
            return SetDecision(False)
        if len(cands[g]) > max_candidates_per_gene:
            raise CapExceededError(
                f"gene {g} has {len(cands[g])} candidate pairs"
                f" (cap {max_candidates_per_gene})"
            )
    # static degree: genes sharing a host chromosome interact
    degree: dict[int, int] = {g: 0 for g in genes}
    for chrom in (*g1.chromosomes, *g2.chromosomes):
        for g in chrom:
            degree[g] += len(chrom) - 1

    chosen = backjump_search(
        [cands[g] for g in genes], [degree[g] for g in genes], _disjoint_pairs, timeout_s
    )
    if chosen is None:
        return SetDecision(False)
    groups: dict[tuple[int, int], set[int]] = {}
    for g, p in zip(genes, chosen):
        groups.setdefault(p, set()).add(g)
    pairs = sorted(groups)
    cert = SetGenome(tuple(frozenset(groups[p]) for p in pairs))
    total = sum(len(g1.chromosomes[i] & g2.chromosomes[j]) for i, j in pairs)
    return SetDecision(
        True, cert, witness_matching=Matching(frozenset(pairs), total)
    )


def solve_set(
    g1: SetGenome, g2: SetGenome, *, mode: str = "auto", max_k: int = 10, timeout_s: float = 120.0
) -> tuple[str, SetDecision]:
    """Decide zero exemplar distance and name the route taken.

    Modes "matching", "fpt" and "exact" run zed_set_matching, zed_set_fpt
    (at most max_k chromosomes) and zed_set_exact (timeout_s seconds).  Mode
    "auto" answers a family mismatch NO ("family-mismatch"), sends the special
    classes to the matching and a general pair to the exact search; the
    permutation scan runs only when asked for.
    """
    if mode not in ("auto", "matching", "fpt", "exact"):
        raise ValueError(f"unknown mode {mode!r} (expected auto, matching, fpt or exact)")
    route = mode
    if mode == "auto":
        try:
            general = classify_instance(g1, g2) is InstanceClass.GENERAL
        except FamilyMismatchError:
            return "family-mismatch", SetDecision(False)
        route = "exact" if general else "matching"
    if route == "matching":
        return route, zed_set_matching(g1, g2)
    if route == "fpt":
        return route, zed_set_fpt(g1, g2, max_k=max_k)
    return route, zed_set_exact(g1, g2, timeout_s=timeout_s)


def _embeds_injectively(
    blocks: tuple[frozenset[int], ...], hosts: tuple[frozenset[int], ...]
) -> bool:
    """Each block must be a subset of a distinct host chromosome (augmenting paths)."""
    adj = [[h for h, host in enumerate(hosts) if b <= host] for b in blocks]
    owner: dict[int, int] = {}

    def assign(u: int, visited: set[int]) -> bool:
        for h in adj[u]:
            if h in visited:
                continue
            visited.add(h)
            if h not in owner or assign(owner[h], visited):
                owner[h] = u
                return True
        return False

    return all(assign(u, set()) for u in range(len(blocks)))


def verify_set_certificate(g1: SetGenome, g2: SetGenome, cert: SetGenome) -> CertificateCheck:
    """Check that cert partitions the common ground set and embeds, block by
    block and injectively, into the chromosomes of each input genome."""
    ground = g1.ground_set | g2.ground_set
    seen: set[int] = set()
    for c in cert.chromosomes:
        if c & seen:
            return CertificateCheck(False, NOT_PARTITION)
        seen |= c
    if seen != ground:
        return CertificateCheck(False, NOT_PARTITION)
    if not _embeds_injectively(cert.chromosomes, g1.chromosomes):
        return CertificateCheck(False, NO_EMBEDDING_IN_G1)
    if not _embeds_injectively(cert.chromosomes, g2.chromosomes):
        return CertificateCheck(False, NO_EMBEDDING_IN_G2)
    return CertificateCheck(True)
