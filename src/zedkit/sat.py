"""3-CNF model, brute-force satisfiability oracle, and the gadget compilers
that turn a formula into a genome pair whose exemplar distance is zero exactly
when the formula is satisfiable (one compiler per genome model), together with
converters between satisfying assignments and distance-zero certificates.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Mapping

from .errors import PreconditionViolatedError
from .model import SeqGenome, SetGenome, verify_seq_certificate
from .search import DEFAULT_TIMEOUT_S, deadline, timeout_error
from .sets import verify_set_certificate


@dataclass(frozen=True)
class Literal:
    variable: int
    positive: bool

    def __post_init__(self):
        if self.variable < 1:
            raise ValueError("variable indices are 1-based")


Clause = tuple[Literal, Literal, Literal]
Assignment = dict[int, bool]


@dataclass(frozen=True)
class CnfFormula:
    """Conjunction of exactly-three-literal clauses over variables 1..n_vars."""

    n_vars: int
    clauses: tuple[Clause, ...]

    def __post_init__(self):
        object.__setattr__(self, "clauses", tuple(tuple(cl) for cl in self.clauses))
        for cl in self.clauses:
            if len(cl) != 3:
                raise ValueError("every clause must have exactly 3 literals")
            for lit in cl:
                if lit.variable > self.n_vars:
                    raise ValueError(f"variable {lit.variable} out of range 1..{self.n_vars}")

    @classmethod
    def of(cls, n_vars: int, *clauses) -> "CnfFormula":
        """Build from clauses given as triples of nonzero signed variable indices."""
        built = tuple(
            tuple(Literal(abs(v), v > 0) for v in cl) for cl in clauses
        )
        return cls(n_vars, built)

    @property
    def distinct_vars_per_clause(self) -> bool:
        return all(len({lit.variable for lit in cl}) == 3 for cl in self.clauses)


def eval_assignment(phi: CnfFormula, sigma: Assignment) -> bool:
    """True iff every clause has a literal satisfied by the (total) assignment."""
    for v in range(1, phi.n_vars + 1):
        if v not in sigma:
            raise PreconditionViolatedError(f"assignment is missing variable {v}")
    return all(any(sigma[l.variable] == l.positive for l in cl) for cl in phi.clauses)


_LOW_VARS = 16  # variables evaluated together: a block of 2^16 codes, 8 KB per column


def _columns(low: int) -> list[int]:
    """Column v of the codes 0 .. 2^low - 1: bit c is set iff bit v of c is."""
    size = 1 << low
    columns = []
    for v in range(low):
        if v < 3:  # periods of 2, 4 and 8 bits fit in one byte
            unit = bytes([(0xAA, 0xCC, 0xF0)[v]])
        else:
            unit = bytes(1 << v - 3) + b"\xff" * (1 << v - 3)
        repeats = max(size // (8 * len(unit)), 1)
        columns.append(int.from_bytes(unit * repeats, "little") & (1 << size) - 1)
    return columns


def brute_force_sat(phi: CnfFormula, *, timeout_s: float = DEFAULT_TIMEOUT_S) -> Assignment | None:
    """First satisfying assignment in a fixed enumeration order, or None.

    Assignments are scanned as counters 0 .. 2^n - 1 with bit i-1 giving the
    value of variable i, so the result is deterministic.  The scan is
    bit-sliced (Biham 1997, "A fast new DES implementation in software"): the
    codes run in blocks of 2^16, and a block is one big int whose bit c
    stands for its c-th code.  Within a block the 16 low variables are
    columns and the others constants, so a clause is the OR of its low
    literals' columns, or the whole block when a high literal holds, and the
    formula is the AND of its clauses.  The first block with a bit left gives
    the answer at its lowest bit.  The clauses over low variables only are
    ANDed once per call; a block costs one AND per other clause that its
    constants leave open, on 8 KB ints, so 2^24 codes take 256 blocks.

    Raises SearchTimeoutError once timeout_s seconds have passed (the clock
    is read once per block), ValueError when timeout_s is NaN.
    """
    n = phi.n_vars
    stop = deadline(timeout_s)
    low = min(n, _LOW_VARS)
    columns = _columns(low)
    full = (1 << (1 << low)) - 1
    always = full  # the codes of a block that satisfy every low-only clause
    # (low part, high variables, the values of them that falsify every high
    # literal) of each clause with a high literal
    mixed: list[tuple[int, int, int]] = []
    for cl in phi.clauses:
        part = high = falsifier = 0
        for lit in cl:
            v = lit.variable - 1
            if v < low:
                part |= columns[v] if lit.positive else full ^ columns[v]
                continue
            bit = 1 << v - low
            if high & bit and bool(falsifier & bit) == lit.positive:
                break  # x or not x: the clause holds everywhere
            high |= bit
            if not lit.positive:
                falsifier |= bit
        else:
            if high:
                mixed.append((part, high, falsifier))
            else:
                always &= part
    if not always:
        return None
    for block in range(1 << n - low):
        if time.monotonic() > stop:
            raise timeout_error(timeout_s)
        models = always
        for part, high, falsifier in mixed:
            if block & high == falsifier:
                models &= part
                if not models:
                    break
        if models:
            code = block << low | (models & -models).bit_length() - 1
            return {v + 1: bool(code >> v & 1) for v in range(n)}
    return None


@dataclass(frozen=True)
class GeneNameTable:
    """Bijection between family ids and symbolic gadget roles (x_1, r_2, ...)."""

    role_of: Mapping[int, str]
    family_of: Mapping[str, int] = field(init=False, compare=False)

    def __post_init__(self):
        role_of = dict(self.role_of)
        inverse = {r: f for f, r in role_of.items()}
        if len(inverse) != len(role_of):
            raise ValueError("role names must be unique")
        object.__setattr__(self, "role_of", role_of)
        object.__setattr__(self, "family_of", inverse)

    def role(self, family: int) -> str:
        return self.role_of[family]

    def family(self, role: str) -> int:
        return self.family_of[role]

    def __len__(self) -> int:
        return len(self.role_of)


class _Layout:
    """Family numbering of a reduction, by position in its role list.

    The head roles take families 1..h, so x_i = i.  The clause genes of clause
    j take the next w = len(clause_roles) families from h + w(j-1) + 1, and
    the literal genes r/s/t of every clause follow all clause genes, three per
    clause in clause order.  pos[v] and neg[v] hold the literal genes of
    variable v's positive and negative occurrences, in ascending order.
    """

    def __init__(self, phi: CnfFormula, head: list[str], clause_roles: tuple[str, ...]):
        self.n = phi.n_vars
        self.m = len(phi.clauses)
        self.head = head
        self.clause_roles = clause_roles
        self.first_literal = len(head) + len(clause_roles) * self.m + 1
        self.pos: dict[int, list[int]] = {v: [] for v in range(1, self.n + 1)}
        self.neg: dict[int, list[int]] = {v: [] for v in range(1, self.n + 1)}
        gene = self.first_literal
        for cl in phi.clauses:
            for lit in cl:
                (self.pos if lit.positive else self.neg)[lit.variable].append(gene)
                gene += 1

    def clause_genes(self, j: int) -> range:
        width = len(self.clause_roles)
        start = len(self.head) + width * (j - 1) + 1
        return range(start, start + width)

    def literal_genes(self, j: int) -> range:
        start = self.first_literal + 3 * (j - 1)
        return range(start, start + 3)

    def name_table(self) -> GeneNameTable:
        roles = list(self.head)
        for names in (self.clause_roles, ("r", "s", "t")):
            roles += [f"{nm}_{j}" for j in range(1, self.m + 1) for nm in names]
        return GeneNameTable(dict(enumerate(roles, start=1)))


def _seq_layout(phi: CnfFormula) -> _Layout:
    heads = [f"{v}_{i}" for v in "xy" for i in range(1, phi.n_vars + 1)]
    return _Layout(phi, [*heads, "z"], ("a", "b", "c"))


def _set_layout(phi: CnfFormula) -> _Layout:
    heads = [f"x_{i}" for i in range(1, phi.n_vars + 1)]
    return _Layout(phi, heads, ("a", "b", "c", "a'", "b'", "c'"))


def reduce_3sat_to_seq_zed(phi: CnfFormula) -> tuple[SeqGenome, SeqGenome, GeneNameTable]:
    """Compile a 3-CNF formula into two ordered genomes whose exemplar distance
    is zero iff the formula is satisfiable.

    Per variable, the first genome carries y p... x q... y and the second
    p... x y x q..., where p/q are the literal genes of its positive/negative
    occurrences; a single separator gene z splits variable gadgets from clause
    gadgets; per clause, the genomes carry r a b c s a b c t and
    a r b a s c b t c.  All genes are positive, each family occurs at most
    twice per genome, and each genome has exactly 3n + 12m + 1 genes.

    Families: x_i = i, y_i = n + i, z = 2n + 1, a/b/c of clause j at
    2n + 1 + 3(j-1) + {1,2,3}, r/s/t of clause j at 2n + 3m + 1 + 3(j-1) +
    {1,2,3}.
    """
    lay, g1, g2 = _seq_genomes(phi)
    return g1, g2, lay.name_table()


def _seq_genomes(phi: CnfFormula) -> tuple[_Layout, SeqGenome, SeqGenome]:
    """reduce_3sat_to_seq_zed's layout and genomes, without the name table."""
    lay = _seq_layout(phi)
    n = lay.n
    g1: list[int] = []
    g2: list[int] = []
    for x in range(1, n + 1):
        ps, qs, y = lay.pos[x], lay.neg[x], n + x
        g1 += [y, *ps, x, *qs, y]
        g2 += [*ps, x, y, x, *qs]
    g1.append(2 * n + 1)
    g2.append(2 * n + 1)
    for j in range(1, lay.m + 1):
        a, b, c = lay.clause_genes(j)
        r, s, t = lay.literal_genes(j)
        g1 += [r, a, b, c, s, a, b, c, t]
        g2 += [a, r, b, a, s, c, b, t, c]
    return lay, SeqGenome(tuple(g1)), SeqGenome(tuple(g2))


def _taken_literal_genes(lay, sigma: Assignment) -> set[int]:
    taken: set[int] = set()
    for i in range(1, lay.n + 1):
        taken.update(lay.pos[i] if sigma[i] else lay.neg[i])
    return taken


def seq_certificate_from_assignment(phi: CnfFormula, sigma: Assignment) -> SeqGenome:
    """Common exemplar subsequence of the compiled genome pair, built from a
    satisfying assignment.

    True variables contribute p... x y, false ones y x q...; after the
    separator, each clause contributes one of three fixed patterns keyed by
    its highest-priority satisfied literal slot (r before s before t), with a
    literal gene skipped when its other copy was already taken on the variable
    side.
    """
    if not eval_assignment(phi, sigma):
        raise PreconditionViolatedError("assignment does not satisfy the formula")
    lay = _seq_layout(phi)
    n = lay.n
    taken = _taken_literal_genes(lay, sigma)
    out: list[int] = []
    for x in range(1, n + 1):
        if sigma[x]:
            out += [*lay.pos[x], x, n + x]
        else:
            out += [n + x, x, *lay.neg[x]]
    out.append(2 * n + 1)
    for j in range(1, lay.m + 1):
        a, b, c = lay.clause_genes(j)
        r, s, t = lay.literal_genes(j)
        # (gene, skip-if-taken) patterns; one of r/s/t is always taken since
        # the clause is satisfied
        if r in taken:
            pattern = [(a, False), (b, False), (s, True), (c, False), (t, True)]
        elif s in taken:
            pattern = [(r, False), (b, False), (a, False), (c, False), (t, True)]
        else:
            pattern = [(r, True), (a, False), (s, True), (b, False), (c, False)]
        for gene, skippable in pattern:
            if skippable and gene in taken:
                continue
            out.append(gene)
    return SeqGenome(tuple(out))


def assignment_from_seq_certificate(phi: CnfFormula, cert: SeqGenome) -> Assignment:
    """Satisfying assignment read off a verified certificate: a variable is
    true iff its x gene precedes its y gene."""
    _, g1, g2 = _seq_genomes(phi)
    check = verify_seq_certificate(g1, g2, cert)
    if not check:
        raise PreconditionViolatedError(f"certificate rejected: {check.reason}")
    n = phi.n_vars
    index = {abs(g): k for k, g in enumerate(cert.genes)}
    return {i: index[i] < index[n + i] for i in range(1, n + 1)}


def reduce_3sat_to_set_zed(phi: CnfFormula) -> tuple[SetGenome, SetGenome, GeneNameTable]:
    """Compile a 3-CNF formula (no repeated variable within a clause) into two
    unordered genomes whose exemplar distance is zero iff it is satisfiable.

    Per variable, the first genome holds one chromosome {p..., x, q...} and the
    second two chromosomes {p..., x} and {x, q...}; per clause, the first holds
    {a,b} {b,c} {c,a} {a',r} {b',s} {c',t} and the second {a,b,c} {a,a',r}
    {b,b',s} {c,c',t} {a'} {b'} {c'}.  Each family occurs at most twice per
    genome; totals are n + 15m and 2n + 18m genes.

    Families: x_i = i, a/b/c/a'/b'/c' of clause j at n + 6(j-1) + {1..6},
    r/s/t of clause j at n + 6m + 3(j-1) + {1,2,3}.
    """
    lay, g1, g2 = _set_genomes(phi)
    return g1, g2, lay.name_table()


def _set_genomes(phi: CnfFormula) -> tuple[_Layout, SetGenome, SetGenome]:
    """reduce_3sat_to_set_zed's layout and genomes, without the name table."""
    if not phi.distinct_vars_per_clause:
        raise PreconditionViolatedError("a clause repeats a variable")
    lay = _set_layout(phi)
    g1: list[frozenset[int]] = []
    g2: list[frozenset[int]] = []
    for x in range(1, lay.n + 1):
        ps, qs = lay.pos[x], lay.neg[x]
        g1.append(frozenset([*ps, x, *qs]))
        g2.append(frozenset([*ps, x]))
        g2.append(frozenset([x, *qs]))
    for j in range(1, lay.m + 1):
        a, b, c, a2, b2, c2 = lay.clause_genes(j)
        r, s, t = lay.literal_genes(j)
        g1 += [
            frozenset({a, b}),
            frozenset({b, c}),
            frozenset({c, a}),
            frozenset({a2, r}),
            frozenset({b2, s}),
            frozenset({c2, t}),
        ]
        g2 += [
            frozenset({a, b, c}),
            frozenset({a, a2, r}),
            frozenset({b, b2, s}),
            frozenset({c, c2, t}),
            frozenset({a2}),
            frozenset({b2}),
            frozenset({c2}),
        ]
    return lay, SetGenome(tuple(g1)), SetGenome(tuple(g2))


def set_certificate_from_assignment(phi: CnfFormula, sigma: Assignment) -> SetGenome:
    """Common reduced genome (a partition of the gene universe) built from a
    satisfying assignment for the unordered-genome reduction.

    True variables contribute {p..., x}, false ones {x, q...}; each clause
    contributes five blocks keyed by its highest-priority satisfied literal
    slot, with a literal gene dropped from its block when already taken on the
    variable side.
    """
    if not phi.distinct_vars_per_clause:
        raise PreconditionViolatedError("a clause repeats a variable")
    if not eval_assignment(phi, sigma):
        raise PreconditionViolatedError("assignment does not satisfy the formula")
    lay = _set_layout(phi)
    taken = _taken_literal_genes(lay, sigma)
    blocks: list[frozenset[int]] = []
    for x in range(1, lay.n + 1):
        if sigma[x]:
            blocks.append(frozenset([*lay.pos[x], x]))
        else:
            blocks.append(frozenset([x, *lay.neg[x]]))
    for j in range(1, lay.m + 1):
        a, b, c, a2, b2, c2 = lay.clause_genes(j)
        r, s, t = lay.literal_genes(j)

        def block(anchor: int, lit: int | None) -> frozenset[int]:
            if lit is None or lit in taken:
                return frozenset({anchor})
            return frozenset({anchor, lit})

        if r in taken:
            blocks += [frozenset({a}), frozenset({b, c}), block(a2, None),
                       block(b2, s), block(c2, t)]
        elif s in taken:
            blocks += [frozenset({b}), frozenset({c, a}), block(a2, r),
                       block(b2, None), block(c2, t)]
        else:
            blocks += [frozenset({c}), frozenset({a, b}), block(a2, r),
                       block(b2, s), block(c2, None)]
    return SetGenome(tuple(blocks))


def assignment_from_set_certificate(phi: CnfFormula, cert: SetGenome) -> Assignment:
    """Satisfying assignment read off a verified certificate: a variable is
    true iff the certificate block holding its x gene also holds a literal
    gene of one of its positive occurrences."""
    lay, g1, g2 = _set_genomes(phi)
    check = verify_set_certificate(g1, g2, cert)
    if not check:
        raise PreconditionViolatedError(f"certificate rejected: {check.reason}")
    home: dict[int, frozenset[int]] = {}
    for block in cert.chromosomes:
        for g in block:
            home[g] = block
    return {i: not home[i].isdisjoint(lay.pos[i]) for i in range(1, lay.n + 1)}
