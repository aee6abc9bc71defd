"""Independent brute-force oracles.

Everything here is deliberately naive and shares no code with the package
algorithms it validates; the fancier enumerators are themselves checked
against the most literal ones at small sizes.
"""

import itertools
from bisect import bisect_left
from collections import Counter
from functools import lru_cache


def subseq(x, y) -> bool:
    """Standalone subsequence test (exact element equality)."""
    it = iter(y)
    return all(g in it for g in x)


def common_subsequences(a: tuple, b: tuple) -> frozenset:
    """Every distinct common subsequence of a and b (tiny inputs only).

    Extending by the earliest occurrence of each next value enumerates each
    distinct subsequence exactly once.
    """
    values = sorted(set(a) & set(b))
    pos_a = {v: [i for i, g in enumerate(a) if g == v] for v in values}
    pos_b = {v: [j for j, g in enumerate(b) if g == v] for v in values}

    def first_at(positions, start):
        k = bisect_left(positions, start)
        return positions[k] if k < len(positions) else None

    @lru_cache(maxsize=None)
    def go(i: int, j: int) -> frozenset:
        out = {()}
        for v in values:
            p = first_at(pos_a[v], i)
            q = first_at(pos_b[v], j)
            if p is None or q is None:
                continue
            for tail in go(p + 1, q + 1):
                out.add((v, *tail))
        return frozenset(out)

    result = go(0, 0)
    go.cache_clear()
    return result


def max_common_subsequence_weight(a: tuple, b: tuple, weight_of) -> int:
    return max(
        sum(weight_of[abs(g)] for g in s) for s in common_subsequences(a, b)
    )


def longest_common_subsequence_length(a: tuple, b: tuple) -> int:
    return max(len(s) for s in common_subsequences(a, b))


def elcs_best_length(a: tuple, b: tuple, mandatory) -> int | None:
    """Longest common subsequence carrying each mandatory family exactly once."""
    best = None
    for s in common_subsequences(a, b):
        fams = Counter(abs(g) for g in s)
        if all(fams[f] == 1 for f in mandatory):
            best = len(s) if best is None else max(best, len(s))
    return best


def _sign_options(g1: tuple, g2: tuple):
    fams = sorted({abs(g) for g in g1} | {abs(g) for g in g2})
    s1, s2 = set(g1), set(g2)
    return fams, {f: [v for v in (f, -f) if v in s1 and v in s2] for f in fams}


def zed_seq_by_permutations(g1: tuple, g2: tuple) -> bool:
    """Most literal exemplar check: every family ordering and sign pattern,
    each candidate tested with the standalone subsequence test."""
    fams, options = _sign_options(g1, g2)
    if {abs(g) for g in g1} != {abs(g) for g in g2}:
        return False
    for perm in itertools.permutations(fams):
        for cand in itertools.product(*(options[f] for f in perm)):
            if subseq(cand, g1) and subseq(cand, g2):
                return True
    return False


def zed_seq_by_ordering_scan(g1: tuple, g2: tuple) -> bool:
    """Exhaustive scan over family orderings with dead-prefix pruning: a
    prefix that is not a common subsequence cannot be extended, so its whole
    ordering subtree is skipped.  No memoization, no dominance reasoning."""
    if {abs(g) for g in g1} != {abs(g) for g in g2}:
        return False
    fams, options = _sign_options(g1, g2)
    if any(not options[f] for f in fams):
        return False
    pos1 = {v: [i for i, g in enumerate(g1) if g == v] for f in fams for v in options[f]}
    pos2 = {v: [j for j, g in enumerate(g2) if g == v] for f in fams for v in options[f]}

    def first_at(positions, start):
        k = bisect_left(positions, start)
        return positions[k] if k < len(positions) else None

    remaining = set(fams)

    def extend(i: int, j: int) -> bool:
        if not remaining:
            return True
        for f in sorted(remaining):
            for v in options[f]:
                p = first_at(pos1[v], i)
                q = first_at(pos2[v], j)
                if p is None or q is None:
                    continue
                remaining.discard(f)
                if extend(p + 1, q + 1):
                    remaining.add(f)
                    return True
                remaining.add(f)
        return False

    return extend(0, 0)


def best_matching_weight(weights: list[list[int]]) -> int:
    """Maximum matching weight by trying every permutation of a padded square."""
    k = max(len(weights), max((len(r) for r in weights), default=0))
    w = [[0] * k for _ in range(k)]
    for i, rowvals in enumerate(weights):
        for j, value in enumerate(rowvals):
            w[i][j] = value
    return max(
        (sum(w[i][p[i]] for i in range(k)) for p in itertools.permutations(range(k))),
        default=0,
    )


def chromosome_intersections(g1, g2) -> dict:
    """The non-empty intersections of every chromosome pair, by a plain
    all-pairs loop over two lists of gene sets; keys are 0-based (i, j)."""
    out = {}
    for i, a in enumerate(g1):
        for j, b in enumerate(g2):
            common = set(a) & set(b)
            if common:
                out[(i, j)] = frozenset(common)
    return out


def embeds_injectively(blocks, hosts) -> bool:
    """Whether the blocks are subsets of distinct hosts, by trying every
    injective block -> host assignment (tiny inputs only)."""
    blocks, hosts = [set(b) for b in blocks], [set(h) for h in hosts]
    return any(
        all(b <= hosts[h] for b, h in zip(blocks, choice))
        for choice in itertools.permutations(range(len(hosts)), len(blocks))
    )


def seq_genome_views(genes) -> dict:
    """The derived views of an ordered genome (a list of signed genes), by
    one plain count: view name -> value."""
    occurrences = {}
    for g in genes:
        occurrences[abs(g)] = occurrences.get(abs(g), 0) + 1
    duplicated = {f for f, c in occurrences.items() if c > 1}
    return {"families": set(occurrences), "occurrences": occurrences, "duplicated": duplicated}


def set_genome_views(chromosomes) -> dict:
    """The derived views of an unordered genome (a list of gene sets), by
    testing every family against every chromosome: view name -> value."""
    ground = {f for c in chromosomes for f in c}
    hosts = {f: tuple(h for h, c in enumerate(chromosomes) if f in c) for f in ground}
    occurrences = {f: len(h) for f, h in hosts.items()}
    duplicated = {f for f, h in hosts.items() if len(h) > 1}
    return {"hosts": hosts, "occurrences": occurrences, "ground_set": ground,
            "duplicated": duplicated}


def set_certificate_fault(g1, g2, cert) -> str | None:
    """None when cert (a list of gene sets) partitions the ground set of the
    chromosome lists g1 and g2 and embeds injectively into both; otherwise
    the first check that fails: "partition", "g1" or "g2"."""
    ground = {f for c in (*g1, *g2) for f in c}
    genes = [f for b in cert for f in b]
    if len(genes) != len(set(genes)) or set(genes) != ground:
        return "partition"
    if not embeds_injectively(cert, g1):
        return "g1"
    if not embeds_injectively(cert, g2):
        return "g2"
    return None


_ASCII_DIGITS = frozenset("0123456789")
# int() refuses decimal strings of more digits than this (CPython's default)
_INT_MAX_STR_DIGITS = 4300


def _tokens(line: str) -> list:
    """(1-based column, token) for each run of non-whitespace characters."""
    out, start = [], None
    for i, ch in enumerate(line + " "):
        if ch.isspace():
            if start is not None:
                out.append((start + 1, line[start:i]))
                start = None
        elif start is None:
            start = i
    return out


def parse_genome_reference(data, ordered: bool):
    """Reference reader for .seq (ordered) and .set genomes that walks one
    token at a time with no regular expression.  Returns the genes as a tuple
    (.seq) or the chromosomes as a tuple of frozensets (.set), or the first
    error in reading order as (line, column, code)."""
    if isinstance(data, (bytes, bytearray)):
        try:
            text = bytes(data).decode("utf-8")
        except UnicodeDecodeError as exc:
            lines = (bytes(data[: exc.start]).decode("utf-8") + "?").splitlines()
            return (len(lines), len(lines[-1]), "MalformedToken")
    else:
        text = data
    genes, chromosomes = [], []
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = _tokens(line)
        if not tokens or tokens[0][1].startswith("#"):
            continue
        if not ordered and [tok for _, tok in tokens] == ["-"]:
            chromosomes.append(frozenset())
            continue
        members = []
        for column, tok in tokens:
            digits = tok[1:] if ordered and tok[0] in "+-" else tok
            if not digits or not set(digits) <= _ASCII_DIGITS or len(digits) > _INT_MAX_STR_DIGITS:
                return (lineno, column, "MalformedToken")
            value = int(tok)
            if value == 0:
                return (lineno, column, "ZeroGene")
            if abs(value) > 2**31 - 1:
                return (lineno, column, "MalformedToken")
            if not ordered and value in members:
                return (lineno, column, "DuplicateInChromosome")
            members.append(value)
        if ordered:
            genes.extend(members)
        else:
            chromosomes.append(frozenset(members))
    if not ordered:
        return tuple(chromosomes)
    return tuple(genes) if genes else (1, 1, "EmptyInput")


def backjump_reference(domains, degree, keep, touches, revise=None):
    """The forward-checking backjump search that picks its next item by
    scanning every pending item: the first with one live candidate, else the
    fewest live candidates, then the larger degree, then the smaller index.
    One candidate per item as a list, or None; same arguments as
    zedkit.search.backjump_search without its clock.

    With revise, once some candidate has been refuted, each accepted binding
    is followed by arc revision: the items shrunk since the binding are taken
    in the order of their shrinks, new shrinks joining the end, and each one
    whose live size changed since it was last taken has every other pending
    item, in ascending order, cut to revise(its live candidates).  A cut is
    charged to all of the taken item's pruners; an item cut to nothing
    refutes the binding."""
    n = len(domains)
    live = list(domains)
    sizes = [len(d) for d in domains]
    pruners = [[] for _ in range(n)]
    trail = []  # (item, live candidates, size, pruners added) before each shrink
    chosen = [None] * n
    bound = [False] * n
    stack = []  # (item, items pending under it, untried candidates, conflict set, trail mark)
    refuted = False

    def shrink(y, after, charged):
        trail.append((y, live[y], sizes[y], len(charged)))
        live[y], sizes[y] = after, len(after)
        pruners[y].extend(charged)

    def undo(mark):
        while len(trail) > mark:
            y, live[y], sizes[y], added = trail.pop()
            del pruners[y][len(pruners[y]) - added:]

    def revised_without_wipeout(mark, conflict):
        queue = [entry[0] for entry in trail[mark:]]
        taken = {}
        for y in queue:  # grows while it is walked
            if taken.get(y) == sizes[y]:
                continue
            taken[y] = sizes[y]
            supported = revise(live[y])
            for z in range(n):
                if z == y or bound[z]:
                    continue
                after = supported(live[z])
                if len(after) < sizes[z]:
                    shrink(z, after, sorted(set(pruners[y])))
                    queue.append(z)
                    if not after:
                        conflict.update(pruners[z])
                        return False
        return True

    pending = list(range(n))
    while True:
        if pending is not None:
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
            rest = [y for y in pending if y != pick]
            bound[pick] = True
            stack.append((pick, rest, iter(live[pick]), set(pruners[pick]), len(trail)))
        pick, rest, cands, conflict, mark = stack[-1]
        pending = None
        for c in cands:
            chosen[pick] = c
            wiped = False
            for y in touches(c):
                if bound[y]:
                    continue
                after = keep(c, live[y])
                if len(after) < sizes[y]:
                    shrink(y, after, [pick])
                    if not after:
                        conflict.update(pruners[y])
                        wiped = True
                        break
            if not wiped and (not refuted or revise is None
                              or revised_without_wipeout(mark, conflict)):
                pending = rest
                break
            refuted = True
            undo(mark)
        if pending is None:
            conflict.discard(pick)
            while stack and stack[-1][0] not in conflict:
                bound[stack.pop()[0]] = False
            if not stack:
                return None
            stack[-1][3].update(conflict)
            undo(stack[-1][4])


def dpll_sat(n_vars, clauses):
    """(model, nodes): a satisfying assignment {variable: bool} of the CNF
    whose clauses are lists of non-zero DIMACS literals, or None, and the
    number of search nodes.  Unit propagation, then a branch on the first
    literal of the shortest open clause, true first."""
    nodes = 0

    def solve(clauses, model):
        nonlocal nodes
        nodes += 1
        while True:  # unit propagation
            unit = next((cl[0] for cl in clauses if len(cl) == 1), None)
            if unit is None:
                break
            clauses = assume(clauses, unit)
            if clauses is None:
                return None
            model = {**model, abs(unit): unit > 0}
        if not clauses:
            return model
        literal = min(clauses, key=len)[0]
        for choice in (literal, -literal):
            reduced = assume(clauses, choice)
            if reduced is not None:
                found = solve(reduced, {**model, abs(choice): choice > 0})
                if found is not None:
                    return found
        return None

    def assume(clauses, literal):
        # the clauses left once literal holds; None when one becomes empty
        out = []
        for cl in clauses:
            if literal in cl:
                continue
            rest = [l for l in cl if l != -literal]
            if not rest:
                return None
            out.append(rest)
        return out

    clauses = [list(dict.fromkeys(cl)) for cl in clauses]
    model = None if not all(clauses) else solve(clauses, {})
    if model is not None:
        model = {v: model.get(v, False) for v in range(1, n_vars + 1)}
    return model, nodes


def brute_force_reference(n_vars, clauses):
    """The first satisfying assignment {variable: bool} of the CNF whose
    clauses are lists of non-zero DIMACS literals, or None: codes 0 .. 2^n - 1
    are tried one at a time, with bit i-1 giving the value of variable i."""
    lits = [[(abs(l) - 1, l > 0) for l in cl] for cl in clauses]
    for code in range(1 << n_vars):
        if all(any(bool(code >> v & 1) == pol for v, pol in cl) for cl in lits):
            return {v + 1: bool(code >> v & 1) for v in range(n_vars)}
    return None
