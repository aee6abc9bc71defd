"""The benchmark's own answer checks.

They share no code with the package: each one is the literal definition, so
a fault in a solver or in a ``verify_*`` function cannot hide itself here.
Each ``*_problem`` function returns None for a correct answer and a short
reason otherwise.
"""

from __future__ import annotations

import itertools


def read_seq(text: str) -> list[int]:
    return [int(tok) for tok in text.split()]


def read_set(text: str) -> list[frozenset[int]]:
    return [
        frozenset() if line.strip() == "-" else frozenset(int(t) for t in line.split())
        for line in text.splitlines()
        if line.strip()
    ]


def is_subsequence(x, y) -> bool:
    it = iter(y)
    return all(g in it for g in x)


def seq_cert_problem(g1, g2, cert) -> str | None:
    """A distance-zero certificate holds every family once and embeds, with
    signs, in both genomes."""
    fams = [abs(g) for g in cert]
    if len(set(fams)) != len(fams):
        return "certificate repeats a family"
    if set(fams) != {abs(g) for g in g1} | {abs(g) for g in g2}:
        return "certificate misses a family"
    if not (is_subsequence(cert, g1) and is_subsequence(cert, g2)):
        return "certificate does not embed"
    return None


def elcs_problem(a, b, mandatory, result, length) -> str | None:
    """A mandatory-symbol LCS answer is a common subsequence, carries every
    mandatory family and has the expected length."""
    if not (is_subsequence(result, a) and is_subsequence(result, b)):
        return "result is not a common subsequence"
    if not set(mandatory) <= {abs(g) for g in result}:
        return "result misses a mandatory family"
    if len(result) != length:
        return f"result has length {len(result)}, expected {length}"
    return None


def _embeds_injectively(blocks, hosts) -> bool:
    owner: dict[int, int] = {}

    def place(u: int, seen: set[int]) -> bool:
        for h, host in enumerate(hosts):
            if h not in seen and blocks[u] <= host:
                seen.add(h)
                if h not in owner or place(owner[h], seen):
                    owner[h] = u
                    return True
        return False

    return all(place(u, set()) for u in range(len(blocks)))


def set_cert_problem(g1, g2, cert) -> str | None:
    """A distance-zero certificate partitions the common ground set and each
    block sits in its own chromosome of each genome."""
    ground = set().union(*g1, *g2)
    seen: set[int] = set()
    for block in cert:
        if block & seen:
            return "certificate blocks overlap"
        seen |= block
    if seen != ground:
        return "certificate does not cover the ground set"
    if not (_embeds_injectively(cert, g1) and _embeds_injectively(cert, g2)):
        return "certificate does not embed"
    return None


def satisfies(clauses, sigma) -> bool:
    return all(any(sigma[abs(lit)] == (lit > 0) for lit in cl) for cl in clauses)


def satisfying_assignment(n_vars: int, clauses) -> dict[int, bool] | None:
    """Truth-table search; formulas here have at most a dozen variables."""
    for values in itertools.product((False, True), repeat=n_vars):
        sigma = dict(zip(range(1, n_vars + 1), values))
        if satisfies(clauses, sigma):
            return sigma
    return None
