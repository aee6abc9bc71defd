"""Cross-algorithm equivalence suites behind the selftest command.

Each suite replays seeded random instances through two or more independent
code paths, or through an emit-then-parse round trip, and demands identical
answers (plus verifying certificates); a disagreement names the suite and the
seed that produced it.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import Callable

from .formats import emit_seq_genome, emit_set_genome, parse_seq_genome, parse_set_genome
from .generate import SplitMix64, random_cnf, random_seq_pair, random_set_pair
from .model import MAX_FAMILY, Alphabet, SeqGenome, SetGenome, verify_seq_certificate
from .sat import (
    CnfFormula,
    assignment_from_seq_certificate,
    assignment_from_set_certificate,
    brute_force_sat,
    eval_assignment,
    reduce_3sat_to_seq_zed,
    reduce_3sat_to_set_zed,
)
from .search import deadline
from .seq import (
    WeightAssignment,
    _dense_max_weight_subsequence,
    _sparse_max_weight_subsequence,
    elcs_exact_oracle,
    elcs_feasible,
    elcs_special,
    is_subsequence,
    zed_seq_exact,
    zed_seq_special,
)
from .sets import verify_set_certificate, zed_set_exact, zed_set_fpt, zed_set_matching


def _agree(g1, g2, verify, **decisions) -> str | None:
    """None when the named decisions give one answer and verify accepts the
    certificate of each YES among them; else what went wrong."""
    if len({dec.answer for dec in decisions.values()}) > 1:
        return " ".join(f"{name}={dec.answer}" for name, dec in decisions.items())
    for name, dec in decisions.items():
        if dec.answer and not verify(g1, g2, dec.certificate):
            return f"{name} certificate rejected"
    return None


def _seq_special_vs_exact(seed: int) -> str | None:
    g1, g2 = random_seq_pair(seed, 2 + seed % 5, max_occ=3, special=True)
    return _agree(g1, g2, verify_seq_certificate,
                  special=zed_seq_special(g1, g2), exact=zed_seq_exact(g1, g2))


def _elcs_special_vs_oracle(seed: int) -> str | None:
    g1, g2 = random_seq_pair(seed, 2 + seed % 5, max_occ=3, special=True, signed=False)
    fams = sorted(g1.families)
    mandatory = frozenset(f for k, f in enumerate(fams) if (seed >> k) & 1)
    alphabet = Alphabet.from_mandatory(mandatory, g1.families | g2.families)
    fast = elcs_special(g1, g2, alphabet)
    slow = elcs_exact_oracle(g1, g2, alphabet)
    if (fast is None) != (slow is None):
        return f"feasibility mismatch: special={fast} oracle={slow}"
    if elcs_feasible(g1, g2, alphabet) != (slow is not None):
        return "feasibility test disagrees with oracle"
    if fast is not None and len(fast) != len(slow):
        return f"length mismatch: special={len(fast)} oracle={len(slow)}"
    for name, out in ("special", fast), ("oracle", slow):
        if out is not None and not (is_subsequence(out, g1) and is_subsequence(out, g2)
                                    and all(out.occurrences.get(f) == 1 for f in mandatory)):
            return f"{name} output is not a common subsequence holding each mandatory family once"
    return None


def _lcs_sparse_vs_dense(seed: int) -> str | None:
    rng = SplitMix64(seed)
    n = 2 + rng.randint(0, 300)
    pairs = (
        ("special", random_seq_pair(seed, n, max_occ=3, special=True)),
        ("general", random_seq_pair(seed, 2 + n % 20, max_occ=3)),
    )
    for kind, (g1, g2) in pairs:
        mandatory = frozenset(f for f in sorted(g1.families) if rng.coin())
        alphabet = Alphabet.from_mandatory(mandatory, g1.families | g2.families)
        for name, weights in (
            ("unit", WeightAssignment.uniform(g1.families | g2.families)),
            ("elcs", WeightAssignment.elcs(alphabet, g1, g2)),
        ):
            sparse = _sparse_max_weight_subsequence(g1.genes, g2.genes, weights.weight_of)
            dense = _dense_max_weight_subsequence(g1.genes, g2.genes, weights.weight_of)
            if sparse != dense:
                return (f"{name} weights, {kind} {len(g1)}x{len(g2)} pair: "
                        f"sparse {sparse[:8]}... != dense {dense[:8]}...")
    return None


def _parse_round_trip(seed: int) -> str | None:
    rng = SplitMix64(seed)
    n = 1 + rng.randint(0, 200)
    # on odd seeds, shift the families up to 10-digit ids
    shift = rng.randint(0, MAX_FAMILY - n) if seed % 2 else 0
    seqs = [SeqGenome(tuple(g + shift if g > 0 else g - shift for g in genome))
            for genome in random_seq_pair(seed, n, max_occ=3)]
    sets = []
    for genome in random_set_pair(seed, n, 1 + rng.randint(0, 9), max_occ=3):
        chromosomes = [frozenset(f + shift for f in c) for c in genome.chromosomes]
        for _ in range(rng.randint(0, 2)):
            chromosomes.insert(rng.randint(0, len(chromosomes)), frozenset())
        sets.append(SetGenome(tuple(chromosomes)))
    for g in seqs:
        if parse_seq_genome(emit_seq_genome(g)) != g:
            return f"seq genome of {len(g)} genes does not round-trip"
    for g in sets:
        if parse_set_genome(emit_set_genome(g)).chromosomes != g.chromosomes:
            return f"set genome of {len(g)} chromosomes does not round-trip"
    return None


def _sat_formula(seed: int, *, distinct_vars: bool) -> CnfFormula:
    """A random 3-CNF over n = 3..5 variables with 2n..6n clauses, so that
    both verdicts come up: 15-20 of the first 100 seeds are unsatisfiable."""
    rng = SplitMix64(seed)
    n = rng.randint(3, 5)
    return random_cnf(rng.next64(), n, rng.randint(2 * n, 6 * n), distinct_vars=distinct_vars)


def _sat_vs_zed(seed: int, distinct_vars: bool, reduce, solve, assignment) -> str | None:
    phi = _sat_formula(seed, distinct_vars=distinct_vars)
    satisfiable = brute_force_sat(phi) is not None
    g1, g2, _ = reduce(phi)
    dec = solve(g1, g2)
    if dec.answer != satisfiable:
        return f"sat={satisfiable} zed={dec.answer}"
    if dec.answer and not eval_assignment(phi, assignment(phi, dec.certificate)):
        return "extracted assignment does not satisfy the formula"
    return None


def _set_three_way(seed: int) -> str | None:
    g1, g2 = random_set_pair(seed, 3 + seed % 6, 2 + seed % 3, special=True)
    return _agree(g1, g2, verify_set_certificate, matching=zed_set_matching(g1, g2),
                  fpt=zed_set_fpt(g1, g2), exact=zed_set_exact(g1, g2))


def _set_fpt_vs_exact(seed: int) -> str | None:
    g1, g2 = random_set_pair(seed, 3 + seed % 6, 2 + seed % 3, max_occ=3)
    return _agree(g1, g2, verify_set_certificate,
                  fpt=zed_set_fpt(g1, g2), exact=zed_set_exact(g1, g2))


SUITES: tuple[tuple[str, Callable[[int], str | None]], ...] = (
    ("seq-special-vs-exact", _seq_special_vs_exact),
    ("elcs-special-vs-oracle", _elcs_special_vs_oracle),
    ("lcs-sparse-vs-dense", _lcs_sparse_vs_dense),
    ("parse-round-trip", _parse_round_trip),
    ("sat-vs-seq-zed", functools.partial(
        _sat_vs_zed, distinct_vars=False, reduce=reduce_3sat_to_seq_zed, solve=zed_seq_exact,
        assignment=assignment_from_seq_certificate)),
    ("sat-vs-set-zed", functools.partial(
        _sat_vs_zed, distinct_vars=True, reduce=reduce_3sat_to_set_zed, solve=zed_set_exact,
        assignment=assignment_from_set_certificate)),
    ("set-three-way", _set_three_way),
    ("set-fpt-vs-exact", _set_fpt_vs_exact),
)
BASE_SEED = 987_654


@dataclass
class SelftestReport:
    cases: dict[str, int] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)
    short: bool = False


def run_selftest(
    budget_s: float,
    *,
    min_cases: int = 10,
    max_cases: int = 100,
) -> SelftestReport:
    """Run every suite once per round, round r on seed BASE_SEED + r, for
    max_cases rounds or until the budget runs out; short reports that the
    suites ran fewer than min_cases.  A suite that raises on a seed is
    recorded as a failure of that seed, and the run goes on.  Raises
    ValueError when budget_s is NaN."""
    report = SelftestReport(cases={name: 0 for name, _ in SUITES})
    stop = deadline(budget_s)
    for case in range(max_cases):
        if time.monotonic() >= stop:
            break
        seed = BASE_SEED + case
        for name, fn in SUITES:
            try:
                problem = fn(seed)
            except Exception as exc:
                problem = f"raised {type(exc).__name__}: {exc}"
            report.cases[name] += 1
            if problem is not None:
                report.failures.append(f"{name} (seed {seed}): {problem}")
    report.short = any(n < min_cases for n in report.cases.values())
    return report
