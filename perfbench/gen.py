"""Seeded inputs for the three workloads, with expected answers.

No expected answer comes from the solver under test:

* YES instances are planted.  Each one is built around a certificate, and
  set-up checks that certificate with ``verify_*``.
* NO instances are NO by construction.  Two families that occur once in each
  genome appear in opposite orders in the two sequences.  Two genes that occur
  once in each genome share a chromosome in g1 and sit in different
  chromosomes of g2.  A family appears in one genome only.  A formula holds
  all eight sign patterns over three variables.
* Reduction verdicts come from ``brute_force_sat`` and agree with the
  benchmark's own truth-table evaluator.

Inputs are written as text files in the formats the parsers accept.  The
serializers here are the benchmark's own, so writing an input does not run
the emitters under test.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import check


@dataclass
class Instance:
    """One unit of work: input files, the pipeline that runs it, the answer."""

    iid: str
    kind: str
    files: dict[str, str]
    expect: dict
    params: dict = field(default_factory=dict)
    paths: dict[str, Path] = field(default_factory=dict)


@dataclass
class Setup:
    """A workload's instances, their digest and any expected answer that
    failed its set-up check."""

    instances: list[Instance]
    digest: str
    problems: list[str]


# ---------------------------------------------------------------- text files


def seq_text(genes) -> str:
    return " ".join(str(g) for g in genes) + "\n"


def set_text(chromosomes) -> str:
    return "".join(
        (" ".join(str(f) for f in sorted(c)) if c else "-") + "\n" for c in chromosomes
    )


def cnf_text(n_vars: int, clauses) -> str:
    lines = [f"p cnf {n_vars} {len(clauses)}"]
    lines += [" ".join(str(v) for v in cl) + " 0" for cl in clauses]
    return "\n".join(lines) + "\n"


# ------------------------------------------------------ planted genome pairs


def _insert_copies(rng: random.Random, genes: list[int], families) -> None:
    for f in families:
        genes.insert(rng.randrange(len(genes) + 1), f if rng.random() < 0.5 else -f)


def planted_seq(rng, n_families, *, dup1=0.0, dup2=0.0, both=0):
    """Ordered pair around a signed permutation ``cert`` of the families.

    Each genome is ``cert`` with extra copies inserted: ``dup1``/``dup2`` of
    the families get one more copy in g1/g2 only, and ``both`` families get
    one in each genome (which makes the pair general).  ``cert`` embeds in
    both, so the pair is YES.  Returns cert, g1, g2 and the families that
    occur once in each genome.
    """
    cert = [f if rng.random() < 0.75 else -f for f in range(1, n_families + 1)]
    rng.shuffle(cert)
    fams = list(range(1, n_families + 1))
    rng.shuffle(fams)
    n1, n2 = int(n_families * dup1), int(n_families * dup2)
    only1, only2 = fams[:n1], fams[n1 : n1 + n2]
    shared = fams[n1 + n2 : n1 + n2 + both]
    g1, g2 = list(cert), list(cert)
    _insert_copies(rng, g1, only1 + shared)
    _insert_copies(rng, g2, only2 + shared)
    return cert, g1, g2, fams[n1 + n2 + both :]


def swap_once_pair(rng, g2: list[int], once: list[int]) -> tuple[int, int]:
    """Swap two families that occur once in each genome, inside g2 only.

    Their order in g2 then contradicts their order in g1, so no common
    exemplar subsequence exists: the pair becomes NO.
    """
    u, v = rng.sample(once, 2)
    iu = next(k for k, g in enumerate(g2) if abs(g) == u)
    iv = next(k for k, g in enumerate(g2) if abs(g) == v)
    g2[iu], g2[iv] = g2[iv], g2[iu]
    return u, v


def planted_set(rng, n_genes, k, *, dup1=0.0, dup2=0.0, both=0):
    """Unordered pair around a partition ``cert`` of genes 1..n_genes into k
    blocks.  Block b sits in chromosome b of g1 and chromosome perm[b] of g2;
    extra copies go to other chromosomes as in ``planted_seq``.  Returns cert,
    g1, g2, perm and the genes that occur once in each genome."""
    genes = list(range(1, n_genes + 1))
    rng.shuffle(genes)
    cuts = sorted(rng.sample(range(1, n_genes), k - 1))
    cert = [set(genes[a:b]) for a, b in zip([0, *cuts], [*cuts, n_genes])]
    perm = list(range(k))
    rng.shuffle(perm)
    g1 = [set(b) for b in cert]
    g2 = [set() for _ in range(k)]
    home = {}
    for b, block in enumerate(cert):
        g2[perm[b]] |= block
        home.update(dict.fromkeys(block, b))
    rng.shuffle(genes)
    n1, n2 = int(n_genes * dup1), int(n_genes * dup2)
    only1, only2 = genes[:n1], genes[n1 : n1 + n2]
    shared = genes[n1 + n2 : n1 + n2 + both]

    def elsewhere(h):
        return rng.choice([c for c in range(k) if c != h])

    for f in only1 + shared:
        g1[elsewhere(home[f])].add(f)
    for f in only2 + shared:
        g2[elsewhere(perm[home[f]])].add(f)
    return cert, g1, g2, perm, genes[n1 + n2 + both :]


def split_once_pair(rng, cert, g2, perm, once) -> None:
    """Move one of two once-only genes of a block to another g2 chromosome.

    The two genes then share their only g1 chromosome but not their g2 one,
    so no partition embeds injectively in both genomes: the pair becomes NO.
    """
    once_set = set(once)
    blocks = [b for b, block in enumerate(cert) if len(block & once_set) >= 2]
    b = rng.choice(blocks)
    _, v = rng.sample(sorted(cert[b] & once_set), 2)
    g2[perm[b]].discard(v)
    g2[rng.choice([c for c in range(len(g2)) if c != perm[b]])].add(v)


# ------------------------------------------------------------------ formulas

COMPLETE_UNSAT_N3 = [
    tuple(v * s for v, s in zip((1, 2, 3), signs))
    for signs in itertools.product((1, -1), repeat=3)
]


def random_clauses(rng, n_vars, n_clauses, *, distinct):
    out = []
    for _ in range(n_clauses):
        vs = rng.sample(range(1, n_vars + 1), 3) if distinct else [
            rng.randint(1, n_vars) for _ in range(3)
        ]
        out.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
    return out


def formula_with_verdict(rng, n_vars, n_clauses, *, sat, distinct):
    """First random formula along the stream whose truth table gives ``sat``."""
    while True:
        clauses = random_clauses(rng, n_vars, n_clauses, distinct=distinct)
        if (check.satisfying_assignment(n_vars, clauses) is not None) == sat:
            return clauses


def planted_sat_formula(rng, n_vars, n_clauses):
    """Formula satisfied by a hidden assignment: each clause keeps a literal
    that the assignment makes true."""
    sigma = {v: rng.random() < 0.5 for v in range(1, n_vars + 1)}
    out = []
    while len(out) < n_clauses:
        cl = random_clauses(rng, n_vars, 1, distinct=True)[0]
        if any((lit > 0) == sigma[abs(lit)] for lit in cl):
            out.append(cl)
    return out


def unsat_formula(rng, n_vars, n_clauses):
    """Formula holding the complete unsatisfiable pattern on three of its
    variables, padded with random clauses and shuffled."""
    trio = rng.sample(range(1, n_vars + 1), 3)
    out = [tuple(v if lit > 0 else -v for v, lit in zip(trio, cl)) for cl in COMPLETE_UNSAT_N3]
    out += random_clauses(rng, n_vars, n_clauses - len(out), distinct=True)
    rng.shuffle(out)
    return out


# ----------------------------------------------------------------- workloads


def _seq_pair(rng, n_families, yes, **dups):
    """Files of a planted ordered pair, made NO by a swap when not ``yes``.
    Returns the files, the planted certificate (None on NO) and the swapped
    families (empty on YES)."""
    cert, g1, g2, once = planted_seq(rng, n_families, **dups)
    swapped = () if yes else swap_once_pair(rng, g2, once)
    return {"g1": seq_text(g1), "g2": seq_text(g2)}, (cert if yes else None), swapped


def _set_pair(rng, n_genes, k, yes, **dups):
    cert, g1, g2, perm, once = planted_set(rng, n_genes, k, **dups)
    if not yes:
        split_once_pair(rng, cert, g2, perm, once)
    files = {"g1": set_text(g1), "g2": set_text(g2)}
    return files, ([sorted(b) for b in cert] if yes else None)


def _decision(iid, kind, files, cert, **params):
    expect = {"answer": cert is not None}
    if cert is not None:
        expect["cert"] = cert
    return Instance(iid, kind, files, expect, params)


def _elcs(iid, kind, rng, files, n_families, yes, swapped, n_mandatory, **params):
    """ELCS on a planted special pair.  On YES the planted certificate is a
    common subsequence of length n_families carrying every family, and no
    common subsequence is longer because each family occurs once in some
    genome.  On NO the two swapped families are both mandatory, so no
    common subsequence carries them both."""
    mandatory = set(rng.sample(range(1, n_families + 1), n_mandatory)) | set(swapped)
    expect = {"answer": yes, "length": n_families if yes else None}
    return Instance(iid, kind, files, expect, {"mandatory": sorted(mandatory), **params})


def _count(n, scale):
    return max(1, round(n * scale))


def build_poly_special(seed, scale=1.0):
    """Large per-gene-special pairs for the polynomial kernels.

    Sizes fall into bands of similar cost, so that the median (19th of 37)
    lands in the middle of fourteen NO set pairs at k=100 and the tail (11th
    slowest) inside ten YES set pairs at k=200, whatever the seed.  A YES
    costs more than a NO of the same size (certificate, verify, emit), so
    each band holds one verdict.  Three big instances sit above the bands and
    ten small ordered ones below.  A pass stays short, so that a run repeats
    every instance often.
    """
    rng = random.Random(f"poly-special/{seed}")
    out = []
    for x, size in enumerate([6000, 800, 800, 600, 600, 500]):
        fams, yes = max(8, int(size * scale)), x % 2 == 0
        files, cert, swapped = _seq_pair(rng, fams, yes, dup1=0.12, dup2=0.12)
        out.append(_decision(f"seq{x:02d}-zed", "seq-zed", files, cert))
        out.append(_elcs(f"seq{x:02d}-elcs", "seq-elcs", rng, files, fams, yes, swapped,
                         max(2, fams // 20)))
    bands = [(400, True)] + [(200, True)] * 10 + [(100, False)] * 14
    for x, (k, yes) in enumerate(bands):
        k = max(3, int(k * scale))
        files, cert = _set_pair(rng, 10 * k, k, yes, dup1=0.25, dup2=0.25)
        out.append(_decision(f"set{x:02d}-matching", "set-zed", files, cert))
    return out


def _sat_instance(iid, kind, n_vars, clauses, answer):
    return Instance(iid, kind, {"cnf": cnf_text(n_vars, clauses)}, {"answer": answer},
                    {"n_vars": n_vars, "clauses": [list(cl) for cl in clauses]})


def build_sat_reductions(seed, scale=1.0):
    """3-CNF formulas with both verdicts, for both gadget compilers.

    The mix is chosen so that each reported statistic falls inside one
    class of instances whose costs lie close together, which keeps it steady
    from seed to seed.  The median falls inside two hundred small SAT n=3,
    m=3 sequence reductions, each of which also verifies its certificate and
    converts it back into an assignment.  The tail (11th slowest)
    falls inside the UNSAT n=4, m=16 set reductions, each the complete
    unsatisfiable pattern on three variables padded with random clauses;
    refuting that pattern costs about the same whatever the padding, while a
    random UNSAT formula can cost anywhere in a fourfold range.  UNSAT
    n=2, m=3 sequence reductions and SAT set reductions sit between the two.
    """
    rng = random.Random(f"sat-reductions/{seed}")

    def verdict(n, m, sat, distinct):
        return lambda: formula_with_verdict(rng, n, m, sat=sat, distinct=distinct)

    def pattern(n, m):
        return lambda: unsat_formula(rng, n, m)

    # (compiler, variables, clauses, satisfiable, count, maker); n=2 needs
    # clauses that repeat a variable, which only the sequence compiler accepts
    specs = [("seq", 3, 3, True, 200, verdict(3, 3, True, False)),
             ("seq", 3, 4, True, 10, verdict(3, 4, True, False)),
             ("seq", 2, 3, False, 20, verdict(2, 3, False, False)),
             ("set", 4, 10, True, 8, verdict(4, 10, True, True)),
             ("set", 4, 16, False, 24, pattern(4, 16))]
    if scale < 1:
        specs = [("seq", 3, 3, True, 4, verdict(3, 3, True, False)),
                 ("seq", 2, 3, False, 3, verdict(2, 3, False, False)),
                 ("set", 4, 10, True, 2, verdict(4, 10, True, True)),
                 ("set", 4, 12, False, 2, pattern(4, 12))]
    out = []
    for compiler, n, m, sat, count, maker in specs:
        for x in range(count):
            iid = f"{compiler}-n{n}m{m}-{'sat' if sat else 'unsat'}-{x:03d}"
            out.append(_sat_instance(iid, f"sat-{compiler}", n, maker(), sat))
    out.append(_sat_instance("set-complete-unsat-n3", "sat-set", 3, COMPLETE_UNSAT_N3, False))
    return out


def build_cli_mixed(seed, scale=1.0):
    """A few hundred small instances of every class, run through the CLI."""
    rng = random.Random(f"cli-mixed/{seed}")
    out = []

    def pairs(n):
        return [x % 2 == 0 for x in range(2 * _count(n, scale))]

    # solve-seq, one block per instance class, with duplicate shares that
    # produce that class
    seq_classes = {
        "both-exemplar": (20, 200, lambda: {}),
        "one-side": (20, 200, lambda: {"dup1": 0.3} if rng.random() < 0.5 else {"dup2": 0.3}),
        "special": (20, 200, lambda: {"dup1": 0.2, "dup2": 0.2}),
        "general": (8, 16, lambda: {"dup1": 0.2, "dup2": 0.2, "both": 2}),
    }
    for name, (lo, hi, dups) in seq_classes.items():
        for x, yes in enumerate(pairs(10)):
            files, cert, _ = _seq_pair(rng, rng.randint(lo, hi), yes, **dups())
            out.append(_decision(f"seq-{name}-{x:02d}", "cli-seq", files, cert))
    for x in range(_count(4, scale)):
        fams = rng.randint(20, 200)
        _, g1, g2, _ = planted_seq(rng, fams, dup1=0.2, dup2=0.2)
        g1.insert(rng.randrange(len(g1) + 1), fams + 1)
        files = {"g1": seq_text(g1), "g2": seq_text(g2)}
        out.append(_decision(f"seq-mismatch-{x:02d}", "cli-seq", files, None))

    # solve-set: special (matching), general with k <= 10 (permutation scan),
    # general with k > 10 (exact search)
    for x, yes in enumerate(pairs(10)):
        k = rng.randint(5, 30)
        files, cert = _set_pair(rng, 8 * k, k, yes, dup1=0.2, dup2=0.2)
        out.append(_decision(f"set-special-{x:02d}", "cli-set", files, cert))
    for x, yes in enumerate(pairs(10)):
        k = rng.randint(3, 8)
        files, cert = _set_pair(rng, 5 * k, k, yes, dup1=0.15, dup2=0.15, both=k // 2)
        out.append(_decision(f"set-general-{x:02d}", "cli-set", files, cert))
    # NO instances at k = 9 and 8: the scan tries all k! pairings.  With ten
    # at k = 8 the tail (11th slowest) lands inside that group.
    for k, count in ((9, 3), (8, 10)) if scale >= 1 else ((6, 1), (5, 1)):
        for x in range(count):
            files, cert = _set_pair(rng, 5 * k, k, False, dup1=0.15, dup2=0.15, both=k // 2)
            out.append(_decision(f"set-scan-k{k}-{x:02d}", "cli-set", files, cert))
    for x, yes in enumerate(pairs(6)):
        k = rng.randint(11, 14)
        files, cert = _set_pair(rng, 5 * k, k, yes, dup1=0.15, dup2=0.15, both=k // 2)
        out.append(_decision(f"set-exact-{x:02d}", "cli-set", files, cert))
    for x in range(_count(3, scale)):
        k = rng.randint(5, 30)
        _, g1, g2, _, _ = planted_set(rng, 8 * k, k, dup1=0.2, dup2=0.2)
        g1[rng.randrange(k)].add(8 * k + 1)
        files = {"g1": set_text(g1), "g2": set_text(g2)}
        out.append(_decision(f"set-mismatch-{x:02d}", "cli-set", files, None))

    # elcs in the default special mode, and a few small ones in oracle mode
    for x, yes in enumerate(pairs(10)):
        fams = rng.randint(30, 150)
        files, _, swapped = _seq_pair(rng, fams, yes, dup1=0.2, dup2=0.2)
        out.append(_elcs(f"elcs-special-{x:02d}", "cli-elcs", rng, files, fams, yes, swapped,
                         fams // 10, mode="special"))
    for x, yes in enumerate(pairs(3)):
        fams = rng.randint(8, 12)
        files, _, swapped = _seq_pair(rng, fams, yes, dup1=0.2, dup2=0.2)
        out.append(_elcs(f"elcs-oracle-{x:02d}", "cli-elcs", rng, files, fams, yes, swapped,
                         2, mode="oracle"))

    for x, yes in enumerate(pairs(10)):
        n = rng.randint(6, 10)
        clauses = planted_sat_formula(rng, n, 4 * n) if yes else unsat_formula(rng, n, 4 * n)
        out.append(_sat_instance(f"sat-{x:02d}", "cli-sat", n, clauses, yes))
    return out


GENERATORS = {
    "poly-special": build_poly_special,
    "sat-reductions": build_sat_reductions,
    "cli-mixed": build_cli_mixed,
}
WORKLOADS = tuple(GENERATORS)


def _setup_problem(zk, inst: Instance) -> str | None:
    """Check the expected answer of one instance before any solver runs."""
    cert = inst.expect.get("cert")
    if "cnf" in inst.files:
        n, clauses = inst.params["n_vars"], inst.params["clauses"]
        truth = check.satisfying_assignment(n, clauses) is not None
        oracle = zk.brute_force_sat(zk.CnfFormula.of(n, *clauses)) is not None
        if truth != inst.expect["answer"] or oracle != truth:
            return "brute_force_sat and the truth table disagree with the expected verdict"
    elif cert is not None and inst.kind.startswith(("seq", "cli-seq")):
        g1, g2 = (check.read_seq(inst.files[r]) for r in ("g1", "g2"))
        verdict = zk.verify_seq_certificate(
            zk.SeqGenome(tuple(g1)), zk.SeqGenome(tuple(g2)), zk.SeqGenome(tuple(cert))
        )
        if not verdict.ok or check.seq_cert_problem(g1, g2, cert):
            return f"planted certificate rejected ({verdict.reason})"
    elif cert is not None:
        g1, g2 = (check.read_set(inst.files[r]) for r in ("g1", "g2"))
        blocks = [frozenset(b) for b in cert]
        verdict = zk.verify_set_certificate(
            zk.SetGenome(tuple(g1)), zk.SetGenome(tuple(g2)), zk.SetGenome(tuple(blocks))
        )
        if not verdict.ok or check.set_cert_problem(g1, g2, blocks):
            return f"planted certificate rejected ({verdict.reason})"
    return None


def setup(workload: str, seed: int, root: Path, scale: float = 1.0) -> Setup:
    """Build the workload's instances, write their files under ``root`` and
    check every expected answer.  The digest covers files and answers."""
    import zedkit as zk

    instances = GENERATORS[workload](seed, scale)
    digest = hashlib.sha256()
    problems = []
    for inst in instances:
        folder = root / inst.iid
        folder.mkdir(parents=True)
        for role, text in inst.files.items():
            inst.paths[role] = folder / role
            inst.paths[role].write_text(text, encoding="utf-8")
        if inst.kind in ("cli-seq", "cli-set", "cli-elcs"):
            inst.paths["out"] = folder / "out"
        problem = _setup_problem(zk, inst)
        if problem:
            problems.append(f"{inst.iid}: {problem}")
        record = [inst.iid, inst.kind, inst.files, inst.expect, inst.params]
        digest.update(json.dumps(record, sort_keys=True).encode())
    return Setup(instances, digest.hexdigest(), problems)
