"""Batch command-line front end.

Subcommands: solve-seq, solve-set, elcs, reduce, verify, sat, gen, selftest,
bench.  solve-seq and solve-set share one command.  --timeout is the only
bound on their searches and on sat's scan; elcs takes the same --timeout for
its oracle, next to the oracle's --max-mandatory cap.  Exit codes: 0
yes/feasible, 1 no/infeasible, 2 usage or parse error, 3 precondition
violation, 4 search timeout, elcs cap or memory exhausted.  Verdicts go to
stdout, diagnostics to stderr; --report appends one JSON object per run.
"""

from __future__ import annotations

import argparse
import functools
import gc
import itertools
import json
import math
import sys
import time
from pathlib import Path

from .errors import CapExceededError, ParseError, PreconditionViolatedError, SearchTimeoutError
from .formats import (
    MALFORMED_TOKEN,
    ZERO_GENE,
    emit_dimacs3,
    emit_name_table,
    emit_seq_genome,
    emit_set_genome,
    parse_dimacs3,
    parse_family_ids,
    parse_seq_genome,
    parse_set_genome,
)
from .generate import random_cnf, random_seq_pair, random_set_pair
from .model import Alphabet, SeqGenome, SetGenome, classify_instance, verify_seq_certificate
from .sat import (
    CnfFormula,
    brute_force_sat,
    reduce_3sat_to_seq_zed,
    reduce_3sat_to_set_zed,
)
from .search import DEFAULT_TIMEOUT_S
from .selftest import run_selftest
from .seq import MODES as SEQ_MODES
from .seq import (
    DEFAULT_MAX_MANDATORY,
    _dense_max_weight_subsequence,
    elcs_exact_oracle,
    elcs_special,
    lcs,
    solve_seq,
    zed_seq_exact,
    zed_seq_special,
)
from .sets import MODES as SET_MODES
from .sets import solve_set, verify_set_certificate, zed_set_exact, zed_set_fpt, zed_set_matching

EXIT_YES = 0
EXIT_NO = 1
EXIT_USAGE = 2
EXIT_PRECONDITION = 3
EXIT_CAP = 4


def _read(path: str) -> bytes:
    return Path(path).read_bytes()  # the parsers decode UTF-8 and locate bad bytes


def _write(path: str, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")


def _report_line(args, *, verdict: str, algorithm: str, elapsed_ms: float, witness) -> None:
    if not getattr(args, "report", None):
        return
    line = json.dumps(
        {
            "command": args.command,
            "verdict": verdict,
            "algorithm": algorithm,
            "elapsed_ms": round(elapsed_ms, 3),
            "witness": witness,
        }
    )
    if args.report == "-":
        print(line)
    else:
        with open(args.report, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")


def _set_witness(dec) -> list:
    if dec.witness_permutation is not None:
        witness = [p + 1 for p in dec.witness_permutation]
        print("witness permutation:", " ".join(str(p) for p in witness))
        return witness
    witness = sorted([i + 1, j + 1] for i, j in dec.witness_matching.pairs)
    pairs = " ".join(f"{i}-{j}" for i, j in witness)
    print(f"witness matching: {pairs} (weight {dec.witness_matching.total_weight})")
    return witness


def _seq_witness(dec) -> str:
    return " ".join(str(g) for g in dec.certificate.genes)


def _cmd_solve(args) -> int:
    """solve-seq and solve-set.  On YES, show(dec) prints any witness line and
    returns the report's witness.  The functions are looked up on each
    call, not stored in the cached parser, so rebinding them takes effect."""
    if args.command == "solve-seq":
        parse, solve, emit, show = parse_seq_genome, solve_seq, emit_seq_genome, _seq_witness
    else:
        parse, solve, emit, show = parse_set_genome, solve_set, emit_set_genome, _set_witness
    g1 = parse(_read(args.g1))
    g2 = parse(_read(args.g2))
    t0 = time.perf_counter()
    route, dec = solve(g1, g2, mode=args.mode, timeout_s=args.timeout)
    elapsed = (time.perf_counter() - t0) * 1000
    verdict = "YES" if dec.answer else "NO"
    print(f"{verdict} {route}")
    witness = None
    if dec.answer:
        witness = show(dec)
        if args.cert_out:
            _write(args.cert_out, emit(dec.certificate))
    _report_line(args, verdict=verdict, algorithm=route, elapsed_ms=elapsed, witness=witness)
    return EXIT_YES if dec.answer else EXIT_NO


def _cmd_elcs(args) -> int:
    a = parse_seq_genome(_read(args.a))
    b = parse_seq_genome(_read(args.b))
    try:
        mandatory = parse_family_ids(args.mandatory)
    except ParseError as exc:
        raise ValueError(f"--mandatory: {exc}") from exc
    alphabet = Alphabet.from_mandatory(mandatory, a.families | b.families)
    t0 = time.perf_counter()
    if args.mode == "special":
        try:
            best = elcs_special(a, b, alphabet)
        except PreconditionViolatedError as exc:
            print(f"precondition violated: {exc}; rerun with --mode oracle", file=sys.stderr)
            return EXIT_PRECONDITION
    else:
        best = elcs_exact_oracle(a, b, alphabet, max_mandatory=args.max_mandatory,
                                 timeout_s=args.timeout)
    elapsed = (time.perf_counter() - t0) * 1000
    if best is None:
        print("INFEASIBLE")
        _report_line(args, verdict="INFEASIBLE", algorithm=args.mode, elapsed_ms=elapsed, witness=None)
        return EXIT_NO
    text = " ".join(str(g) for g in best.genes)
    print(f"FEASIBLE {len(best)}")
    print(text)
    if args.out:
        _write(args.out, emit_seq_genome(best))
    _report_line(args, verdict="FEASIBLE", algorithm=args.mode, elapsed_ms=elapsed, witness=text)
    return EXIT_YES


def _cmd_reduce(args) -> int:
    phi = parse_dimacs3(_read(args.cnf))
    if args.variant == "seq":
        g1, g2, table = reduce_3sat_to_seq_zed(phi)
        _write(f"{args.out_prefix}.g1", emit_seq_genome(g1))
        _write(f"{args.out_prefix}.g2", emit_seq_genome(g2))
        print(f"len = 3n+12m+1 = {len(g1)}")
    else:
        g1, g2, table = reduce_3sat_to_set_zed(phi)
        _write(f"{args.out_prefix}.g1", emit_set_genome(g1))
        _write(f"{args.out_prefix}.g2", emit_set_genome(g2))
        print(f"g1 genes = n+15m = {g1.total_genes()}")
        print(f"g2 genes = 2n+18m = {g2.total_genes()}")
    _write(f"{args.out_prefix}.tsv", emit_name_table(table))
    return EXIT_YES


def _cmd_verify(args) -> int:
    seq = args.variant == "seq"
    parse = parse_seq_genome if seq else parse_set_genome
    verify = verify_seq_certificate if seq else verify_set_certificate
    check = verify(*(parse(_read(path)) for path in (args.g1, args.g2, args.cert)))
    if check.ok:
        print("OK")
        return EXIT_YES
    print(f"FAIL {check.reason}")
    return EXIT_NO


def _cmd_sat(args) -> int:
    phi = parse_dimacs3(_read(args.cnf))
    sigma = brute_force_sat(phi, timeout_s=args.timeout)
    if sigma is None:
        print("UNSAT")
        return EXIT_NO
    print("SAT", " ".join(f"{v}={'T' if sigma[v] else 'F'}" for v in sorted(sigma)))
    return EXIT_YES


def _cmd_gen(args) -> int:
    if args.kind == "cnf":
        text = emit_dimacs3(
            random_cnf(args.seed, args.vars, args.clauses, distinct_vars=args.distinct_vars)
        )
        if args.out:
            _write(args.out, text)
        else:
            sys.stdout.write(text)
        return EXIT_YES
    if not args.out:
        print(f"gen {args.kind}: --out PREFIX is required", file=sys.stderr)
        return EXIT_USAGE
    if args.kind == "seq":
        g1, g2 = random_seq_pair(
            args.seed,
            args.families,
            max_occ=args.max_occ,
            special=args.special,
            signed=not args.unsigned,
        )
        _write(f"{args.out}.g1", emit_seq_genome(g1))
        _write(f"{args.out}.g2", emit_seq_genome(g2))
    else:
        g1, g2 = random_set_pair(
            args.seed,
            args.families,
            args.chromosomes,
            max_occ=args.max_occ,
            special=args.special,
        )
        _write(f"{args.out}.g1", emit_set_genome(g1))
        _write(f"{args.out}.g2", emit_set_genome(g2))
    print(f"wrote {args.out}.g1 and {args.out}.g2")
    return EXIT_YES


def _cmd_selftest(args) -> int:
    if args.cases < args.min_cases:
        print("selftest: --cases must be at least --min-cases", file=sys.stderr)
        return EXIT_USAGE
    report = run_selftest(args.budget, min_cases=args.min_cases, max_cases=args.cases)
    for name, count in report.cases.items():
        print(f"{name}: {count} cases")
    if report.failures:
        for failure in report.failures:
            print(f"FAIL {failure}", file=sys.stderr)
        return EXIT_NO
    if report.short:
        print("selftest: budget exhausted before minimum coverage", file=sys.stderr)
        return EXIT_CAP
    print("selftest: all suites agree")
    return EXIT_YES


def _verdict(dec) -> str:
    return "YES" if dec.answer else "NO"


def _refusal(text: str):
    """Where parse_seq_genome refuses text, as (line, column, code)."""
    try:
        parse_seq_genome(text)
    except ParseError as exc:
        return exc.diagnostic.line, exc.diagnostic.column, exc.diagnostic.code
    return "accepted"


def _certified(g1: SeqGenome, g2: SeqGenome) -> bool:
    dec = zed_seq_exact(g1, g2)
    return dec.answer and verify_seq_certificate(g1, g2, dec.certificate).ok


def _set_special_from_text(text1: str, text2: str) -> str:
    """The set special route's verdict on a pair read from text, run as a
    user runs it: parse, classify, then match (which classifies again)."""
    g1, g2 = parse_set_genome(text1), parse_set_genome(text2)
    classify_instance(g1, g2)
    return _verdict(zed_set_matching(g1, g2))


def _load_assignment_solver() -> None:
    """One matching on a tiny pair.  The assignment solver loads numpy and
    scipy.optimize on first use; a floor's set-up calls this so that its
    timed run does not, while the timed genomes' views are still built in
    that run."""
    tiny = SetGenome.of({1})
    zed_set_matching(tiny, tiny)


def _chained_hosts(chains: int, length: int) -> tuple[SetGenome, SetGenome]:
    """A genome of chains of hosts and its singleton blocks, which embed.  In
    each chain, block i < length - 1 fits hosts i and i + 1 and the last
    block fits host 0 alone, so the greedy start gives every block its first
    host and leaves the last one free: one augmenting path through the
    whole chain."""
    hosts: list[frozenset[int]] = []
    for first in range(1, chains * length, length):
        x = range(first, first + length)
        hosts.append(frozenset({x[0], x[-1]}))
        hosts += (frozenset({x[i - 1], x[i]}) for i in range(1, length - 1))
        hosts.append(frozenset({x[-2]}))
    blocks = SetGenome(tuple(frozenset({g}) for g in range(1, chains * length + 1)))
    return SetGenome(tuple(hosts)), blocks


def _bench_scenarios():
    """Every timed floor of the project, as (name, budget in seconds, run,
    the outcome run must return).  The acceptance tests run this list.  A
    budget is about ten times the slowest of five readings of its run, at
    least 0.1 s; a budget may be tightened, never loosened."""
    from .generate import SplitMix64

    rng = SplitMix64(2024)
    # the dense LCS table loads numpy on first use: here, not in the timed run
    _dense_max_weight_subsequence((1,), (1,), {1: 1})
    a = parse_seq_genome(" ".join(str(rng.randint(1, 40)) for _ in range(5000)))
    b = parse_seq_genome(" ".join(str(rng.randint(1, 40)) for _ in range(5000)))
    yield "lcs n=m=5000", 2.9, lambda: len(lcs(a, b)), 1344

    # 7980 x 7948 genes but only 6252 signed match pairs
    p1, p2 = random_seq_pair(7, 6000, max_occ=3, special=True)
    yield "special LCS 6000 families", 0.27, lambda: _verdict(zed_seq_special(p1, p2)), "NO"
    # a 3000-family exemplar inside a 33 000-gene genome: the one-side route
    # is a single scan, with no LCS table
    exemplar = SeqGenome(tuple(range(1, 3001)))
    filler = SplitMix64(5)
    host = SeqGenome(tuple(
        g for f in exemplar.genes for g in (f, *(filler.randint(1, 3000) for _ in range(10)))))
    yield ("special one-side 3000 families in 33 000 genes", 0.1,
           lambda: _verdict(zed_seq_special(host, exemplar)), "YES")

    # 133 251 genes on one 0.8 MB line, then the same line ending in a bad
    # token or gene: a check that backtracked over the tokens before it, or
    # walked the line again from its first column, would show here
    g = random_seq_pair(3, 100000, max_occ=3, special=True)[0]
    line = emit_seq_genome(g).rstrip("\n")
    yield "parse 0.8 MB genome", 0.5, lambda: parse_seq_genome(line) == g, True
    for tail, code in (" x", MALFORMED_TOKEN), (" 0", ZERO_GENE), (" 2147483648", MALFORMED_TOKEN):
        yield (f"parse 0.8 MB genome, bad last token{tail}", 0.5,
               functools.partial(_refusal, line + tail), (1, len(line) + 2, code))

    s1, s2 = random_set_pair(2024, 2000, 200, special=True)
    _load_assignment_solver()
    yield "matching k=200 |S|=2000", 0.1, lambda: _verdict(zed_set_matching(s1, s2)), "NO"
    t1, t2 = random_set_pair(2024, 20000, 2000, special=True)
    _load_assignment_solver()
    yield "matching k=2000 |S|=20000", 2.0, lambda: _verdict(zed_set_matching(t1, t2)), "NO"
    # the same pair from its text: the timed run builds every gene index and
    # occurrence profile it reads, and shares them between its steps
    texts = emit_set_genome(t1), emit_set_genome(t2)
    _load_assignment_solver()
    yield ("set special k=2000 from text", 4.1,
           functools.partial(_set_special_from_text, *texts), "NO")
    # the parse alone: comparing the genomes would take nearly as long
    yield ("parse set k=2000 texts", 0.17,
           lambda: [parse_set_genome(text).total_genes() for text in texts],
           [t1.total_genes(), t2.total_genes()])

    # genes 1 and 2 share a left chromosome but no right one, so every one of
    # the 8! pairings is scanned before answering NO
    f1 = SetGenome.of({1, 2}, {3}, {4}, {5}, {6}, {7}, {8})
    f2 = SetGenome.of({1}, {2}, {3}, {4}, {5}, {6}, {7}, {8})
    yield "permutation scan k=8", 0.3, lambda: _verdict(zed_set_fpt(f1, f2)), "NO"

    # hosts {h, h+1} plus {k} with singleton blocks from {k} down: the greedy
    # start leaves block {1} free, and its augmenting path is k steps long
    chain = SetGenome(tuple(frozenset({h, h + 1}) for h in range(1, 1500)) + (frozenset({1500}),))
    units = SetGenome(tuple(frozenset({g}) for g in range(1, 1501)))
    down = SetGenome(units.chromosomes[::-1])
    yield "verify k=1500 path", 0.1, lambda: verify_set_certificate(chain, chain, down).ok, True
    # 1000 chains of 20 hosts: the greedy start leaves one block per chain
    # free, and Hopcroft-Karp finds all 1000 augmenting paths in one phase;
    # one path per phase walks every chain 1000 times
    chained, singles = _chained_hosts(1000, 20)
    yield ("verify 1000 chains x 20 misled by greedy", 1.3,
           lambda: verify_set_certificate(chained, chained, singles).ok, True)
    # 1000 singleton chromosomes plus 1000 empty ones, certified by themselves
    padded = SetGenome(units.chromosomes[:1000] + (frozenset(),) * 1000)
    yield ("verify 1000+1000 empty", 0.1,
           lambda: verify_set_certificate(padded, padded, padded).ok, True)
    # a planted partition of 20 000 genes into 2000 blocks of 10: block b is
    # chromosome b of v1 and chromosome 1999 - b of v2, and each gene of an
    # odd block has a second copy elsewhere in v1, so the rarest-gene scan
    # walks every gene of those blocks; the run builds both gene indexes
    blocks = tuple(frozenset(range(10 * b + 1, 10 * b + 11)) for b in range(2000))
    copies: list[set[int]] = [set() for _ in blocks]
    for b in range(1, 2000, 2):
        for f in blocks[b]:
            copies[(b + rng.randint(1, 1999)) % 2000].add(f)
    v1 = SetGenome(tuple(blk | more for blk, more in zip(blocks, copies)))
    v2 = SetGenome(blocks[::-1])
    planted = SetGenome(blocks)
    yield ("verify planted k=2000 YES", 0.23,
           lambda: verify_set_certificate(v1, v2, planted).ok, True)

    # the complete unsatisfiable 3-variable formula (all eight sign patterns)
    # compiles to a 55-family ordered pair and to a set pair, which the exact
    # searches must refute
    phi = CnfFormula.of(3, *itertools.product((1, -1), (2, -2), (3, -3)))
    u1, u2, _ = reduce_3sat_to_seq_zed(phi)
    yield "seq reduction complete UNSAT n=3", 0.1, lambda: _verdict(zed_seq_exact(u1, u2)), "NO"
    h1, h2, _ = reduce_3sat_to_set_zed(phi)
    yield "set reduction complete UNSAT n=3", 0.1, lambda: _verdict(zed_set_exact(h1, h2)), "NO"
    # 30-clause formulas over 3 variables compile to 187-family pairs
    thirty = [reduce_3sat_to_seq_zed(random_cnf(seed, 3, 30))[:2] for seed in range(5)]
    yield ("seq reductions 5 x 30 clauses", 0.38,
           lambda: [_verdict(zed_seq_exact(g1, g2)) for g1, g2 in thirty],
           ["NO", "YES", "NO", "NO", "NO"])

    # no binding crosses a pair of another family, so none filters a family
    same = SeqGenome(tuple(range(1, 3000)))
    yield ("seq exact identity 2999 families", 0.62,
           lambda: _verdict(zed_seq_exact(same, same)), "YES")
    # each binding tests the 313 joint boxes of the runs of 32 families and no
    # box behind them; testing all 10 000 boxes took about 18 times as long
    ident = SeqGenome(tuple(range(1, 10001)))
    yield ("seq exact identity 10 000 families", 4.0,
           lambda: _verdict(zed_seq_exact(ident, ident)), "YES")
    # families 1..3 in reversed block order: every binding touches every
    # family, and each of the first family's 90 000 pairs is refuted
    r1 = SeqGenome(tuple(f for f in (1, 2, 3) for _ in range(300)))
    r2 = SeqGenome(tuple(f for f in (3, 2, 1) for _ in range(300)))
    yield ("seq exact reversed blocks 3 x 300 copies", 1.0,
           lambda: _verdict(zed_seq_exact(r1, r2)), "NO")
    # 25 families with up to 1000 copies each: a search that listed every
    # family's occurrence pairs would list millions
    many = [random_seq_pair(seed, 25, max_occ=1000, signed=False) for seed in range(3)]
    yield ("seq exact 3 x 25 families, up to 1000 copies", 0.43,
           lambda: [_certified(g1, g2) for g1, g2 in many], [True] * 3)

    # random unsatisfiable formulas whose set reductions the exact search
    # refutes; in the 830-gene one each binding picks the next item among
    # hundreds of pending ones
    w1, w2, _ = reduce_3sat_to_set_zed(random_cnf(1, 12, 60, distinct_vars=True))
    yield "set reduction UNSAT n=12 m=60", 0.31, lambda: _verdict(zed_set_exact(w1, w2)), "NO"
    v1, v2, _ = reduce_3sat_to_set_zed(random_cnf(2, 20, 90, distinct_vars=True))
    yield "set reduction UNSAT n=20 m=90", 0.61, lambda: _verdict(zed_set_exact(v1, v2)), "NO"
    # 1660 genes: forward checking alone runs past the default 120 s budget;
    # arc revision refutes it after about 5000 candidates
    x1, x2, _ = reduce_3sat_to_set_zed(random_cnf(0, 40, 180, distinct_vars=True))
    yield "set reduction UNSAT n=40 m=180", 5.2, lambda: _verdict(zed_set_exact(x1, x2)), "NO"

    # all 2^24 assignments in 256 bit-sliced blocks; one assignment at a time
    # the scan took 217 s
    s24 = random_cnf(2, 24, 110, distinct_vars=True)
    yield ("brute force SAT n=24 m=110 UNSAT", 0.1,
           lambda: "UNSAT" if brute_force_sat(s24) is None else "SAT", "UNSAT")
    # 2^32 assignments: no size cap may refuse a scan that the budget allows
    s32 = random_cnf(2, 32, 145, distinct_vars=True)
    yield ("brute force SAT n=32 m=145 UNSAT", 3.6,
           lambda: "UNSAT" if brute_force_sat(s32) is None else "SAT", "UNSAT")


def _cmd_bench(args) -> int:
    """Run every scenario; a wrong outcome, a raise or a run over budget
    fails the command, and the other scenarios still run."""
    failed = False
    for name, budget, run, expected in _bench_scenarios():
        # a full collection of the heap that the caller and the earlier
        # scenarios left took up to 0.13 s inside the test session (shared
        # 2-core VM); collecting first keeps one out of the timed run
        gc.collect()
        t0 = time.perf_counter()
        try:
            outcome = run()
        except Exception as exc:
            outcome = f"raised {type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        faults = [] if dt < budget else ["OVER"]
        if outcome != expected:
            faults.append(f"WRONG (expected {expected!r}, got {outcome!r})")
        failed |= bool(faults)
        print(f"{name}: {dt:.3f}s (budget {budget:g}s) {' '.join(faults) or 'ok'}")
    return EXIT_NO if failed else EXIT_YES


def _finite_seconds(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number of seconds, not {text!r}")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, not {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zed",
        description="Zero exemplar distance toolkit: solvers, reductions, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solvers = (
        ("solve-seq", "ordered", SEQ_MODES),
        ("solve-set", "unordered", SET_MODES),
    )
    for name, model, modes in solvers:
        p = sub.add_parser(name, help=f"decide zero exemplar distance for {model} genomes")
        p.add_argument("g1")
        p.add_argument("g2")
        p.add_argument("--mode", choices=modes, default="auto")
        p.add_argument("--cert-out", help="write the certificate here on YES")
        p.add_argument("--timeout", type=_finite_seconds, default=DEFAULT_TIMEOUT_S,
                       help="wall budget for the exact search or the permutation scan (s)")
        p.add_argument("--report", help="append a JSON report line to this file ('-' for stdout)")
        p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("elcs", help="longest common subsequence containing all mandatory symbols")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--mandatory", default="", help="comma- or space-separated mandatory families")
    p.add_argument("--mode", choices=["special", "oracle"], default="special")
    p.add_argument("--max-mandatory", type=_positive_int, default=DEFAULT_MAX_MANDATORY,
                   help="cap for oracle mode")
    p.add_argument("--timeout", type=_finite_seconds, default=DEFAULT_TIMEOUT_S,
                   help="wall budget for oracle mode (s)")
    p.add_argument("--out", help="write the subsequence here when feasible")
    p.add_argument("--report")
    p.set_defaults(func=_cmd_elcs)

    p = sub.add_parser("reduce", help="compile a 3-CNF formula into a genome pair")
    p.add_argument("--variant", choices=["seq", "set"], required=True)
    p.add_argument("cnf")
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("verify", help="check a distance-zero certificate")
    p.add_argument("--variant", choices=["seq", "set"], required=True)
    p.add_argument("g1")
    p.add_argument("g2")
    p.add_argument("cert")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("sat", help="brute-force satisfiability of a 3-CNF formula")
    p.add_argument("cnf")
    p.add_argument("--timeout", type=_finite_seconds, default=DEFAULT_TIMEOUT_S,
                   help="wall budget for the scan (s)")
    p.set_defaults(func=_cmd_sat)

    p = sub.add_parser("gen", help="generate seeded random instances")
    p.add_argument("kind", choices=["cnf", "seq", "set"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output file (cnf) or file prefix (seq/set)")
    p.add_argument("--vars", type=int, default=3)
    p.add_argument("--clauses", type=int, default=2)
    p.add_argument("--distinct-vars", action="store_true",
                   help="no clause repeats a variable (required by the set reduction)")
    p.add_argument("--families", type=int, default=6)
    p.add_argument("--chromosomes", type=int, default=3)
    p.add_argument("--max-occ", type=int, default=2,
                   help="occurrence bound per family per genome")
    p.add_argument("--special", action="store_true",
                   help="force every family to occur exactly once in at least one genome")
    p.add_argument("--unsigned", action="store_true", help="positive orientations only (seq)")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("selftest", help="run the cross-algorithm equivalence suites")
    p.add_argument("--budget", type=_finite_seconds, default=20.0, help="wall budget in seconds")
    p.add_argument("--cases", type=_positive_int, default=100, help="max cases per suite")
    p.add_argument("--min-cases", type=_positive_int, default=10, help="minimum coverage per suite")
    p.set_defaults(func=_cmd_selftest)

    p = sub.add_parser("bench", help="time every floor and check its outcome")
    p.set_defaults(func=_cmd_bench)

    return parser


# built on the first main call, not on import: a build costs more than most calls
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PreconditionViolatedError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (CapExceededError, SearchTimeoutError, MemoryError, RecursionError) as exc:
        print(f"limit exceeded: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_CAP
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
