"""Acceptance criteria, one test per criterion, each printing a pass line and
enforcing its stated runtime budget.  The timed floors of single scenarios are
`zed bench`'s list (`zedkit.cli._bench_scenarios`), which criterion 10 runs.
Run `pytest tests/test_acceptance.py -v -s` to see the lines as they pass."""

import time
import tracemalloc

import pytest

import oracles
from worked_examples import (
    COMPLETE_UNSAT_N3,
    DEGENERATE_UNSAT,
    ELCS_A,
    ELCS_B,
    ELCS_MANDATORY,
    ELCS_OPTIONAL,
    SEQ_CERT,
    SEQ_G1,
    SEQ_G2,
    TWO_CLAUSE_FORMULA,
    TWO_CLAUSE_SIGMA,
)
from zedkit import (
    Alphabet,
    ParseError,
    SeqGenome,
    SetGenome,
    assignment_from_seq_certificate,
    assignment_from_set_certificate,
    brute_force_sat,
    elcs_exact_oracle,
    elcs_special,
    eval_assignment,
    reduce_3sat_to_seq_zed,
    reduce_3sat_to_set_zed,
    seq_certificate_from_assignment,
    set_certificate_from_assignment,
    verify_seq_certificate,
    verify_set_certificate,
    zed_seq_exact,
    zed_seq_special,
    zed_set_exact,
    zed_set_fpt,
    zed_set_matching,
)
from zedkit.cli import main
from zedkit.formats import (
    BAD_HEADER,
    CLAUSE_COUNT_MISMATCH,
    CLAUSE_NOT_TERNARY,
    DUPLICATE_FAMILY,
    DUPLICATE_IN_CHROMOSOME,
    EMPTY_INPUT,
    MALFORMED_TOKEN,
    VAR_OUT_OF_RANGE,
    ZERO_GENE,
    emit_dimacs3,
    emit_name_table,
    emit_seq_genome,
    emit_set_genome,
    parse_dimacs3,
    parse_name_table,
    parse_seq_genome,
    parse_set_genome,
    render_seq_roles,
    render_set_roles,
)
from zedkit.generate import (
    SplitMix64,
    random_cnf,
    random_satisfiable_cnf,
    random_seq_pair,
    random_set_pair,
)


def report(number: int, label: str) -> None:
    print(f"PASS criterion {number:2d}: {label}")


class stopwatch:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        return False


def test_criterion_01_worked_sequence_example(tmp_path):
    p1, p2, pc = tmp_path / "g1.seq", tmp_path / "g2.seq", tmp_path / "cert.seq"
    p1.write_text(emit_seq_genome(SEQ_G1))
    p2.write_text(emit_seq_genome(SEQ_G2))
    pc.write_text(emit_seq_genome(SEQ_CERT))
    with stopwatch() as sw:
        assert main(["solve-seq", str(p1), str(p2)]) == 0
        assert main(["verify", "--variant", "seq", str(p1), str(p2), str(pc)]) == 0
    assert sw.elapsed < 1.0
    report(1, f"worked sequence instance solves YES and its certificate verifies ({sw.elapsed:.2f}s)")


def test_criterion_02_worked_elcs_example():
    alphabet = Alphabet(ELCS_MANDATORY, ELCS_OPTIONAL)
    with stopwatch() as sw:
        best = elcs_special(ELCS_A, ELCS_B, alphabet)
        assert best is not None and len(best) == 6
        fams = [abs(g) for g in best.genes]
        for f in ELCS_MANDATORY:
            assert fams.count(f) == 1
        confirm = elcs_exact_oracle(ELCS_A, ELCS_B, alphabet)
        assert confirm is not None and len(confirm) == 6
    assert sw.elapsed < 1.0
    report(2, f"mandatory-symbol LCS length 6 confirmed maximal by the oracle ({sw.elapsed:.2f}s)")


def test_criterion_03_sequence_reduction_regression(data_dir):
    with stopwatch() as sw:
        g1, g2, table = reduce_3sat_to_seq_zed(TWO_CLAUSE_FORMULA)
        n, m = 4, 2
        assert len(g1) == len(g2) == 3 * n + 12 * m + 1 == 37
        assert render_seq_roles(g1, table) == (data_dir / "example1_g1_roles.txt").read_text()
        assert render_seq_roles(g2, table) == (data_dir / "example1_g2_roles.txt").read_text()
        cert = seq_certificate_from_assignment(TWO_CLAUSE_FORMULA, TWO_CLAUSE_SIGMA)
        assert render_seq_roles(cert, table) == (data_dir / "example1_cert_roles.txt").read_text()
        assert verify_seq_certificate(g1, g2, cert).ok
    assert sw.elapsed < 1.0
    report(3, f"sequence reduction and certificate match the golden listings byte for byte ({sw.elapsed:.2f}s)")


def test_criterion_04_set_reduction_regression(data_dir):
    with stopwatch() as sw:
        g1, g2, table = reduce_3sat_to_set_zed(TWO_CLAUSE_FORMULA)
        n, m = 4, 2
        assert g1.total_genes() == n + 15 * m == 34
        assert g2.total_genes() == 2 * n + 18 * m == 44
        assert render_set_roles(g1, table) == (data_dir / "example2_g1_roles.txt").read_text()
        assert render_set_roles(g2, table) == (data_dir / "example2_g2_roles.txt").read_text()
        cert = set_certificate_from_assignment(TWO_CLAUSE_FORMULA, TWO_CLAUSE_SIGMA)
        assert render_set_roles(cert, table) == (data_dir / "example2_cert_roles.txt").read_text()
        assert verify_set_certificate(g1, g2, cert).ok
    assert sw.elapsed < 1.0
    report(4, f"set reduction and certificate match the golden listings ({sw.elapsed:.2f}s)")


def test_criterion_05_sequence_biconditional():
    with stopwatch() as sw:
        cases = [DEGENERATE_UNSAT, TWO_CLAUSE_FORMULA]
        for seed in range(200):
            rng = SplitMix64(seed)
            cases.append(random_cnf(rng.next64(), rng.randint(1, 3), rng.randint(0, 2)))
        n_yes = 0
        for phi in cases:
            satisfiable = brute_force_sat(phi) is not None
            g1, g2, _ = reduce_3sat_to_seq_zed(phi)
            dec = zed_seq_exact(g1, g2)
            assert dec.answer == satisfiable
            if dec.answer:
                n_yes += 1
                sigma = assignment_from_seq_certificate(phi, dec.certificate)
                assert eval_assignment(phi, sigma)
        assert 0 < n_yes < len(cases)  # both outcomes exercised
        # 30-clause formulas compile to 187-family pairs
        for seed in range(5):
            phi = random_cnf(seed, 3, 30)
            g1, g2, _ = reduce_3sat_to_seq_zed(phi)
            dec = zed_seq_exact(g1, g2)
            assert dec.answer == (brute_force_sat(phi) is not None)
            if dec.answer:
                assert eval_assignment(phi, assignment_from_seq_certificate(phi, dec.certificate))
    assert sw.elapsed < 60.0
    report(5, f"202 formulas + five 30-clause sequence reductions agree with the oracle "
              f"({sw.elapsed:.1f}s)")


def test_criterion_06_set_biconditional():
    with stopwatch() as sw:
        sat_cases = [TWO_CLAUSE_FORMULA]
        for seed in range(200):
            rng = SplitMix64(seed)
            sat_cases.append(
                random_satisfiable_cnf(rng.next64(), 3 + rng.randint(0, 1), rng.randint(0, 2),
                                       distinct_vars=True)
            )
        for phi in sat_cases:
            assert brute_force_sat(phi) is not None
            g1, g2, _ = reduce_3sat_to_set_zed(phi)
            dec = zed_set_exact(g1, g2)
            assert dec.answer
            sigma = assignment_from_set_certificate(phi, dec.certificate)
            assert eval_assignment(phi, sigma)
        # the unsatisfiable complete formula must answer NO
        assert brute_force_sat(COMPLETE_UNSAT_N3) is None
        g1, g2, _ = reduce_3sat_to_set_zed(COMPLETE_UNSAT_N3)
        assert not zed_set_exact(g1, g2).answer
    report(6, f"201 satisfiable + complete unsatisfiable set reductions agree with the oracle "
              f"({sw.elapsed:.1f}s)")


def test_criterion_07_gadget_crucial_properties():
    from zedkit import CnfFormula

    single = CnfFormula.of(3, (1, 2, 3))
    with stopwatch() as sw_seq:
        g1, g2, table = reduce_3sat_to_seq_zed(single)
        z = table.family("z")
        tail = lambda g: SeqGenome(tuple(g.genes[g.genes.index(z) + 1 :]))
        c1, c2 = tail(g1), tail(g2)
        assert c1.families == c2.families and len(c1.families) == 6
        assert not zed_seq_exact(c1, c2).answer
    assert sw_seq.elapsed < 1.0
    with stopwatch() as sw_set:
        s1, s2, _ = reduce_3sat_to_set_zed(single)
        d1, d2 = SetGenome(s1.chromosomes[-6:]), SetGenome(s2.chromosomes[-7:])
        assert d1.ground_set == d2.ground_set and len(d1.ground_set) == 9
        assert not zed_set_exact(d1, d2).answer
    assert sw_set.elapsed < 1.0
    report(7, f"isolated clause gadgets are infeasible (seq {sw_seq.elapsed:.2f}s, set {sw_set.elapsed:.2f}s)")


def test_criterion_08_sequence_algorithm_agreement():
    with stopwatch() as sw:
        for seed in range(100):
            rng = SplitMix64(1_000 + seed)
            g1, g2 = random_seq_pair(rng.next64(), 2 + rng.randint(0, 6), max_occ=2, special=True)
            assert max(len(g1), len(g2)) <= 20
            a = zed_seq_special(g1, g2)
            b = zed_seq_exact(g1, g2)
            assert a.answer == b.answer
            for dec in (a, b):
                if dec.answer:
                    assert verify_seq_certificate(g1, g2, dec.certificate).ok
        for seed in range(100):
            rng = SplitMix64(2_000 + seed)
            g1, g2 = random_seq_pair(rng.next64(), 2 + rng.randint(0, 8), max_occ=2)
            assert max(len(g1), len(g2)) <= 20
            dec = zed_seq_exact(g1, g2)
            assert dec.answer == oracles.zed_seq_by_ordering_scan(g1.genes, g2.genes)
            if dec.answer:
                assert verify_seq_certificate(g1, g2, dec.certificate).ok
    assert sw.elapsed < 30.0
    report(8, f"100 special + 100 general sequence instances agree across algorithms ({sw.elapsed:.1f}s)")


def test_criterion_09_set_algorithm_agreement():
    with stopwatch() as sw:
        for seed in range(100):
            rng = SplitMix64(3_000 + seed)
            g1, g2 = random_set_pair(rng.next64(), 3 + rng.randint(0, 9), 2 + rng.randint(0, 4),
                                     special=True, max_occ=3)
            assert max(len(g1), len(g2)) <= 6 and len(g1.ground_set) <= 12
            a = zed_set_matching(g1, g2)
            b = zed_set_fpt(g1, g2)
            c = zed_set_exact(g1, g2)
            assert a.answer == b.answer == c.answer
            for dec in (a, b, c):
                if dec.answer:
                    assert verify_set_certificate(g1, g2, dec.certificate).ok
        for seed in range(100):
            rng = SplitMix64(4_000 + seed)
            g1, g2 = random_set_pair(rng.next64(), 3 + rng.randint(0, 9), 2 + rng.randint(0, 4),
                                     max_occ=3)
            assert zed_set_fpt(g1, g2).answer == zed_set_exact(g1, g2).answer
    assert sw.elapsed < 60.0
    report(9, f"100 special (three-way) + 100 general set instances agree ({sw.elapsed:.1f}s)")


def test_criterion_10_complexity_smoke():
    # `zed bench` holds every timed floor and checks each outcome it states;
    # the verdicts it expects of the reductions are checked here by the oracles
    assert brute_force_sat(COMPLETE_UNSAT_N3) is None
    thirty = [brute_force_sat(random_cnf(seed, 3, 30)) is not None for seed in range(5)]
    assert thirty == [False, True, False, False, False]
    # 19 DPLL nodes for the n=20 formula, 39 for the n=24 one, 45 for the n=32
    # one, 165 for the n=40 one
    for seed, n, m in (1, 12, 60), (2, 20, 90), (2, 24, 110), (2, 32, 145), (0, 40, 180):
        phi = random_cnf(seed, n, m, distinct_vars=True)
        clauses = [[lit.variable if lit.positive else -lit.variable for lit in cl] for cl in phi.clauses]
        assert oracles.dpll_sat(phi.n_vars, clauses)[0] is None
    with stopwatch() as sw:
        assert main(["bench"]) == 0
    report(10, f"every `zed bench` scenario gives its outcome within its budget ({sw.elapsed:.1f}s)")


def test_criterion_11_io_round_trips_and_diagnostics():
    with stopwatch() as sw:
        for seed in range(400):
            rng = SplitMix64(5_000 + seed)
            g1, g2 = random_seq_pair(rng.next64(), 1 + rng.randint(0, 11), max_occ=3)
            for g in (g1, g2):
                assert parse_seq_genome(emit_seq_genome(g)) == g
        for seed in range(300):
            rng = SplitMix64(6_000 + seed)
            g1, g2 = random_set_pair(rng.next64(), 1 + rng.randint(0, 11), 1 + rng.randint(0, 4))
            for g in (g1, g2):
                if g.chromosomes:
                    assert parse_set_genome(emit_set_genome(g)).chromosomes == g.chromosomes
        for seed in range(200):
            rng = SplitMix64(7_000 + seed)
            phi = random_cnf(rng.next64(), rng.randint(1, 6), rng.randint(0, 4))
            assert parse_dimacs3(emit_dimacs3(phi)) == phi
        for seed in range(100):
            rng = SplitMix64(8_000 + seed)
            phi = random_cnf(rng.next64(), rng.randint(1, 4), rng.randint(0, 3))
            _, _, table = reduce_3sat_to_seq_zed(phi)
            assert parse_name_table(emit_name_table(table)) == table

        def code_of(parse, text):
            with pytest.raises(ParseError) as err:
                parse(text)
            return err.value.diagnostic.code

        assert code_of(parse_seq_genome, "1 0") == ZERO_GENE
        assert code_of(parse_seq_genome, "1 x") == MALFORMED_TOKEN
        assert code_of(parse_seq_genome, "") == EMPTY_INPUT
        assert code_of(parse_set_genome, "1 1") == DUPLICATE_IN_CHROMOSOME
        assert code_of(parse_set_genome, "0") == ZERO_GENE
        assert code_of(parse_set_genome, "-3") == MALFORMED_TOKEN
        assert code_of(parse_dimacs3, "nope") == BAD_HEADER
        assert code_of(parse_dimacs3, "p cnf 1 1\n1 1 0") == CLAUSE_NOT_TERNARY
        assert code_of(parse_dimacs3, "p cnf 1 1\n1 1 2 0") == VAR_OUT_OF_RANGE
        assert code_of(parse_dimacs3, "p cnf 1 2\n1 1 1 0") == CLAUSE_COUNT_MISMATCH
        assert code_of(parse_name_table, "1\ta\n1\tb") == DUPLICATE_FAMILY
    assert sw.elapsed < 60.0
    report(11, f"1000 round-trips plus all stable diagnostic codes ({sw.elapsed:.1f}s)")


def test_criterion_12_set_reductions_n12():
    verdicts = []
    with stopwatch() as sw:
        for seed in range(3):
            phi = random_cnf(seed, 12, 60, distinct_vars=True)
            satisfiable = brute_force_sat(phi) is not None
            g1, g2, _ = reduce_3sat_to_set_zed(phi)
            dec = zed_set_exact(g1, g2)
            assert dec.answer == satisfiable
            if dec.answer:
                assert verify_set_certificate(g1, g2, dec.certificate).ok
                assert eval_assignment(phi, assignment_from_set_certificate(phi, dec.certificate))
            verdicts.append("SAT" if satisfiable else "UNSAT")
    assert sw.elapsed < 15.0
    report(12, f"set reductions of three random n=12, m=60 formulas ({'/'.join(verdicts)}) agree "
               f"with the oracle ({sw.elapsed:.1f}s)")


def test_criterion_13_special_lcs_sparse():
    # 7980 x 7948 genes with 6252 signed match pairs: the dense table, 63M
    # cells, takes 318 MB on this pair; `zed bench` times it untraced
    g1, g2 = random_seq_pair(7, 6000, max_occ=3, special=True)
    tracemalloc.start()
    try:
        dec = zed_seq_special(g1, g2)
        peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert not dec.answer
    assert peak_mb < 32.0
    report(13, f"special LCS on 6000 families answers NO, peak {peak_mb:.1f} MB")
