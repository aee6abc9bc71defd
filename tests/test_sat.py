import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from worked_examples import (
    COMPLETE_UNSAT_N3,
    DEGENERATE_UNSAT,
    TWO_CLAUSE_FORMULA,
    TWO_CLAUSE_SIGMA,
)
from zedkit import (
    CnfFormula,
    Literal,
    PreconditionViolatedError,
    SearchTimeoutError,
    SeqGenome,
    SetGenome,
    assignment_from_seq_certificate,
    assignment_from_set_certificate,
    brute_force_sat,
    eval_assignment,
    occurrence_profile,
    reduce_3sat_to_seq_zed,
    reduce_3sat_to_set_zed,
    seq_certificate_from_assignment,
    set_certificate_from_assignment,
    solve_seq,
    verify_seq_certificate,
    verify_set_certificate,
    zed_seq_exact,
    zed_set_exact,
)
from zedkit.formats import render_seq_roles, render_set_roles
from zedkit.generate import SplitMix64, random_cnf, random_satisfiable_cnf

formulas = st.builds(
    lambda n, sign_lists: CnfFormula(
        n,
        tuple(
            tuple(Literal(1 + abs(v) % n, v >= 0) for v in cl) for cl in sign_lists
        ),
    ),
    st.integers(1, 4),
    st.lists(st.tuples(st.integers(-12, 12), st.integers(-12, 12), st.integers(-12, 12)), max_size=3),
)


def test_formula_validation():
    with pytest.raises(ValueError):
        CnfFormula(2, ((Literal(1, True), Literal(2, False)),))
    with pytest.raises(ValueError):
        CnfFormula.of(1, (1, -2, 1))
    assert TWO_CLAUSE_FORMULA.distinct_vars_per_clause
    assert not DEGENERATE_UNSAT.distinct_vars_per_clause


def test_eval_assignment_cases():
    assert eval_assignment(TWO_CLAUSE_FORMULA, TWO_CLAUSE_SIGMA)
    assert not eval_assignment(CnfFormula.of(1, (1, 1, 1)), {1: False})
    assert eval_assignment(CnfFormula(2, ()), {1: False, 2: True})
    with pytest.raises(PreconditionViolatedError):
        eval_assignment(TWO_CLAUSE_FORMULA, {1: True})


def test_brute_force_sat_known_formulas():
    sigma = brute_force_sat(TWO_CLAUSE_FORMULA)
    assert sigma is not None and eval_assignment(TWO_CLAUSE_FORMULA, sigma)
    assert brute_force_sat(DEGENERATE_UNSAT) is None
    assert brute_force_sat(COMPLETE_UNSAT_N3) is None


def dimacs(phi):
    return [[lit.variable if lit.positive else -lit.variable for lit in cl] for cl in phi.clauses]


def test_dpll_oracle_agrees_with_brute_force():
    """The independent DPLL of tests/oracles.py against brute_force_sat on 60
    random formulas with about five clauses per variable (32 UNSAT, 28 SAT),
    n = 8..14, and on six near the threshold at n = 18..24."""
    verdicts = set()
    formulas = []
    for seed in range(60):
        rng = SplitMix64(9_000 + seed)
        n = rng.randint(8, 14)
        formulas.append(random_cnf(rng.next64(), n, 5 * n + rng.randint(-4, 2), distinct_vars=True))
    formulas += [random_cnf(seed, n, round(4.3 * n), distinct_vars=True)
                 for seed, n in ((0, 18), (1, 18), (0, 21), (1, 21), (0, 24), (1, 24))]
    for phi in formulas:
        model, nodes = oracles.dpll_sat(phi.n_vars, dimacs(phi))
        expected = brute_force_sat(phi)
        assert (model is None) == (expected is None)
        if model is not None:
            assert eval_assignment(phi, model)
        assert nodes >= 1
        verdicts.add(model is None)
    assert verdicts == {True, False}
    assert oracles.dpll_sat(3, dimacs(COMPLETE_UNSAT_N3))[0] is None


@pytest.mark.parametrize("n_vars", range(13))
def test_brute_force_sat_equals_the_reference(n_vars):
    """The bit-sliced scan returns the very assignment that the one-code-at-a-
    time loop of tests/oracles.py returns: no clauses, repeated variables,
    x or not x within a clause, and both verdicts."""
    phis = [CnfFormula(n_vars, ())]
    for seed in range(30 if n_vars else 0):
        rng = SplitMix64(31 * n_vars + seed)
        distinct = n_vars >= 3 and rng.coin()
        phis.append(random_cnf(rng.next64(), n_vars, rng.randint(0, 6 * n_vars), distinct_vars=distinct))
    if n_vars:
        phis.append(CnfFormula.of(n_vars, (1, -1, n_vars), (-n_vars, -n_vars, -n_vars)))
    verdicts = set()
    for phi in phis:
        expected = oracles.brute_force_reference(n_vars, dimacs(phi))
        assert brute_force_sat(phi) == expected
        verdicts.add(expected is None)
    assert verdicts == ({False} if n_vars == 0 else {False, True})


@pytest.mark.parametrize("n_vars", [17, 18, 19, 20])
def test_brute_force_sat_equals_the_reference_past_the_first_block(n_vars):
    """Formulas whose first model lies past the first 2^16 codes: (17, 17, 17)
    forces variable 17, a variable above 16 in a clause with its own negation
    leaves the clause true, and the others mix low and high literals."""
    for seed in range(3):
        base = random_cnf(seed, n_vars, 2 * n_vars, distinct_vars=True)
        phi = CnfFormula.of(
            n_vars, (17, 17, 17), *dimacs(base), (-n_vars, 2, n_vars), (-1, -17, n_vars)
        )
        expected = oracles.brute_force_reference(n_vars, dimacs(phi))
        assert expected is not None and expected[17]
        assert brute_force_sat(phi) == expected


@pytest.mark.parametrize("seed, n_vars, n_clauses, satisfiable", [
    (0, 30, 135, False),
    (1, 30, 135, True),
    (2, 32, 145, False),
    (0, 32, 145, True),
])
def test_brute_force_sat_decides_past_24_variables(seed, n_vars, n_clauses, satisfiable):
    """Only the budget bounds the scan: 2^30 and 2^32 assignments take well
    under a second, and the verdict is oracles.dpll_sat's."""
    phi = random_cnf(seed, n_vars, n_clauses, distinct_vars=True)
    model = brute_force_sat(phi)
    assert (model is not None) == satisfiable
    assert (oracles.dpll_sat(phi.n_vars, dimacs(phi))[0] is not None) == satisfiable
    assert model is None or eval_assignment(phi, model)


def test_brute_force_sat_timeout():
    # the first model of (40, 40, 40) is code 2^39, 2^23 blocks in
    with pytest.raises(SearchTimeoutError, match="exceeded the 0.05s budget"):
        brute_force_sat(CnfFormula.of(40, (40, 40, 40)), timeout_s=0.05)
    with pytest.raises(ValueError):
        brute_force_sat(TWO_CLAUSE_FORMULA, timeout_s=float("nan"))


def test_seq_reduction_matches_golden_files(data_dir):
    g1, g2, table = reduce_3sat_to_seq_zed(TWO_CLAUSE_FORMULA)
    assert len(g1) == len(g2) == 37  # 3n + 12m + 1
    assert len(g1.families) == 21  # 2n + 6m + 1
    assert render_seq_roles(g1, table) == (data_dir / "example1_g1_roles.txt").read_text()
    assert render_seq_roles(g2, table) == (data_dir / "example1_g2_roles.txt").read_text()


def test_seq_reduction_degenerate_formulas():
    g1, g2, table = reduce_3sat_to_seq_zed(CnfFormula(1, ()))
    assert [table.role(abs(g)) for g in g1.genes] == ["y_1", "x_1", "y_1", "z"]
    assert [table.role(abs(g)) for g in g2.genes] == ["x_1", "y_1", "x_1", "z"]

    g1, _, table = reduce_3sat_to_seq_zed(CnfFormula.of(1, (1, 1, 1)))
    head = [table.role(abs(g)) for g in g1.genes[:6]]
    assert head == ["y_1", "r_1", "s_1", "t_1", "x_1", "y_1"]


@given(formulas)
@settings(max_examples=60)
def test_seq_reduction_size_invariants(phi):
    n, m = phi.n_vars, len(phi.clauses)
    g1, g2, table = reduce_3sat_to_seq_zed(phi)
    assert len(g1) == len(g2) == 3 * n + 12 * m + 1
    assert len(g1.families) == len(g2.families) == 2 * n + 6 * m + 1 == len(table)
    for profile in (occurrence_profile(g1), occurrence_profile(g2)):
        assert max(profile.values()) <= 2
        assert profile[table.family("z")] == 1
    assert all(g > 0 for g in g1.genes) and all(g > 0 for g in g2.genes)
    for i in range(1, n + 1):
        assert table.family(f"x_{i}") == i and table.family(f"y_{i}") == n + i
    assert table.family("z") == 2 * n + 1
    for j in range(1, m + 1):
        assert table.family(f"a_{j}") == 2 * n + 1 + 3 * (j - 1) + 1
        assert table.family(f"r_{j}") == 2 * n + 3 * m + 1 + 3 * (j - 1) + 1


def test_seq_certificate_matches_golden_file(data_dir):
    g1, g2, table = reduce_3sat_to_seq_zed(TWO_CLAUSE_FORMULA)
    cert = seq_certificate_from_assignment(TWO_CLAUSE_FORMULA, TWO_CLAUSE_SIGMA)
    assert render_seq_roles(cert, table) == (data_dir / "example1_cert_roles.txt").read_text()
    assert verify_seq_certificate(g1, g2, cert).ok


def test_seq_certificate_trivial_cases():
    phi = CnfFormula(1, ())
    _, _, table = reduce_3sat_to_seq_zed(phi)
    cert = seq_certificate_from_assignment(phi, {1: True})
    assert [table.role(g) for g in cert.genes] == ["x_1", "y_1", "z"]

    phi = CnfFormula.of(1, (1, 1, 1))
    _, _, table = reduce_3sat_to_seq_zed(phi)
    cert = seq_certificate_from_assignment(phi, {1: True})
    assert [table.role(g) for g in cert.genes] == [
        "r_1", "s_1", "t_1", "x_1", "y_1", "z", "a_1", "b_1", "c_1",
    ]


def test_seq_certificate_requires_satisfying_assignment():
    with pytest.raises(PreconditionViolatedError):
        seq_certificate_from_assignment(
            TWO_CLAUSE_FORMULA, {1: False, 2: True, 3: True, 4: False}
        )


def test_assignment_from_seq_certificate_worked_case():
    cert = seq_certificate_from_assignment(TWO_CLAUSE_FORMULA, TWO_CLAUSE_SIGMA)
    assert assignment_from_seq_certificate(TWO_CLAUSE_FORMULA, cert) == TWO_CLAUSE_SIGMA


def test_assignment_from_seq_certificate_rejects_garbage():
    g1, _, _ = reduce_3sat_to_seq_zed(TWO_CLAUSE_FORMULA)
    with pytest.raises(PreconditionViolatedError):
        assignment_from_seq_certificate(TWO_CLAUSE_FORMULA, g1)


@pytest.mark.parametrize("seed", range(40))
def test_seq_round_trip_on_random_satisfiable_formulas(seed):
    rng = SplitMix64(seed)
    phi = random_satisfiable_cnf(rng.next64(), rng.randint(1, 3), rng.randint(0, 2))
    sigma = brute_force_sat(phi)
    cert = seq_certificate_from_assignment(phi, sigma)
    g1, g2, _ = reduce_3sat_to_seq_zed(phi)
    assert verify_seq_certificate(g1, g2, cert).ok
    assert assignment_from_seq_certificate(phi, cert) == sigma


@pytest.mark.parametrize("seed", range(4))
def test_solve_seq_decides_257_family_reductions_by_default(seed):
    phi = random_cnf(seed, 8, 40, distinct_vars=True)
    g1, g2, _ = reduce_3sat_to_seq_zed(phi)
    assert len(g1.families) == 257  # 2n + 6m + 1
    route, dec = solve_seq(g1, g2)
    assert route == "exact"
    assert dec.answer == (brute_force_sat(phi) is not None)
    if dec.answer:
        assert verify_seq_certificate(g1, g2, dec.certificate).ok
        assert eval_assignment(phi, assignment_from_seq_certificate(phi, dec.certificate))


@pytest.mark.parametrize("seed", range(4))
def test_seq_reductions_past_brute_force_agree_with_dpll(seed):
    """n=24, m=110, against both oracles: seed 2 is UNSAT (39 DPLL nodes),
    the others are SAT."""
    phi = random_cnf(seed, 24, 110, distinct_vars=True)
    g1, g2, _ = reduce_3sat_to_seq_zed(phi)
    dec = zed_seq_exact(g1, g2)
    assert dec.answer == (brute_force_sat(phi) is not None)
    assert dec.answer == (oracles.dpll_sat(phi.n_vars, dimacs(phi))[0] is not None)
    if dec.answer:
        assert eval_assignment(phi, assignment_from_seq_certificate(phi, dec.certificate))


@pytest.mark.parametrize("seed, satisfiable", [(0, False), (1, True)])
def test_seq_reductions_at_30_variables_agree_with_dpll(seed, satisfiable):
    """n=30, m=135: oracles.dpll_sat and brute_force_sat give the verdict, and
    a YES certificate yields a satisfying assignment."""
    phi = random_cnf(seed, 30, 135, distinct_vars=True)
    assert (oracles.dpll_sat(phi.n_vars, dimacs(phi))[0] is not None) == satisfiable
    assert (brute_force_sat(phi) is not None) == satisfiable
    g1, g2, _ = reduce_3sat_to_seq_zed(phi)
    dec = zed_seq_exact(g1, g2)
    assert dec.answer == satisfiable
    if dec.answer:
        assert verify_seq_certificate(g1, g2, dec.certificate).ok
        assert eval_assignment(phi, assignment_from_seq_certificate(phi, dec.certificate))


@pytest.mark.parametrize("n_vars", [4, 5, 6])
def test_set_reductions_agree_with_brute_force(n_vars):
    """Random formulas near the threshold, both verdicts: the exact search
    answers as brute_force_sat does, and every YES certificate verifies.  A
    search that charged the candidates that arc revision removes only to the
    current binding, not to the pruners of the item revised against, answers
    NO here on satisfiable formulas."""
    verdicts = set()
    for seed in range(40):
        phi = random_cnf(seed, n_vars, round(4.3 * n_vars), distinct_vars=True)
        g1, g2, _ = reduce_3sat_to_set_zed(phi)
        dec = zed_set_exact(g1, g2)
        satisfiable = brute_force_sat(phi) is not None
        assert dec.answer == satisfiable, seed
        if dec.answer:
            assert verify_set_certificate(g1, g2, dec.certificate).ok
        verdicts.add(satisfiable)
    assert verdicts == {False, True}


@pytest.mark.parametrize("n_vars, n_clauses, seed, satisfiable", [
    (24, 110, 2, False),
    (30, 135, 0, False),
    (30, 135, 1, True),
    (40, 180, 0, False),
    (40, 180, 1, False),
])
def test_set_reductions_past_brute_force_agree_with_dpll(n_vars, n_clauses, seed, satisfiable):
    """oracles.dpll_sat gives the verdict, and brute_force_sat too up to 32
    variables (refuting n=40 would scan 2^40 assignments, about 90 s)."""
    phi = random_cnf(seed, n_vars, n_clauses, distinct_vars=True)
    assert (oracles.dpll_sat(phi.n_vars, dimacs(phi))[0] is not None) == satisfiable
    if n_vars <= 32:
        assert (brute_force_sat(phi) is not None) == satisfiable
    g1, g2, _ = reduce_3sat_to_set_zed(phi)
    dec = zed_set_exact(g1, g2)
    assert dec.answer == satisfiable
    if dec.answer:
        assert verify_set_certificate(g1, g2, dec.certificate).ok
        assert eval_assignment(phi, assignment_from_set_certificate(phi, dec.certificate))


def test_set_reduction_matches_golden_files(data_dir):
    g1, g2, table = reduce_3sat_to_set_zed(TWO_CLAUSE_FORMULA)
    assert g1.total_genes() == 34  # n + 15m
    assert g2.total_genes() == 44  # 2n + 18m
    assert len(g1) == 16 and len(g2) == 22  # n + 6m and 2n + 7m
    assert render_set_roles(g1, table) == (data_dir / "example2_g1_roles.txt").read_text()
    assert render_set_roles(g2, table) == (data_dir / "example2_g2_roles.txt").read_text()


def test_set_reduction_degenerate_formulas():
    g1, g2, table = reduce_3sat_to_set_zed(CnfFormula(1, ()))
    assert g1 == SetGenome.of({1})
    assert g2 == SetGenome.of({1}, {1})

    phi = CnfFormula.of(3, (1, -2, 3))
    g1, _, table = reduce_3sat_to_set_zed(phi)
    blocks = [{table.role(f) for f in c} for c in g1.chromosomes[:3]]
    assert blocks == [{"r_1", "x_1"}, {"x_2", "s_1"}, {"t_1", "x_3"}]


def test_set_reduction_rejects_repeated_variable():
    with pytest.raises(PreconditionViolatedError):
        reduce_3sat_to_set_zed(CnfFormula.of(2, (1, 1, 2)))


@given(formulas)
@settings(max_examples=60)
def test_set_reduction_size_invariants(phi):
    if not phi.distinct_vars_per_clause:
        return
    n, m = phi.n_vars, len(phi.clauses)
    g1, g2, table = reduce_3sat_to_set_zed(phi)
    assert g1.total_genes() == n + 15 * m
    assert g2.total_genes() == 2 * n + 18 * m
    assert len(g1) == n + 6 * m and len(g2) == 2 * n + 7 * m
    assert len(g1.ground_set) == len(g2.ground_set) == n + 9 * m == len(table)
    for profile in (occurrence_profile(g1), occurrence_profile(g2)):
        assert max(profile.values()) <= 2
    for i in range(1, n + 1):
        assert table.family(f"x_{i}") == i
    for j in range(1, m + 1):
        assert table.family(f"a_{j}") == n + 6 * (j - 1) + 1
        assert table.family(f"a'_{j}") == n + 6 * (j - 1) + 4
        assert table.family(f"r_{j}") == n + 6 * m + 3 * (j - 1) + 1


def test_set_certificate_matches_golden_file(data_dir):
    g1, g2, table = reduce_3sat_to_set_zed(TWO_CLAUSE_FORMULA)
    cert = set_certificate_from_assignment(TWO_CLAUSE_FORMULA, TWO_CLAUSE_SIGMA)
    assert render_set_roles(cert, table) == (data_dir / "example2_cert_roles.txt").read_text()
    assert verify_set_certificate(g1, g2, cert).ok


def test_set_certificate_trivial_case():
    phi = CnfFormula(1, ())
    cert = set_certificate_from_assignment(phi, {1: False})
    assert cert == SetGenome.of({1})


def test_set_certificate_case_keyed_by_middle_literal():
    # clause satisfied only through its second literal: the r/t genes stay in
    # the clause blocks, the s gene is already taken on the variable side
    phi = CnfFormula.of(3, (1, 2, 3))
    sigma = {1: False, 2: True, 3: False}
    _, _, table = reduce_3sat_to_set_zed(phi)
    cert = set_certificate_from_assignment(phi, sigma)
    blocks = {frozenset(table.role(f) for f in c) for c in cert.chromosomes}
    assert frozenset({"b_1"}) in blocks
    assert frozenset({"a_1", "c_1"}) in blocks
    assert frozenset({"a'_1", "r_1"}) in blocks
    assert frozenset({"b'_1"}) in blocks
    assert frozenset({"c'_1", "t_1"}) in blocks


def test_assignment_from_set_certificate_worked_case():
    cert = set_certificate_from_assignment(TWO_CLAUSE_FORMULA, TWO_CLAUSE_SIGMA)
    assert assignment_from_set_certificate(TWO_CLAUSE_FORMULA, cert) == TWO_CLAUSE_SIGMA


def test_assignment_from_set_certificate_rejects_garbage():
    g1, _, _ = reduce_3sat_to_set_zed(TWO_CLAUSE_FORMULA)
    with pytest.raises(PreconditionViolatedError, match="certificate rejected"):
        assignment_from_set_certificate(TWO_CLAUSE_FORMULA, g1)
    with pytest.raises(PreconditionViolatedError, match="repeats a variable"):
        assignment_from_set_certificate(CnfFormula.of(2, (1, 1, 2)), g1)


@pytest.mark.parametrize("seed", range(40))
def test_set_round_trip_on_random_satisfiable_formulas(seed):
    rng = SplitMix64(seed)
    phi = random_satisfiable_cnf(rng.next64(), 3 + rng.randint(0, 1), rng.randint(0, 2), distinct_vars=True)
    sigma = brute_force_sat(phi)
    cert = set_certificate_from_assignment(phi, sigma)
    g1, g2, _ = reduce_3sat_to_set_zed(phi)
    assert verify_set_certificate(g1, g2, cert).ok
    extracted = assignment_from_set_certificate(phi, cert)
    assert eval_assignment(phi, extracted)


def test_clause_gadget_crucial_property_seq():
    """The isolated ordered clause gadget admits no common exemplar
    subsequence over all six of its families."""
    phi = CnfFormula.of(3, (1, 2, 3))
    g1, g2, table = reduce_3sat_to_seq_zed(phi)
    z = table.family("z")
    after = lambda g: SeqGenome(tuple(g.genes[g.genes.index(z) + 1 :]))
    assert not zed_seq_exact(after(g1), after(g2)).answer


def test_clause_gadget_crucial_property_set():
    """The isolated unordered clause gadget admits no common reduced genome
    over all nine of its families."""
    phi = CnfFormula.of(3, (1, 2, 3))
    g1, g2, table = reduce_3sat_to_set_zed(phi)
    c1 = SetGenome(g1.chromosomes[-6:])
    c2 = SetGenome(g2.chromosomes[-7:])
    assert c1.ground_set == c2.ground_set and len(c1.ground_set) == 9
    assert not zed_set_exact(c1, c2).answer
    # with the first literal gene removed it becomes solvable
    r = table.family("r_1")
    strip = lambda g: SetGenome(tuple(c - {r} for c in g.chromosomes if c - {r}))
    assert zed_set_exact(strip(c1), strip(c2)).answer


@pytest.mark.parametrize("seed", range(30))
def test_sat_zed_biconditional_seq_small(seed):
    rng = SplitMix64(seed)
    phi = random_cnf(rng.next64(), rng.randint(1, 3), rng.randint(0, 2))
    g1, g2, _ = reduce_3sat_to_seq_zed(phi)
    assert zed_seq_exact(g1, g2).answer == (brute_force_sat(phi) is not None)


@pytest.mark.parametrize("seed", range(30))
def test_sat_zed_biconditional_set_small(seed):
    rng = SplitMix64(seed)
    phi = random_cnf(rng.next64(), 3, rng.randint(0, 2), distinct_vars=True)
    g1, g2, _ = reduce_3sat_to_set_zed(phi)
    assert zed_set_exact(g1, g2).answer == (brute_force_sat(phi) is not None)
