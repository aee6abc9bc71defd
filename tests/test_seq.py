import hashlib
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from worked_examples import (
    ELCS_A,
    ELCS_B,
    ELCS_MANDATORY,
    ELCS_OPTIONAL,
    SEQ_CERT,
    SEQ_G1,
    SEQ_G2,
)
from zedkit import (
    Alphabet,
    CapExceededError,
    InstanceClass,
    MissingWeightError,
    PreconditionViolatedError,
    SearchTimeoutError,
    SeqDecision,
    SeqGenome,
    WeightAssignment,
    classify_instance,
    elcs_exact_oracle,
    elcs_feasible,
    elcs_special,
    is_subsequence,
    lcs,
    solve_seq,
    verify_seq_certificate,
    weighted_lcs,
    zed_one_side_duplicate_free,
    zed_seq_exact,
    zed_seq_special,
)
from zedkit import seq
from zedkit.generate import SplitMix64, random_seq_pair
from zedkit.seq import (
    _dense_max_weight_subsequence,
    _LivePairs,
    _non_crossing,
    _sparse_max_weight_subsequence,
)

signed_genes = st.builds(
    lambda f, s: f * s, st.integers(1, 8), st.sampled_from([1, -1])
)
small_genomes = st.lists(signed_genes, max_size=10).map(lambda l: SeqGenome(tuple(l)))

ELCS_ALPHABET = Alphabet(ELCS_MANDATORY, ELCS_OPTIONAL)


def test_is_subsequence_worked_example():
    assert is_subsequence(SEQ_CERT, SEQ_G2)
    assert is_subsequence(SeqGenome(()), SEQ_G1)
    assert not is_subsequence(SeqGenome.of(1, 2), SeqGenome.of(2, 1))


def test_is_subsequence_sign_sensitive():
    assert not is_subsequence(SeqGenome.of(4), SEQ_G1)
    assert is_subsequence(SeqGenome.of(-4), SEQ_G1)


def test_lcs_worked_case():
    assert lcs(SeqGenome.of(1, 2, 2, 3), SeqGenome.of(1, 1, 2, 3)).genes == (1, 2, 3)


def test_lcs_reversed_sequences():
    a, b = SeqGenome.of(1, 2, 3), SeqGenome.of(3, 2, 1)
    got = len(lcs(a, b))
    assert got == 1
    assert got == oracles.longest_common_subsequence_length(a.genes, b.genes)


@given(small_genomes)
def test_lcs_identity(x):
    assert lcs(x, x) == x


@given(small_genomes, small_genomes)
def test_lcs_properties(a, b):
    out = lcs(a, b)
    assert len(out) == len(lcs(b, a))
    assert is_subsequence(out, a) and is_subsequence(out, b)


@given(small_genomes, small_genomes)
@settings(max_examples=40)
def test_lcs_matches_enumeration(a, b):
    assert len(lcs(a, b)) == oracles.longest_common_subsequence_length(a.genes, b.genes)


@given(small_genomes, small_genomes)
def test_uniform_weights_degenerate_to_lcs(a, b):
    weights = WeightAssignment.uniform(a.families | b.families)
    assert len(weighted_lcs(a, b, weights)) == len(lcs(a, b))


pair_genes = st.lists(
    st.builds(lambda f, s: f * s, st.integers(1, 6), st.sampled_from([1, -1])), max_size=30
).map(tuple)


@st.composite
def weighted_pairs(draw, kind):
    """Two signed gene tuples and positive weights of one kind for their families."""
    a, b = draw(pair_genes), draw(pair_genes)
    fams = sorted({abs(g) for g in a + b})
    if kind == "unit":
        return a, b, {f: 1 for f in fams}
    if kind == "random":
        return a, b, {f: draw(st.integers(1, 9)) for f in fams}
    mandatory = draw(st.sets(st.sampled_from(fams))) if fams else set()
    alphabet = Alphabet.from_mandatory(mandatory, fams)
    return a, b, WeightAssignment.elcs(alphabet, SeqGenome(a), SeqGenome(b)).weight_of


@pytest.mark.parametrize("kind", ["unit", "elcs", "random"])
@given(data=st.data())
@settings(max_examples=300)
def test_sparse_kernel_matches_dense(kind, data):
    a, b, w = data.draw(weighted_pairs(kind))
    assert _sparse_max_weight_subsequence(a, b, w) == _dense_max_weight_subsequence(a, b, w)


@pytest.mark.parametrize("a, b, expected", [
    pytest.param((), (1, 2), (), id="empty-a"),
    pytest.param((1, -2), (), (), id="empty-b"),
    pytest.param((), (), (), id="both-empty"),
    pytest.param((1, 2, 3), (-1, -2, 4), (), id="no-matches"),
    pytest.param((5,) * 7, (5,) * 4, (5,) * 4, id="one-symbol-repeated"),
    pytest.param((-5, 5), (5, -5, 5), (-5, 5), id="one-family-both-signs"),
])
def test_sparse_kernel_edges(a, b, expected):
    for w in {f: 1 for f in range(1, 6)}, {1: 2, 2: 3, 3: 1, 4: 1, 5: 3}:
        assert _sparse_max_weight_subsequence(a, b, w) == expected
        assert _dense_max_weight_subsequence(a, b, w) == expected


def kernel_calls(monkeypatch):
    """Record which kernel each _max_weight_subsequence call runs."""
    calls = []
    for name in "_sparse_max_weight_subsequence", "_dense_max_weight_subsequence":
        def spy(a, b, w, kernel=getattr(seq, name), name=name):
            calls.append(name.split("_")[1])
            return kernel(a, b, w)
        monkeypatch.setattr(seq, name, spy)
    return calls


def test_kernel_dispatch_by_match_density(monkeypatch):
    calls = kernel_calls(monkeypatch)
    g1, g2 = random_seq_pair(3, 1000, max_occ=3, special=True)
    lcs(g1, g2)
    rng = SplitMix64(2024)
    a = SeqGenome(tuple(rng.randint(1, 40) for _ in range(500)))
    b = SeqGenome(tuple(rng.randint(1, 40) for _ in range(500)))
    lcs(a, b)
    assert calls == ["sparse", "dense"]


def test_zero_weight_keeps_the_dense_path(monkeypatch):
    g1, g2 = random_seq_pair(4, 300, max_occ=3, special=True)
    weights = WeightAssignment({f: int(f != 7) for f in g1.families})
    expected = _dense_max_weight_subsequence(g1.genes, g2.genes, weights.weight_of)
    calls = kernel_calls(monkeypatch)
    assert weighted_lcs(g1, g2, weights).genes == expected
    assert calls == ["dense"]
    # the same pair with family 7 weighted 1 takes the sparse kernel
    assert len(weighted_lcs(g1, g2, WeightAssignment.uniform(g1.families))) == len(lcs(g1, g2))
    assert calls[1:] == ["sparse", "sparse"]


def test_special_lcs_outputs_are_pinned():
    """lcs and elcs_special on four 1000-family special pairs (two ELCS
    feasible, two not) hash to the digest the dense kernel gave."""
    h = hashlib.sha256()
    for seed in range(4):
        a, b = random_seq_pair(seed, 1000, max_occ=3, special=True)
        alphabet = Alphabet.from_mandatory((1 + seed,), a.families | b.families)
        best = elcs_special(a, b, alphabet)
        h.update(repr((lcs(a, b).genes, best and best.genes)).encode())
    assert h.hexdigest() == "f900ee95b937d01ba4826e9d1379a3ededa7f34ec462183cc38d4f28b8e2575e"


def test_weighted_lcs_worked_instance():
    weights = WeightAssignment.elcs(ELCS_ALPHABET, ELCS_A, ELCS_B)
    assert {weights.weight_of[f] for f in ELCS_ALPHABET.mandatory} == {9}
    best = weighted_lcs(ELCS_A, ELCS_B, weights)
    got = sum(weights.weight_of[abs(g)] for g in best.genes)
    assert got == 30  # frozen from the enumeration oracle: 3 * 9 + 3 * 1
    assert got == oracles.max_common_subsequence_weight(
        ELCS_A.genes, ELCS_B.genes, weights.weight_of
    )


def test_weighted_lcs_no_common_symbol():
    weights = WeightAssignment.uniform({1, 2})
    assert weighted_lcs(SeqGenome.of(1), SeqGenome.of(2), weights).genes == ()


def test_weighted_lcs_missing_weight():
    with pytest.raises(MissingWeightError):
        weighted_lcs(SeqGenome.of(1), SeqGenome.of(1), WeightAssignment({}))
    with pytest.raises(ValueError, match="negative weight -1 for family 2"):
        WeightAssignment({1: 1, 2: -1})


def test_one_side_duplicate_free():
    dec = zed_one_side_duplicate_free(SeqGenome.of(1, 2, 3), SeqGenome.of(2, 1, 2, 3))
    assert dec.answer and dec.certificate == SeqGenome.of(1, 2, 3)
    dec = zed_one_side_duplicate_free(SeqGenome.of(1), SeqGenome.of(1))
    assert dec.answer
    assert not zed_one_side_duplicate_free(SeqGenome.of(1, 2), SeqGenome.of(2, 1)).answer
    # 1 2 embeds into 1 3 2, but family 3 is missing from it: a family mismatch
    assert not zed_one_side_duplicate_free(SeqGenome.of(1, 2), SeqGenome.of(1, 3, 2)).answer


def test_one_side_requires_exemplar_side():
    with pytest.raises(PreconditionViolatedError):
        zed_one_side_duplicate_free(SeqGenome.of(1, 1), SeqGenome.of(1))


def test_elcs_feasible_worked_pair():
    assert elcs_feasible(ELCS_A, ELCS_B, ELCS_ALPHABET)


def test_elcs_feasible_empty_mandatory():
    alphabet = Alphabet(frozenset(), frozenset({1, 2}))
    assert elcs_feasible(SeqGenome.of(1), SeqGenome.of(2), alphabet)


def test_elcs_feasible_negative_case():
    alphabet = Alphabet(frozenset({1, 2}), frozenset())
    assert not elcs_feasible(SeqGenome.of(1, 2), SeqGenome.of(2, 2, 1), alphabet)


def test_elcs_precondition():
    alphabet = Alphabet(frozenset({1}), frozenset())
    with pytest.raises(PreconditionViolatedError):
        elcs_feasible(SeqGenome.of(1, 1), SeqGenome.of(1, 1), alphabet)
    with pytest.raises(PreconditionViolatedError):
        elcs_special(SeqGenome.of(1, 1), SeqGenome.of(1, 1), alphabet)
    with pytest.raises(ValueError, match="disjoint"):
        Alphabet(frozenset({1}), frozenset({1, 2}))


def test_elcs_special_worked_pair():
    best = elcs_special(ELCS_A, ELCS_B, ELCS_ALPHABET)
    assert len(best) == 6
    assert [abs(g) for g in best.genes].count(1) == 1
    assert [abs(g) for g in best.genes].count(2) == 1
    assert [abs(g) for g in best.genes].count(3) == 1


def test_elcs_special_identity():
    g = SeqGenome.of(1, 2, 3)
    alphabet = Alphabet(frozenset({1, 2, 3}), frozenset())
    assert elcs_special(g, g, alphabet) == g


def test_elcs_special_infeasible():
    alphabet = Alphabet(frozenset({1, 2}), frozenset())
    assert elcs_special(SeqGenome.of(1, 2), SeqGenome.of(2, 2, 1), alphabet) is None


def test_elcs_oracle_worked_pair():
    best = elcs_exact_oracle(ELCS_A, ELCS_B, ELCS_ALPHABET)
    assert len(best) == 6
    assert len(best) == oracles.elcs_best_length(
        ELCS_A.genes, ELCS_B.genes, ELCS_MANDATORY
    )


def test_elcs_oracle_plain_lcs_when_no_mandatory():
    a, b = SeqGenome.of(1, 2, 1, 3), SeqGenome.of(2, 1, 3, 3)
    alphabet = Alphabet(frozenset(), frozenset({1, 2, 3}))
    assert elcs_exact_oracle(a, b, alphabet) == lcs(a, b)
    # the same canonical traceback, not only the same length
    for seed in range(40):
        a, b = random_seq_pair(seed, 3 + seed % 12, max_occ=1 + seed % 3)
        alphabet = Alphabet(frozenset(), a.families | b.families)
        assert elcs_exact_oracle(a, b, alphabet) == lcs(a, b)


def test_elcs_oracle_infeasible_and_19_mandatory():
    alphabet = Alphabet(frozenset({1, 2}), frozenset())
    assert elcs_exact_oracle(SeqGenome.of(1, 2), SeqGenome.of(2, 2, 1), alphabet) is None
    # only the table's entry count is capped, not the number of mandatory
    # families: this table holds 3.1 M entries, under the cap of 2^22
    g = SeqGenome(tuple(range(1, 20)))
    assert elcs_exact_oracle(g, g, Alphabet(frozenset(range(1, 20)), frozenset())) == g


def test_elcs_oracle_time_budget():
    a, b = SeqGenome.of(1, 2, 1, 3), SeqGenome.of(2, 1, 3, 3)
    alphabet = Alphabet(frozenset({1}), frozenset({2, 3}))
    with pytest.raises(SearchTimeoutError):
        elcs_exact_oracle(a, b, alphabet, timeout_s=-1)
    with pytest.raises(ValueError):
        elcs_exact_oracle(a, b, alphabet, timeout_s=float("nan"))
    assert elcs_exact_oracle(a, b, alphabet, timeout_s=float("inf")) == SeqGenome.of(2, 1, 3)


def test_elcs_oracle_refutes_before_the_cap():
    # 16 mandatory families, none in the inputs: infeasible, however many
    g = SeqGenome.of(1, 2, 3)
    alphabet = Alphabet.from_mandatory(range(100, 116), g.families)
    assert elcs_exact_oracle(g, g, alphabet) is None
    assert elcs_special(g, g, alphabet) is None


@pytest.mark.parametrize("seed", range(60))
def test_elcs_special_agrees_with_oracle_and_enumeration(seed):
    """Feasibility and optimal length agree between the weighted special-case
    route, the exact reference search, and raw enumeration."""
    rng = SplitMix64(seed)
    a, b = random_seq_pair(rng.next64(), 2 + rng.randint(0, 3), max_occ=3, special=True, signed=False)
    fams = sorted(a.families)
    mandatory = frozenset(f for f in fams if rng.coin())
    alphabet = Alphabet.from_mandatory(mandatory, a.families | b.families)
    fast = elcs_special(a, b, alphabet)
    slow = elcs_exact_oracle(a, b, alphabet)
    brute = oracles.elcs_best_length(a.genes, b.genes, mandatory)
    assert elcs_feasible(a, b, alphabet) == (slow is not None) == (brute is not None)
    assert (fast is None) == (slow is None)
    if fast is not None:
        assert len(fast) == len(slow) == brute
        for f in mandatory:
            assert [abs(g) for g in fast.genes].count(f) == 1


def test_zed_seq_special_cases():
    dec = zed_seq_special(SeqGenome.of(1, 1, 2), SeqGenome.of(1, 2, 2))
    assert dec.answer and dec.certificate == SeqGenome.of(1, 2)
    # both-exemplar pairs: equal, permuted, sign-flipped
    g = SeqGenome.of(2, -1, 3)
    dec = zed_seq_special(g, g)
    assert dec.answer and dec.certificate == g
    assert not zed_seq_special(SeqGenome.of(1, 2), SeqGenome.of(2, 1)).answer
    assert not zed_seq_special(g, SeqGenome.of(-1, 2, 3)).answer
    assert not zed_seq_special(g, SeqGenome.of(2, 1, 3)).answer
    assert not zed_seq_special(g, SeqGenome.of(-2, 1, -3)).answer
    # one-side pairs: the certificate is the duplicate-free genome
    e, d = SeqGenome.of(1, -2, 3), SeqGenome.of(3, 1, 1, -2, 2, 3)
    assert zed_seq_special(e, d) == zed_seq_special(d, e) == SeqDecision(True, e)
    assert not zed_seq_special(SeqGenome.of(-2, 1, 3), d).answer
    # a 3000-family exemplar inside a 33 000-gene genome (`zed bench` times it)
    rng = SplitMix64(5)
    e = SeqGenome(tuple(range(1, 3001)))
    genes = []
    for f in e.genes:
        genes += [f, *(rng.randint(1, 3000) for _ in range(10))]
    assert zed_seq_special(SeqGenome(tuple(genes)), e) == SeqDecision(True, e)


def test_zed_seq_special_family_mismatch_is_no():
    assert not zed_seq_special(SeqGenome.of(1), SeqGenome.of(2)).answer


def test_zed_seq_special_rejects_general():
    with pytest.raises(PreconditionViolatedError):
        zed_seq_special(SeqGenome.of(1, 1), SeqGenome.of(1, 1))


# (g1 copies, g2 copies) of each signed form of one family
LIVE_SHAPES = {
    "one row": st.tuples(st.just(1), st.integers(1, 6)).map(lambda c: [c]),
    "one column": st.tuples(st.integers(1, 6), st.just(1)).map(lambda c: [c]),
    "several rows": st.tuples(st.integers(2, 6), st.integers(2, 6)).map(lambda c: [c]),
    "two forms": st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)),
                          min_size=2, max_size=2),
}


@st.composite
def live_pairs_with_cuts(draw):
    """The domain of one family whose signed forms sit at random positions
    0..29 of g1 and g2, its occurrence pairs, and a chain of bindings (p, q)
    of other families, at positions that no form of it holds."""
    copies = draw(st.sampled_from(sorted(LIVE_SHAPES)).flatmap(LIVE_SHAPES.get))
    held, free = [], []
    for side in 0, 1:
        total = sum(c[side] for c in copies)
        spots = draw(st.lists(st.integers(0, 29), unique=True, min_size=total, max_size=total))
        held.append(iter(spots))
        free.append([x for x in range(30) if x not in spots])
    cells, pairs = [], []
    for n1, n2 in copies:
        a = sorted(next(held[0]) for _ in range(n1))
        b = sorted(next(held[1]) for _ in range(n2))
        cells.append((a, 0, n1, b, 0, n2))
        pairs += [(p, q) for p in a for q in b]
    cuts = draw(st.lists(st.tuples(st.sampled_from(free[0]), st.sampled_from(free[1])),
                         max_size=4))
    return _LivePairs(cells, len(pairs)), pairs, cuts


@given(live_pairs_with_cuts())
@settings(max_examples=300, deadline=None)
def test_live_pairs_iterate_their_cells_in_order(case):
    """A domain lists exactly its cells' product, by (p + q, p), and its
    len() counts it, also after each cut of a chain of _non_crossing."""
    live, pairs, cuts = case
    steps = [(live, pairs)]
    for p, q in cuts:
        live = _non_crossing((p, q), live)
        pairs = [(x, y) for x, y in pairs if (x < p) == (y < q)]
        steps.append((live, pairs))
    for live, pairs in steps:
        assert list(live) == sorted(pairs, key=lambda pq: (pq[0] + pq[1], pq[0]))
        assert len(live) == len(pairs)


def test_zed_seq_exact_worked_pair():
    dec = zed_seq_exact(SEQ_G1, SEQ_G2)
    assert dec.answer
    assert verify_seq_certificate(SEQ_G1, SEQ_G2, dec.certificate).ok
    assert verify_seq_certificate(SEQ_G1, SEQ_G2, SEQ_CERT).ok


def test_zed_seq_exact_trivialities():
    g = SeqGenome.of(1)
    dec = zed_seq_exact(g, g)
    assert dec.answer and dec.certificate == g
    assert zed_seq_exact(SeqGenome(()), SeqGenome(())).answer
    assert not zed_seq_exact(SeqGenome.of(1), SeqGenome.of(2)).answer
    assert not zed_seq_exact(SeqGenome.of(1), SeqGenome.of(-1)).answer


def test_zed_seq_exact_clause_gadget_is_infeasible():
    # a=1 b=2 c=3 r=4 s=5 t=6: requiring all six families has no solution
    g1 = SeqGenome.of(4, 1, 2, 3, 5, 1, 2, 3, 6)
    g2 = SeqGenome.of(1, 4, 2, 1, 5, 3, 2, 6, 3)
    assert not zed_seq_exact(g1, g2).answer
    # dropping the first literal gene makes it solvable
    drop = lambda g: SeqGenome(tuple(x for x in g.genes if x != 4))
    assert zed_seq_exact(drop(g1), drop(g2)).answer


def test_zed_seq_exact_cap():
    with pytest.raises(CapExceededError):
        zed_seq_exact(SeqGenome.of(1, 2, 3, 4), SeqGenome.of(1, 2, 3, 4), max_families=3)


def test_zed_seq_exact_repetitive_families():
    """Families with up to a thousand copies per genome (`zed bench` times
    these pairs)."""
    for seed in range(3):
        g1, g2 = random_seq_pair(seed, 25, max_occ=1000, signed=False)
        dec = zed_seq_exact(g1, g2)
        assert dec.answer
        assert verify_seq_certificate(g1, g2, dec.certificate).ok


def test_zed_seq_exact_state_is_bounded_on_repetitive_families():
    """Families 1..3 with 200 copies each, in reversed block order: every
    family has 40 000 occurrence pairs, and no state may grow with them."""
    g1 = SeqGenome(tuple(f for f in (1, 2, 3) for _ in range(200)))
    g2 = SeqGenome(tuple(f for f in (3, 2, 1) for _ in range(200)))
    tracemalloc.start()
    try:
        assert not zed_seq_exact(g1, g2).answer
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


@pytest.mark.parametrize("seed", range(80))
def test_zed_seq_exact_matches_ordering_scan(seed):
    rng = SplitMix64(seed)
    g1, g2 = random_seq_pair(rng.next64(), 2 + rng.randint(0, 5), max_occ=1 + rng.randint(0, 2))
    dec = zed_seq_exact(g1, g2)
    assert dec.answer == oracles.zed_seq_by_ordering_scan(g1.genes, g2.genes)
    if dec.answer:
        assert verify_seq_certificate(g1, g2, dec.certificate).ok


@pytest.mark.parametrize("seed", range(40))
def test_ordering_scan_matches_literal_permutations(seed):
    """The pruned ordering scan is itself validated against the most literal
    permutations-times-signs enumeration at small sizes."""
    rng = SplitMix64(seed)
    g1, g2 = random_seq_pair(rng.next64(), 2 + rng.randint(0, 3), max_occ=2)
    assert oracles.zed_seq_by_ordering_scan(g1.genes, g2.genes) == oracles.zed_seq_by_permutations(
        g1.genes, g2.genes
    )


@pytest.mark.parametrize("seed", range(60))
def test_zed_seq_special_agrees_with_exact(seed):
    rng = SplitMix64(seed)
    g1, g2 = random_seq_pair(rng.next64(), 2 + rng.randint(0, 4), max_occ=3, special=True)
    exact = zed_seq_exact(g1, g2).answer
    assert zed_seq_special(g1, g2).answer == exact
    route, dec = solve_seq(g1, g2)
    assert route in ("equality", "subsequence", "special") and dec.answer == exact


@given(st.integers(0, 2**32), st.integers(1, 6), st.integers(1, 3), st.booleans())
@settings(max_examples=60, deadline=None)
def test_every_mode_ends_in_a_verified_yes_a_no_or_a_typed_error(seed, n, occ, special):
    g1, g2 = random_seq_pair(seed, n, max_occ=occ, special=special)
    answers = set()
    for mode in seq.MODES:
        try:
            _, dec = solve_seq(g1, g2, mode=mode, timeout_s=1.0)
        except PreconditionViolatedError:
            assert mode == "special" and classify_instance(g1, g2) is InstanceClass.GENERAL
            continue
        except SearchTimeoutError:
            continue
        assert not dec.answer or verify_seq_certificate(g1, g2, dec.certificate).ok
        answers.add(dec.answer)
    assert len(answers) <= 1
