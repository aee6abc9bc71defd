import pickle
from collections.abc import Mapping

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from worked_examples import SEQ_CERT, SEQ_G1, SEQ_G2, SET_G1, SET_G2
from zedkit import (
    InstanceClass,
    SeqGenome,
    SetGenome,
    classify_instance,
    occurrence_profile,
    solve_seq,
    solve_set,
    verify_seq_certificate,
)
from zedkit import seq, sets
from zedkit.formats import parse_seq_genome, parse_set_genome
from zedkit.model import (
    DUPLICATE_FAMILY,
    MISSING_FAMILY,
    NOT_SUBSEQUENCE_OF_G1,
)

signed_genes = st.builds(
    lambda f, s: f * s, st.integers(1, 12), st.sampled_from([1, -1])
)
seq_genomes = st.lists(signed_genes, max_size=14).map(lambda l: SeqGenome(tuple(l)))
chromosome_lists = st.lists(st.sets(st.integers(1, 9), max_size=5), max_size=6)
set_genomes = chromosome_lists.map(lambda l: SetGenome.of(*l))


def test_genome_rejects_zero_and_oversized():
    with pytest.raises(ValueError):
        SeqGenome.of(1, 0, 2)
    with pytest.raises(ValueError):
        SeqGenome.of(2**31)
    with pytest.raises(ValueError):
        SetGenome.of({0, 1})


@pytest.mark.parametrize(
    "build, genes",
    [(SeqGenome, ((1, 0),)), (SeqGenome.of, (0,)), (SeqGenome, ((2**31,),)),
     (SeqGenome.of, (3, -(2**31))), (SetGenome, ((frozenset({0}),),)), (SetGenome.of, ({2**31},)),
     (SetGenome, ((frozenset({1}), frozenset({-1})),)), (SetGenome.of, ({2}, {-3, 4}))],
    ids=["seq-0", "seq.of-0", "seq-2^31", "seq.of-minus-2^31", "set-0", "set.of-2^31",
         "set-negative", "set.of-negative"],
)
def test_public_constructors_check_every_gene(build, genes):
    # only the parsers, which have checked their genes, skip the check
    with pytest.raises(ValueError):
        build(*genes)


def _plain(view):
    return dict(view) if isinstance(view, Mapping) else view


@given(st.lists(signed_genes, min_size=1, max_size=14), st.sampled_from([" ", "\t", "\n", " \n "]))
def test_seq_views_match_the_reference(genes, sep):
    built = SeqGenome(tuple(genes))
    parsed = parse_seq_genome(sep.join(map(str, genes)))
    assert parsed == built and hash(parsed) == hash(built)
    expected = oracles.seq_genome_views(genes)
    for g in (built, parsed):
        for name, value in expected.items():
            view = getattr(g, name)
            assert getattr(g, name) is view  # built once
            assert _plain(view) == value


@given(chromosome_lists)
def test_set_views_match_the_reference(chroms):
    built = SetGenome.of(*chroms)
    # an empty chromosome is a "-" line, which the parser's line walk reads
    parsed = parse_set_genome("\n".join(" ".join(map(str, c)) or "-" for c in chroms))
    assert parsed == built and hash(parsed) == hash(built)
    assert parsed.chromosomes == built.chromosomes
    expected = oracles.set_genome_views(chroms)
    for g in (built, parsed):
        for name, value in expected.items():
            view = getattr(g, name)
            assert getattr(g, name) is view  # built once
            assert _plain(view) == value


def test_views_are_read_only_and_not_pickled():
    s, g = SeqGenome.of(1, -1, 2), SetGenome.of({1, 2}, {2})
    for view in (s.occurrences, g.occurrences, g.hosts):
        with pytest.raises(TypeError):
            view[1] = 5
    for view in (s.families, s.duplicated, g.ground_set, g.duplicated):
        assert isinstance(view, frozenset)
    for genome in (s, g):
        copy = pickle.loads(pickle.dumps(genome))
        assert copy == genome and "occurrences" not in vars(copy)


@given(st.one_of(st.tuples(seq_genomes, seq_genomes), st.tuples(set_genomes, set_genomes)))
def test_changing_a_returned_profile_changes_no_later_answer(pair):
    before = classify_instance(*pair)
    for genome in pair:
        profile = occurrence_profile(genome)
        profile.update(dict.fromkeys([*profile, 99], 2))  # duplicate every family, add one
    assert classify_instance(*pair) is before


def test_set_genome_equality_ignores_chromosome_order():
    a = SetGenome.of({1, 2}, {3})
    b = SetGenome.of({3}, {1, 2})
    assert a == b
    assert hash(a) == hash(b)
    assert a != SetGenome.of({1, 2, 3})


def test_occurrence_profile_worked_sequence():
    assert dict(occurrence_profile(SEQ_G1)) == {1: 2, 2: 2, 3: 2, 4: 1, 5: 1, 6: 1}


def test_occurrence_profile_empty_genome():
    assert dict(occurrence_profile(SeqGenome(()))) == {}


def test_occurrence_profile_set_genome():
    g = SetGenome.of({1, 2, 3}, {2, 3, 4}, {4, 5})
    assert dict(occurrence_profile(g)) == {1: 1, 2: 2, 3: 2, 4: 2, 5: 1}


@given(seq_genomes)
def test_profile_counts_sum_to_length(g):
    assert sum(occurrence_profile(g).values()) == len(g)


@given(st.lists(st.sets(st.integers(1, 9), max_size=5), max_size=5))
def test_profile_counts_sum_over_chromosomes(chroms):
    g = SetGenome.of(*chroms)
    assert sum(occurrence_profile(g).values()) == g.total_genes()


def test_classify_worked_pair_is_general():
    # family 1 occurs twice in both genomes, so no special case applies
    assert classify_instance(SEQ_G1, SEQ_G2) is InstanceClass.GENERAL


@pytest.mark.parametrize(
    "g1, g2, expected",
    [
        (SeqGenome.of(1, 2, 3), SeqGenome.of(2, 1, 2, 3), InstanceClass.ONE_SIDE_DUPLICATE_FREE),
        (SeqGenome.of(1, 1, 2), SeqGenome.of(1, 2, 2), InstanceClass.PER_GENE_SPECIAL),
        (SeqGenome.of(1, 2), SeqGenome.of(2, 1), InstanceClass.BOTH_EXEMPLAR),
        (SeqGenome.of(1, 1, 2, 2), SeqGenome.of(1, 1, 2, 2), InstanceClass.GENERAL),
    ],
)
def test_classify_cases(g1, g2, expected):
    assert classify_instance(g1, g2) is expected


def test_classify_set_genomes():
    g1 = SetGenome.of({1, 2}, {1, 3})
    g2 = SetGenome.of({1, 2}, {2, 3})
    assert classify_instance(g1, g2) is InstanceClass.PER_GENE_SPECIAL
    assert (
        classify_instance(SetGenome.of({1, 2}, {3}), SetGenome.of({1, 2, 3}, {3, 1}))
        is InstanceClass.ONE_SIDE_DUPLICATE_FREE
    )


def test_classify_family_mismatch():
    assert classify_instance(SeqGenome.of(1, 2), SeqGenome.of(1, 3)) is InstanceClass.FAMILY_MISMATCH
    assert (
        classify_instance(SetGenome.of({1, 2}, {1, 3}), SetGenome.of({1, 2}, {1, 2}))
        is InstanceClass.FAMILY_MISMATCH
    )


SEQ_MISMATCHES = [
    (SeqGenome.of(1, 2), SeqGenome.of(1, 3)),
    (SeqGenome.of(1, 1, 2, 2), SeqGenome.of(2, 2, 1, 1, -3)),
    # 31 families, 29 of them in both genomes: NO before any search
    (SeqGenome((*range(1, 31), 1)), SeqGenome((*range(2, 32), 2))),
]
SET_MISMATCHES = [
    (SetGenome.of({1}), SetGenome.of({2})),
    (SetGenome.of({1, 2}, {1, 3}, {4}), SetGenome.of({1, 2}, {1, 3})),
]


@pytest.mark.parametrize("g1, g2", SEQ_MISMATCHES + [p[::-1] for p in SEQ_MISMATCHES])
@pytest.mark.parametrize(
    "solve",
    [
        lambda a, b: solve_seq(a, b)[1],
        lambda a, b: solve_seq(a, b, mode="special")[1],
        lambda a, b: solve_seq(a, b, mode="exact")[1],
        seq.zed_seq_special,
        seq.zed_seq_exact,
    ],
    ids=["auto", "special", "exact", "zed_seq_special", "zed_seq_exact"],
)
def test_family_mismatch_answers_no_on_every_seq_route(solve, g1, g2):
    assert solve(g1, g2) == seq.SeqDecision(False)


@pytest.mark.parametrize("g1, g2", SET_MISMATCHES + [p[::-1] for p in SET_MISMATCHES])
@pytest.mark.parametrize(
    "solve",
    [
        lambda a, b: solve_set(a, b)[1],
        lambda a, b: solve_set(a, b, mode="matching")[1],
        lambda a, b: solve_set(a, b, mode="fpt")[1],
        lambda a, b: solve_set(a, b, mode="exact")[1],
        sets.zed_set_matching,
        sets.zed_set_fpt,
        sets.zed_set_exact,
    ],
    ids=["auto", "matching", "fpt", "exact", "zed_set_matching", "zed_set_fpt", "zed_set_exact"],
)
def test_family_mismatch_answers_no_on_every_set_route(solve, g1, g2):
    assert solve(g1, g2) == sets.SetDecision(False)


@pytest.mark.parametrize(
    "solve, g1, g2, mode, route, answer",
    [
        (solve_seq, SeqGenome.of(1, 2), SeqGenome.of(1, 3), "auto", "family-mismatch", False),
        (solve_seq, SeqGenome.of(1, 2), SeqGenome.of(2, 1), "auto", "equality", False),
        (solve_seq, SeqGenome.of(1, 2, 3), SeqGenome.of(2, 1, 2, 3), "auto", "subsequence", True),
        (solve_seq, SeqGenome.of(1, 1, 2), SeqGenome.of(1, 2, 2), "auto", "special", True),
        (solve_seq, SEQ_G1, SEQ_G2, "auto", "exact", True),
        (solve_seq, SeqGenome.of(1, 2), SeqGenome.of(2, 1), "special", "special", False),
        (solve_seq, SeqGenome.of(1, 2), SeqGenome.of(1, 2), "exact", "exact", True),
        (solve_set, SetGenome.of({1}), SetGenome.of({2}), "auto", "family-mismatch", False),
        (solve_set, SetGenome.of({1, 2}, {3}), SetGenome.of({3}, {1, 2}), "auto", "matching", True),
        (solve_set, SetGenome.of({1, 2}, {3}), SetGenome.of({1, 2, 3}, {3, 1}), "auto", "matching",
         True),
        (solve_set, SetGenome.of({1, 2}, {1, 3}), SetGenome.of({1, 2}, {2, 3}), "auto", "matching",
         True),
        (solve_set, SET_G1, SET_G2, "auto", "exact", True),
        (solve_set, SetGenome.of({1, 2, 3}, {1}), SetGenome.of({1, 2}, {1, 3}), "auto", "exact",
         False),
        (solve_set, SET_G1, SET_G2, "fpt", "fpt", True),
        (solve_set, SET_G1, SET_G2, "exact", "exact", True),
        (solve_seq, SeqGenome.of(1, 2), SeqGenome.of(1, 3), "special", "special", False),
        (solve_set, SetGenome.of({1}), SetGenome.of({2}), "matching", "matching", False),
    ],
)
def test_router_route_per_class(solve, g1, g2, mode, route, answer, monkeypatch):
    calls = []

    def counted(a, b):
        calls.append(1)
        return classify_instance(a, b)

    for module in (seq, sets):
        monkeypatch.setattr(module, "classify_instance", counted)
    got, dec = solve(g1, g2, mode=mode)
    assert (got, dec.answer) == (route, answer)
    # the router and the solver it picks classify the pair once between them
    assert len(calls) <= 1


def test_router_rejects_unknown_mode():
    with pytest.raises(ValueError):
        solve_seq(SEQ_G1, SEQ_G2, mode="fpt")
    with pytest.raises(ValueError):
        solve_set(SET_G1, SET_G2, mode="special")


@given(seq_genomes, seq_genomes)
def test_classify_symmetric(g1, g2):
    assert classify_instance(g2, g1) is classify_instance(g1, g2)


def test_verify_worked_certificate():
    assert verify_seq_certificate(SEQ_G1, SEQ_G2, SEQ_CERT).ok


def test_verify_identity_certificate():
    g = SeqGenome.of(1)
    assert verify_seq_certificate(g, g, g).ok


def test_verify_rejects_sign_mismatch():
    bad = SeqGenome.of(4, 1, 2, -5, 3, -6)  # gene 4 flipped
    check = verify_seq_certificate(SEQ_G1, SEQ_G2, bad)
    assert not check.ok
    assert check.reason == NOT_SUBSEQUENCE_OF_G1


def test_verify_rejects_duplicate_family():
    bad = SeqGenome.of(-4, 1, 1, 2, -5, 3, -6)
    assert verify_seq_certificate(SEQ_G1, SEQ_G2, bad).reason == DUPLICATE_FAMILY


def test_verify_rejects_missing_family():
    bad = SeqGenome.of(-4, 1, 2, -5, 3)
    assert verify_seq_certificate(SEQ_G1, SEQ_G2, bad).reason == MISSING_FAMILY


@given(seq_genomes, seq_genomes, seq_genomes)
def test_verify_is_symmetric_in_the_genomes(g1, g2, cert):
    if verify_seq_certificate(g1, g2, cert).ok:
        assert verify_seq_certificate(g2, g1, cert).ok


@given(seq_genomes, seq_genomes, seq_genomes)
def test_accepted_certificate_length_is_family_count(g1, g2, cert):
    if verify_seq_certificate(g1, g2, cert).ok:
        assert len(cert) == len(g1.families | g2.families)
