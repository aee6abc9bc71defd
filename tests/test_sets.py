import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from worked_examples import SEQ_G1, SEQ_G2, SET_CERT, SET_G1, SET_G2
from zedkit import (
    InstanceClass,
    PreconditionViolatedError,
    SearchTimeoutError,
    SetGenome,
    build_intersection_graph,
    classify_instance,
    max_weight_bipartite_matching,
    solve_seq,
    solve_set,
    verify_set_certificate,
    zed_seq_exact,
    zed_set_exact,
    zed_set_fpt,
    zed_set_matching,
)
from zedkit import sets
from zedkit.generate import SplitMix64, random_set_pair
from zedkit.model import NO_EMBEDDING_IN_G1, NO_EMBEDDING_IN_G2, NOT_PARTITION


def test_intersection_graph_worked_row():
    graph = build_intersection_graph(SET_G1, SET_G2)
    assert [graph.weight(0, j) for j in range(4)] == [2, 2, 1, 1]
    assert list(graph.weights.items())[:4] == [((0, 0), 2), ((0, 1), 2), ((0, 2), 1), ((0, 3), 1)]


def test_intersection_graph_edge_cases():
    graph = build_intersection_graph(SetGenome.of({1, 2}), SetGenome.of({3}))
    assert graph.weight(0, 0) == 0 and (0, 0) not in graph.weights
    graph = build_intersection_graph(SetGenome.of({1, 2, 3}), SetGenome.of({1, 2, 3}))
    assert graph.weight(0, 0) == 3


def _with_empty_chromosomes(rng, g):
    chroms = list(g.chromosomes)
    for _ in range(rng.randint(0, 2)):
        chroms.insert(rng.randint(0, len(chroms)), frozenset())
    return SetGenome(tuple(chroms))


@pytest.mark.parametrize("seed", range(60))
def test_intersection_graph_matches_all_pairs_oracle(seed):
    rng = SplitMix64(900 + seed)
    g1, g2 = random_set_pair(
        rng.next64(), 1 + rng.randint(0, 14), 1 + rng.randint(0, 6),
        max_occ=3, special=seed % 2 == 0,
    )
    g1, g2 = _with_empty_chromosomes(rng, g1), _with_empty_chromosomes(rng, g2)
    graph = build_intersection_graph(g1, g2)
    expected = oracles.chromosome_intersections(g1.chromosomes, g2.chromosomes)
    assert graph.weights == {pair: len(block) for pair, block in expected.items()}
    assert list(graph.weights) == sorted(graph.weights)
    assert (graph.left_size, graph.right_size) == (len(g1), len(g2))
    for i in range(len(g1)):
        for j in range(len(g2)):
            assert graph.weight(i, j) == len(expected.get((i, j), ()))


def test_matching_diagonal():
    g = SetGenome.of({1}, {2}, {3})
    m = max_weight_bipartite_matching(build_intersection_graph(g, g))
    assert m.total_weight == 3
    assert m.pairs == frozenset({(0, 0), (1, 1), (2, 2)})


def test_matching_two_by_two():
    # weights [[2, 1], [1, 1]]: the diagonal beats the crossing
    g1 = SetGenome.of({1, 2, 3}, {4, 5})
    g2 = SetGenome.of({1, 2, 4}, {3, 5})
    m = max_weight_bipartite_matching(build_intersection_graph(g1, g2))
    assert m.total_weight == 3


@pytest.mark.parametrize("seed", range(40))
def test_matching_is_optimal_by_enumeration(seed):
    rng = SplitMix64(seed)
    g1, g2 = random_set_pair(rng.next64(), 2 + rng.randint(0, 6), 1 + rng.randint(0, 4), max_occ=3)
    graph = build_intersection_graph(g1, g2)
    weights = [
        [graph.weight(i, j) for j in range(graph.right_size)]
        for i in range(graph.left_size)
    ]
    got = max_weight_bipartite_matching(graph)
    assert got.total_weight == oracles.best_matching_weight(weights)
    assert got.total_weight == sum(graph.weight(i, j) for i, j in got.pairs)
    assert len({i for i, _ in got.pairs}) == len(got.pairs)
    assert len({j for _, j in got.pairs}) == len(got.pairs)


def test_matching_beats_every_single_edge():
    graph = build_intersection_graph(SET_G1, SET_G2)
    best = max_weight_bipartite_matching(graph).total_weight
    for pair in graph.weights:
        assert best >= graph.weight(*pair)


def test_zed_set_matching_yes_case():
    g1 = SetGenome.of({1, 2}, {3})
    g2 = SetGenome.of({1, 2, 3}, {3, 1})
    dec = zed_set_matching(g1, g2)
    assert dec.answer
    assert dec.certificate == SetGenome.of({1, 2}, {3})
    assert verify_set_certificate(g1, g2, dec.certificate).ok


def test_zed_set_matching_identity_partition():
    g = SetGenome.of({1, 4}, {2}, {3, 5})
    dec = zed_set_matching(g, g)
    assert dec.answer and dec.certificate == g


def test_zed_set_matching_no_case():
    # one chromosome cannot host two certificate blocks
    dec = zed_set_matching(SetGenome.of({1}, {2}), SetGenome.of({1, 2}))
    assert not dec.answer
    assert dec.witness_matching.total_weight == 1


def test_zed_set_matching_disjoint_blocks_may_share_nothing():
    # {1} and {2} embed into {1} and {1,2}: hand enumeration of both
    # pairings gives maximum weight 2 = |S|, so the answer is YES
    dec = zed_set_matching(SetGenome.of({1}, {2}), SetGenome.of({1}, {1, 2}))
    assert dec.answer
    assert dec.witness_matching.total_weight == 2


def test_zed_set_matching_rejects_the_worked_example():
    # gene 2 occurs twice in both worked genomes, so the matching route
    # refuses the instance and the general algorithms take over
    with pytest.raises(PreconditionViolatedError):
        zed_set_matching(SET_G1, SET_G2)


def test_zed_set_matching_family_mismatch_is_no():
    assert not zed_set_matching(SetGenome.of({1}), SetGenome.of({2})).answer


def test_zed_set_matching_rejects_general():
    g = SetGenome.of({1, 2}, {1, 2})
    with pytest.raises(PreconditionViolatedError):
        zed_set_matching(g, g)


def test_zed_set_fpt_worked_example():
    dec = zed_set_fpt(SET_G1, SET_G2)
    assert dec.answer
    assert verify_set_certificate(SET_G1, SET_G2, SET_CERT).ok
    assert verify_set_certificate(SET_G1, SET_G2, dec.certificate).ok
    assert dec.witness_permutation is not None


def test_zed_set_fpt_trivial_cases():
    g = SetGenome.of({1, 2})
    assert zed_set_fpt(g, g).answer
    dec = zed_set_fpt(SetGenome.of({1}, {2}), SetGenome.of({2}, {1}))
    assert dec.answer and dec.witness_permutation == (1, 0)


def test_zed_set_fpt_witness_is_lex_smallest():
    g = SetGenome.of({1}, {2})
    assert zed_set_fpt(g, g).witness_permutation == (0, 1)


def test_zed_set_fpt_different_gene_sets_answer_no_at_once():
    # gene 13 lies in no intersection, so none of the 12! pairings covers it
    g1 = SetGenome.of({1, 13}, *({g} for g in range(2, 13)))
    g2 = SetGenome.of(*({g} for g in range(1, 13)))
    assert not zed_set_fpt(g1, g2, timeout_s=1.0).answer


def test_zed_set_fpt_cap():
    g1, g2 = random_set_pair(7, 12, 12, max_occ=2)
    with pytest.raises(SearchTimeoutError):
        zed_set_fpt(g1, g2, timeout_s=-1.0)


@pytest.mark.parametrize("seed", range(30))
def test_zed_set_fpt_invariant_under_chromosome_shuffle(seed):
    rng = SplitMix64(seed)
    g1, g2 = random_set_pair(rng.next64(), 3 + rng.randint(0, 4), 2 + rng.randint(0, 2), max_occ=2)
    base = zed_set_fpt(g1, g2).answer
    shuffled1 = list(g1.chromosomes)
    rng.shuffle(shuffled1)
    shuffled2 = list(g2.chromosomes)
    rng.shuffle(shuffled2)
    assert zed_set_fpt(SetGenome(tuple(shuffled1)), g2).answer == base
    assert zed_set_fpt(g1, SetGenome(tuple(shuffled2))).answer == base


def test_zed_set_exact_basics():
    assert zed_set_exact(SET_G1, SET_G2).answer
    assert not zed_set_exact(SetGenome.of({1, 2}), SetGenome.of({1}, {2})).answer
    assert zed_set_exact(SetGenome(()), SetGenome(())).answer
    assert not zed_set_exact(SetGenome.of({1}), SetGenome.of({2})).answer


def test_zed_set_exact_certificate_verifies():
    dec = zed_set_exact(SET_G1, SET_G2)
    assert dec.answer
    assert verify_set_certificate(SET_G1, SET_G2, dec.certificate).ok
    assert dec.witness_matching is not None
    sizes = sum(len(c) for c in dec.certificate.chromosomes)
    assert sizes == len(SET_G1.ground_set)


def test_zed_set_exact_timeout_is_distinct_from_no():
    with pytest.raises(SearchTimeoutError):
        zed_set_exact(SET_G1, SET_G2, timeout_s=-1.0)


# the worked pairs are general, so each search runs (and checks its budget)
_PAIR = {zed_set_fpt: (SET_G1, SET_G2), zed_set_exact: (SET_G1, SET_G2),
         solve_set: (SET_G1, SET_G2), zed_seq_exact: (SEQ_G1, SEQ_G2), solve_seq: (SEQ_G1, SEQ_G2)}


@pytest.mark.parametrize("search", [zed_set_fpt, zed_set_exact, zed_seq_exact, solve_seq])
def test_timeout_message_names_the_budget_as_given(search):
    with pytest.raises(SearchTimeoutError, match=r"exceeded the -0\.4s budget"):
        search(*_PAIR[search], timeout_s=-0.4)


@pytest.mark.parametrize("search", [zed_set_fpt, zed_set_exact, solve_set, zed_seq_exact, solve_seq])
def test_nan_budget_is_refused(search):
    with pytest.raises(ValueError, match="NaN"):
        search(*_PAIR[search], timeout_s=float("nan"))


def test_zed_set_exact_candidate_cap():
    g = SetGenome.of(*({1} for _ in range(9)))
    dec = zed_set_exact(g, g)
    assert dec.answer
    assert verify_set_certificate(g, g, dec.certificate).ok


@pytest.mark.parametrize("seed", range(80))
def test_three_way_agreement_on_special_instances(seed):
    rng = SplitMix64(seed)
    g1, g2 = random_set_pair(
        rng.next64(), 3 + rng.randint(0, 6), 2 + rng.randint(0, 3), special=True, max_occ=3
    )
    a = zed_set_matching(g1, g2)
    b = zed_set_fpt(g1, g2)
    c = zed_set_exact(g1, g2)
    assert a.answer == b.answer == c.answer
    for dec in (a, b, c):
        if dec.answer:
            assert verify_set_certificate(g1, g2, dec.certificate).ok
    if a.answer:
        # the matching's blocks are its witness pairs' intersections, in pair order
        blocks = oracles.chromosome_intersections(g1.chromosomes, g2.chromosomes)
        assert a.certificate.chromosomes == tuple(
            blocks[p] for p in sorted(a.witness_matching.pairs))


@pytest.mark.parametrize("seed", range(80))
def test_fpt_agrees_with_exact_on_general_instances(seed):
    rng = SplitMix64(seed)
    g1, g2 = random_set_pair(rng.next64(), 3 + rng.randint(0, 6), 2 + rng.randint(0, 3), max_occ=3)
    exact = zed_set_exact(g1, g2).answer
    assert zed_set_fpt(g1, g2).answer == exact
    # a few seeds draw a special pair, which auto mode sends to the matching
    route, dec = solve_set(g1, g2)
    general = classify_instance(g1, g2) is InstanceClass.GENERAL
    assert (route, dec.answer) == ("exact" if general else "matching", exact)


def test_verify_set_certificate_worked_example():
    assert verify_set_certificate(SET_G1, SET_G2, SET_CERT).ok
    g = SetGenome.of({1, 2}, {3})
    assert verify_set_certificate(g, g, g).ok


def test_verify_set_certificate_rejects_overlap():
    cert = SetGenome.of({1, 2}, {2, 3})
    check = verify_set_certificate(SET_G1, SET_G2, cert)
    assert check.reason == NOT_PARTITION


def test_verify_set_certificate_rejects_partial_cover():
    cert = SetGenome.of({1, 2}, {3})
    assert verify_set_certificate(SET_G1, SET_G2, cert).reason == NOT_PARTITION


def test_verify_set_certificate_needs_block_hosts():
    g1 = SetGenome.of({1, 3}, {2})
    g2 = SetGenome.of({1, 2}, {3})
    cert = SetGenome.of({1, 2}, {3})
    assert verify_set_certificate(g1, g2, cert).reason == NO_EMBEDDING_IN_G1


def test_verify_set_certificate_needs_injective_hosts():
    g1 = SetGenome.of({1, 2})
    g2 = SetGenome.of({1}, {2})
    cert = SetGenome.of({1}, {2})
    assert verify_set_certificate(g1, g2, cert).reason == NO_EMBEDDING_IN_G1


_FAULTS = {None: None, "partition": NOT_PARTITION, "g1": NO_EMBEDDING_IN_G1, "g2": NO_EMBEDDING_IN_G2}


def _planted_set_instance(rng):
    """A partition of 1..n into blocks, and two genomes that each hold every
    block inside its own chromosome, plus extra gene copies and spare
    (possibly empty) chromosomes."""
    genes = list(range(1, 2 + rng.randint(0, 6)))
    rng.shuffle(genes)
    cuts = sorted(rng.sample(list(range(1, len(genes))), rng.randint(0, min(3, len(genes) - 1))))
    blocks = [set(genes[a:b]) for a, b in zip([0, *cuts], [*cuts, len(genes)])]

    def host_genome():
        hosts = [set(b) for b in blocks] + [set() for _ in range(rng.randint(0, 2))]
        for f in genes:
            if rng.randint(0, 2) == 0:
                hosts[rng.randint(0, len(hosts) - 1)].add(f)
        rng.shuffle(hosts)
        return SetGenome.of(*hosts)

    if rng.randint(0, 3) == 0:
        blocks.append(set())
    return host_genome(), host_genome(), blocks


def _mutations(rng, blocks):
    """Certificates near a planted one: a gene moved, dropped or doubled,
    two blocks merged, a block split, an empty block added."""
    out = []
    full = [i for i, b in enumerate(blocks) if b]
    src = rng.choice(full)
    gene = rng.choice(sorted(blocks[src]))
    dst = rng.randint(0, len(blocks))
    moved = [set(b) for b in blocks] + [set()]
    moved[src].discard(gene)
    moved[dst].add(gene)
    out.append(moved)
    dropped = [set(b) for b in blocks]
    dropped[src].discard(gene)
    out.append(dropped)
    out.append([*blocks, {gene}])
    if len(blocks) >= 2:
        out.append([blocks[0] | blocks[1], *blocks[2:]])
    if len(blocks[src]) >= 2:
        ordered = sorted(blocks[src])
        out.append([*blocks[:src], set(ordered[:1]), set(ordered[1:]), *blocks[src + 1:]])
    out.append([*blocks, set()])
    return out


@pytest.mark.parametrize("seed", range(60))
def test_verify_set_certificate_matches_embedding_oracle(seed):
    rng = SplitMix64(1_300 + seed)
    g1, g2, blocks = _planted_set_instance(rng)
    assert oracles.set_certificate_fault(g1.chromosomes, g2.chromosomes, blocks) is None
    full = [b for b in blocks if b]
    crowded = [*full, *[set()] * (len(g1.chromosomes) - len(full) + 1)]  # one empty block too many
    for cert in (blocks, *_mutations(rng, blocks), crowded):
        check = verify_set_certificate(g1, g2, SetGenome.of(*cert))
        fault = oracles.set_certificate_fault(g1.chromosomes, g2.chromosomes, cert)
        assert (check.ok, check.reason) == (fault is None, _FAULTS[fault])
    assert check.reason == NO_EMBEDDING_IN_G1  # the crowded certificate


@pytest.mark.parametrize("seed", range(40))
def test_verify_set_certificate_matches_oracle_on_random_pairs(seed):
    rng = SplitMix64(1_400 + seed)
    g1, g2 = random_set_pair(rng.next64(), 1 + rng.randint(0, 6), 1 + rng.randint(0, 4), max_occ=3)
    g1, g2 = _with_empty_chromosomes(rng, g1), _with_empty_chromosomes(rng, g2)
    genes = sorted(g1.ground_set | g2.ground_set)
    for _ in range(5):
        blocks = [set() for _ in range(1 + rng.randint(0, 3))]
        for f in genes:
            blocks[rng.randint(0, len(blocks) - 1)].add(f)
        check = verify_set_certificate(g1, g2, SetGenome.of(*blocks))
        fault = oracles.set_certificate_fault(g1.chromosomes, g2.chromosomes, blocks)
        assert (check.ok, check.reason) == (fault is None, _FAULTS[fault])


@st.composite
def _blocks_cut_from_hosts(draw):
    """Up to six hosts of two or three of four genes, and non-empty blocks
    cut from them: one from each of all hosts but at most one, which embed,
    and maybe one more from any host, which may not.  The blocks' candidate
    lists overlap, and in shuffled order the greedy start takes a host that
    a later block needs in about one draw in six."""
    hosts = draw(st.lists(st.sets(st.integers(1, 4), min_size=2, max_size=3), min_size=1, max_size=6))

    def cut(h):
        return st.frozensets(st.sampled_from(sorted(h)), min_size=1, max_size=len(h))

    planted = draw(st.permutations(hosts))[draw(st.integers(0, 1)):]
    blocks = [draw(cut(h)) for h in planted]
    blocks += draw(st.lists(st.sampled_from(hosts).flatmap(cut), max_size=1))
    return hosts, tuple(draw(st.permutations(blocks)))


@given(_blocks_cut_from_hosts())
@settings(max_examples=300)
def test_embeds_injectively_matches_the_permutation_oracle(drawn):
    hosts, blocks = drawn
    expected = oracles.embeds_injectively(blocks, hosts)
    assert sets._embeds_injectively(blocks, SetGenome.of(*hosts)) == expected


set_genomes = st.lists(
    st.sets(st.integers(1, 6), min_size=1, max_size=4), min_size=1, max_size=4
).map(lambda cs: SetGenome.of(*cs))


@given(set_genomes, set_genomes)
@settings(max_examples=60)
def test_any_yes_certificate_partitions_the_ground_set(g1, g2):
    dec = zed_set_fpt(g1, g2)
    if dec.answer:
        check = verify_set_certificate(g1, g2, dec.certificate)
        assert check.ok
        assert sum(len(c) for c in dec.certificate.chromosomes) == len(
            g1.ground_set | g2.ground_set
        )
    assert dec.answer == zed_set_exact(g1, g2).answer


@given(st.integers(0, 2**32), st.integers(1, 8), st.integers(1, 4), st.integers(1, 3), st.booleans())
@settings(max_examples=60, deadline=None)
def test_every_mode_ends_in_a_verified_yes_a_no_or_a_typed_error(seed, n, k, occ, special):
    g1, g2 = random_set_pair(seed, n, k, max_occ=occ, special=special)
    answers = set()
    for mode in sets.MODES:
        try:
            _, dec = solve_set(g1, g2, mode=mode, timeout_s=1.0)
        except PreconditionViolatedError:
            assert mode == "matching" and classify_instance(g1, g2) is InstanceClass.GENERAL
            continue
        except SearchTimeoutError:
            continue
        assert not dec.answer or verify_set_certificate(g1, g2, dec.certificate).ok
        answers.add(dec.answer)
    assert len(answers) <= 1
