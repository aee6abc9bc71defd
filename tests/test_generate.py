import pytest

from zedkit.generate import SplitMix64, random_cnf, random_seq_pair, random_set_pair


def _shuffled_prefix(rng, population, count):
    """Literal Fisher-Yates over the whole pool, one draw per step."""
    pool = list(population)
    for k in range(len(pool) - 1, 0, -1):
        j = rng.next64() % (k + 1)
        pool[k], pool[j] = pool[j], pool[k]
    return pool[:count]


@pytest.mark.parametrize("seed", range(40))
def test_sample_is_the_prefix_of_a_full_shuffle(seed):
    rng = SplitMix64(seed)
    n = rng.randint(0, 3000) if seed else 0
    count = rng.randint(0, min(n, 40 if seed % 2 else n))
    population = [10 * x + 7 for x in range(n)]
    fast, literal = SplitMix64(1_000 + seed), SplitMix64(1_000 + seed)
    assert fast.sample(population, count) == _shuffled_prefix(literal, population, count)
    # the stream continues where the full shuffle would leave it
    assert fast.next64() == literal.next64()


def test_random_set_pair_output_is_pinned():
    # the pair that a full Python shuffle of the 200 slots per family draws
    g1, g2 = random_set_pair(11, 6, 200, max_occ=3, special=True)
    assert [sorted(c) for c in g1.chromosomes] == [[5], [3], [3], [2], [1], [5], [6], [4, 5], [3]]
    assert [sorted(c) for c in g2.chromosomes] == [[4], [2], [5], [3], [6], [1], [6]]


@pytest.mark.parametrize(
    "make, refusal",
    [
        (lambda s: random_seq_pair(s, 0), "at least one family"),
        (lambda s: random_set_pair(s, 0, 3), "at least one family"),
        (lambda s: random_cnf(s, 3, -2), "non-negative number of clauses"),
        (lambda s: random_seq_pair(s, 1, max_occ=0, special=True), "occurrence count"),
        (lambda s: random_seq_pair(s, 4, max_occ=0), "occurrence count"),
        (lambda s: random_set_pair(s, 4, 3, max_occ=0, special=True), "occurrence count"),
        (lambda s: random_set_pair(s, 4, 0), "at least one chromosome"),
        (lambda s: SplitMix64(s).randint(1, 0), "empty range"),
    ],
    ids=["seq-no-families", "set-no-families", "cnf-negative-clauses", "seq-special-max-occ-0",
         "seq-max-occ-0", "set-special-max-occ-0", "set-no-chromosomes", "randint-empty-range"],
)
@pytest.mark.parametrize("seed", range(6))
def test_generators_refuse_bad_arguments_on_every_seed(make, refusal, seed):
    with pytest.raises(ValueError, match=refusal):
        make(seed)
