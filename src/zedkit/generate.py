"""Seeded random instances for the equivalence suites and the gen command.

All generators are pure functions of their seed, built on a SplitMix64 stream
so outputs are identical across platforms and interpreter versions.
"""

from __future__ import annotations

from functools import lru_cache

from .model import SeqGenome, SetGenome
from .sat import CnfFormula, Literal, brute_force_sat

_MASK64 = (1 << 64) - 1
_GAMMA, _MIX1, _MIX2 = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB


class SplitMix64:
    """SplitMix64 stream: state advances by 0x9E3779B97F4A7C15 and each output
    is finalized with the 0xBF58476D1CE4E5B9 / 0x94D049BB133111EB mixers."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform-ish integer in [lo, hi] (modulo reduction; determinism is
        what matters here, not statistical perfection)."""
        if hi < lo:
            raise ValueError("empty range")
        return lo + self.next64() % (hi - lo + 1)

    def coin(self) -> bool:
        return bool(self.next64() & 1)

    def choice(self, seq):
        return seq[self.randint(0, len(seq) - 1)]

    def shuffle(self, items: list) -> None:
        for k in range(len(items) - 1, 0, -1):
            j = self.randint(0, k)
            items[k], items[j] = items[j], items[k]

    def sample(self, population: list, count: int) -> list:
        """The first count items of shuffle(list(population)), and the
        stream left where that shuffle leaves it.

        The shuffle's draws are made in one numpy step and each taken slot
        is traced back through the swaps to the item that lands in it, so a
        few items from a large pool cost no Python loop over the pool.
        numpy loads on the first call, not with the package."""
        import numpy as np

        n = len(population)
        offsets, sizes, steps = _ramps(n)
        # next64 over the shuffle's n - 1 draws, all at once (uint64 wraps)
        z = np.uint64(self._state) + offsets
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        z ^= z >> np.uint64(31)
        self._state = (self._state + len(offsets) * _GAMMA) & _MASK64
        # shuffle's step k (n - 1 down to 1) exchanges slots k and swap_at[k];
        # hits holds slot * n + step for every step, sorted
        swap_at = np.zeros(n, dtype=np.int64)
        swap_at[1:] = (z % sizes)[::-1]
        hits = np.sort(swap_at * n + steps)
        out = []
        for slot in range(min(count, n)):
            pos, undone = slot, 0  # steps 1..undone are undone, latest first
            while True:
                i = int(hits.searchsorted(pos * n + undone + 1))
                k = int(hits[i]) - pos * n if i < n and hits[i] < (pos + 1) * n else n
                if undone < pos < k:
                    k, pos = pos, int(swap_at[pos])
                elif k < n:
                    pos = k
                else:
                    break
                undone = k
            out.append(population[pos])
        return out


def random_cnf(seed: int, n_vars: int, n_clauses: int, *, distinct_vars: bool = False) -> CnfFormula:
    """Random 3-CNF; with distinct_vars the three literals of a clause use
    three different variables (requires n_vars >= 3)."""
    if n_vars < 1 or n_clauses < 0:
        raise ValueError("need at least one variable and a non-negative number of clauses")
    if distinct_vars and n_vars < 3:
        raise ValueError("distinct-variable clauses need at least 3 variables")
    rng = SplitMix64(seed)
    clauses = []
    for _ in range(n_clauses):
        if distinct_vars:
            vs = rng.sample(list(range(1, n_vars + 1)), 3)
        else:
            vs = [rng.randint(1, n_vars) for _ in range(3)]
        clauses.append(tuple(Literal(v, rng.coin()) for v in vs))
    return CnfFormula(n_vars, tuple(clauses))


def random_satisfiable_cnf(
    seed: int, n_vars: int, n_clauses: int, *, distinct_vars: bool = False
) -> CnfFormula:
    """First satisfiable formula along the seed stream (rejection sampling)."""
    attempt = seed
    while True:
        phi = random_cnf(attempt, n_vars, n_clauses, distinct_vars=distinct_vars)
        if brute_force_sat(phi) is not None:
            return phi
        attempt += 0x5BF03635


@lru_cache(maxsize=8)
def _ramps(n: int):
    """For shuffling a pool of n: the state offsets of its n - 1 draws
    (1..n-1 times the increment), their range sizes n..2, and the slots
    0..n-1, as numpy arrays."""
    import numpy as np

    offsets = np.arange(1, n, dtype=np.uint64) * np.uint64(_GAMMA)
    return offsets, np.arange(n, 1, -1, dtype=np.uint64), np.arange(n, dtype=np.int64)


def _occurrence_counts(rng: SplitMix64, n_families: int, max_occ: int, special: bool):
    """Per-family (count in g1, count in g2); with special, at least one side is 1."""
    if n_families < 1 or max_occ < 1:
        raise ValueError("need at least one family and a maximum occurrence count of at least 1")
    counts = []
    for _ in range(n_families):
        if special:
            kind = rng.randint(0, 2)
            if kind == 0:
                counts.append((1, 1))
            elif kind == 1:
                counts.append((1, rng.randint(1, max_occ)))
            else:
                counts.append((rng.randint(1, max_occ), 1))
        else:
            counts.append((rng.randint(1, max_occ), rng.randint(1, max_occ)))
    return counts


def random_seq_pair(
    seed: int,
    n_families: int,
    *,
    max_occ: int = 2,
    special: bool = False,
    signed: bool = True,
) -> tuple[SeqGenome, SeqGenome]:
    """Random ordered-genome pair over families 1..n_families; both genomes
    contain every family.  With special, every family occurs exactly once in
    at least one genome.  Signs are mostly positive (1 in 4 reversed)."""
    rng = SplitMix64(seed)
    counts = _occurrence_counts(rng, n_families, max_occ, special)

    def build(side: int) -> SeqGenome:
        genes = []
        for f, pair in enumerate(counts, start=1):
            for _ in range(pair[side]):
                flip = signed and rng.randint(0, 3) == 0
                genes.append(-f if flip else f)
        rng.shuffle(genes)
        return SeqGenome(tuple(genes))

    return build(0), build(1)


def random_set_pair(
    seed: int,
    n_families: int,
    n_chromosomes: int,
    *,
    max_occ: int = 2,
    special: bool = False,
) -> tuple[SetGenome, SetGenome]:
    """Random unordered-genome pair over families 1..n_families with at most
    n_chromosomes chromosomes each (empty ones are dropped).  Occurrences of a
    family land in distinct chromosomes of its genome."""
    if n_chromosomes < 1:
        raise ValueError("need at least one chromosome")
    rng = SplitMix64(seed)
    cap = min(max_occ, n_chromosomes)
    counts = _occurrence_counts(rng, n_families, cap, special)

    slots = list(range(n_chromosomes))

    def build(side: int) -> SetGenome:
        chroms: list[set[int]] = [set() for _ in range(n_chromosomes)]
        for f, pair in enumerate(counts, start=1):
            for idx in rng.sample(slots, pair[side]):
                chroms[idx].add(f)
        return SetGenome(tuple(frozenset(c) for c in chroms if c))

    return build(0), build(1)
