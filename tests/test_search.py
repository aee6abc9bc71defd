"""The shared backjump search: it makes the same keep calls, in the same
order, as the reference kernel that picks each item by scanning every pending
one (`oracles.backjump_reference`), and with arc revision also the same
shrinks; its selection state does not grow with the candidates one frame
refutes.  In both genome models, filtering only
the items a binding touches (for the ordered model, the families with a pair
that crosses it) leaves the search step for step the same as filtering every
item.  No search recurses: none changes the recursion limit, concurrent
searches are safe, and none leaves a reference cycle."""

import gc
import os
import pathlib
import subprocess
import sys
import textwrap
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles

import zedkit
from zedkit import (
    Alphabet,
    SearchTimeoutError,
    SeqGenome,
    elcs_exact_oracle,
    reduce_3sat_to_seq_zed,
    reduce_3sat_to_set_zed,
    zed_seq_exact,
    zed_set_exact,
)
from zedkit import seq, sets
from zedkit.generate import SplitMix64, random_cnf, random_seq_pair
from zedkit.search import backjump_search
from zedkit.seq import _non_crossing
from zedkit.sets import _disjoint_pairs


def colouring(edges, n_items, n_colours):
    """A graph colouring as backjump_search input: a candidate is (item,
    colour), and a binding rules out its colour at the item's neighbours."""
    near = {x: set() for x in range(n_items)}
    for a, b in edges:
        near[a].add(b)
        near[b].add(a)
    domains = [[(x, k) for k in range(n_colours)] for x in range(n_items)]
    degree = [len(near[x]) for x in range(n_items)]

    def keep(c, live):
        return [d for d in live if d[1] != c[1] or d[0] not in near[c[0]]]

    def touches(c):
        return sorted(near[c[0]])

    return domains, degree, keep, touches


def colouring_revise(edges):
    """The arc revision of colouring(edges, ...): a candidate (x, k) keeps
    support from item y while y has a live colour other than k, or x and y
    are not neighbours."""
    near = {}
    for a, b in edges:
        near.setdefault(a, set()).add(b)
        near.setdefault(b, set()).add(a)

    def revise(live_y):
        def supported(live_z):
            return [d for d in live_z
                    if any(e[1] != d[1] or e[0] not in near.get(d[0], ()) for e in live_y)]
        return supported

    return revise


class Recorder:
    """keep wrapped to log (c, len(live), len(after)) of every call; shrinks
    holds the entries of the calls that shrank a domain, and those of the
    revise filters that revising() wraps."""

    def __init__(self, keep):
        self.keep = keep
        self.log = []
        self.shrinks = []
        self.limits = set()

    @property
    def calls(self):
        return len(self.log)

    def __call__(self, c, live):
        after = self.keep(c, live)
        self.log.append((c, len(live), len(after)))
        self.limits.add(sys.getrecursionlimit())
        if len(after) < len(live):
            self.shrinks.append(self.log[-1])
        return after

    def revising(self, revise):
        """revise wrapped so that each of its filters logs a call that shrinks
        a domain as (the live candidates revised against, before, after)."""
        def wrapped(live_y):
            supported = revise(live_y)

            def filtered(live_z):
                after = supported(live_z)
                if len(after) < len(live_z):
                    self.shrinks.append((tuple(live_y), tuple(live_z), tuple(after)))
                return after
            return filtered
        return wrapped


def assert_reference_trace(domains, degree, keep, touches, revise=None):
    """The kernel and the reference give the same answer after the same keep
    calls and the same shrinks; returns the kernel's shrinks."""
    runs = []
    for search in colour, oracles.backjump_reference:
        rec = Recorder(keep)
        extra = () if revise is None else (rec.revising(revise),)
        runs.append((search(domains, degree, rec, touches, *extra), rec.log, rec.shrinks))
    assert runs[0] == runs[1]
    return runs[0][2]


@st.composite
def colourings(draw):
    """A colouring whose items each allow their own colours (one, several or
    none) and carry arbitrary degrees, so that sizes and degrees tie."""
    n = draw(st.integers(1, 9))
    allowed = draw(st.lists(st.lists(st.integers(0, 2), unique=True, max_size=3).map(sorted),
                            min_size=n, max_size=n))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    degree = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    return allowed, edges, degree


@given(colourings())
@settings(max_examples=300, deadline=None)
# two one-candidate items, the lower-index one of lower degree, with
# different neighbours: it is picked first, whatever its degree
@example(([[0], [0], [0, 1], [0, 1]], [(0, 2), (1, 3)], [0, 3, 1, 1]))
# an empty domain ends the search before any keep call
@example(([[], [0], [0, 1], [1]], [(1, 2), (2, 3)], [5, 0, 0, 0]))
def test_kernel_keeps_the_reference_trace_on_colourings(case):
    allowed, edges, degree = case
    _, _, keep, touches = colouring(edges, len(allowed), 3)
    domains = [[(x, k) for k in ks] for x, ks in enumerate(allowed)]
    if [] in allowed:
        rec = Recorder(keep)
        assert colour(domains, degree, rec, touches) is None
        assert rec.log == []
    else:
        assert_reference_trace(domains, degree, keep, touches)


@given(colourings())
@settings(max_examples=300, deadline=None)
# K4 plus a path in three colours (NO): the first refuted candidate arms
# revision, whose wipe-outs then refute the candidates left
@example(([[0, 1, 2]] * 6, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4), (4, 5)],
          [3, 3, 3, 4, 2, 1]))
# a colourable graph (YES) whose search meets a revision wipe-out on the way
@example(([[0, 1, 2]] * 6, [(0, 4), (0, 5), (1, 2), (1, 3), (1, 5), (2, 3), (2, 5), (3, 4)],
          [0] * 6))
def test_kernel_keeps_the_reference_trace_with_revise_on_colourings(case):
    allowed, edges, degree = case
    _, _, keep, touches = colouring(edges, len(allowed), 3)
    revise = colouring_revise(edges)
    domains = [[(x, k) for k in ks] for x, ks in enumerate(allowed)]
    if [] in allowed:
        return  # no search runs; the test above covers it
    assert_reference_trace(domains, degree, keep, touches, revise)
    plain = colour(domains, degree, keep, touches)
    revised = colour(domains, degree, keep, touches, revise)
    assert (revised is None) == (plain is None)
    if revised is not None:
        assert all(revised[a][1] != revised[b][1] for a, b in edges)
        assert all(c in d for c, d in zip(revised, domains))


@given(colourings())
@settings(max_examples=200, deadline=None)
def test_kernel_keeps_the_reference_trace_when_keep_returns_its_input(case):
    """The kernel skips len() when keep hands back the domain it was given,
    as _non_crossing does whenever it removes nothing."""
    allowed, edges, degree = case
    if [] in allowed:
        return  # no search runs
    _, _, keep, touches = colouring(edges, len(allowed), 3)

    def same_when_unchanged(c, live):
        after = keep(c, live)
        return live if len(after) == len(live) else after

    domains = [[(x, k) for k in ks] for x, ks in enumerate(allowed)]
    for revise in None, colouring_revise(edges):
        assert_reference_trace(domains, degree, same_when_unchanged, touches, revise)


@pytest.mark.parametrize("seed", range(5))
def test_kernel_keeps_the_reference_trace_with_revise_on_reductions(seed):
    formula = random_cnf(seed, 8, 40, distinct_vars=True)
    g1, g2, _ = reduce_3sat_to_set_zed(formula)
    _, domains, degree, touches = sets._search_inputs(g1, g2)
    shrinks = assert_reference_trace(domains, degree, _disjoint_pairs, touches,
                                     sets._supported_by)
    # some shrink came from a revise filter, whose log entries are triples
    # of candidate tuples
    assert any(isinstance(entry[1], tuple) for entry in shrinks)


@pytest.mark.parametrize("seed", range(5))
def test_kernel_keeps_the_reference_trace_on_reductions(seed):
    formula = random_cnf(seed, 8, 40, distinct_vars=True)
    g1, g2, _ = reduce_3sat_to_set_zed(formula)
    _, domains, degree, touches = sets._search_inputs(g1, g2)
    assert_reference_trace(domains, degree, _disjoint_pairs, touches)
    g1, g2, _ = reduce_3sat_to_seq_zed(formula)
    _, domains, degree, touches = seq._search_inputs(g1, g2)
    assert_reference_trace(domains, degree, _non_crossing, touches)


def refuted_frame(n_cands):
    """Item 0 has n_cands candidates; each cuts items 1 and 2 to one
    candidate, and those two rule each other out, so every candidate of item
    0 ends in a backjump to it.  Domains are ranges, which take no memory per
    candidate."""
    domains = [range(n_cands), range(n_cands, 2 * n_cands), range(n_cands, 2 * n_cands)]
    calls = [0]

    def keep(c, live):
        calls[0] += 1
        return live[:1] if c < n_cands else live[:0]

    return domains, [2, 1, 1], keep, lambda c: (1, 2), calls


def test_kernel_state_does_not_grow_with_refuted_candidates():
    peaks = {}
    for n_cands in 2_000, 20_000:
        domains, degree, keep, touches, calls = refuted_frame(n_cands)
        tracemalloc.start()
        try:
            assert backjump_search(domains, degree, keep, 60.0, touches) is None
            peaks[n_cands] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert calls == [3 * n_cands]
    assert peaks[20_000] < 2 * peaks[2_000]


def both_runs(domains, degree, keep, touches):
    """The search filtering every item, then filtering only touches(c)."""
    runs = []
    for t in (lambda c: range(len(domains)), touches):
        rec = Recorder(keep)
        runs.append((backjump_search(domains, degree, rec, 60.0, t), rec))
    return runs


PETERSEN = [(x, (x + 1) % 5) for x in range(5)] + [(x, x + 5) for x in range(5)] + [
    (5 + x, 5 + (x + 2) % 5) for x in range(5)
]
K4 = [(a, b) for a in range(4) for b in range(a + 1, 4)]


@pytest.mark.parametrize("edges, n_items, n_colours, answer", [
    (PETERSEN, 10, 3, True),
    (PETERSEN + [(10, 11), (11, 12), (12, 10)], 13, 3, True),
    (K4 + [(4, 5), (5, 6)], 7, 3, False),
    ([(x, x + 1) for x in range(8)] + [(8, 0)], 9, 2, False),  # an odd cycle
])
def test_touches_keeps_the_toy_search_trace(edges, n_items, n_colours, answer):
    (full, everything), (near, touched) = both_runs(*colouring(edges, n_items, n_colours))
    assert (full is not None) == answer
    assert near == full
    assert touched.shrinks == everything.shrinks
    assert touched.calls < everything.calls


@pytest.mark.parametrize("seed", range(5))
def test_touches_keeps_the_set_reduction_trace(seed):
    g1, g2, _ = reduce_3sat_to_set_zed(random_cnf(seed, 8, 40, distinct_vars=True))
    genes, domains, degree, touches = sets._search_inputs(g1, g2)
    (full, everything), (near, touched) = both_runs(domains, degree, _disjoint_pairs, touches)
    assert near == full
    assert touched.shrinks == everything.shrinks
    assert touched.calls < everything.calls


def test_set_touches_name_every_gene_a_pair_can_rule_out():
    g1, g2, _ = reduce_3sat_to_set_zed(random_cnf(0, 4, 6, distinct_vars=True))
    genes, domains, degree, touches = sets._search_inputs(g1, g2)
    for pair in {c for d in domains for c in d}:
        near = touches(pair)
        assert near == sorted(set(near))
        shrunk = [y for y, d in enumerate(domains) if len(_disjoint_pairs(pair, d)) < len(d)]
        assert set(shrunk) <= set(near)


def seq_trace_pairs(seed):
    """The seq reduction of a random formula, then small general signed pairs
    with up to four copies of a family in each genome."""
    yield reduce_3sat_to_seq_zed(random_cnf(seed, 8, 40, distinct_vars=True))[:2]
    rng = SplitMix64(seed)
    for _ in range(40):
        yield random_seq_pair(rng.next64(), 2 + rng.randint(0, 6), max_occ=2 + rng.randint(0, 2))


@pytest.mark.parametrize("seed", range(5))
def test_touches_keeps_the_seq_reduction_trace(seed):
    total = {"every": 0, "touched": 0}
    for g1, g2 in seq_trace_pairs(seed):
        inputs = seq._search_inputs(g1, g2)
        if inputs is None:
            continue  # some family has no signed form in both genomes: no search
        fams, domains, degree, touches = inputs
        (full, everything), (near, touched) = both_runs(domains, degree, _non_crossing, touches)
        assert near == full
        assert touched.shrinks == everything.shrinks
        assert touched.calls <= everything.calls
        total["every"] += everything.calls
        total["touched"] += touched.calls
    assert total["touched"] < total["every"]


def test_seq_touches_name_every_family_a_pair_can_rule_out():
    g1, g2, _ = reduce_3sat_to_seq_zed(random_cnf(0, 4, 6, distinct_vars=True))
    fams, domains, degree, touches = seq._search_inputs(g1, g2)
    for x, own in enumerate(domains):
        for pair in own:
            near = touches(pair)
            assert near == sorted(set(near))
            # the pair's own family x is bound whenever the pair is chosen
            shrunk = [y for y, d in enumerate(domains)
                      if y != x and len(_non_crossing(pair, d)) < len(d)]
            assert set(shrunk) <= set(near)


def path_colouring(n_items, *, closed):
    edges = [(x, x + 1) for x in range(n_items - 1)] + ([(n_items - 1, 0)] if closed else [])
    return colouring(edges, n_items, 2)


def deep():
    """An item count that a search recursing once per item could not reach
    under the current recursion limit."""
    return sys.getrecursionlimit() // 2 + 1


@pytest.mark.parametrize("closed, answer", [(False, True), (True, False)])
def test_backjump_search_restores_the_recursion_limit(closed, answer):
    n = deep() | 1  # odd, so that the closed path is an odd cycle
    domains, degree, keep, touches = path_colouring(n, closed=closed)
    before = sys.getrecursionlimit()
    rec = Recorder(keep)
    assert (backjump_search(domains, degree, rec, 60.0, touches) is not None) == answer
    assert rec.limits == {before}
    assert sys.getrecursionlimit() == before


def test_backjump_search_restores_the_recursion_limit_on_timeout():
    domains, degree, keep, touches = path_colouring(deep(), closed=False)
    before = sys.getrecursionlimit()
    with pytest.raises(SearchTimeoutError):
        backjump_search(domains, degree, keep, -1.0, touches)
    assert sys.getrecursionlimit() == before


def test_exact_solvers_restore_the_recursion_limit():
    before = sys.getrecursionlimit()
    # 550 genes each, so the search needs a limit above the default 1000
    for n_vars, answer in (10, True), (6, False):
        g1, g2, _ = reduce_3sat_to_set_zed(random_cnf(0, n_vars, 60, distinct_vars=True))
        assert zed_set_exact(g1, g2).answer == answer
        assert sys.getrecursionlimit() == before
        with pytest.raises(SearchTimeoutError):
            zed_set_exact(g1, g2, timeout_s=-1.0)
        assert sys.getrecursionlimit() == before
    a = SeqGenome(tuple(range(1, deep())))
    for b, answer in (a, True), (SeqGenome(tuple(reversed(a.genes))), False):
        assert zed_seq_exact(a, b).answer == answer
        assert sys.getrecursionlimit() == before


def elcs_long_pair(swap=False):
    # a is longer than the recursion limit; a short b keeps the table small
    a = SeqGenome((1, 2) + tuple(range(3, sys.getrecursionlimit() + 3)))
    b = SeqGenome(((2, 1) if swap else (1, 2)) + (3,))
    return a, b, Alphabet.from_mandatory({1, 2}, a.families)


@pytest.mark.parametrize("swap, feasible", [(False, True), (True, False)])
def test_elcs_oracle_restores_the_recursion_limit(swap, feasible):
    before = sys.getrecursionlimit()
    assert (elcs_exact_oracle(*elcs_long_pair(swap)) is not None) == feasible
    assert sys.getrecursionlimit() == before


def colour(domains, degree, keep, touches, revise=None):
    return backjump_search(domains, degree, keep, 60.0, touches, revise)


SEARCHES = {
    "backjump_search": lambda: colour(*path_colouring(deep(), closed=False)),
    "zed_seq_exact": lambda: zed_seq_exact(*[SeqGenome(tuple(range(1, 3000)))] * 2).answer,
    "zed_set_exact": lambda: zed_set_exact(
        *reduce_3sat_to_set_zed(random_cnf(0, 10, 60, distinct_vars=True))[:2]
    ).answer,
    "elcs_exact_oracle": lambda: elcs_exact_oracle(*elcs_long_pair()),
}


@pytest.mark.parametrize("name", SEARCHES)
def test_no_search_sets_the_recursion_limit(name, monkeypatch):
    calls = []
    monkeypatch.setattr(sys, "setrecursionlimit", calls.append)
    assert SEARCHES[name]()  # each input has a solution
    assert calls == []


def test_concurrent_searches_are_safe():
    # a search that raised and restored the process-wide limit could restore
    # it under another thread still running deep; a fresh interpreter keeps
    # a crash out of the test session
    script = textwrap.dedent("""
        import sys, threading
        from zedkit import SeqGenome, zed_seq_exact
        before = sys.getrecursionlimit()
        answers = []

        def run(n):
            a = SeqGenome(tuple(range(1, n + 1)))
            answers.extend(zed_seq_exact(a, a).answer for _ in range(3))

        threads = [threading.Thread(target=run, args=(n,)) for n in (1499, 1199)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        print(answers, sys.getrecursionlimit() == before)
    """)
    src = str(pathlib.Path(zedkit.__file__).parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert (proc.returncode, proc.stdout) == (0, f"{[True] * 6} True\n"), proc.stderr


def test_searches_leave_no_reference_cycles():
    formula = random_cnf(0, 8, 40, distinct_vars=True)
    s1, s2, _ = reduce_3sat_to_set_zed(formula)
    q1, q2, _ = reduce_3sat_to_seq_zed(formula)
    a, b = random_seq_pair(0, 60, max_occ=3)
    alphabet = Alphabet.from_mandatory({1, 2}, a.families | b.families)
    calls = [
        lambda: zed_set_exact(s1, s2),
        lambda: zed_seq_exact(q1, q2),
        lambda: elcs_exact_oracle(a, b, alphabet),
    ]
    gc.collect()
    gc.disable()
    try:
        for call in calls:
            call()
            assert gc.collect() == 0
    finally:
        gc.enable()
