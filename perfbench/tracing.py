"""Per-layer timing of zedkit from outside the package.

``Tracer.install`` rebinds each public function listed in ``LAYERS`` in every
loaded zedkit module that holds it, so calls between modules go through a
wrapper.  The package sources are not edited.  A wrapper records a span
(name, start, end, parent span, instance id) in memory and, for the work
counts, reads sizes off the call's arguments and result.  A layer's time is
the self time of its spans: duration minus the time covered by child spans.
"""

from __future__ import annotations

import json
import math
import sys
from collections import Counter
from time import perf_counter

# ------------------------------------------------- counts read at the boundary


def _bytes_parsed(counts, args, result):
    data = args[0]
    counts["formats.bytes_parsed"] += len(data.encode() if isinstance(data, str) else data)


def _lcs_cells(counts, args, result):
    n, m = len(args[0]), len(args[1])
    counts["seq.lcs_cells"] += n * m
    table_mb = (n + 1) * (m + 1) * 4 / 1e6
    counts["seq.lcs_table_mb"] = max(counts["seq.lcs_table_mb"], table_mb)


def _weighted_lcs_cells(counts, args, result):
    counts["seq.weighted_lcs_cells"] += len(args[0]) * len(args[1])


def _exact_families(counts, args, result):
    counts["seq.zed_seq_exact_families"] += len(args[0].families | args[1].families)


def _intersection_pairs(counts, args, result):
    counts["sets.intersection_pairs"] += len(args[0].chromosomes) * len(args[1].chromosomes)


def lexicographic_rank(perm) -> int:
    """Position of ``perm`` among all permutations of its items in
    lexicographic order, counting from 0."""
    rank = 0
    for i, p in enumerate(perm):
        smaller_later = sum(1 for q in perm[i + 1 :] if q < p)
        rank += smaller_later * math.factorial(len(perm) - 1 - i)
    return rank


def _fpt_permutations(counts, args, result):
    """Pairings the scan visits: all k! on NO, up to the witness on YES."""
    if result.answer:
        counts["sets.fpt_permutations"] += lexicographic_rank(result.witness_permutation) + 1
        counts["sets.fpt_hits"] += 1
    else:
        k = max(len(args[0].chromosomes), len(args[1].chromosomes))
        counts["sets.fpt_permutations"] += math.factorial(k)


def _exact_candidate_pairs(counts, args, result):
    """Covering chromosome pairs per gene, summed over the shared genes."""
    occ1 = Counter(f for c in args[0].chromosomes for f in c)
    occ2 = Counter(f for c in args[1].chromosomes for f in c)
    counts["sets.exact_candidate_pairs"] += sum(occ1[g] * occ2[g] for g in occ1.keys() & occ2)


# (module, function, layer, count reader); a layer reports ``<layer>_s``
# (self time) and ``<layer>_s.calls``
LAYERS = [
    ("formats", "parse_seq_genome", "formats.parse", _bytes_parsed),
    ("formats", "parse_set_genome", "formats.parse", _bytes_parsed),
    ("formats", "parse_dimacs3", "formats.parse", _bytes_parsed),
    ("formats", "emit_seq_genome", "formats.emit", None),
    ("formats", "emit_set_genome", "formats.emit", None),
    ("model", "classify_instance", "model.classify", None),
    ("model", "verify_seq_certificate", "model.verify_seq", None),
    ("seq", "lcs", "seq.lcs", _lcs_cells),
    ("seq", "weighted_lcs", "seq.weighted_lcs", _weighted_lcs_cells),
    ("seq", "zed_seq_exact", "seq.zed_seq_exact", _exact_families),
    ("seq", "is_subsequence", "seq.subsequence", None),
    ("seq", "elcs_exact_oracle", "seq.elcs_oracle", None),
    ("seq", "zed_seq_special", "seq.zed_seq_special", None),
    ("seq", "zed_one_side_duplicate_free", "seq.one_side", None),
    ("seq", "elcs_feasible", "seq.elcs_feasible", None),
    ("seq", "elcs_special", "seq.elcs_special", None),
    ("sets", "build_intersection_graph", "sets.intersection_graph", _intersection_pairs),
    ("sets", "max_weight_bipartite_matching", "sets.matching", None),
    ("sets", "zed_set_matching", "sets.zed_set_matching", None),
    ("sets", "zed_set_fpt", "sets.fpt", _fpt_permutations),
    ("sets", "zed_set_exact", "sets.exact", _exact_candidate_pairs),
    ("sets", "verify_set_certificate", "sets.verify_set", None),
    ("sat", "reduce_3sat_to_seq_zed", "sat.reduce", None),
    ("sat", "reduce_3sat_to_set_zed", "sat.reduce", None),
    ("sat", "assignment_from_seq_certificate", "sat.cert_to_assignment", None),
    ("sat", "assignment_from_set_certificate", "sat.cert_to_assignment", None),
    ("sat", "brute_force_sat", "sat.brute_force", None),
    ("cli", "main", "cli.self", None),
]

COUNTS = [
    "formats.bytes_parsed",
    "seq.lcs_cells",
    "seq.lcs_table_mb",
    "seq.weighted_lcs_cells",
    "seq.zed_seq_exact_families",
    "sets.intersection_pairs",
    "sets.fpt_permutations",
    "sets.exact_candidate_pairs",
]

# every (command, algorithm) the CLI can name in its --report line
ROUTES = [
    "solve-seq.family-mismatch",
    "solve-seq.equality",
    "solve-seq.subsequence",
    "solve-seq.special",
    "solve-seq.exact",
    "solve-set.family-mismatch",
    "solve-set.matching",
    "solve-set.fpt",
    "solve-set.exact",
    "elcs.special",
    "elcs.oracle",
    "other",
]

TIMED_LAYERS = list(dict.fromkeys(layer for _, _, layer, _ in LAYERS))


class Tracer:
    """Spans and counts of one traced pass; ``instance`` tags new spans."""

    def __init__(self):
        # span: [layer, start, end, parent index, instance id, excluded time]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.instance: str | None = None
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, fn, layer, reader):
        spans, stack, counts = self.spans, self.stack, self.counts

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            span = [layer, perf_counter(), None, parent, self.instance, 0.0]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if reader is not None:
                reader(counts, args, result)
                if parent >= 0:
                    # counting is tracer work, not the caller's
                    spans[parent][5] += perf_counter() - span[2]
            return result

        return traced

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "zedkit" or name.startswith("zedkit."))]
        for module_name, fn_name, layer, reader in LAYERS:
            original = getattr(sys.modules[f"zedkit.{module_name}"], fn_name)
            wrapper = self._wrap(original, layer, reader)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def self_times(self) -> tuple[dict[str, float], Counter]:
        """Total self time and call count per layer."""
        child = [0.0] * len(self.spans)
        for layer, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = dict.fromkeys(TIMED_LAYERS, 0.0)
        calls: Counter = Counter()
        for k, (layer, start, end, _, _, excluded) in enumerate(self.spans):
            totals[layer] += end - start - child[k] - excluded
            calls[layer] += 1
        return totals, calls

    def write(self, fh, pass_index: int) -> None:
        for k, (layer, start, end, parent, instance, _) in enumerate(self.spans):
            fh.write(json.dumps({"pass": pass_index, "span": k, "name": layer,
                                 "start": start, "end": end, "parent": parent,
                                 "instance": instance}) + "\n")
