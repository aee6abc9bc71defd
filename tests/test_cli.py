import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

import zedkit
from worked_examples import COMPLETE_UNSAT_N3, SEQ_G1, SEQ_G2, SET_CERT, SET_G1, SET_G2
from zedkit import selftest
from zedkit.cli import main
from zedkit.formats import (
    emit_dimacs3,
    emit_seq_genome,
    emit_set_genome,
    parse_seq_genome,
    parse_set_genome,
)
from zedkit.generate import random_cnf, random_seq_pair
from zedkit.selftest import run_selftest


@pytest.fixture
def seq_files(tmp_path):
    p1 = tmp_path / "g1.seq"
    p2 = tmp_path / "g2.seq"
    p1.write_text(emit_seq_genome(SEQ_G1))
    p2.write_text(emit_seq_genome(SEQ_G2))
    return str(p1), str(p2)


@pytest.fixture
def set_files(tmp_path):
    p1 = tmp_path / "g1.set"
    p2 = tmp_path / "g2.set"
    p1.write_text(emit_set_genome(SET_G1))
    p2.write_text(emit_set_genome(SET_G2))
    return str(p1), str(p2)


def test_solve_seq_worked_example(seq_files, tmp_path, capsys):
    cert = tmp_path / "cert.seq"
    assert main(["solve-seq", *seq_files, "--cert-out", str(cert)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("YES exact")
    assert main(["verify", "--variant", "seq", *seq_files, str(cert)]) == 0


def test_solve_seq_identical_exemplar(tmp_path, capsys):
    p = tmp_path / "a.seq"
    p.write_text("1 -2 3\n")
    assert main(["solve-seq", str(p), str(p)]) == 0
    assert capsys.readouterr().out.startswith("YES equality")


def test_solve_seq_order_conflict(tmp_path, capsys):
    a = tmp_path / "a.seq"
    b = tmp_path / "b.seq"
    a.write_text("1 2\n")
    b.write_text("2 1\n")
    assert main(["solve-seq", str(a), str(b)]) == 1
    assert capsys.readouterr().out.startswith("NO")


def test_solve_seq_one_side_duplicate_free(tmp_path, capsys):
    a = tmp_path / "a.seq"
    b = tmp_path / "b.seq"
    a.write_text("1 2 3\n")
    b.write_text("2 1 2 3\n")
    assert main(["solve-seq", str(a), str(b)]) == 0
    assert capsys.readouterr().out.startswith("YES subsequence")


def test_solve_seq_family_mismatch(tmp_path, capsys):
    a = tmp_path / "a.seq"
    b = tmp_path / "b.seq"
    a.write_text("1 1\n")
    b.write_text("2 2\n")
    assert main(["solve-seq", str(a), str(b)]) == 1
    assert capsys.readouterr().out.startswith("NO family-mismatch")


def test_solve_seq_exact_refutes_family_mismatch_past_the_cap(tmp_path, capsys):
    # 31 families in all; family 1 is missing from b and family 31 from a
    a = tmp_path / "a.seq"
    b = tmp_path / "b.seq"
    a.write_text(" ".join(map(str, [*range(1, 31), 1])) + "\n")
    b.write_text(" ".join(map(str, [*range(2, 32), 2])) + "\n")
    assert main(["solve-seq", str(a), str(b), "--mode", "exact"]) == 1
    assert capsys.readouterr().out.startswith("NO exact")


def test_solve_seq_mode_special_rejects_general(seq_files):
    assert main(["solve-seq", *seq_files, "--mode", "special"]) == 3


def test_solve_seq_refutes_a_55_family_reduction_by_default(tmp_path, capsys):
    cnf = tmp_path / "unsat.cnf"
    cnf.write_text(emit_dimacs3(COMPLETE_UNSAT_N3))
    prefix = tmp_path / "inst"
    assert main(["reduce", "--variant", "seq", str(cnf), "--out-prefix", str(prefix)]) == 0
    capsys.readouterr()
    assert main(["solve-seq", f"{prefix}.g1", f"{prefix}.g2"]) == 1
    assert capsys.readouterr().out == "NO exact\n"


def test_solve_seq_report(seq_files, tmp_path, capsys):
    report = tmp_path / "report.jsonl"
    assert main(["solve-seq", *seq_files, "--report", str(report)]) == 0
    record = json.loads(report.read_text().splitlines()[0])
    assert record["command"] == "solve-seq"
    assert record["verdict"] == "YES"
    assert record["algorithm"] == "exact"
    assert record["elapsed_ms"] >= 0
    assert record["witness"]
    # "-" prints the same record as one line after the verdict
    capsys.readouterr()
    assert main(["solve-seq", *seq_files, "--report", "-"]) == 0
    verdict, line = capsys.readouterr().out.splitlines()
    assert verdict == "YES exact"
    assert {**json.loads(line), "elapsed_ms": 0} == {**record, "elapsed_ms": 0}


def test_solve_set_worked_example(set_files, tmp_path, capsys):
    cert = tmp_path / "cert.set"
    assert main(["solve-set", *set_files, "--cert-out", str(cert)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("YES exact")
    assert "witness matching:" in out
    assert main(["verify", "--variant", "set", *set_files, str(cert)]) == 0
    capsys.readouterr()
    assert main(["solve-set", *set_files, "--mode", "fpt", "--cert-out", str(cert)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("YES fpt")
    assert "witness permutation:" in out
    assert main(["verify", "--variant", "set", *set_files, str(cert)]) == 0


@pytest.mark.parametrize("k", [10, 12])
def test_solve_set_gene_in_every_chromosome(tmp_path, capsys, k):
    # gene 1 has k x k covering pairs; only the reversed pairing covers the
    # rest, the last of the k! pairings in scan order
    a = tmp_path / "a.set"
    b = tmp_path / "b.set"
    a.write_text("".join(f"1 {g}\n" for g in range(2, k + 2)))
    b.write_text("".join(f"1 {g}\n" for g in range(k + 1, 1, -1)))
    assert main(["solve-set", str(a), str(b)]) == 0
    assert capsys.readouterr().out.startswith("YES exact")


def test_solve_set_matching_route(tmp_path, capsys):
    a = tmp_path / "a.set"
    b = tmp_path / "b.set"
    cert = tmp_path / "cert.set"
    a.write_text("1 2\n3\n")
    b.write_text("1 2 3\n1 3\n")
    assert main(["solve-set", str(a), str(b), "--cert-out", str(cert)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("YES matching")
    assert "witness matching:" in out
    assert main(["verify", "--variant", "set", str(a), str(b), str(cert)]) == 0


def test_solve_set_pigeonhole_no(tmp_path, capsys):
    a = tmp_path / "a.set"
    b = tmp_path / "b.set"
    a.write_text("1 2\n")
    b.write_text("1\n2\n")
    assert main(["solve-set", str(a), str(b)]) == 1


def test_solve_set_exact_mode(set_files):
    assert main(["solve-set", *set_files, "--mode", "exact"]) == 0


def test_elcs_worked_pair(tmp_path, capsys):
    a = tmp_path / "a.seq"
    b = tmp_path / "b.seq"
    a.write_text("1 2 4 2 3 5 4 5\n")
    b.write_text("1 1 4 2 4 4 3 5 5 5\n")
    best = tmp_path / "best.seq"
    assert main(["elcs", str(a), str(b), "--mandatory", "1,2,3", "--out", str(best)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("FEASIBLE 6")
    assert best.read_text() == out.splitlines()[1] + "\n"
    assert main(["elcs", str(a), str(b), "--mandatory", "1,2,3", "--mode", "oracle"]) == 0


def test_elcs_empty_mandatory_prints_plain_lcs(tmp_path, capsys):
    a = tmp_path / "a.seq"
    b = tmp_path / "b.seq"
    a.write_text("1 2 3\n")
    b.write_text("2 3 1\n")
    assert main(["elcs", str(a), str(b)]) == 0
    assert capsys.readouterr().out.startswith("FEASIBLE 2")


def test_elcs_infeasible(tmp_path, capsys):
    a = tmp_path / "a.seq"
    b = tmp_path / "b.seq"
    a.write_text("1 2\n")
    b.write_text("2 2 1\n")
    assert main(["elcs", str(a), str(b), "--mandatory", "1,2"]) == 1
    assert "INFEASIBLE" in capsys.readouterr().out


@pytest.mark.parametrize("mandatory", ["-3", "0,1", "\u0663", "1,x", "2.0", "4294967296", "9" * 4301])
def test_elcs_rejects_mandatory_ids_the_parsers_refuse(tmp_path, capsys, mandatory):
    a = tmp_path / "a.seq"
    a.write_text("1 2 3\n")
    assert main(["elcs", str(a), str(a), "--mandatory", mandatory]) == 2
    assert "--mandatory" in capsys.readouterr().err


def test_elcs_oracle_refutes_before_the_cap(tmp_path, capsys):
    a = tmp_path / "a.seq"
    a.write_text("1 2 3\n")
    mandatory = ",".join(str(f) for f in range(100, 116))
    assert main(["elcs", str(a), str(a), "--mandatory", mandatory, "--mode", "oracle"]) == 1
    assert "INFEASIBLE" in capsys.readouterr().out


def test_elcs_special_precondition_suggests_oracle(tmp_path, capsys):
    a = tmp_path / "a.seq"
    b = tmp_path / "b.seq"
    a.write_text("1 1\n")
    b.write_text("1 1\n")
    assert main(["elcs", str(a), str(b), "--mandatory", "1"]) == 3
    assert "--mode oracle" in capsys.readouterr().err
    assert main(["elcs", str(a), str(b), "--mandatory", "1", "--mode", "oracle"]) == 0


def test_reduce_seq_and_verify_files(tmp_path, data_dir, capsys):
    prefix = tmp_path / "inst"
    assert main(["reduce", "--variant", "seq", str(data_dir / "example1.cnf"),
                 "--out-prefix", str(prefix)]) == 0
    out = capsys.readouterr().out
    assert "len = 3n+12m+1 = 37" in out
    g1 = parse_seq_genome((tmp_path / "inst.g1").read_text())
    g2 = parse_seq_genome((tmp_path / "inst.g2").read_text())
    assert len(g1) == len(g2) == 37
    assert (tmp_path / "inst.tsv").exists()


def test_reduce_set_counts(tmp_path, data_dir, capsys):
    prefix = tmp_path / "inst"
    assert main(["reduce", "--variant", "set", str(data_dir / "example1.cnf"),
                 "--out-prefix", str(prefix)]) == 0
    out = capsys.readouterr().out
    assert "g1 genes = n+15m = 34" in out
    assert "g2 genes = 2n+18m = 44" in out
    g1 = parse_set_genome((tmp_path / "inst.g1").read_text())
    assert g1.total_genes() == 34


def test_reduce_set_rejects_repeated_variable(tmp_path):
    cnf = tmp_path / "bad.cnf"
    cnf.write_text("p cnf 2 1\n1 1 2 0\n")
    assert main(["reduce", "--variant", "set", str(cnf), "--out-prefix",
                 str(tmp_path / "x")]) == 3


def test_verify_set_worked_certificate(set_files, tmp_path):
    cert = tmp_path / "cert.set"
    cert.write_text(emit_set_genome(SET_CERT))
    assert main(["verify", "--variant", "set", *set_files, str(cert)]) == 0


def _fresh_interpreter(*args: str) -> subprocess.CompletedProcess:
    """Run python with args in a new process that imports this zedkit."""
    src = str(pathlib.Path(zedkit.__file__).parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120,
    )


def test_verify_set_long_augmenting_paths(tmp_path):
    # hosts {h, h+1} and a last host {k}, blocks the singletons from {k} down:
    # the greedy start gives block {g} the host {g-1, g} and leaves block {1}
    # none, so its augmenting path runs through all k blocks.  A fresh
    # interpreter runs it under the default recursion limit, whatever the
    # test session has set.
    k = 1500
    hosts = tmp_path / "hosts.set"
    hosts.write_text("".join(f"{h} {h + 1}\n" for h in range(1, k)) + f"{k}\n")
    cert = tmp_path / "cert.set"
    cert.write_text("".join(f"{g}\n" for g in range(k, 0, -1)))
    proc = _fresh_interpreter("-m", "zedkit", "verify", "--variant", "set", str(hosts), str(hosts), str(cert))
    assert (proc.returncode, proc.stdout) == (0, "OK\n"), proc.stderr


_REDUCTIONS_WITHOUT_NUMERIC_LIBRARIES = """
import itertools, sys
import zedkit, zedkit.cli
from zedkit import (CnfFormula, IntersectionGraph, Matching, brute_force_sat,
                    max_weight_bipartite_matching, reduce_3sat_to_seq_zed, reduce_3sat_to_set_zed,
                    solve_seq, solve_set, verify_seq_certificate, verify_set_certificate)

sat = CnfFormula.of(3, (1, 2, 3), (-1, -2, 3), (1, -2, -3))
unsat = CnfFormula.of(3, *itertools.product((1, -1), (2, -2), (3, -3)))
for phi, answer in (sat, True), (unsat, False):
    assert (brute_force_sat(phi) is not None) == answer
    g1, g2, _ = reduce_3sat_to_seq_zed(phi)
    _, dec = solve_seq(g1, g2)
    assert dec.answer == answer
    assert not answer or verify_seq_certificate(g1, g2, dec.certificate).ok
    h1, h2, _ = reduce_3sat_to_set_zed(phi)
    _, dec = solve_set(h1, h2)
    assert dec.answer == answer
    assert not answer or verify_set_certificate(h1, h2, dec.certificate).ok
# a graph with an empty side has only the empty matching, with no solver
for left, right in (0, 3), (2, 0):
    assert max_weight_bipartite_matching(IntersectionGraph(left, right, {})) == Matching(frozenset(), 0)
loaded = sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy"))
assert not loaded, loaded
"""


def test_reductions_run_without_loading_numpy_or_scipy():
    # only the dense LCS table and the seeded generators load the numeric
    # libraries, on first use
    proc = _fresh_interpreter("-c", _REDUCTIONS_WITHOUT_NUMERIC_LIBRARIES)
    assert proc.returncode == 0, proc.stderr


_SET_SPECIAL_WITHOUT_NUMERIC_LIBRARIES = """
import sys
import zedkit.cli
from zedkit import SetDecision, SetGenome, solve_set, verify_set_certificate

g1, g2 = SetGenome.of({1, 2}, {3}), SetGenome.of({1, 2, 3}, {3, 1})
route, dec = solve_set(g1, g2)
assert route == "matching" and verify_set_certificate(g1, g2, dec.certificate).ok
assert solve_set(SetGenome.of({1}, {2}, {2, 3}), SetGenome.of({1, 2}, {3})) == ("matching", SetDecision(False))
yes, no = sys.argv[1:]
assert zedkit.cli.main(["solve-set", yes, yes]) == 0
assert zedkit.cli.main(["solve-set", yes, no]) == 1
loaded = sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy"))
assert not loaded, loaded
"""


def test_set_special_route_runs_without_loading_numpy_or_scipy(tmp_path):
    # the matching route, called and through `zed solve-set`, on a YES and a
    # NO pair: no solve-set route loads the numeric libraries
    yes, no = tmp_path / "yes.set", tmp_path / "no.set"
    yes.write_text("1 2\n3\n")
    no.write_text("1\n2 3\n3\n")
    proc = _fresh_interpreter("-c", _SET_SPECIAL_WITHOUT_NUMERIC_LIBRARIES, str(yes), str(no))
    assert proc.returncode == 0, proc.stderr


_ORACLE_UNDER_AN_ADDRESS_SPACE_LIMIT = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))
from zedkit import Alphabet, CapExceededError, elcs_exact_oracle
from zedkit.cli import main
from zedkit.formats import parse_seq_genome
a, b = (parse_seq_genome(open(path, "rb").read()) for path in sys.argv[1:])
try:
    elcs_exact_oracle(a, b, Alphabet.from_mandatory(a.families, a.families | b.families))
except CapExceededError as exc:
    print("refused:", exc)
mandatory = ",".join(map(str, sorted(a.families)))
sys.exit(main(["elcs", *sys.argv[1:], "--mode", "oracle", "--mandatory", mandatory]))
"""


def test_elcs_oracle_table_stops_at_its_cap_under_an_address_space_limit(tmp_path):
    # 91 x 101 genes, every one of the 15 families mandatory: the table would
    # take gigabytes, so the oracle must refuse it long before the 512 MB that
    # this child process may map (an uncapped table raised MemoryError there)
    paths = [tmp_path / "a.seq", tmp_path / "b.seq"]
    for path, g in zip(paths, random_seq_pair(3, 15, max_occ=12, signed=False)):
        path.write_text(emit_seq_genome(g))
    proc = _fresh_interpreter("-c", _ORACLE_UNDER_AN_ADDRESS_SPACE_LIMIT, *map(str, paths))
    assert proc.returncode == 4, proc.stderr
    assert proc.stdout.startswith("refused: the table passed 4194304 entries")
    assert proc.stderr.startswith("limit exceeded: the table passed 4194304 entries")


def test_verify_reports_undecodable_bytes_as_a_parse_error(set_files, tmp_path, capsys):
    cert = tmp_path / "cert.set"
    cert.write_bytes(b"1 2\n3 \xff\n")
    assert main(["verify", "--variant", "set", *set_files, str(cert)]) == 2
    assert "2:3: MalformedToken" in capsys.readouterr().err


@pytest.mark.parametrize("error", [MemoryError, RecursionError])
def test_resource_errors_exit_as_limit_exceeded(seq_files, monkeypatch, capsys, error):
    def exhausted(*args, **kwargs):
        raise error()

    monkeypatch.setattr(zedkit.cli, "solve_seq", exhausted)
    assert main(["solve-seq", *seq_files]) == 4
    assert capsys.readouterr().err == f"limit exceeded: {error.__name__}\n"


def test_verify_rejects_tampered_certificate(seq_files, tmp_path, capsys):
    cert = tmp_path / "cert.seq"
    cert.write_text("-4 1 1 2 -5 3 -6\n")
    assert main(["verify", "--variant", "seq", *seq_files, str(cert)]) == 1
    assert "DuplicateFamily" in capsys.readouterr().out


def test_sat_command(tmp_path, data_dir, capsys):
    assert main(["sat", str(data_dir / "example1.cnf")]) == 0
    assert capsys.readouterr().out.startswith("SAT ")
    unsat = tmp_path / "unsat.cnf"
    unsat.write_text("p cnf 1 2\n1 1 1 0\n-1 -1 -1 0\n")
    assert main(["sat", str(unsat)]) == 1
    assert capsys.readouterr().out == "UNSAT\n"
    big = tmp_path / "big.cnf"
    big.write_text("p cnf 30 0\n")
    assert main(["sat", str(big)]) == 0
    assert capsys.readouterr().out == "SAT " + " ".join(f"{v}=F" for v in range(1, 31)) + "\n"
    # the first model of (40, 40, 40) lies 2^23 blocks of 2^16 codes in
    forced = tmp_path / "forced.cnf"
    forced.write_text("p cnf 40 1\n40 40 40 0\n")
    assert main(["sat", str(forced), "--timeout", "0.2"]) == 4
    assert "exceeded the 0.2s budget" in capsys.readouterr().err
    assert main(["sat", str(forced), "--timeout", "nan"]) == 2


def test_sat_refutes_a_32_variable_formula(tmp_path, capsys):
    # 2^32 assignments, all refuted in under a second; no size cap applies
    cnf = tmp_path / "n32.cnf"
    cnf.write_text(emit_dimacs3(random_cnf(2, 32, 145, distinct_vars=True)))
    assert main(["sat", str(cnf)]) == 1
    assert capsys.readouterr().out == "UNSAT\n"


def test_gen_is_deterministic(tmp_path, capsys):
    assert main(["gen", "cnf", "--seed", "42", "--vars", "4", "--clauses", "3"]) == 0
    first = capsys.readouterr().out
    assert main(["gen", "cnf", "--seed", "42", "--vars", "4", "--clauses", "3"]) == 0
    assert capsys.readouterr().out == first
    assert main(["gen", "cnf", "--seed", "43", "--vars", "4", "--clauses", "3"]) == 0
    assert capsys.readouterr().out != first
    pairs = []
    for run in "a", "b":
        prefix = tmp_path / run
        assert main(["gen", "set", "--seed", "42", "--families", "8", "--chromosomes", "3",
                     "--out", str(prefix)]) == 0
        assert capsys.readouterr().out == f"wrote {prefix}.g1 and {prefix}.g2\n"
        pairs.append([parse_set_genome(pathlib.Path(f"{prefix}.{side}").read_text())
                      for side in ("g1", "g2")])
    assert pairs[0] == pairs[1]
    assert pairs[0][0].ground_set == pairs[0][1].ground_set == set(range(1, 9))


def test_gen_special_flag_guarantees_special_instance(tmp_path):
    from zedkit import InstanceClass, classify_instance

    prefix = tmp_path / "pair"
    assert main(["gen", "seq", "--seed", "7", "--families", "6", "--special",
                 "--out", str(prefix)]) == 0
    g1 = parse_seq_genome((tmp_path / "pair.g1").read_text())
    g2 = parse_seq_genome((tmp_path / "pair.g2").read_text())
    assert classify_instance(g1, g2) is not InstanceClass.GENERAL


def test_gen_distinct_vars_accepted_by_set_reduction(tmp_path):
    cnf = tmp_path / "f.cnf"
    assert main(["gen", "cnf", "--seed", "3", "--vars", "4", "--clauses", "2",
                 "--distinct-vars", "--out", str(cnf)]) == 0
    assert main(["reduce", "--variant", "set", str(cnf), "--out-prefix",
                 str(tmp_path / "r")]) == 0


def test_gen_rejects_bad_parameters(tmp_path):
    assert main(["gen", "cnf", "--vars", "0"]) == 2
    assert main(["gen", "seq", "--families", "4"]) == 2  # missing --out
    assert main(["gen", "cnf", "--vars", "2", "--distinct-vars"]) == 2


def test_gen_max_occ_bounds_occurrences(tmp_path):
    from zedkit import occurrence_profile

    prefix = tmp_path / "pair"
    assert main(["gen", "seq", "--seed", "11", "--families", "8", "--max-occ", "2",
                 "--out", str(prefix)]) == 0
    for name in ("pair.g1", "pair.g2"):
        profile = occurrence_profile(parse_seq_genome((tmp_path / name).read_text()))
        assert max(profile.values()) <= 2


def test_selftest_zero_budget_exhausts():
    assert main(["selftest", "--budget", "0"]) == 4


@pytest.mark.parametrize("distinct_vars", [False, True])
def test_selftest_sat_suites_meet_both_verdicts(distinct_vars):
    # sat-vs-seq-zed and sat-vs-set-zed draw their formulas here; a suite
    # that met no unsatisfiable formula would never check a NO
    verdicts = {
        zedkit.brute_force_sat(selftest._sat_formula(seed, distinct_vars=distinct_vars)) is None
        for seed in range(selftest.BASE_SEED, selftest.BASE_SEED + 100)
    }
    assert verdicts == {False, True}


def test_selftest_small_run(capsys):
    assert main(["selftest", "--budget", "60", "--cases", "6", "--min-cases", "3"]) == 0
    out = capsys.readouterr().out
    assert "seq-special-vs-exact: 6 cases" in out
    assert "lcs-sparse-vs-dense: 6 cases" in out
    assert "parse-round-trip: 6 cases" in out
    assert "all suites agree" in out


def test_selftest_names_the_suite_and_seed_that_raised(monkeypatch, capsys):
    def boom(seed):
        raise IndexError("list index out of range")

    monkeypatch.setattr(selftest, "SUITES", (("boom", boom), *selftest.SUITES[:2]))
    assert main(["selftest", "--budget", "60", "--cases", "3", "--min-cases", "3"]) == 1
    captured = capsys.readouterr()
    seed = selftest.BASE_SEED
    assert f"FAIL boom (seed {seed}): raised IndexError: list index out of range" in captured.err
    assert f"boom (seed {seed + 2})" in captured.err
    assert f"{selftest.SUITES[1][0]}: 3 cases" in captured.out


def test_bench_reports_every_scenario_and_fails_on_a_wrong_or_slow_one(monkeypatch, capsys):
    def raises():
        raise IndexError("list index out of range")

    toys = [("right", 5.0, lambda: "NO", "NO"), ("wrong", 5.0, lambda: "YES", "NO"),
            ("slow", 0.01, lambda: time.sleep(0.05), None), ("raises", 5.0, raises, "NO")]
    monkeypatch.setattr(zedkit.cli, "_bench_scenarios", lambda: iter(toys))
    assert main(["bench"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == ["right", "wrong", "slow", "raises"]
    assert lines[0].endswith(" ok")
    assert lines[1].endswith("WRONG (expected 'NO', got 'YES')")
    assert lines[2].endswith(" OVER")
    assert lines[3].endswith("got 'raised IndexError: list index out of range')")


def test_run_selftest_refuses_a_nan_budget():
    with pytest.raises(ValueError):
        run_selftest(float("nan"))


def test_run_selftest_flags_a_short_run_with_budget_to_spare():
    report = run_selftest(60.0, min_cases=3, max_cases=2)
    assert not report.failures
    assert set(report.cases.values()) == {2}
    assert report.short


def test_run_selftest_at_depth():
    report = run_selftest(120.0, min_cases=50, max_cases=50)
    assert report.failures == []
    assert set(report.cases.values()) == {50}


def test_usage_errors(tmp_path, seq_files, set_files):
    assert main(["solve-seq", *seq_files, "--mode", "bogus"]) == 2
    for command, files in ("solve-seq", seq_files), ("solve-set", set_files), ("elcs", seq_files):
        assert main([command, *files, "--timeout", "nan"]) == 2
        assert main([command, *files, "--timeout", "inf"]) == 2
    # the oracle's only cap is on its table, and no option sets it
    assert main(["elcs", *seq_files, "--mode", "oracle", "--max-mandatory", "15"]) == 2
    assert main(["selftest", "--cases", "0"]) == 2
    assert main(["selftest", "--budget", "nan"]) == 2
    assert main(["selftest", "--budget", "inf"]) == 2
    assert main(["selftest", "--min-cases", "1000", "--cases", "5"]) == 2
    assert main(["no-such-command"]) == 2
    missing = str(tmp_path / "nope.seq")
    assert main(["solve-seq", missing, missing]) == 2
    bad = tmp_path / "bad.seq"
    bad.write_text("1 0 2\n")
    assert main(["solve-seq", str(bad), str(bad)]) == 2


@pytest.mark.parametrize("command, mode", [
    pytest.param("solve-set", "exact", id="exact"),
    pytest.param("solve-set", "fpt", id="fpt"),
    pytest.param("solve-seq", "exact", id="seq-exact"),
    pytest.param("elcs", "oracle", id="elcs-oracle"),
])
def test_solve_set_timeout_exit_code(request, command, mode):
    files = request.getfixturevalue("set_files" if command == "solve-set" else "seq_files")
    assert main([command, *files, "--mode", mode, "--timeout", "-1"]) == 4


def test_repeated_calls_on_one_process_agree(seq_files, set_files, tmp_path, capsys):
    report = tmp_path / "report.jsonl"
    argvs = [
        ["--help"],
        ["solve-set", "--help"],
        ["solve-seq", *seq_files, "--report", str(report)],
        ["solve-set", *set_files, "--mode", "exact"],
        ["solve-seq", *seq_files, "--mode", "bogus"],
        ["no-such-command"],
        ["solve-set", *set_files, "--timeout", "nan"],
        ["gen", "cnf", "--seed", "3", "--vars", "4", "--clauses", "3"],
    ]

    def run_all():
        out = []
        for argv in argvs:
            code = main(argv)
            out.append((code, *capsys.readouterr()))
        return out

    first = run_all()
    assert [code for code, _, _ in first] == [0, 0, 0, 0, 2, 2, 2, 0]
    assert first[0][1].startswith("usage: zed")
    assert "invalid choice: 'bogus'" in first[4][2]
    assert run_all() == first
    lines = report.read_text().splitlines()
    assert len(lines) == 2
    assert [json.loads(line)["verdict"] for line in lines] == ["YES", "YES"]


def test_rebound_solvers_take_effect_after_the_parser_is_built(seq_files, monkeypatch, capsys):
    assert main(["solve-seq", *seq_files]) == 0

    def exhausted(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr(zedkit.cli, "solve_seq", exhausted)
    capsys.readouterr()
    assert main(["solve-seq", *seq_files]) == 4
    assert capsys.readouterr().err == "limit exceeded: MemoryError\n"
