"""Tests of the benchmark itself: determinism of its inputs, independence of
its expected answers, failure accounting and repeatable work counts.

Run from the root of a checkout:

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import calibrate  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

RECORDED = json.loads((HERE / "DIGESTS.json").read_text())
SMALL = 0.05


def _setup(tmp_path, workload, seed, scale=1.0, name="a"):
    return gen.setup(workload, seed, tmp_path / name, scale)


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_gives_recorded_digests(tmp_path, workload):
    for seed in (1, 2):
        first = _setup(tmp_path, workload, seed, name=f"a{seed}")
        again = _setup(tmp_path, workload, seed, name=f"b{seed}")
        assert first.digest == again.digest == RECORDED[workload][str(seed)]


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_second_seed_has_both_verdicts_and_verified_plants(tmp_path, workload):
    setup = _setup(tmp_path, workload, 2)
    assert setup.problems == []
    assert setup.digest != _setup(tmp_path, workload, 1, name="b").digest
    kinds = {inst.kind for inst in setup.instances}
    for kind in kinds:
        answers = {inst.expect["answer"] for inst in setup.instances if inst.kind == kind}
        assert answers == {True, False}, kind


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_reduced_scale_run_has_no_failures(tmp_path, workload):
    result = run.run_workload(workload, 3, 0, 0, scale=SMALL, out_dir=tmp_path, log=lambda _: None)
    assert result["correct"] and result["failed"] == 0
    assert result["metrics"]["success_ratio"]["value"] == 1.0
    assert set(result["metrics"]) == {
        "setup_s", "wall_s", "instance_p50_ms", "instance_tail_ms", "peak_rss_mb", "success_ratio"
    }


def _counts(result):
    return {k: v["value"] for k, v in result["metrics"].items()
            if v["unit"] in ("count", "MB") or k == "sets.fpt_hit_ratio"}


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_traced_counts_repeat_between_runs(tmp_path, workload):
    runs = [run.run_workload(workload, 4, 0, 1, scale=SMALL, out_dir=tmp_path / str(k),
                             log=lambda _: None) for k in range(2)]
    assert all(r["correct"] for r in runs)
    assert _counts(runs[0]) == _counts(runs[1])
    assert (tmp_path / "0" / f"spans-{workload}-seed4.jsonl").stat().st_size > 0


def test_traced_run_reports_every_layer(tmp_path):
    result = run.run_workload("cli-mixed", 5, 0, 1, scale=SMALL, out_dir=tmp_path,
                              log=lambda _: None)
    names = set(result["metrics"])
    assert {f"{layer}_s" for layer in tracing.TIMED_LAYERS} <= names
    assert {f"{layer}_s.calls" for layer in tracing.TIMED_LAYERS} <= names
    assert set(tracing.COUNTS) <= names and "trace.overhead" in names
    assert result["metrics"]["cli.self_s"]["value"] > 0
    assert result["metrics"]["cli.route.other"]["value"] == 0


def test_wrong_answers_and_exceptions_are_counted_per_instance(tmp_path, monkeypatch):
    from zedkit import seq, sets

    calls = []

    def exhausted(g1, g2):
        calls.append(1)
        raise MemoryError("simulated")

    # one run per instance and pass, so that runs can be counted per pass
    monkeypatch.setattr(run, "MAX_REPEATS", 1)
    monkeypatch.setattr(sets, "zed_set_matching", exhausted)
    monkeypatch.setattr(seq, "zed_seq_special", lambda g1, g2: seq.SeqDecision(False))
    result = run.run_workload("poly-special", 6, 0, 0, scale=SMALL, out_dir=tmp_path,
                              log=lambda _: None)
    setup = _setup(tmp_path, "poly-special", 6, SMALL, name="check")
    yes_seq = sum(1 for i in setup.instances if i.kind == "seq-zed" and i.expect["answer"])
    n_set = sum(1 for i in setup.instances if i.kind == "set-zed")
    passes = result["attempted"] // len(setup.instances)
    # every set instance raised and every planted sequence YES was answered NO;
    # the run still reached every instance of every pass
    assert result["failed"] == passes * (n_set + yes_seq)
    assert not result["correct"]
    assert len(calls) == passes * n_set


def test_host_speed_scales_by_the_best_reference_time():
    host = calibrate.HostSpeed()
    host.sample(3)
    assert 0 < host.best < 1
    assert host.scale() == calibrate.NOMINAL_S / host.best
    assert calibrate.reference() == calibrate.reference()


def test_lexicographic_rank():
    assert tracing.lexicographic_rank((0, 1, 2)) == 0
    assert tracing.lexicographic_rank((0, 2, 1)) == 1
    assert tracing.lexicographic_rank((2, 1, 0)) == 5


def test_runner_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-mixed", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
