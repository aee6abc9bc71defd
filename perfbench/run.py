"""zedkit benchmark: three seeded workloads, end-to-end and per-layer metrics.

Run from anywhere inside a checkout:

    python3 perfbench/run.py --workload poly-special --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all

One run builds the workload's inputs from ``--seed``; it does so five times
and reports the median as ``setup_s``.  It then runs the fixed instance list,
pass after pass, for about ``--seconds`` with one closed-loop client, and
checks every answer against the expected one.  Each instance keeps its
best time over the passes.  ``wall_s`` is the sum of those best times, the
time one pass takes when nothing else on the host gets in its way.
``instance_p50_ms`` and ``instance_tail_ms`` are the median and the 11th
slowest of them.  After the first pass, an instance that took less than
``REPEAT_TARGET_S`` runs several times in a row in each pass, so that cheap
instances get as many chances at their best time as the run has room for.
Every time is then scaled by the host's speed, which the run measures
between passes (see ``calibrate.py``).  ``success_ratio`` is the share of
instance runs whose answer checked out.  ``--workload all`` runs each
workload in its own process.

With ``--trace 0`` the last line reports the end-to-end metrics.  With
``--trace 1`` untraced and traced passes alternate, and the last line reports
the per-layer self times and work counts of the traced passes, plus the
tracing overhead.  Spans go to ``perfbench/out/``.  The last line is always
one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import os

# One client and no helper threads: pin the numeric libraries' thread pools
# before anything imports numpy.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import calibrate
import gen
import tracing

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5
REPEAT_TARGET_S = 0.005
MAX_REPEATS = 5
# reference() runs this often after each pass
REFERENCE_REPEATS = 10
TAIL_BEYOND = 10


@dataclass
class Pass:
    runs: int = 0
    times: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    routes: Counter = field(default_factory=Counter)


def tail_percentile(n_instances: int) -> float:
    """Highest percentile with TAIL_BEYOND instances beyond it."""
    return max(0.0, 100.0 * (n_instances - TAIL_BEYOND) / n_instances)


def repeat_counts(first: Pass) -> list[int]:
    """How often each instance runs in a row in later passes."""
    return [max(1, min(MAX_REPEATS, int(REPEAT_TARGET_S / max(t, 1e-9)))) for t in first.times]


def best_times(passes) -> list[float]:
    """Each instance's best time over the passes, in instance order."""
    return [min(times) for times in zip(*(p.times for p in passes))]


def run_pass(instances, repeats=None, tracer=None) -> Pass:
    """Run every instance ``repeats[k]`` times in a row (once without
    ``repeats``); keep the best time of each and every failure."""
    import workloads  # imports zedkit, so only once its sources are on the path

    out = Pass()
    for k, inst in enumerate(instances):
        if tracer is not None:
            tracer.instance = inst.iid
        best = float("inf")
        for _ in range(repeats[k] if repeats else 1):
            seconds, problem, route = workloads.run_instance(inst)
            out.runs += 1
            best = min(best, seconds)
            if problem:
                out.failures.append(f"{inst.iid}: {problem}")
        out.times.append(best)
        if route is not None:
            out.routes[route if route in tracing.ROUTES else "other"] += 1
    return out


def traced_pass(instances):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        result = run_pass(instances, tracer=tracer)
    finally:
        tracer.uninstall()
    return result, tracer


def end_to_end(setup_times, passes, speed) -> dict:
    """Times are each instance's best over the run's passes, times ``speed``:
    interference from other work on the host only ever adds time, and on a
    shared machine it comes in waves of several seconds, so even the fastest
    whole pass still feels it while an instance's best time over many passes
    feels it less."""
    n = len(passes[0].times)
    per_instance = sorted(best_times(passes))
    attempted = sum(p.runs for p in passes)
    failed = sum(len(p.failures) for p in passes)
    return {
        "setup_s": (statistics.median(setup_times) * speed, "s"),
        "wall_s": (sum(per_instance) * speed, "s"),
        "instance_p50_ms": (statistics.median(per_instance) * speed * 1e3, "ms"),
        "instance_tail_ms": (per_instance[max(0, n - 1 - TAIL_BEYOND)] * speed * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "success_ratio": ((attempted - failed) / attempted, "ratio"),
    }


def per_layer(untraced, traced, problems, speed) -> dict:
    """Median self time per layer over the traced passes, scaled like the
    end-to-end times; counts, which must repeat exactly from pass to pass;
    tracing overhead, the ratio of the summed best times with and without
    tracing."""
    rows = []
    for result, tracer in traced:
        times, calls = tracer.self_times()
        counts = {c: tracer.counts[c] for c in tracing.COUNTS}
        counts.update({f"{layer}_s.calls": calls[layer] for layer in tracing.TIMED_LAYERS})
        counts.update({f"cli.route.{r}": result.routes[r] for r in tracing.ROUTES})
        fpt_calls = calls["sets.fpt"]
        counts["sets.fpt_hit_ratio"] = tracer.counts["sets.fpt_hits"] / fpt_calls if fpt_calls else 0.0
        rows.append((times, counts))
    if any(counts != rows[0][1] for _, counts in rows):
        problems.append("work counts differ between traced passes")
    metrics = {}
    for layer in tracing.TIMED_LAYERS:
        metrics[f"{layer}_s"] = (statistics.median(t[layer] for t, _ in rows) * speed, "s")
        metrics[f"{layer}_s.calls"] = (rows[0][1][f"{layer}_s.calls"], "count")
    for name in tracing.COUNTS:
        metrics[name] = (rows[0][1][name], "MB" if name.endswith("_mb") else "count")
    metrics["sets.fpt_hit_ratio"] = (rows[0][1]["sets.fpt_hit_ratio"], "ratio")
    for r in tracing.ROUTES:
        metrics[f"cli.route.{r}"] = (rows[0][1][f"cli.route.{r}"], "count")
    overhead = sum(best_times(p for p, _ in traced)) / sum(best_times(untraced))
    metrics["trace.overhead"] = (overhead, "ratio")
    return metrics


def run_workload(workload, seed, seconds, trace, *, scale=1.0, out_dir=OUT, log=print) -> dict:
    """One measured run; returns the result object of the last output line."""
    out_dir.mkdir(parents=True, exist_ok=True)
    problems: list[str] = []
    host = calibrate.HostSpeed()
    with tempfile.TemporaryDirectory(dir=out_dir, prefix=f"work-{workload}-") as work:
        digests, setup_times = set(), []

        def set_up(keep):
            root = Path(work) / f"setup{len(setup_times)}"
            t0 = perf_counter()
            made = gen.setup(workload, seed, root, scale)
            setup_times.append(perf_counter() - t0)
            digests.add(made.digest)
            if not keep:
                shutil.rmtree(root)
            return made

        setup = set_up(keep=True)
        instances = setup.instances
        problems += setup.problems
        log(f"{workload} seed={seed}: {len(instances)} instances, digest {setup.digest}")
        # the collector should not walk the benchmark's own objects mid-pass
        gc.collect()
        gc.freeze()

        untraced, traced, repeats = [], [], None
        busy = 0.0  # seconds spent in passes
        while True:
            t0 = perf_counter()
            if trace and len(traced) < len(untraced):
                traced.append(traced_pass(instances))
            else:
                untraced.append(run_pass(instances, repeats))
                repeats = repeat_counts(untraced[0])
            last = perf_counter() - t0
            busy += last
            host.sample(REFERENCE_REPEATS)
            if not trace and len(setup_times) < SETUP_REPEATS:
                # the other set-ups go between passes, so that one slow
                # moment of the host does not fall on all of them
                set_up(keep=False)
            # without tracing, a run lasts at least until its last set-up
            done = len(traced) >= 2 if trace else len(setup_times) >= SETUP_REPEATS
            if done and busy + last > seconds:
                break
        if len(digests) != 1:
            problems.append("set-up is not deterministic: instance digests differ")
        if trace:
            with open(out_dir / f"spans-{workload}-seed{seed}.jsonl", "w", encoding="utf-8") as fh:
                for k, (_, tracer) in enumerate(traced):
                    tracer.write(fh, k)

    gc.unfreeze()
    passes = untraced + [p for p, _ in traced]
    failures = [f for p in passes for f in p.failures]
    speed = host.scale()
    if trace:
        metrics = per_layer(untraced, traced, problems, speed)
    else:
        metrics = end_to_end(setup_times, untraced, speed)
    log(f"{len(untraced)} untraced and {len(traced)} traced passes;"
        f" tail is p{tail_percentile(len(instances)):.2f} of {len(instances)} instances;"
        f" reference() took {host.best * 1e3:.4f} ms at best, times scaled by {speed:.4f}")
    for line in problems + failures[:20]:
        log(f"FAILED {line}")
    for name, (value, unit) in metrics.items():
        log(f"  {name} = {value:.6g} {unit}")
    return {
        "correct": not problems and not failures,
        "attempted": sum(p.runs for p in passes),
        "failed": len(failures) + len(problems),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    ok = True
    for workload in gen.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: exit code {proc.returncode}")
            ok = False
            continue
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        ok &= result["correct"]
        print(f"{workload}: correct={result['correct']} attempted={result['attempted']}"
              f" failed={result['failed']}")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*gen.WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not (SRC / "zedkit" / "__init__.py").is_file():
        print(f"zedkit sources not found at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    result = run_workload(args.workload, args.seed, args.seconds, args.trace,
                          log=lambda line: print(line, flush=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
