"""What one instance does, and how its answer is checked.

An instance runs through the public API the way a user would: read the
files, parse, decide with the route function for its class, verify a YES
certificate, emit.  ``cli-*`` instances run the same steps through
``zedkit.cli.main``.  Only that part is timed; the checks against the
expected answer run afterwards.

Functions are looked up on their modules at call time, so a traced pass sees
the wrappers that ``tracing.Tracer`` installs.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

from zedkit import cli, formats, model, sat, seq, sets

import check

# Budget for one exact set search; running out is recorded as a failure.
SET_EXACT_TIMEOUT_S = 30.0


# ------------------------------------------------------- library pipelines


def _read_pair(inst, parse):
    return (parse(inst.paths[r].read_text(encoding="utf-8")) for r in ("g1", "g2"))


def _seq_zed(inst):
    g1, g2 = _read_pair(inst, formats.parse_seq_genome)
    model.classify_instance(g1, g2)
    dec = seq.zed_seq_special(g1, g2)
    if not dec.answer:
        return {"answer": False}
    verified = model.verify_seq_certificate(g1, g2, dec.certificate).ok
    formats.emit_seq_genome(dec.certificate)
    return {"answer": True, "verified": verified, "cert": dec.certificate.genes}


def _seq_elcs(inst):
    a, b = _read_pair(inst, formats.parse_seq_genome)
    alphabet = model.Alphabet.from_mandatory(inst.params["mandatory"], a.families | b.families)
    feasible = seq.elcs_feasible(a, b, alphabet)
    best = seq.elcs_special(a, b, alphabet)
    if best is not None:
        formats.emit_seq_genome(best)
    return {"answer": feasible, "best": None if best is None else best.genes}


def _set_zed(inst):
    g1, g2 = _read_pair(inst, formats.parse_set_genome)
    model.classify_instance(g1, g2)
    dec = sets.zed_set_matching(g1, g2)
    if not dec.answer:
        return {"answer": False}
    verified = sets.verify_set_certificate(g1, g2, dec.certificate).ok
    formats.emit_set_genome(dec.certificate)
    return {"answer": True, "verified": verified, "cert": dec.certificate.chromosomes}


def _sat_seq(inst):
    phi = formats.parse_dimacs3(inst.paths["cnf"].read_text(encoding="utf-8"))
    g1, g2, _ = sat.reduce_3sat_to_seq_zed(phi)
    # the default family cap refuses every reduction here; lift it to the size
    dec = seq.zed_seq_exact(g1, g2, max_families=len(g1.families | g2.families))
    if not dec.answer:
        return {"answer": False}
    verified = model.verify_seq_certificate(g1, g2, dec.certificate).ok
    sigma = sat.assignment_from_seq_certificate(phi, dec.certificate)
    formats.emit_seq_genome(dec.certificate)
    return {"answer": True, "verified": verified, "sigma": sigma}


def _sat_set(inst):
    phi = formats.parse_dimacs3(inst.paths["cnf"].read_text(encoding="utf-8"))
    g1, g2, _ = sat.reduce_3sat_to_set_zed(phi)
    dec = sets.zed_set_exact(g1, g2, timeout_s=SET_EXACT_TIMEOUT_S)
    if not dec.answer:
        return {"answer": False}
    verified = sets.verify_set_certificate(g1, g2, dec.certificate).ok
    sigma = sat.assignment_from_set_certificate(phi, dec.certificate)
    formats.emit_set_genome(dec.certificate)
    return {"answer": True, "verified": verified, "sigma": sigma}


# ------------------------------------------------------------ CLI pipeline


def _main(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _cli_solve(inst, command, variant):
    g1, g2, cert = (str(inst.paths[r]) for r in ("g1", "g2", "out"))
    code, out = _main([command, g1, g2, "--cert-out", cert, "--report", "-"])
    result = {"code": code, "out": out}
    if code == 0:
        result["verify"] = _main(["verify", "--variant", variant, g1, g2, cert])
    return result


def _cli_elcs(inst):
    a, b, path = (str(inst.paths[r]) for r in ("g1", "g2", "out"))
    mandatory = ",".join(str(f) for f in inst.params["mandatory"])
    code, out = _main(["elcs", a, b, "--mandatory", mandatory, "--mode", inst.params["mode"],
                       "--out", path, "--report", "-"])
    return {"code": code, "out": out}


def _cli_sat(inst):
    code, out = _main(["sat", str(inst.paths["cnf"])])
    return {"code": code, "out": out}


PIPELINES = {
    "seq-zed": _seq_zed,
    "seq-elcs": _seq_elcs,
    "set-zed": _set_zed,
    "sat-seq": _sat_seq,
    "sat-set": _sat_set,
    "cli-seq": lambda inst: _cli_solve(inst, "solve-seq", "seq"),
    "cli-set": lambda inst: _cli_solve(inst, "solve-set", "set"),
    "cli-elcs": _cli_elcs,
    "cli-sat": _cli_sat,
}


# ------------------------------------------------------------------ checks


def _check_decision(inst, res, cert_problem):
    if res["answer"] != inst.expect["answer"]:
        return f"answered {res['answer']}, expected {inst.expect['answer']}"
    if not res["answer"]:
        return None
    if not res["verified"]:
        return "verify rejected the certificate"
    return cert_problem(res)


def _check_seq_zed(inst, res):
    g1, g2 = (check.read_seq(inst.files[r]) for r in ("g1", "g2"))
    return _check_decision(inst, res, lambda r: check.seq_cert_problem(g1, g2, r["cert"]))


def _check_set_zed(inst, res):
    g1, g2 = (check.read_set(inst.files[r]) for r in ("g1", "g2"))
    return _check_decision(inst, res, lambda r: check.set_cert_problem(g1, g2, r["cert"]))


def _check_sat(inst, res):
    clauses = inst.params["clauses"]

    def assignment_problem(r):
        if not check.satisfies(clauses, r["sigma"]):
            return "certificate converts to an assignment that falsifies the formula"
        return None

    return _check_decision(inst, res, assignment_problem)


def _check_elcs_answer(inst, feasible, best):
    if feasible != inst.expect["answer"] or (best is not None) != inst.expect["answer"]:
        return f"feasible={feasible}, expected {inst.expect['answer']}"
    if best is None:
        return None
    a, b = (check.read_seq(inst.files[r]) for r in ("g1", "g2"))
    return check.elcs_problem(a, b, inst.params["mandatory"], best, inst.expect["length"])


def _check_seq_elcs(inst, res):
    return _check_elcs_answer(inst, res["answer"], res["best"])


def _exit_problem(inst, res):
    want = 0 if inst.expect["answer"] else 1
    if res["code"] != want:
        return f"exit code {res['code']}, expected {want}"
    return None


def _check_cli_solve(inst, res, read, cert_problem):
    problem = _exit_problem(inst, res)
    if problem:
        return problem
    verdict = "YES" if inst.expect["answer"] else "NO"
    if not res["out"].startswith(verdict + " ") or report(res)["verdict"] != verdict:
        return f"verdict line does not say {verdict}"
    if not inst.expect["answer"]:
        return None
    if res["verify"] != (0, "OK\n"):
        return f"verify said {res['verify']!r}"
    g1, g2 = (read(inst.files[r]) for r in ("g1", "g2"))
    return cert_problem(g1, g2, read(inst.paths["out"].read_text(encoding="utf-8")))


def _check_cli_elcs(inst, res):
    problem = _exit_problem(inst, res)
    if problem:
        return problem
    if not inst.expect["answer"]:
        return None if res["out"].startswith("INFEASIBLE") else "verdict line is not INFEASIBLE"
    best = check.read_seq(inst.paths["out"].read_text(encoding="utf-8"))
    return _check_elcs_answer(inst, True, best)


def _check_cli_sat(inst, res):
    problem = _exit_problem(inst, res)
    if problem or not inst.expect["answer"]:
        return problem
    words = res["out"].split()
    sigma = {int(v): val == "T" for v, val in (w.split("=") for w in words[1:])}
    if words[0] != "SAT" or not check.satisfies(inst.params["clauses"], sigma):
        return "printed assignment does not satisfy the formula"
    return None


CHECKS = {
    "seq-zed": _check_seq_zed,
    "seq-elcs": _check_seq_elcs,
    "set-zed": _check_set_zed,
    "sat-seq": _check_sat,
    "sat-set": _check_sat,
    "cli-seq": lambda inst, res: _check_cli_solve(inst, res, check.read_seq, check.seq_cert_problem),
    "cli-set": lambda inst, res: _check_cli_solve(inst, res, check.read_set, check.set_cert_problem),
    "cli-elcs": _check_cli_elcs,
    "cli-sat": _check_cli_sat,
}


def report(res) -> dict:
    """The --report JSON line of a CLI run."""
    lines = [ln for ln in res["out"].splitlines() if ln.startswith("{")]
    return json.loads(lines[-1])


def route(res) -> str | None:
    """``<command>.<algorithm>`` from the --report line, for CLI solves."""
    if "out" not in res or not any(ln.startswith("{") for ln in res["out"].splitlines()):
        return None
    rep = report(res)
    return f"{rep['command']}.{rep['algorithm']}"


def run_instance(inst):
    """Run one instance; return (seconds, failure or None, route or None).

    Every exception counts as a failure of this instance and nothing else.
    """
    out = inst.paths.get("out")
    if out is not None:
        out.unlink(missing_ok=True)
    t0 = perf_counter()
    try:
        res = PIPELINES[inst.kind](inst)
    except Exception as exc:  # the run must go on to every other instance
        return perf_counter() - t0, f"{type(exc).__name__}: {exc}", None
    elapsed = perf_counter() - t0
    try:
        return elapsed, CHECKS[inst.kind](inst, res), route(res)
    except Exception as exc:  # malformed output is a failure too
        return elapsed, f"unreadable output: {type(exc).__name__}: {exc}", None
