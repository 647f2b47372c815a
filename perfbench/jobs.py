"""Running one job through `kohnmult.cli.main` and checking its output.

`outcome()` reduces a job's exit code, standard output and output files to
the fields the benchmark compares.  `make_references.py` stores those
fields for every pool job at a known-good commit; `check()` compares a
later run with them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
from dataclasses import dataclass
from fractions import Fraction


@dataclass
class Result:
    job: object
    code: int
    stdout: str
    stderr: str
    latency_s: float


def resolve(argv, workdir):
    """The job's argv with input and output file names placed in workdir."""
    return [str(workdir / a) if a.endswith(".json") else a for a in argv]


def run_job(main, job, workdir) -> Result:
    """One in-process call of the CLI entry point with its output captured."""
    argv = resolve(job.argv, workdir)
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    latency = time.perf_counter() - start
    return Result(job, code, out.getvalue(), err.getvalue(), latency)


def file_sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def outcome(result: Result, workdir) -> dict:
    """The fields of a job's result that references pin down."""
    argv = result.job.argv
    got = {"exit": result.code}
    if result.code not in (0, 3) or argv[0] == "verify":
        got["line"] = result.stdout.strip().splitlines()[0] if result.stdout.strip() else ""
        return got
    data = json.loads(result.stdout)
    cmd = argv[0]
    if cmd == "effective3d":
        got["sha256"] = file_sha256(workdir / argv[argv.index("--out") + 1])
        for name in ("final_order", "floor_order_prefixed", "steps", "multiplicity"):
            got[name] = data[name]
    elif cmd == "full-radical":
        got["p_list"] = data["p_list"]
        got["order_bound"] = data["order_bound"]
    elif cmd == "multiplicity":
        got["multiplicity"] = data["multiplicity"]
        got["staircase"] = data["staircase"]
    elif cmd == "catlin-dangelo":
        for name in ("p1_lower", "final_order", "differentiation_counts"):
            got[name] = data[name]
    elif cmd == "matrix-lab":
        for name in ("verdict", "narration_matches", "obstruction"):
            if name in data:
                got[name] = data[name]
    return got


def expected(job, refs) -> dict | None:
    """What a job must produce, from the references of the pool item it runs."""
    ref = refs.get(job.key)
    if ref is None:
        return None
    if job.argv[0] != "verify":
        return {k: v for k, v in ref.items() if k != "cost_s"}
    if job.mutation is not None:
        return {"exit": 1, "line_prefix": f"certificate rejected at step {job.mutation['step']}:"}
    return {"exit": 0, "line_prefix":
            f"certificate ok: {ref['steps']} steps, final order {ref['final_order']},"}


def check(result: Result, workdir, refs) -> str | None:
    """None when the job's output matches its reference, else the reason."""
    want = expected(result.job, refs)
    if want is None:
        return f"no reference for {result.job.key!r}"
    try:
        got = outcome(result, workdir)
    except (ValueError, KeyError, OSError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
    prefix = want.pop("line_prefix", None)
    if prefix is not None and not got.get("line", "").startswith(prefix):
        return f"expected {prefix!r}, got {got.get('line')!r} (exit {result.code})"
    for name, value in want.items():
        if got.get(name) != value:
            return f"{name}: expected {value!r}, got {got.get(name)!r}"
    if result.job.argv[0] == "effective3d" and result.code == 0:
        if Fraction(got["final_order"]) < Fraction(got["floor_order_prefixed"]):
            return "final order below the floor"
    return None
