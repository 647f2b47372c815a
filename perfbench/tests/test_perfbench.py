"""Tests of the benchmark's own code: span arithmetic, corpus determinism,
output checks and tracing transparency.

    python -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import kohnmult.cli as cli
from kohnmult import multiplier_core, polyring
from perfbench import corpus, jobs, run, tracing

REFS = run.load_refs()


def _q1_job(tag="t"):
    return corpus._job(corpus._usable(REFS, "certify-q1")[0], tag)


def _certify(job, workdir):
    corpus.materialize([job], workdir)
    return jobs.run_job(cli.main, job, workdir)


# -- spans -------------------------------------------------------------------

def test_self_time_subtracts_child_spans():
    # each traced call reads the clock once on entry and once on exit
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 6.0, 7.0, 8.0, 9.0, 12.0])
    tr = tracing.Tracer(clock=lambda: next(ticks))
    leaf = tr.wrap("leaf", lambda: None)
    mid = tr.wrap("mid", lambda: (leaf(), leaf()))
    top = tr.wrap("top", lambda: (mid(), leaf()))
    top()
    spans = list(tr.spans())
    assert [s[:4] for s in spans] == [
        ("top", 0.0, 12.0, -1),
        ("mid", 1.0, 7.0, 0),
        ("leaf", 2.0, 3.0, 1),
        ("leaf", 4.0, 6.0, 1),
        ("leaf", 8.0, 9.0, 0),
    ]
    want = {"top": 12.0 - 6.0 - 1.0, "mid": 6.0 - 1.0 - 2.0, "leaf": 1.0 + 2.0 + 1.0}
    assert tracing.self_times(spans) == want
    assert dict(zip(tr.names, tr.self_s)) == want
    assert dict(zip(tr.names, tr.calls)) == {"leaf": 3, "mid": 1, "top": 1}
    assert dict(zip(tr.names, tr.total_s))["top"] == 12.0


def test_span_closes_when_the_call_raises():
    ticks = iter([0.0, 1.0, 2.0, 5.0])
    tr = tracing.Tracer(clock=lambda: next(ticks))

    def boom():
        raise ValueError("x")

    inner = tr.wrap("inner", boom)
    outer = tr.wrap("outer", inner)
    with pytest.raises(ValueError):
        outer()
    assert tracing.self_times(tr.spans()) == {"outer": 4.0, "inner": 1.0}


# -- corpus ------------------------------------------------------------------

@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload, tmp_path):
    trees = []
    for n, seed in enumerate((7, 7, 8)):
        setup, measured = run.build_corpus(workload, seed, REFS, tmp_path / str(n))
        files = {p.name: p.read_bytes() for p in sorted((tmp_path / str(n)).iterdir())}
        trees.append((setup + measured, files))
    assert trees[0] == trees[1]
    assert trees[0] != trees[2]


def test_every_pool_job_has_a_reference():
    keys = [key for _, key, _, _ in corpus.candidates()]
    assert len(keys) == len(set(keys))
    assert set(keys) <= set(REFS)


def test_certify_round_takes_one_domain_per_cost_stratum():
    jobs_ = corpus.certify_corpus(3, REFS)
    kinds = sorted(j.kind for j in jobs_)
    assert kinds.count("certify-q4") == corpus.Q4_STRATA
    assert kinds.count("certify-q1") == corpus.Q1_PER_ROUND
    assert kinds.count("certify-q6") == 1


def test_polynomials_use_the_accepted_sign_form():
    text = corpus.poly_text([(1, "a"), (-3, "z1"), (0, "z2"), (-1, "z2^2")])
    assert text == "a - 3*z1 - z2^2"
    polyring.parse_poly(text.replace("a", "z3"), ("z1", "z2", "z3"))


# -- checks ------------------------------------------------------------------

@pytest.mark.parametrize("kind", corpus.MUTATIONS)
def test_mutated_certificate_is_rejected_and_counted_as_expected(kind, tmp_path):
    job = _q1_job()
    assert jobs.check(_certify(job, tmp_path), tmp_path, REFS) is None
    cert_name = job.argv[5]
    mutation = {"kind": kind, "part": "late", "draw": 0.5, "source": cert_name}
    edited, step = corpus.mutate(json.loads((tmp_path / cert_name).read_text()), mutation)
    (tmp_path / "m.json").write_text(json.dumps(edited))
    mutant = corpus.Job(kind="verify-mutant", key=job.key,
                        argv=("verify", job.argv[1], "m.json"),
                        mutation={**mutation, "step": step})
    res = jobs.run_job(cli.main, mutant, tmp_path)
    assert res.code == 1
    assert jobs.check(res, tmp_path, REFS) is None
    # the same rejection is a failure when another step was expected
    wrong = corpus.Job(kind="verify-mutant", key=job.key, argv=mutant.argv,
                       mutation={**mutation, "step": step + 1})
    assert jobs.check(jobs.run_job(cli.main, wrong, tmp_path), tmp_path, REFS)


def test_accepted_replay_matches_the_certify_reference(tmp_path):
    job = _q1_job()
    _certify(job, tmp_path)
    replay = corpus.Job(kind="verify", key=job.key, argv=("verify", job.argv[1], job.argv[5]))
    res = jobs.run_job(cli.main, replay, tmp_path)
    assert res.code == 0
    assert jobs.check(res, tmp_path, REFS) is None


def test_corrupted_reference_digest_counts_in_failed_ratio(tmp_path):
    job = _q1_job()
    corpus.materialize([job], tmp_path)
    refs = json.loads(json.dumps(REFS))
    ref = refs[job.key]
    ref["sha256"] = ref["sha256"][::-1]
    results, wall, failures = run.run_rounds(cli.main, [job], tmp_path, refs, seconds=0.0)
    assert len(results) == 1 and wall > 0
    assert len(failures) == 1 and "sha256" in failures[0]
    # and the untouched reference passes
    assert run.run_rounds(cli.main, [job], tmp_path, REFS, seconds=0.0)[2] == []


# -- tracing -----------------------------------------------------------------

def test_traced_run_writes_byte_identical_certificates(tmp_path):
    job = _q1_job()
    plain = _certify(job, tmp_path)
    before = (tmp_path / job.argv[5]).read_bytes()
    originals = (polyring.Poly.__mul__, polyring.parse_poly, cli.main,
                 multiplier_core.certificate_verify)
    tracer = tracing.Tracer()
    with tracing.install(tracer):
        assert polyring.Poly.__mul__ is not originals[0]
        traced = jobs.run_job(cli.main, job, tmp_path)
    assert (tmp_path / job.argv[5]).read_bytes() == before
    assert traced.stdout == plain.stdout
    assert (polyring.Poly.__mul__, polyring.parse_poly, cli.main,
            multiplier_core.certificate_verify) == originals
    calls = dict(zip(tracer.names, tracer.calls))
    assert calls["cli.main"] == 1
    assert calls["kohn_effective3d.self_verify"] == calls["multiplier_core.verify"] == 1
    assert calls["polyring.mul"] > 0 and calls["polyring.parse"] > 0


def test_layer_metrics_name_every_layer(tmp_path):
    job = _q1_job()
    corpus.materialize([job], tmp_path)
    tracer = tracing.Tracer()
    with tracing.install(tracer):
        results, wall, failures = run.run_rounds(cli.main, [job], tmp_path, REFS, 0.0, tracer)
    assert failures == []
    metrics = run.layer_metrics(tracer, wall, len(results))
    bench = json.loads((Path(run.__file__).parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"] for m in bench["per_layer"]} == set(metrics)
    assert metrics["multiplier_core.cert.steps"][0] == REFS[job.key]["steps"]


# -- the command -------------------------------------------------------------

def test_run_without_the_program_fails_without_a_result(tmp_path):
    bench_dir = Path(run.__file__).parent
    shutil.copytree(bench_dir, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
