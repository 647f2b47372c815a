"""kohnmult benchmark: one seeded workload, closed loop, one client.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 15 --trace 0

Jobs run back to back in this process, each one a call of
`kohnmult.cli.main(argv)` with its output captured and checked against
`references.json`.  The corpus is a whole "round" of jobs; the run repeats
whole rounds until `--seconds` of job time have passed (at least one round).
With `--trace 1` the run makes exactly one round with every traced layer
wrapped (see tracing.py) and reports per-layer metrics instead.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The program is imported
from `src/` next to this directory; without it the run exits with code 2
and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import corpus, jobs as jobs_mod, tracing  # noqa: E402

WORKLOADS = ("certify", "replay", "ideals")
# light set-up samples taken before the first round and after each round,
# so that their median spans the run rather than one moment of it
SETUP_SAMPLES_BEFORE = 3
SETUP_SAMPLES_BETWEEN = 2
# job_tail_s is reported only when the run has enough jobs that the
# percentile with ten jobs beyond it is p90 or higher.
TAIL_MIN_JOBS = 100
REFERENCES = Path(__file__).resolve().parent / "references.json"
CACHE = ROOT / ".perfbench_cache"

# layers reported by the traced run: (span name, stats)
LAYER_STATS = (
    ("polyring.mul", ("calls", "self_s")), ("polyring.pow", ("calls", "self_s")),
    ("polyring.compose", ("self_s",)), ("polyring.parse", ("calls", "self_s", "total_s")),
    ("polyring.print", ("calls", "self_s")), ("polyring.det", ("self_s",)),
    ("groebner.gb", ("calls", "self_s")), ("groebner.nf", ("calls", "self_s")),
    ("groebner.cofactors", ("self_s",)), ("groebner.power_in_ideal", ("calls", "self_s")),
    ("groebner.gcd", ("calls", "self_s")), ("groebner.squarefree", ("calls", "self_s")),
    ("groebner.radical_membership", ("calls", "self_s")), ("groebner.eliminate", ("self_s",)),
    ("modules.membership", ("calls", "self_s")),
    ("multiplier_core.verify", ("calls", "self_s", "total_s")),
    ("multiplier_core.rule", ("calls", "self_s")),
    ("kohn_effective3d.step_one", ("self_s", "total_s")),
    ("kohn_effective3d.step_two", ("self_s", "total_s")),
    ("kohn_effective3d.weierstrass", ("self_s", "total_s")),
    ("kohn_effective3d.step_three", ("self_s", "total_s")),
    ("kohn_effective3d.self_verify", ("self_s", "total_s")),
    ("kohn_full_radical.run", ("self_s",)), ("catlin_dangelo.trace", ("self_s",)),
    ("catlin_dangelo.chain", ("self_s",)), ("matrix_lab.compare", ("self_s",)),
    ("cli.main", ("self_s", "total_s")),
)
COUNTERS = (
    "polyring.mul.terms_out", "polyring.parse.bytes", "polyring.print.bytes",
    "groebner.gb.basis_len", "groebner.gb.provenance_calls",
    "multiplier_core.cert.bytes", "multiplier_core.cert.steps",
    "multiplier_core.cert.max_payload_terms", "multiplier_core.cert.max_coeff_bits",
    "kohn_full_radical.run.rounds", "cli.main.output_bytes",
)
MODULES = ("polyring", "groebner", "modules", "multiplier_core", "kohn_effective3d",
           "kohn_full_radical", "catlin_dangelo", "matrix_lab", "cli")


class Unavailable(Exception):
    """The program to measure is not in this checkout."""


def load_program():
    """Import kohnmult from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "kohnmult" / "cli.py").is_file():
        raise Unavailable(f"no kohnmult sources under {src}")
    sys.path.insert(0, str(src))
    import kohnmult  # noqa: F401
    import kohnmult.cli as cli

    if Path(cli.__file__).resolve().parent != (src / "kohnmult").resolve():
        raise Unavailable(f"kohnmult was imported from {cli.__file__}, not {src}")
    return cli


def load_refs() -> dict:
    return json.loads(REFERENCES.read_text())


def cert_stats(path) -> dict:
    """Size figures of a kohn-cert/1 file: bytes, steps, largest payload in
    terms and the bit length of its largest integer literal."""
    data = path.read_bytes()
    cert = json.loads(data)
    terms = bits = 0
    for step in cert["steps"]:
        for text in step["payload"]:
            terms = max(terms, 1 + text.count(" + ") + text.count(" - "))
            for lit in corpus.COEFF.findall(text):
                bits = max(bits, int(lit).bit_length())
    return {"bytes": len(data), "steps": len(cert["steps"]),
            "max_payload_terms": terms, "max_coeff_bits": bits}


def _cert_path(job, workdir):
    argv = job.argv
    if argv[0] == "effective3d":
        return workdir / argv[argv.index("--out") + 1]
    if argv[0] == "verify":
        return workdir / argv[2]
    return None


# ---------------------------------------------------------------------------
# set-up

def build_corpus(workload, seed, refs, workdir):
    """(set-up jobs, measured jobs) for a workload, with input files written."""
    if workload == "replay":
        setup, measured = corpus.replay_corpus(seed, refs)
    else:
        setup, measured = [], corpus.CORPORA[workload](seed, refs)
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    corpus.materialize(setup + measured, workdir)
    return setup, measured


def _cache_path(job):
    """Where a seed-independent set-up certificate is kept between runs in this
    checkout: keyed by the job and by the program's source, so a changed
    program never reuses an old certificate."""
    h = hashlib.sha256(job.key.encode())
    for path in sorted((ROOT / "src" / "kohnmult").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return CACHE / f"{h.hexdigest()}.json"


def setup_sample(workload, seed, refs, probe_dir) -> float:
    """One repetition of the light set-up: a fresh interpreter importing the
    program, then the seed's corpus written into probe_dir."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import kohnmult.cli"], check=True,
                   env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, cwd=ROOT)
    build_corpus(workload, seed, refs, probe_dir)
    return time.perf_counter() - start


def produce_certificates(main, setup, measured, workdir, refs):
    """Run the certify jobs replay needs, check them, and write the mutants.

    The q=6 certificate is the same for every seed and takes most of the
    set-up time, so it is made once per checkout and copied afterwards; its
    digest is checked against the reference either way.  Returns (measured
    jobs with mutation targets filled in, failure reasons).
    """
    failures = []
    for job in setup:
        cert = workdir / job.argv[job.argv.index("--out") + 1]
        cached = _cache_path(job) if job.kind == "certify-q6" else None
        if cached is not None and cached.is_file():
            shutil.copyfile(cached, cert)
            if jobs_mod.file_sha256(cert) != refs[job.key]["sha256"]:
                failures.append(f"set-up {job.key}: cached certificate digest differs")
            continue
        res = jobs_mod.run_job(main, job, workdir)
        reason = jobs_mod.check(res, workdir, refs)
        if reason:
            failures.append(f"set-up {job.key}: {reason}")
        elif cached is not None:
            CACHE.mkdir(exist_ok=True)
            tmp = cached.with_suffix(f".tmp{os.getpid()}")
            shutil.copyfile(cert, tmp)
            os.replace(tmp, cached)
    out = []
    for job in measured:
        if job.mutation is not None:
            src = json.loads((workdir / job.mutation["source"]).read_text())
            edited, step = corpus.mutate(src, job.mutation)
            (workdir / job.argv[2]).write_text(json.dumps(edited, indent=2, sort_keys=True))
            job = replace(job, mutation={**job.mutation, "step": step})
        out.append(job)
    return out, failures


# ---------------------------------------------------------------------------
# measurement

def run_rounds(main, measured, workdir, refs, seconds, tracer=None, after_round=None):
    """Whole rounds until `seconds` of job time have passed (one round when
    tracing).  Returns (results, measured wall seconds, failure reasons).
    Checks and `after_round()` run between rounds, outside the measured time."""
    results, failures = [], []
    wall = 0.0
    while True:
        start = time.perf_counter()
        round_results = []
        for n, job in enumerate(measured):
            if tracer is not None:
                tracer.job = n
            round_results.append(jobs_mod.run_job(main, job, workdir))
        wall += time.perf_counter() - start
        for res in round_results:
            reason = jobs_mod.check(res, workdir, refs)
            if reason:
                failures.append(f"{res.job.key}: {reason}")
            if tracer is not None:
                tracer.counters["cli.main.output_bytes"] += len(res.stdout)
                path = _cert_path(res.job, workdir)
                if path is not None and path.is_file():
                    stats = cert_stats(path)
                    for name in ("bytes", "steps"):
                        tracer.counters[f"multiplier_core.cert.{name}"] += stats[name]
                    for name in ("max_payload_terms", "max_coeff_bits"):
                        key = f"multiplier_core.cert.{name}"
                        tracer.counters[key] = max(tracer.counters[key], stats[name])
        results += round_results
        if after_round is not None:
            after_round()
        if tracer is not None or wall >= seconds:
            return results, wall, failures


def tail(latencies):
    """(percentile, value) at the highest percentile with at least ten jobs
    beyond it, or None when the run has too few jobs for a tail."""
    n = len(latencies)
    if n < TAIL_MIN_JOBS:
        return None
    rank = n - 10
    return 100.0 * rank / n, sorted(latencies)[rank - 1]


def layer_metrics(tracer, wall, n_jobs) -> dict:
    ids = {name: j for j, name in enumerate(tracer.names)}
    out = {}
    for name, stats in LAYER_STATS:
        j = ids.get(name)
        for stat in stats:
            if stat == "calls":
                value, unit = (tracer.calls[j] if j is not None else 0), "count"
            elif stat == "self_s":
                value, unit = (tracer.self_s[j] if j is not None else 0.0), "s"
            else:
                value, unit = (tracer.total_s[j] if j is not None else 0.0), "s"
            out[f"{name}.{stat}"] = (value, unit)
    for name in COUNTERS:
        unit = "bytes" if name.endswith("bytes") else "count"
        out[name] = (tracer.counters.get(name, 0), unit)
    attempted = tracer.counters.get("kohn_effective3d.step_two.attempted", 0)
    accepted = tracer.counters.get("kohn_effective3d.step_two.accepted", 0)
    out["kohn_effective3d.step_two.accept_ratio"] = (
        accepted / attempted if attempted else 0.0, "ratio")
    out["traced.jobs_per_s"] = (n_jobs / wall, "1/s")
    out["traced.spans"] = (len(tracer.starts), "count")
    return out


def module_shares(tracer) -> dict:
    """Each module's share of all traced self time."""
    traced = sum(tracer.self_s)
    shares = dict.fromkeys(MODULES, 0.0)
    for name, s in zip(tracer.names, tracer.self_s):
        shares[name.split(".")[0]] += s / traced if traced else 0.0
    return shares


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=corpus.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    try:
        cli = load_program()
    except (Unavailable, ImportError) as exc:
        print(f"perfbench: cannot load the program: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t0
    refs = load_refs()

    base = ROOT / ".perfbench_work"
    workdir = base / f"{args.workload}-{args.seed}-{os.getpid()}"
    probe = base / f"setup-{args.workload}-{args.seed}-{os.getpid()}"
    samples = []

    def sample_setup(count):
        samples.extend(setup_sample(args.workload, args.seed, refs, probe) for _ in range(count))

    try:
        sample_setup(SETUP_SAMPLES_BEFORE)
        setup, measured = build_corpus(args.workload, args.seed, refs, workdir)
        # replay's certificate generation is too long to repeat; it is timed once
        t = time.perf_counter()
        measured, failures = produce_certificates(cli.main, setup, measured, workdir, refs)
        certgen_s = time.perf_counter() - t

        tracer = tracing.Tracer() if args.trace else None
        if tracer is None:
            results, wall, fails = run_rounds(
                cli.main, measured, workdir, refs, args.seconds,
                after_round=lambda: sample_setup(SETUP_SAMPLES_BETWEEN))
        else:
            with tracing.install(tracer):
                results, wall, fails = run_rounds(
                    cli.main, measured, workdir, refs, args.seconds, tracer)
        failures += fails
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        shutil.rmtree(probe, ignore_errors=True)
    setup_s = statistics.median(samples) + certgen_s

    attempted = len(results)
    failed = len(fails)
    latencies = [r.latency_s for r in results]
    rounds = attempted // len(measured)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{rounds} round(s) of {len(measured)} jobs, {wall:.3f} s measured")
    for reason in failures[:20]:
        print(f"FAILED {reason}")

    if tracer is None:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "jobs_per_s": (attempted / wall, "1/s"),
            "ok_ratio": (1.0 - failed / attempted, "ratio"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_mb, "MB"),
        }
        lines = [(k, f"{v:.4f}", u) for k, (v, u) in metrics.items()]
        lines.append(("job_p50_s", f"{statistics.median(latencies):.4f}", "s"))
        tail_at = tail(latencies)
        lines.append(("job_tail_s", *(
            (f"n/a ({attempted} jobs; needs {TAIL_MIN_JOBS})", "") if tail_at is None else
            (f"{tail_at[1]:.4f}", f"s (p{tail_at[0]:.1f} of {attempted} jobs)"))))
        lines.append(("failed_ratio", f"{failed / attempted:.4f}", f"({failed}/{attempted})"))
        lines.append(("setup parts", f"{statistics.median(samples):.4f} s",
                      f"median of {len(samples)} import + corpus samples; "
                      f"certificates {certgen_s:.3f} s; in-process import {import_s:.3f} s"))
    else:
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        spans = tracer.write(out_dir / f"trace-{args.workload}-seed{args.seed}.csv.gz")
        metrics = layer_metrics(tracer, wall, attempted)
        lines = [(k, f"{v:.6g}", u) for k, (v, u) in metrics.items()]
        lines += [(f"self_share.{k}", f"{v:.4f}", "of traced self time")
                  for k, v in module_shares(tracer).items()]
        lines.append(("spans_written", str(spans), f"to {out_dir.name}/"))
    width = max(len(name) for name, _, _ in lines)
    for name, value, unit in lines:
        print(f"  {name.ljust(width)}  {value} {unit}".rstrip())

    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
