"""Rebuild references.json: the expected outcome of every pool job.

    python3 perfbench/make_references.py

Run it only at a commit whose outputs are known to be right; the benchmark
then checks every later run against what it stored.  Each entry also keeps
the job's wall time here (`cost_s`), which `certify` uses to split the q=4
pool into cost strata.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import corpus, jobs  # noqa: E402
from perfbench.run import REFERENCES, ROOT, load_program  # noqa: E402


def main() -> int:
    cli = load_program()
    refs = {}
    base = ROOT / ".perfbench_work"
    base.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="refs-", dir=base))
    try:
        for kind, key, argv, files in corpus.candidates():
            job = corpus.Job(kind=kind, key=key, argv=argv, files=files)
            corpus.materialize([job], workdir)
            res = jobs.run_job(cli.main, job, workdir)
            refs[key] = {**jobs.outcome(res, workdir), "cost_s": round(res.latency_s, 3)}
            print(f"{res.latency_s:8.3f}s exit {res.code}  {key[:90]}", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
