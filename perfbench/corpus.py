"""Seeded corpora for the three workloads.

Every input comes from a fixed, finite pool of job candidates that
`candidates()` enumerates from its own deterministic generators.  The
pool's reference outcomes live in `references.json` (rebuilt by
`make_references.py`), so the output of every job in every seed's corpus
is checked against a stored reference, not only at the default seed.

A workload seed picks a sample from the pool and fixes its order, the
effective3d `--seed` of each domain (part of the pool item) and, for
`replay`, which certificates are mutated and how.  The same seed always
gives byte-identical input files.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass

# Default workload seed; BASELINE.json records the figures for it.
DEFAULT_SEED = 0

Q6_GENERATORS = ("z1^3", "z2^2")
Q6_SEED = 0
FR3_GENERATORS = ("z1^2", "z2^2", "z3^2")
# At the default --power-cap of 64, _uniform_power enumerates every 64-fold
# product of the radical generators and runs for more than 40 s; the
# three-variable jobs therefore run with a reduced cap.
FR3_POWER_CAP = 8

Q4_POOL = 32
Q1_POOL = 16
# Per-round composition.  `certify` takes one q=4 domain from each cost
# stratum of the q=4 pool (cheapest, middle and dearest third by the
# reference run's wall time), so a round's cost and its median job vary
# little between seeds; `replay` adds one early and one late mutant.
Q4_STRATA = 3
Q1_PER_ROUND = 1
# Most ideals jobs are two-variable radical loops, so the median job sits
# near the middle of their latencies rather than in the lower tail, where a
# short fast spell of the machine moves it; two rounds make 100 jobs.
IDEALS_MIX = {"multiplicity": 3, "matrix-lab": 3, "catlin-dangelo": 4, "full-radical": 39}

MUTATIONS = ("order", "payload", "swap")


@dataclass(frozen=True)
class Job:
    """One call of `kohnmult.cli.main`.

    `argv` names input files by their base name; the runner resolves them in
    its work directory.  `key` selects the reference outcome; `mutation` is
    set for replay jobs on an edited certificate, which must be rejected.
    """

    kind: str
    key: str
    argv: tuple
    files: tuple = ()  # ((file name, text), ...)
    mutation: dict | None = None


def _domain_text(variables, generators) -> str:
    return json.dumps({"variables": list(variables), "generators": list(generators)}, sort_keys=True)


def _term(coef: int, mono: str, first: bool) -> str:
    """One signed term in the form parse_poly accepts (`a - 3*z1`, never `a + -3*z1`)."""
    body = mono if abs(coef) == 1 and mono != "1" else (
        str(abs(coef)) if mono == "1" else f"{abs(coef)}*{mono}")
    if first:
        return ("-" if coef < 0 else "") + body
    return (" - " if coef < 0 else " + ") + body


def poly_text(terms) -> str:
    """Render [(coefficient, monomial string), ...], skipping zero coefficients."""
    out = []
    for coef, mono in terms:
        if coef:
            out.append(_term(coef, mono, not out))
    return "".join(out) or "0"


# ---------------------------------------------------------------------------
# pool

def _quadric_pairs(count):
    """Homogeneous quadric pairs with coefficients in [-3, 3] and no common
    linear factor (nonzero resultant), so the multiplicity is exactly 4."""
    rng = random.Random("perfbench:q4")
    seen = set()
    while len(seen) < count:
        a, b, c, d, e, f = (rng.randint(-3, 3) for _ in range(6))
        if (a * f - c * d) ** 2 - (a * e - b * d) * (b * f - c * e) == 0:
            continue
        gens = (poly_text([(a, "z1^2"), (b, "z1*z2"), (c, "z2^2")]),
                poly_text([(d, "z1^2"), (e, "z1*z2"), (f, "z2^2")]))
        item = (gens, rng.randint(0, 9))
        if item not in seen:
            seen.add(item)
            yield item


def _linear_pairs(count):
    """Linear pairs with nonzero determinant: the origin is the only common
    zero, the multiplicity is 1 and effective3d takes its short-circuit path."""
    rng = random.Random("perfbench:q1")
    seen = set()
    while len(seen) < count:
        a, b, c, d = (rng.randint(-3, 3) for _ in range(4))
        if a * d - b * c == 0:
            continue
        gens = (poly_text([(a, "z1"), (b, "z2")]), poly_text([(c, "z1"), (d, "z2")]))
        item = (gens, rng.randint(0, 9))
        if item not in seen:
            seen.add(item)
            yield item


CD_GRID = tuple((m, n, k) for m in (2, 3) for n in (3, 4, 5) for k in range(m + 1, m + 9))


def _cd_generators(m, n, k):
    return (f"z1^{m}", f"z2^{n} + z2*z1^{k}")


def _random_entry(rng, names):
    terms = []
    for _ in range(rng.randint(1, 2)):
        mono = "*".join(rng.sample(names, rng.randint(1, 2)))
        terms.append((rng.choice((-2, -1, 1, 2, 3)), mono))
    return poly_text(terms)


def _matrices(count):
    """Small random 2x2 matrices over (z1, z2) and triangular 3x3 ones."""
    rng = random.Random("perfbench:matrix")
    out = []
    for j in range(count):
        if j % 2 == 0:
            names = ["z1", "z2"]
            entries = [[_random_entry(rng, names) for _ in range(2)] for _ in range(2)]
        else:
            names = ["z1", "z2", "z3"]
            e = lambda: _random_entry(rng, names)
            entries = [[e(), e(), "0"], ["0", e(), e()], ["0", "0", e()]]
        out.append(json.dumps({"vars": names, "entries": entries}, sort_keys=True))
    return out


def candidates():
    """Every pool job as (kind, key, argv, files), for reference building."""
    out = []

    def effective(gens, seed, kind):
        key = f"effective3d:{', '.join(gens)}#seed={seed}"
        out.append((kind, key, ("effective3d", "domain.json", "--seed", str(seed),
                                "--out", "cert.json"),
                    (("domain.json", _domain_text(("z1", "z2"), gens)),)))

    effective(Q6_GENERATORS, Q6_SEED, "certify-q6")
    for gens, seed in _quadric_pairs(Q4_POOL):
        effective(gens, seed, "certify-q4")
    for gens, seed in _linear_pairs(Q1_POOL):
        effective(gens, seed, "certify-q1")
    out.append(("full-radical-3", f"full-radical:{', '.join(FR3_GENERATORS)}#cap={FR3_POWER_CAP}",
                ("full-radical", "domain.json", "--power-cap", str(FR3_POWER_CAP)),
                (("domain.json", _domain_text(("z1", "z2", "z3"), FR3_GENERATORS)),)))
    for m, n, k in CD_GRID:
        gens = _cd_generators(m, n, k)
        dom = (("domain.json", _domain_text(("z1", "z2"), gens)),)
        out.append(("full-radical", f"full-radical:{', '.join(gens)}",
                    ("full-radical", "domain.json"), dom))
        out.append(("multiplicity", f"multiplicity:{', '.join(gens)}",
                    ("multiplicity", "domain.json"), dom))
        out.append(("catlin-dangelo", f"catlin-dangelo:{m},{n},{k}",
                    ("catlin-dangelo", "--M", str(m), "--N", str(n), "--K", str(k),
                     "--mode", "both"), ()))
    for text in _matrices(32):
        out.append(("matrix-lab", f"matrix-lab:{text}", ("matrix-lab", "matrix.json"),
                    (("matrix.json", text),)))
    return out


# ---------------------------------------------------------------------------
# per-seed corpora

def _usable(refs, kind):
    """Pool items of a kind whose reference run succeeded, in pool order."""
    return [c for c in candidates() if c[0] == kind and refs.get(c[1], {}).get("exit") == 0]


def _job(cand, tag):
    """A pool candidate as a Job whose file names are unique within a corpus."""
    kind, key, argv, files = cand
    rename = {name: f"{tag}-{name}" for name, _ in files}
    rename["cert.json"] = f"{tag}-cert.json"
    argv = tuple(rename.get(a, a) for a in argv)
    files = tuple((rename[name], text) for name, text in files)
    return Job(kind=kind, key=key, argv=argv, files=files)


def certify_corpus(seed, refs):
    rng = random.Random(f"certify:{seed}")
    q4 = sorted(_usable(refs, "certify-q4"), key=lambda c: (refs[c[1]]["cost_s"], c[1]))
    n = len(q4)
    picks = [rng.choice(q4[j * n // Q4_STRATA:(j + 1) * n // Q4_STRATA])
             for j in range(Q4_STRATA)]
    picks += rng.sample(_usable(refs, "certify-q1"), Q1_PER_ROUND)
    picks += _usable(refs, "certify-q6")
    rng.shuffle(picks)
    return [_job(c, f"c{j}") for j, c in enumerate(picks)]


def replay_corpus(seed, refs):
    """Accept jobs for every certificate of the seed's certify corpus, plus
    mutated copies of q=4 certificates that the verifier must reject: one
    in the first half of the steps, which exits almost at once, and one in
    the last quarter, after the costly root identities, on a certificate of
    the middle or dearest stratum.

    Returns (certify jobs run during set-up, replay job templates).  A
    mutant template names its source certificate; `mutate` produces the
    edited file once the source exists.
    """
    setup = certify_corpus(seed, refs)
    rng = random.Random(f"replay:{seed}")
    jobs = []
    for job in setup:
        dom, cert = job.argv[1], job.argv[5]
        jobs.append(Job(kind="verify", key=job.key, argv=("verify", dom, cert)))
    q4_keys = {c[1] for c in _usable(refs, "certify-q4")}
    q4 = sorted((j for j in jobs if j.key in q4_keys), key=lambda j: refs[j.key]["cost_s"])
    for n, (part, src) in enumerate((("early", rng.choice(q4)), ("late", rng.choice(q4[1:])))):
        mutation = {"kind": rng.choice(MUTATIONS), "part": part,
                    "draw": rng.random(), "source": src.argv[2]}
        jobs.append(Job(kind="verify-mutant", key=src.key,
                        argv=("verify", src.argv[1], f"m{n}-{src.argv[2]}"),
                        mutation=mutation))
    rng.shuffle(jobs)
    return setup, jobs


def ideals_corpus(seed, refs):
    rng = random.Random(f"ideals:{seed}")
    picks = [rng.choice(_usable(refs, "full-radical-3"))]
    for kind, count in IDEALS_MIX.items():
        picks += rng.sample(_usable(refs, kind), count)
    rng.shuffle(picks)
    return [_job(c, f"i{j}") for j, c in enumerate(picks)]


CORPORA = {"certify": certify_corpus, "ideals": ideals_corpus}


# ---------------------------------------------------------------------------
# certificate mutations

# an integer literal that is not part of a variable name or an exponent
COEFF = re.compile(r"(?<![\w^])\d+")


def mutate(cert: dict, mutation: dict):
    """Edit a certificate so that verification must fail at one step.

    Returns (edited certificate, id of the step that must be rejected).
    Earlier steps are untouched, so replay passes them and stops there.
    """
    steps = cert["steps"]
    kind = mutation["kind"]
    if kind == "swap":
        # swapping the rows of a determinant negates it, so the stored
        # payload no longer matches
        eligible = [s["id"] for s in steps
                    if s["rule"] == "det" and len(set(s["inputs"])) == 2]
    else:
        eligible = [s["id"] for s in steps]
    if mutation["part"] == "early":
        part = [i for i in eligible if i < len(steps) // 2]
    else:
        part = [i for i in eligible if i >= len(steps) - len(steps) // 4]
    part = part or eligible
    target = part[int(mutation["draw"] * len(part))]
    out = json.loads(json.dumps(cert))
    step = out["steps"][target]
    if kind == "swap":
        step["inputs"] = step["inputs"][::-1]
    elif kind == "order":
        num, _, den = step["order"].partition("/")
        step["order"] = f"{num}/{2 * int(den or 1)}"
    else:
        text = step["payload"][0]
        m = COEFF.search(text)
        if m:
            text = f"{text[:m.start()]}{int(m.group()) + 1}{text[m.end():]}"
        else:
            text = f"2*({text})"
        step["payload"][0] = text
    return out, target


def materialize(jobs, workdir):
    """Write every job's input files into workdir."""
    for job in jobs:
        for name, text in job.files:
            (workdir / name).write_text(text)

