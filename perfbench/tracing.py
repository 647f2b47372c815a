"""Spans around the public functions of kohnmult, recorded from outside.

`install()` replaces each traced function on its defining module, on every
kohnmult module that imported it by name, and (for `Poly` dunders and
methods) on the class, with a wrapper that records a span; leaving the
context restores the originals.  The program's own code is not edited, so
what it computes is unchanged.

A span has a name, start, end, parent span and job id.  Spans are kept in
compact arrays while the run lasts and written out when it ends.  A layer's
self time is its span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import sys
import time
from array import array
from collections import defaultdict


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.jobs = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.self_s: list[float] = []
        self.total_s: list[float] = []
        self.calls: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.job = -1
        self._stack: list[list] = []  # [span index, time covered by children]

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.self_s.append(0.0)
            self.total_s.append(0.0)
            self.calls.append(0)
        return self._ids[name]

    def wrap(self, name, fn, count=None):
        """fn with a span named `name` around every call.

        `count(counters, args, kwargs, result)` may add to named counters
        after the call returns.
        """
        nid = self.name_id(name)
        clock, stack = self.clock, self._stack
        name_ids, parents, jobs = self.name_ids, self.parents, self.jobs
        starts, ends = self.starts, self.ends
        self_s, total_s, calls = self.self_s, self.total_s, self.calls

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1][0] if stack else -1)
            jobs.append(self.job)
            ends.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = clock()
            starts.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                ends[idx] = t1
                stack.pop()
                dur = t1 - t0
                self_s[nid] += dur - frame[1]
                total_s[nid] += dur
                calls[nid] += 1
                if stack:
                    stack[-1][1] += dur
            if count is not None:
                count(self.counters, args, kwargs, result)
            return result

        return traced

    def spans(self):
        """Every span as (name, start, end, parent index, job id)."""
        for j in range(len(self.starts)):
            yield (self.names[self.name_ids[j]], self.starts[j], self.ends[j],
                   self.parents[j], self.jobs[j])

    def write(self, path) -> int:
        """Write the spans as gzipped CSV; returns the number written."""
        base = self.starts[0] if self.starts else 0.0
        n = 0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name,start_s,end_s,parent,job\n")
            for name, start, end, parent, job in self.spans():
                fh.write(f"{name},{start - base:.9f},{end - base:.9f},{parent},{job}\n")
                n += 1
        return n


def self_times(spans) -> dict:
    """Self time per span name from raw (name, start, end, parent, job) spans."""
    spans = list(spans)
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    out = defaultdict(float)
    for j, (name, start, end, _, _) in enumerate(spans):
        out[name] += (end - start) - covered[j]
    return dict(out)


# ---------------------------------------------------------------------------
# what is traced

def _terms_out(c, args, kwargs, result):
    c["polyring.mul.terms_out"] += len(result.terms)


def _parse_bytes(c, args, kwargs, result):
    c["polyring.parse.bytes"] += len(args[0])


def _print_bytes(c, args, kwargs, result):
    c["polyring.print.bytes"] += len(result)


def _gb_counts(c, args, kwargs, result):
    c["groebner.gb.basis_len"] += len(result.basis)
    if kwargs.get("provenance", args[2] if len(args) > 2 else False):
        c["groebner.gb.provenance_calls"] += 1


def _draws(c, args, kwargs, result):
    c["kohn_effective3d.step_two.accepted"] += 1
    c["kohn_effective3d.step_two.attempted"] += result.attempt + 1


def _rounds(c, args, kwargs, result):
    c["kohn_full_radical.run.rounds"] += len(result.trace)


# (module, attribute, span name, counter); "Class.method" patches the class,
# a trailing "*" every public method of the class under one span name.
TARGETS = (
    ("polyring", "Poly.__mul__", "polyring.mul", _terms_out),
    ("polyring", "Poly.__pow__", "polyring.pow", None),
    ("polyring", "Poly.compose", "polyring.compose", None),
    ("polyring", "parse_poly", "polyring.parse", _parse_bytes),
    ("polyring", "poly_to_string", "polyring.print", _print_bytes),
    ("polyring", "poly_matrix_det", "polyring.det", None),
    ("groebner", "groebner_basis", "groebner.gb", _gb_counts),
    ("groebner", "GroebnerBasis.normal_form", "groebner.nf", None),
    ("groebner", "GroebnerBasis.cofactors", "groebner.cofactors", None),
    ("groebner", "power_in_ideal", "groebner.power_in_ideal", None),
    ("groebner", "multivariate_gcd", "groebner.gcd", None),
    ("groebner", "squarefree_part", "groebner.squarefree", None),
    ("groebner", "radical_membership", "groebner.radical_membership", None),
    ("groebner", "eliminate", "groebner.eliminate", None),
    ("modules", "module_membership", "modules.membership", None),
    ("multiplier_core", "certificate_verify", "multiplier_core.verify", None),
    ("multiplier_core", "Derivation.*", "multiplier_core.rule", None),
    ("kohn_effective3d", "step_one", "kohn_effective3d.step_one", None),
    ("kohn_effective3d", "step_two", "kohn_effective3d.step_two", _draws),
    ("kohn_effective3d", "weierstrass_from_image", "kohn_effective3d.weierstrass", None),
    ("kohn_effective3d", "step_three", "kohn_effective3d.step_three", None),
    ("kohn_full_radical", "run_full_radical", "kohn_full_radical.run", _rounds),
    ("catlin_dangelo", "run_ineffective_trace", "catlin_dangelo.trace", None),
    ("catlin_dangelo", "run_effective_chain", "catlin_dangelo.chain", None),
    ("matrix_lab", "compare_procedures", "matrix_lab.compare", None),
    ("cli", "main", "cli.main", None),
)


@contextlib.contextmanager
def install(tracer: Tracer):
    """Trace every TARGETS entry while the context is open."""
    import kohnmult  # noqa: F401  (loads every module that re-exports names)
    import kohnmult.cli  # noqa: F401

    mods = [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "kohnmult" or name.startswith("kohnmult."))]
    undo = []

    def patch(obj, attr, value):
        undo.append((obj, attr, obj.__dict__[attr] if isinstance(obj, type) else getattr(obj, attr)))
        setattr(obj, attr, value)

    try:
        for modname, attr, span, count in TARGETS:
            mod = sys.modules[f"kohnmult.{modname}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                meths = ([m for m, v in vars(cls).items() if not m.startswith("_") and callable(v)]
                         if meth == "*" else [meth])
                for m in meths:
                    patch(cls, m, tracer.wrap(span, vars(cls)[m], count))
                continue
            orig = getattr(mod, attr)
            wrapped = tracer.wrap(span, orig, count)
            for m in mods:
                for name, value in list(vars(m).items()):
                    if value is orig:
                        patch(m, name, wrapped)
        # self-verification is certificate_verify as kohn_effective3d calls it;
        # its span is the parent of the multiplier_core.verify span
        e3d = sys.modules["kohnmult.kohn_effective3d"]
        patch(e3d, "certificate_verify",
              tracer.wrap("kohn_effective3d.self_verify", e3d.certificate_verify))
        yield tracer
    finally:
        for obj, attr, value in reversed(undo):
            setattr(obj, attr, value)
