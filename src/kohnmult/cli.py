"""Command line front end.

Subcommands parse domain or matrix files, dispatch the algorithms, and
emit versioned JSON (or a plain table with --format table).  Exit codes
separate the outcomes a caller needs to distinguish: 0 success, 1 a
certificate or identity failed verification, 2 malformed input or
parameters ("input error") or a result that could not be written ("output
error"), 3 a declared cap or retry budget cut the run short, 4 anything
unexpected.  Output files are written atomically.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import os
import sys

from .polyring import Poly, poly_to_string
from .groebner import (
    groebner_basis,
    origin_isolated,
    standard_monomials,
)
from .multiplier_core import (
    REPORT_SCHEMA,
    DerivationCertificate,
    GenericityError,
    SpecialDomain,
    VerificationError,
    certificate_verify,
    order_str,
)
from . import catlin_dangelo, kohn_effective3d, kohn_full_radical, matrix_lab

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
EXIT_CAP = 3
EXIT_INTERNAL = 4


# ---------------------------------------------------------------------------
# plumbing

class OutputError(Exception):
    """An OSError raised while the result of a run was being written."""


def _atomic_write(path: str, text: str) -> None:
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise OutputError(exc) from exc


def _print(text: str) -> None:
    try:
        print(text, flush=True)
    except OSError as exc:
        raise OutputError(exc) from exc


def _check_out(path: str) -> None:
    """Refuse an output path that cannot be written, before any computation."""
    folder = os.path.dirname(path) or "."
    if os.path.isdir(path) or not os.path.isdir(folder) or not os.access(folder, os.W_OK):
        raise OSError(f"cannot write {path}: not a file in a writable directory")


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{path} must hold a JSON object")
    return data


def _load_domain(path: str) -> SpecialDomain:
    data = _load_json(path)
    return SpecialDomain.from_strings(data.get("variables"), data.get("generators"))


def _emit(args, data: dict, table: str) -> None:
    text = json.dumps(data, indent=2, sort_keys=True)
    if getattr(args, "out", None):
        _atomic_write(args.out, text)
    if args.format == "table":
        _print(table)
    else:
        _print(text)


# ---------------------------------------------------------------------------
# subcommands

def cmd_multiplicity(args) -> int:
    domain = _load_domain(args.domain)
    gb = groebner_basis(list(domain.generators))
    isolated = origin_isolated(gb)
    stairs = standard_monomials(gb)
    data = {
        "schema": REPORT_SCHEMA,
        "kind": "multiplicity",
        "domain": domain.to_json(),
        "multiplicity": "infinite" if stairs is None else len(stairs),
        "origin_isolated": isolated,
        "staircase": None if stairs is None else [
            poly_to_string(Poly.monomial(domain.nvars, m), domain.variables) for m in stairs
        ],
    }
    lines = [
        f"multiplicity      {data['multiplicity']}",
        f"origin isolated   {isolated}",
    ]
    if stairs is not None:
        lines.append(f"staircase         {', '.join(data['staircase']) or '1'}")
    _emit(args, data, "\n".join(lines))
    return EXIT_OK


def cmd_full_radical(args) -> int:
    domain = _load_domain(args.domain)
    outcome = kohn_full_radical.run_full_radical(
        domain,
        max_rounds=args.max_rounds,
        power_cap=args.power_cap,
        radical_degree_cap=args.radical_degree_cap,
    )
    data = outcome.to_json()
    lines = [
        f"rounds            {len(outcome.trace)}",
        f"terminated        {outcome.terminated}",
        f"p list            {list(outcome.p_list)}",
        f"order bound       {order_str(outcome.order_bound) if outcome.order_bound is not None else 'none'}",
        f"flags             {list(outcome.flags) or 'none'}",
        f"caps              {outcome.caps}",
    ]
    _emit(args, data, "\n".join(lines))
    return EXIT_CAP if outcome.capped else EXIT_OK


def cmd_effective3d(args) -> int:
    domain = _load_domain(args.domain)
    result = kohn_effective3d.run_effective3d(domain, seed=args.seed)
    cert_json = result.certificate.to_json()
    data = {
        "schema": REPORT_SCHEMA,
        "kind": "effective3d",
        "domain": domain.to_json(),
        "multiplicity": result.q,
        "seed": result.seed,
        "short_circuit": result.short_circuit,
        "k1": result.k1,
        "ell": result.ell,
        "ell_tilde": result.ell_tilde,
        "prefix_r": result.prefix_r,
        "final_order": order_str(result.final_order),
        "floor_order": order_str(result.floor_order),
        "floor_order_prefixed": order_str(result.floor_order_prefixed),
        "steps": len(result.certificate.steps),
    }
    if getattr(args, "out", None):
        # the output file is the bare certificate so it replays under verify;
        # the report names it by hash instead of repeating it
        text = json.dumps(cert_json, indent=2, sort_keys=True)
        _atomic_write(args.out, text)
        data["certificate_sha256"] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    else:
        data["certificate"] = cert_json
    lines = [
        f"multiplicity      {result.q}",
        f"seed              {result.seed}",
        f"short circuit     {result.short_circuit}",
        f"final order       {order_str(result.final_order)}",
        f"floor order       {order_str(result.floor_order_prefixed)}",
        f"certificate steps {len(result.certificate.steps)}",
    ]
    if args.format == "table":
        _print("\n".join(lines))
    else:
        _print(json.dumps(data, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_catlin_dangelo(args) -> int:
    params = catlin_dangelo.CDParams(args.M, args.N, args.K)
    capped = False
    if args.mode == "ineffective":
        trace = catlin_dangelo.run_ineffective_trace(params, args.power_cap)
        capped = trace.p1_exact is None
        data = trace.to_json()
        table = "\n".join(
            [f"p1 exact          {trace.p1_exact}",
             f"p1 lower bound    {trace.p1_lower}",
             f"stages            {trace.differentiation_count}"]
        )
    elif args.mode == "effective":
        chain = catlin_dangelo.run_effective_chain(params)
        data = chain.to_json()
        table = "\n".join(
            [f"final order       {order_str(chain.final_order)}",
             f"det steps         {chain.differentiation_count}"]
        )
    else:
        report = catlin_dangelo.run(params, args.power_cap)
        capped = report.trace.p1_exact is None
        data = report.to_json()
        table = catlin_dangelo.comparison_table(report)
    _emit(args, data, table)
    return EXIT_CAP if capped else EXIT_OK


def _is_triangular(entries) -> bool:
    if len(entries) != 3 or any(len(r) != 3 for r in entries):
        return False
    below = [entries[1][0], entries[2][0], entries[2][1], entries[0][2]]
    return all(p.is_zero() for p in below)


def cmd_matrix_lab(args) -> int:
    names, entries = matrix_lab.load_matrix(_load_json(args.matrix))
    if _is_triangular(entries):
        report = matrix_lab.triangular_comparison(
            entries[0][0], entries[1][1], entries[2][2],
            entries[0][1], entries[1][2], names=tuple(names),
        )
        data = report.to_json()
        table = "\n".join(
            [f"verdict           {data['verdict']}",
             f"difference        {data['difference']}",
             f"narration matches {data['narration_matches']}",
             f"obstruction       {data['obstruction']}"]
        )
    else:
        report = matrix_lab.compare_procedures(entries, names)
        data = report.to_json()
        table = "\n".join(
            [f"verdict           {data['verdict']}",
             f"difference        {data['difference']}",
             f"decomposition     {data['decomposition']}"]
        )
    _emit(args, data, table)
    return EXIT_OK


def cmd_verify(args) -> int:
    domain = _load_domain(args.domain)
    cert = DerivationCertificate.from_json(_load_json(args.certificate))
    outcome = certificate_verify(cert, domain)
    if outcome.ok:
        _print(
            f"certificate ok: {len(cert.steps)} steps, "
            f"final order {order_str(outcome.final_order)}, "
            f"{len(outcome.assumptions)} assumption(s)"
        )
        return EXIT_OK
    where = "preamble" if outcome.failed_step is None else f"step {outcome.failed_step}"
    _print(f"certificate rejected at {where}: {outcome.reason}")
    return EXIT_VERIFY


# ---------------------------------------------------------------------------
# parser and dispatch

@functools.cache  # built once per process; parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kohnmult",
        description="Exact multiplier-ideal derivations for special domains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out_help):
        p.add_argument("--format", choices=("json", "table"), default="json")
        p.add_argument("--out", help=out_help)

    p = sub.add_parser("multiplicity", help="multiplicity and staircase of a domain")
    p.add_argument("domain", help="domain JSON file")
    common(p, "write the report JSON here")
    p.set_defaults(func=cmd_multiplicity)

    p = sub.add_parser("full-radical", help="radical multiplier loop with caps")
    p.add_argument("domain")
    p.add_argument("--max-rounds", type=int, default=8)
    p.add_argument("--power-cap", type=int, default=64)
    p.add_argument("--radical-degree-cap", type=int, default=6)
    common(p, "write the trace JSON here")
    p.set_defaults(func=cmd_full_radical)

    p = sub.add_parser("effective3d", help="effective two-variable derivation")
    p.add_argument("domain")
    p.add_argument("--seed", type=int, default=0)
    common(p, "write the bare certificate JSON here (verify reads it back)")
    p.set_defaults(func=cmd_effective3d)

    p = sub.add_parser("catlin-dangelo", help="parametric family comparison")
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--mode", choices=("both", "effective", "ineffective"), default="both")
    p.add_argument("--power-cap", type=int, default=None)
    common(p, "write the report JSON here")
    p.set_defaults(func=cmd_catlin_dangelo)

    p = sub.add_parser("matrix-lab", help="compare the two vector-multiplier procedures")
    p.add_argument("matrix", help="matrix JSON file {vars, entries}")
    common(p, "write the comparison JSON here")
    p.set_defaults(func=cmd_matrix_lab)

    p = sub.add_parser("verify", help="replay a certificate against a domain")
    p.add_argument("domain")
    p.add_argument("certificate")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "out", None):
            _check_out(args.out)
        return args.func(args)
    except OutputError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (OSError, KeyError, TypeError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except GenericityError as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
