"""Comparison laboratory for the two vector-multiplier procedures.

Given a square matrix of polynomial rows, the adjugate-weighted derivative
form and the gradient of the determinant are computed exactly, and their
difference is decomposed against the row module.  A divergence identity

    b - grad(det a) = - sum_k div(adj(a) column k) * row_k

holds for every square size, so the symbolic verdict is always
reducibility.  The decomposition is recomputed independently rather than
assumed: module membership answers it on the scalar Groebner core, through
the reduction of submodule membership to ideal membership, and a
disagreement with the identity is an engine defect, not a verdict.  The
triangular three-variable lab additionally reports the narrated shortcut
difference alongside the computed one, flagging when the two disagree, and
carries the slice obstruction test that compares a single weighted
derivative against the ideal of the bottom corner entry.
"""

from __future__ import annotations

from dataclasses import dataclass

from .polyring import (
    Poly,
    check_names,
    default_names,
    differentiate,
    equal_up_to_unit,
    parse_poly,
    poly_matrix_adjugate,
    poly_matrix_det,
    poly_to_string,
)
from .groebner import ideal_membership
from .modules import VecPoly, module_membership
from .multiplier_core import VerificationError, matrix_to_vector_form

REPORT_SCHEMA = "kohn-report/1"


def determinant_gradient(entries) -> list:
    """Components d_j(det a), the classical route to a vector multiplier."""
    d = poly_matrix_det([list(r) for r in entries])
    n = entries[0][0].nvars
    return [differentiate(d, j + 1) for j in range(n)]


def adjugate_divergence(entries) -> list:
    """Coefficients c_k = -sum_p d_p adj(a)_{pk} of the closed-form
    decomposition of the procedure difference along the rows."""
    adj = poly_matrix_adjugate([list(r) for r in entries])
    n = len(entries)
    nv = entries[0][0].nvars
    out = []
    for k in range(n):
        acc = Poly.zero(nv)
        for p in range(n):
            acc = acc + differentiate(adj[p][k], p + 1)
        out.append(Poly.zero(nv) - acc)
    return out


@dataclass(frozen=True)
class ComparisonReport:
    names: tuple
    entries: tuple
    b_form: tuple
    grad_det: tuple
    difference: tuple
    decomposition: tuple
    verdict: str

    def to_json(self) -> dict:
        s = lambda p: poly_to_string(p, list(self.names))
        return {
            "schema": REPORT_SCHEMA,
            "kind": "procedure-comparison",
            "vars": list(self.names),
            "entries": [[s(e) for e in row] for row in self.entries],
            "b_form": [s(c) for c in self.b_form],
            "grad_det": [s(c) for c in self.grad_det],
            "difference": [s(c) for c in self.difference],
            "decomposition": [s(c) for c in self.decomposition],
            "verdict": self.verdict,
        }


def compare_procedures(entries, names=None) -> ComparisonReport:
    """Both procedures, their exact difference, and a row-module verdict.

    The matrix must be square with as many rows as ring variables.  The
    closed-form divergence decomposition is replayed first; the reported
    decomposition then comes from module membership, which reduces to ideal
    membership on the scalar Groebner core, and is replayed as well.  Either
    replay failing, or membership denying what the identity just proved,
    raises VerificationError: it is an engine defect, never the verdict
    ``new``.
    """
    entries = tuple(tuple(row) for row in entries)
    n = len(entries)
    if n == 0:
        raise ValueError("matrix needs at least one row")
    if any(len(row) != n for row in entries):
        raise ValueError("matrix must be square")
    nv = entries[0][0].nvars
    if n != nv:
        raise ValueError(f"need an {nv}x{nv} matrix over {nv} variables")
    if names is None:
        names = default_names(nv)
    names = tuple(names)

    b = matrix_to_vector_form(entries)
    g = determinant_gradient(entries)
    diff = [x - y for x, y in zip(b, g)]

    closed = adjugate_divergence(entries)
    for j in range(n):
        acc = Poly.zero(nv)
        for k in range(n):
            acc = acc + closed[k] * entries[k][j]
        if acc != diff[j]:
            raise VerificationError("divergence identity failed; engine defect")

    member, cofs = module_membership(VecPoly(diff), [VecPoly(r) for r in entries])
    if not member:
        raise VerificationError(
            "module membership denies the divergence decomposition; engine defect"
        )
    for j in range(n):
        acc = Poly.zero(nv)
        for k in range(n):
            acc = acc + cofs[k] * entries[k][j]
        if acc != diff[j]:
            raise VerificationError("module cofactors fail to replay")
    return ComparisonReport(
        names=names,
        entries=entries,
        b_form=tuple(b),
        grad_det=tuple(g),
        difference=tuple(diff),
        decomposition=tuple(cofs),
        verdict="reducible",
    )


def verify_planar_equivalence(entries) -> bool:
    """Closed-form check for 2x2 matrices: the difference equals

        (d2 a21 - d1 a22) * row1 + (d1 a12 - d2 a11) * row2

    as an exact identity of 1-forms."""
    entries = tuple(tuple(row) for row in entries)
    if len(entries) != 2 or any(len(r) != 2 for r in entries):
        raise ValueError("planar check needs a 2x2 matrix")
    if entries[0][0].nvars != 2:
        raise ValueError("planar check works over two variables")
    b = matrix_to_vector_form(entries)
    g = determinant_gradient(entries)
    c1 = differentiate(entries[1][0], 2) - differentiate(entries[1][1], 1)
    c2 = differentiate(entries[0][1], 1) - differentiate(entries[0][0], 2)
    for j in range(2):
        want = c1 * entries[0][j] + c2 * entries[1][j]
        if want != b[j] - g[j]:
            return False
    return True


def triangular_matrix(a11, a22, a33, xi, eta) -> tuple:
    z = Poly.zero(3)
    for p in (a11, a22, a33, xi, eta):
        if p.nvars != 3:
            raise ValueError("triangular lab works over three variables")
    return ((a11, xi, z), (z, a22, eta), (z, z, a33))


def verify_triangular_obstruction(a11, a22, a33, xi, eta) -> bool:
    """Slice test: whether a11 * d3(eta^2) escapes the ideal (a33).

    On the slice where only the third anti-holomorphic component survives,
    the narrated difference contributes this single product, and the only
    row still controlling anything is (0, 0, a33); non-membership is the
    symbolic residue of the non-derivability argument."""
    triangular_matrix(a11, a22, a33, xi, eta)
    probe = a11 * differentiate(eta * eta, 3)
    return not ideal_membership(probe, [a33])


@dataclass(frozen=True)
class TriangularReport:
    comparison: ComparisonReport
    narrated_difference: tuple
    narration_matches: bool
    obstruction: bool
    obstruction_witness: str

    def to_json(self) -> dict:
        names = list(self.comparison.names)
        data = self.comparison.to_json()
        data["kind"] = "triangular-comparison"
        data["narrated_difference"] = [
            poly_to_string(c, names) for c in self.narrated_difference
        ]
        data["narration_matches"] = self.narration_matches
        data["obstruction"] = self.obstruction
        data["obstruction_witness"] = self.obstruction_witness
        return data


def triangular_comparison(a11, a22, a33, xi, eta, names=("z1", "z2", "z3")) -> TriangularReport:
    """Full lab run on the upper-triangular shape.

    Reports the computed difference next to the narrated shortcut
    sum_v (-a33 xi d_v(xi) - a11 eta d_v(eta)) dz_v, which drops the
    diagonal derivative terms; the two rarely agree, and the report says
    when they do not rather than silently preferring either."""
    entries = triangular_matrix(a11, a22, a33, xi, eta)
    comparison = compare_procedures(entries, names)
    narrated = []
    for v in range(3):
        term = a33 * xi * differentiate(xi, v + 1) + a11 * eta * differentiate(eta, v + 1)
        narrated.append(Poly.zero(3) - term)
    probe = a11 * differentiate(eta * eta, 3)
    # narrated == c * computed for one constant c, component by component
    ratios = {
        equal_up_to_unit(y, x) for x, y in zip(comparison.difference, narrated) if x or y
    }
    return TriangularReport(
        comparison=comparison,
        narrated_difference=tuple(narrated),
        narration_matches=None not in ratios and len(ratios) <= 1,
        obstruction=verify_triangular_obstruction(a11, a22, a33, xi, eta),
        obstruction_witness=poly_to_string(probe, list(names)),
    )


def load_matrix(data: dict):
    """Matrix-file JSON {"vars": [...], "entries": [[poly strings]]}."""
    names = list(check_names(data["vars"]))
    rows = data["entries"]
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ValueError("matrix entries must be a list of rows, each a list")
    entries = [[parse_poly(s, names) for s in row] for row in rows]
    return names, entries
