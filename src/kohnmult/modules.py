"""Submodules of free modules over Q(i)[z]: membership with cofactors.

Membership is reduced to ideal membership and answered by the scalar
Groebner core (Cox, Little & O'Shea, *Using Algebraic Geometry*, ch. 5).
A vector v of rank r lifts to ``sum_i v_i*e_i`` in Q(i)[e_1..e_r, z], the
markers coming first.  v lies in the submodule spanned by g_1..g_m exactly
when lift(v) lies in the ideal of lift(g_1)..lift(g_m) and every e_i*e_j:
lifts are e-linear and the products e-quadratic, so the e-degree-one part
of ``lift(v) = sum_k c_k*lift(g_k) + (e-quadratic)`` reads
``v = sum_k c_k|_{e=0} * g_k``.  The elimination order on the markers
compares positions first (lower index larger), then graded lex on z.
"""

from __future__ import annotations

from typing import Sequence

from kohnmult.groebner import MonomialOrder, groebner_basis
from kohnmult.polyring import GR_ONE, Poly


class VecPoly:
    """Tuple of polynomials sharing one ring, acting as a module element."""

    __slots__ = ("parts",)

    def __init__(self, parts: Sequence[Poly]):
        parts = tuple(parts)
        if not parts:
            raise ValueError("vector needs at least one component")
        nv = parts[0].nvars
        for p in parts:
            if p.nvars != nv:
                raise ValueError("components live in different rings")
        self.parts = parts

    @property
    def rank(self) -> int:
        return len(self.parts)

    @property
    def nvars(self) -> int:
        return self.parts[0].nvars

    def is_zero(self) -> bool:
        return all(p.is_zero() for p in self.parts)

    def __eq__(self, other):
        return isinstance(other, VecPoly) and self.parts == other.parts

    def __add__(self, other: "VecPoly") -> "VecPoly":
        return VecPoly([a + b for a, b in zip(self.parts, other.parts)])

    def mul_poly(self, q: Poly) -> "VecPoly":
        return VecPoly([p * q for p in self.parts])

    def __repr__(self):
        return f"VecPoly({list(self.parts)!r})"


def _marker(r: int, *positions: int) -> tuple:
    return tuple(positions.count(i) for i in range(r))


def _lift(v: VecPoly) -> Poly:
    """sum_i v_i*e_i in Q(i)[e_1..e_r, z]."""
    r, nv = v.rank, v.nvars
    places = range(r + 1, r + nv + 1)
    acc = Poly.zero(r + nv)
    for i, p in enumerate(v.parts):
        acc = acc + p.remap(r + nv, places).mul_term(_marker(r, i) + (0,) * nv, GR_ONE)
    return acc


def module_membership(v: VecPoly, gens: Sequence[VecPoly]):
    """(is_member, cofactors) with v == sum(cof_k * gens_k) when a member."""
    gens = list(gens)
    if not gens:
        raise ValueError("need at least one generator")
    r, nv = gens[0].rank, gens[0].nvars
    if any(g.rank != r for g in gens):
        raise ValueError("generators have different ranks")
    if v.rank != r:
        raise ValueError(f"vector has rank {v.rank}, generators have rank {r}")
    if any(w.nvars != nv for w in (v, *gens)):
        raise ValueError("vector and generators live in different rings")

    z0 = (0,) * nv
    quadrics = [
        Poly.monomial(r + nv, _marker(r, i, j) + z0)
        for i in range(r)
        for j in range(i, r)
    ]
    gb = groebner_basis(
        [_lift(g) for g in gens] + quadrics, MonomialOrder.elim(r), provenance=True
    )
    cofs, rem = gb.cofactors(_lift(v))
    if not rem.is_zero():
        return False, None
    e_free = [None] * r + list(range(1, nv + 1))
    return True, [cof.remap(nv, e_free) for cof in cofs[: len(gens)]]
