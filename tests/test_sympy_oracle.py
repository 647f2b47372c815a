"""Differential oracle: Groebner bases and module membership against sympy.

sympy is a test-only dependency; the module is skipped where it is absent.
Inputs are small random polynomials over QQ from a fixed seed.
"""

from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from kohnmult.groebner import groebner_basis
from kohnmult.modules import VecPoly, module_membership
from kohnmult.polyring import Poly, poly_matrix_det

from oracles import make_rng, random_poly


def _symbols(nv):
    return sympy.symbols(" ".join(f"z{j + 1}" for j in range(nv)))


def _to_sympy(p: Poly, zs):
    expr = sympy.Integer(0)
    for mono, c in p.terms.items():
        assert c.im == 0
        term = sympy.Rational(c.re.numerator, c.re.denominator)
        for z, e in zip(zs, mono):
            term *= z**e
        expr += term
    return expr


def _terms(p: Poly):
    return frozenset((mono, c.re) for mono, c in p.terms.items())


def _sympy_terms(poly):
    return frozenset(
        (mono, Fraction(int(c.p), int(c.q))) for mono, c in poly.terms()
    )


@pytest.mark.parametrize("nv", [2, 3])
def test_reduced_grlex_basis_matches_sympy(nv):
    rng = make_rng(f"sympy-groebner-{nv}")
    zs = _symbols(nv)
    for _ in range(6):
        gens = [
            random_poly(rng, nv, 3, max_terms=3, zero_constant=True)
            for _ in range(rng.randint(2, 3))
        ]
        ours = {_terms(b) for b in groebner_basis(gens).basis}
        theirs = sympy.groebner(
            [_to_sympy(g, zs) for g in gens], *zs, order="grlex", domain="QQ"
        )
        assert ours == {_sympy_terms(b) for b in theirs.polys}


@pytest.mark.parametrize("rank", [2, 3])
def test_module_membership_verdicts_match_sympy(rank):
    rng = make_rng(f"sympy-module-{rank}")
    nv = 2
    zs = _symbols(nv)
    ring = sympy.QQ.old_poly_ring(*zs)
    verdicts = []
    for trial in range(9):
        gens = [
            VecPoly([random_poly(rng, nv, 2, max_terms=2, zero_constant=True)
                     for _ in range(rank)])
            for _ in range(rank)
        ]
        if trial % 3 == 0:  # an explicit combination
            v = VecPoly([Poly.zero(nv)] * rank)
            for g in gens:
                v = v + g.mul_poly(random_poly(rng, nv, 1, max_terms=2))
        elif trial % 3 == 1:  # det(rows) * e_i, a member by Cramer's rule
            parts = [Poly.zero(nv)] * rank
            parts[trial % rank] = poly_matrix_det([list(g.parts) for g in gens])
            v = VecPoly(parts)
        else:
            v = VecPoly([random_poly(rng, nv, 2, max_terms=2, zero_constant=True)
                         for _ in range(rank)])
        sub = ring.free_module(rank).submodule(
            *[[_to_sympy(p, zs) for p in g.parts] for g in gens]
        )
        expected = bool(sub.contains([_to_sympy(p, zs) for p in v.parts]))
        member, _ = module_membership(v, gens)
        assert member == expected
        verdicts.append(member)
    assert verdicts.count(True) >= 6 and False in verdicts
