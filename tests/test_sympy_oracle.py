"""Differential oracle: division, Groebner bases, gcds (both paths, over Q and
Q(i)), squarefree parts and module membership against sympy.

sympy is a test-only dependency; the module is skipped where it is absent.
Inputs are small random polynomials over QQ, times z1 + i for the Gaussian
gcds, from a fixed seed.
"""

from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from kohnmult import polyring
from kohnmult.groebner import _intersection_gcd, groebner_basis, multivariate_gcd, squarefree_part
from kohnmult.modules import VecPoly, module_membership
from kohnmult.polyring import (
    GR_I,
    Poly,
    divide,
    exact_divide,
    gr,
    heuristic_gcd,
    monomial_gcd,
    parse_poly,
    poly_matrix_det,
)

from oracles import make_rng, random_poly


def _symbols(nv):
    return sympy.symbols(" ".join(f"z{j + 1}" for j in range(nv)), seq=True)


def _to_sympy(p: Poly, zs):
    expr = sympy.Integer(0)
    for mono, c in p.terms.items():
        term = _rational(c.re) + sympy.I * _rational(c.im)
        for z, e in zip(zs, mono):
            term *= z**e
        expr += term
    return expr


def _rational(x: Fraction):
    return sympy.Rational(x.numerator, x.denominator)


def _terms(p: Poly):
    return frozenset((mono, c.re) for mono, c in p.terms.items())


def _sympy_terms(poly):
    return frozenset(
        (mono, Fraction(int(c.p), int(c.q))) for mono, c in poly.terms() if c
    )


@pytest.mark.parametrize("nv", [2, 3])
def test_division_by_one_divisor_matches_sympy(nv):
    # sympy.div divides recursively in the first variable, so its quotient
    # is not the graded-lex one; reduced() runs the multivariate division
    # algorithm under the order it is given
    rng = make_rng(f"sympy-divide-{nv}")
    zs = _symbols(nv)
    for _ in range(20):
        p = random_poly(rng, nv, 4, max_terms=5)
        d = random_poly(rng, nv, 2, max_terms=3)
        (q,), r = divide(p, [d], (), True)
        (sq,), sr = sympy.reduced(
            _to_sympy(p, zs), [_to_sympy(d, zs)], *zs, order="grlex", domain="QQ",
            polys=True,
        )
        assert (_terms(q), _terms(r)) == (_sympy_terms(sq), _sympy_terms(sr))
        assert q * d + r == p


@pytest.mark.parametrize("nv", [2, 3])
def test_exact_divide_matches_sympy_divisibility(nv):
    rng = make_rng(f"sympy-exact-{nv}")
    zs = _symbols(nv)
    exact = 0
    for trial in range(20):
        d = random_poly(rng, nv, 2, max_terms=3)
        p = random_poly(rng, nv, 2, max_terms=3)
        assert exact_divide(p * d, d) == p
        if trial % 2:
            p = p * d + random_poly(rng, nv, 1, max_terms=1)
        _, sr = sympy.div(_to_sympy(p, zs), _to_sympy(d, zs), *zs, domain="QQ")
        got = exact_divide(p, d)
        assert (got is None) == (sr != 0)
        if got is not None:
            assert got * d == p
            exact += 1
    assert 0 < exact < 20


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


def _from_sympy(expr, zs, domain="QQ") -> Poly:
    nv = len(zs)
    return sum(
        (Poly.monomial(nv, mono, gr(*(Fraction(int(x.p), int(x.q)) for x in c.as_real_imag())))
         for mono, c in sympy.Poly(expr, *zs, domain=domain).terms()),
        Poly.zero(nv),
    )


@pytest.mark.parametrize("nv", [2, 3])
def test_gcd_and_squarefree_part_match_sympy(nv):
    # both sides are unique up to a constant factor; ours is monic in grlex
    rng = make_rng(f"sympy-gcd-{nv}")
    zs = _symbols(nv)
    common = 0
    for _ in range(8):
        f, g, h = (random_poly(rng, nv, 3, max_terms=3) for _ in range(3))
        a, b = _to_sympy(f * g, zs), _to_sympy(f * h, zs)
        got = multivariate_gcd(f * g, f * h)
        assert got == _from_sympy(sympy.gcd(a, b, *zs, domain="QQ"), zs).monic()
        assert squarefree_part(f * g * f * h) == _from_sympy(
            sympy.sqf_part(a * b, *zs, domain="QQ"), zs
        ).monic()
        common += not got.is_constant()
    assert common >= 6


def _gcd_pairs(rng, nv):
    """(kind, a, b) operand pairs for the gcd paths, all real."""
    z1 = Poly.variable(nv, 1)
    # a factor with coefficients above 2^64, so xi is a big int at every level
    big = z1.scale(gr(3**45)) + Poly.const(nv, 2**66 + 1)
    for _ in range(6):
        f, g, h = (random_poly(rng, nv, 3, max_terms=3) for _ in range(3))
        yield "common", f * g, f * h
        yield "coprime", f * g, f * g + Poly.one(nv)
        yield "constant", f * g, Poly.const(nv, 6)
        yield "rational", (f * g).scale(gr(Fraction(3, 7))), (f * h).scale(gr(Fraction(-5, 2)))
        yield "big", big * f * g, big * f * h


@pytest.mark.parametrize("nv", [1, 2, 3])
def test_heuristic_gcd_matches_the_intersection_gcd_and_sympy(nv):
    rng = make_rng(f"sympy-heugcd-{nv}")
    zs = _symbols(nv)
    nontrivial = set()
    for kind, a, b in _gcd_pairs(rng, nv):
        fast = heuristic_gcd(a, b)
        assert fast is not None, (kind, a, b)
        want = _from_sympy(sympy.gcd(_to_sympy(a, zs), _to_sympy(b, zs), *zs, domain="QQ"), zs)
        assert fast == _intersection_gcd(a, b) == want.monic(), (kind, a, b)
        assert multivariate_gcd(a, b) == fast
        if not fast.is_constant():
            nontrivial.add(kind)
    assert nontrivial == {"common", "rational", "big"}


def test_a_candidate_that_fails_trial_division_is_rejected(monkeypatch):
    # with z1 at the first evaluation point, the candidate z2 divides the
    # image of a but not that of b; the candidate 1 after it is certified,
    # and so is its interpolation 2*z1^3 + 3*z1, the gcd
    zs = _symbols(2)
    a, b = (parse_poly(t, ["z1", "z2"]) for t in (
        "6*z1^3*z2^2 + 9*z1*z2^2",
        "-6*z1^5 - 6*z1^3*z2^2 - 4*z1^3*z2 - 9*z1^3 - 9*z1*z2^2 - 6*z1*z2"))
    divide_by = polyring.Divisors.divide
    remainders = []

    def spy(self, p, want_quotients):
        out = divide_by(self, p, want_quotients)
        remainders.append(out[1])
        return out

    monkeypatch.setattr(polyring.Divisors, "divide", spy)
    got = heuristic_gcd(a, b)
    assert [bool(r) for r in remainders] == [False, True, False, False, False, False]
    want = _from_sympy(sympy.gcd(_to_sympy(a, zs), _to_sympy(b, zs), *zs, domain="QQ"), zs)
    assert got == _intersection_gcd(a, b) == want.monic() == parse_poly("z1^3 + 3/2*z1", ["z1", "z2"])


@pytest.mark.parametrize("nv", [1, 2, 3])
def test_gaussian_gcd_takes_the_intersection_path_and_matches_sympy(nv):
    rng = make_rng(f"heugcd-gaussian-{nv}")
    zs = _symbols(nv)
    u = Poly.variable(nv, 1) + Poly.const(nv, GR_I)
    for _ in range(4):
        f, g, h = (random_poly(rng, nv, 2, max_terms=3) for _ in range(3))
        a, b = u * f * g, u * f * h
        assert heuristic_gcd(a, b) is None
        got = multivariate_gcd(a, b)
        assert got == _intersection_gcd(a, b)
        assert exact_divide(got, u) is not None
        want = sympy.gcd(_to_sympy(a, zs), _to_sympy(b, zs), *zs, domain="QQ_I")
        assert got == _from_sympy(want, zs, "QQ_I").monic(), (a, b)


def _monomial_pairs(rng, nv, gaussian):
    """(kind, a, b) operand pairs with a one-term, constant or zero operand."""
    c = gr(Fraction(2, 3), Fraction(-5, 7) if gaussian else 0)
    for _ in range(4):
        m, n = (random_poly(rng, nv, 4, max_terms=1, gaussian=gaussian) for _ in range(2))
        f = random_poly(rng, nv, 3, max_terms=4, gaussian=gaussian)
        yield "monomials", m, n
        yield "monomial-poly", m, f * n
        yield "constant-term", f * n + Poly.const(nv, 1), m.scale(c)
        yield "coefficient", m.scale(c), n.scale(c) * f
        yield "constant", Poly.const(nv, c), f
        yield "zero", Poly.zero(nv), m.scale(c)
    yield "zeros", Poly.zero(nv), Poly.zero(nv)


@pytest.mark.parametrize("nv", [2, 3])
@pytest.mark.parametrize("domain", ["QQ", "QQ_I"])
def test_monomial_gcds_and_squarefree_parts_match_sympy(nv, domain):
    rng = make_rng(f"sympy-monomial-gcd-{domain}-{nv}")
    zs = _symbols(nv)
    nontrivial = set()
    for kind, a, b in _monomial_pairs(rng, nv, domain == "QQ_I"):
        sa, sb = _to_sympy(a, zs), _to_sympy(b, zs)
        got = multivariate_gcd(a, b)
        assert got == _from_sympy(sympy.gcd(sa, sb, *zs, domain=domain), zs, domain).monic()
        assert (monomial_gcd(a, b) == got) if a and b else monomial_gcd(a, b) is None
        for p, sp in ((a, sa), (b, sb)):
            want = _from_sympy(sympy.sqf_part(sp, *zs, domain=domain), zs, domain).monic()
            assert squarefree_part(p) == want, (kind, p)
        if not got.is_constant():
            nontrivial.add(kind)
    assert nontrivial >= {"monomials", "monomial-poly", "coefficient"}


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
