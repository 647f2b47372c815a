"""Deterministic Groebner engine: bases, quotients, powers, radicals."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kohnmult.polyring import Poly, equal_up_to_unit, exact_divide, gr, heuristic_gcd, parse_poly
from kohnmult.groebner import (
    _intersection_gcd,
    eliminate,
    groebner_basis,
    ideal_membership,
    least_power,
    multivariate_gcd,
    origin_isolated,
    power_in_ideal,
    quotient_dimension,
    radical_membership,
    squarefree_part,
    standard_monomials,
)

from oracles import (
    all_antichains,
    linear_form,
    make_rng,
    maximal_power_brute,
    min_power_brute,
    origin_isolated_brute,
    random_poly,
    staircase_quotient,
    standard_monomials_brute,
)


def _p(text, names=("z1", "z2")):
    return parse_poly(text, names)


def _random_ideal(rng, nvars=2, count=3):
    return [
        random_poly(rng, nvars, 3, max_terms=3, zero_constant=True)
        for _ in range(count)
    ]


# -- basis properties --------------------------------------------------------

def test_basis_is_idempotent_and_deterministic():
    rng = make_rng("gb-idempotent")
    for _ in range(12):
        gens = _random_ideal(rng)
        gb1 = groebner_basis(gens)
        gb2 = groebner_basis(gens)
        assert gb1.basis == gb2.basis
        again = groebner_basis(gb1.basis)
        assert again.basis == gb1.basis


def test_generators_are_members_with_replayable_cofactors():
    rng = make_rng("gb-membership")
    for _ in range(10):
        gens = _random_ideal(rng)
        gb = groebner_basis(gens, provenance=True)
        for g in gens:
            assert ideal_membership(g, gb)
        # random combination stays inside, and its cofactors replay exactly
        combo = Poly.zero(2)
        for g in gens:
            combo = combo + g * random_poly(rng, 2, 2)
        cofs, rem = gb.cofactors(combo)
        assert rem.is_zero()
        acc = Poly.zero(2)
        for c, g in zip(cofs, gens):
            acc = acc + c * g
        assert acc == combo


def test_units_are_not_members_of_proper_ideals():
    rng = make_rng("gb-nonmember")
    for _ in range(10):
        gens = _random_ideal(rng)
        gb = groebner_basis(gens)
        combo = Poly.zero(2)
        for g in gens:
            combo = combo + g * random_poly(rng, 2, 2)
        # every generator vanishes at 0, so adding 1 leaves the ideal
        assert not ideal_membership(combo + Poly.one(2), gb)


def test_normal_form_is_idempotent():
    rng = make_rng("gb-nf")
    for _ in range(8):
        gens = _random_ideal(rng)
        gb = groebner_basis(gens)
        p = random_poly(rng, 2, 4)
        nf = gb.normal_form(p)
        assert gb.normal_form(nf) == nf
        assert ideal_membership(p - nf, gb)


# -- quotient dimension vs the staircase oracle ------------------------------

def test_quotient_dimension_on_all_small_monomial_ideals():
    for antichain in all_antichains(4):
        gens = [Poly.monomial(2, m, gr(1)) for m in antichain]
        gb = groebner_basis(gens)
        expect = staircase_quotient(list(antichain))
        got = quotient_dimension(gb)
        assert got == expect, antichain
        sm = standard_monomials(gb)
        brute = standard_monomials_brute(list(antichain))
        if expect is math.inf:
            assert sm is None and brute is None
        else:
            assert list(sm) == brute, antichain


def test_quotient_dimension_non_monomial_cases():
    assert quotient_dimension(groebner_basis([_p("z1 + z2^2"), _p("z2^3")])) == 3
    assert quotient_dimension(groebner_basis([_p("z1^2 - z2^3")])) is math.inf
    assert (
        quotient_dimension(groebner_basis([_p("z1^2 + z2^2"), _p("z1*z2")]))
        == 4
    )
    assert quotient_dimension(groebner_basis([Poly.one(2)])) == 0


# -- powers ------------------------------------------------------------------

def test_min_power_pure_power_ideal():
    z1 = Poly.variable(2, 1)
    gb = groebner_basis([z1**5])
    assert least_power([z1], gb, 64) == 5
    assert least_power([z1], gb, 5) == 5
    assert least_power([z1], gb, 4) is None
    assert least_power([z1], gb, 3) is None


def test_min_power_binomial_point():
    # (z1+z2)^k needs every degree-k monomial inside (z1^2, z2^3)
    gb = groebner_basis([_p("z1^2"), _p("z2^3")])
    s = least_power([_p("z1 + z2")], gb, 64)
    assert s == 4
    assert not power_in_ideal(_p("z1 + z2"), 3, gb)
    assert power_in_ideal(_p("z1 + z2"), 4, gb)
    assert power_in_ideal(_p("z1 + z2"), 9, gb)


def test_min_power_exercises_doubling():
    z1 = Poly.variable(2, 1)
    gb = groebner_basis([z1**17, Poly.variable(2, 2)])
    assert least_power([z1], gb, 64) == 17


def test_least_power_validates_cap():
    gb = groebner_basis([Poly.variable(2, 1)])
    with pytest.raises(ValueError):
        least_power([Poly.variable(2, 1)], gb, 0)


def test_power_in_ideal_validates_exponent():
    gb = groebner_basis([Poly.variable(2, 1)])
    with pytest.raises(ValueError):
        power_in_ideal(Poly.variable(2, 1), 0, gb)


# -- radicals and isolation --------------------------------------------------

def test_radical_membership_basic():
    z1, z2 = Poly.variable(2, 1), Poly.variable(2, 2)
    assert radical_membership(z1, [z1**2])
    assert not radical_membership(z1, [z2**2])
    assert radical_membership(z1 + z2, [(z1 + z2) ** 3])
    assert radical_membership(z1, [z1**2 + z2**2, z1 * z2])
    assert radical_membership(Poly.one(2), [Poly.one(2)])


def test_origin_isolated():
    assert origin_isolated([_p("z1^2"), _p("z2^3")])
    assert not origin_isolated([_p("z1*z2")])
    assert not origin_isolated([_p("z1^2 - z2^3")])
    assert origin_isolated([_p("z1^2 + z2^2"), _p("z1*z2")])


def test_contains_maximal_power():
    # m^k lies in I exactly when every k-fold product of the variables does
    variables = [_p("z1"), _p("z2")]
    gb = groebner_basis([_p("z1^2"), _p("z2^2")])
    assert least_power(variables, gb, 3) is not None
    assert least_power(variables, gb, 2) is None
    gb2 = groebner_basis([_p("z1"), _p("z2")])
    assert least_power(variables, gb2, 1) is not None


# Small two-variable polynomials, the zero polynomial and constants included:
# up to three terms of total degree <= 3 with coefficients in -2..2.
_small_polys = st.lists(
    st.tuples(st.integers(-2, 2), st.integers(0, 3), st.integers(0, 3)).filter(
        lambda t: t[1] + t[2] <= 3
    ),
    max_size=3,
).map(lambda ts: sum((Poly.monomial(2, (a, b), gr(c)) for c, a, b in ts), Poly.zero(2)))


@settings(max_examples=80, deadline=None)
@given(gens=st.lists(_small_polys, min_size=1, max_size=3), p=_small_polys, cap=st.integers(1, 6))
@example(gens=[_p("1")], p=_p("z1"), cap=1)  # unit ideal
@example(gens=[_p("0")], p=_p("0"), cap=3)  # zero generators: the zero ideal
@example(gens=[_p("0"), _p("z1^2")], p=_p("z1 + z2"), cap=6)  # infinite quotient
@example(gens=[_p("z1 - z1^2"), _p("z2")], p=_p("z1"), cap=6)  # a zero at (1, 0)
@example(gens=[_p("z1^3"), _p("z2")], p=_p("z1"), cap=3)  # z1's nilpotency index is q = 3
def test_power_scan_matches_the_brute_references(gens, p, cap):
    gb = groebner_basis(gens)
    variables = [Poly.variable(2, 1), Poly.variable(2, 2)]
    assert least_power([p], gb, cap) == min_power_brute(p, gb.contains, cap)
    assert (least_power(variables, gb, cap) is not None) == maximal_power_brute(
        2, gb.contains, cap
    )
    assert origin_isolated(gb) == origin_isolated_brute(
        2, lambda v: radical_membership(v, gens)
    )


# -- elimination -------------------------------------------------------------

def test_eliminate_projects_parametrized_curve():
    t = Poly.variable(3, 1)
    x = Poly.variable(3, 2)
    y = Poly.variable(3, 3)
    out = eliminate([x - t**2, y - t**3], drop=[1])
    assert out, "projection ideal should be nonzero"
    assert all(g.nvars == 2 for g in out)
    gb = groebner_basis(out)
    assert ideal_membership(_p("z1^3 - z2^2"), gb)
    # the projection ideal is exactly the cuspidal cubic
    assert not ideal_membership(_p("z1"), gb)
    assert not ideal_membership(Poly.one(2), gb)


def test_eliminate_rejects_bad_index():
    with pytest.raises(ValueError):
        eliminate([Poly.variable(2, 1)], drop=[3])


# -- gcd and squarefree parts ------------------------------------------------

FORMS = [(1, 0), (0, 1), (1, 1), (1, -1), (1, 2), (2, 1)]


def test_gcd_of_linear_form_products():
    rng = make_rng("gcd")
    for _ in range(10):
        exps_a = [rng.randint(0, 2) for _ in FORMS]
        exps_b = [rng.randint(0, 2) for _ in FORMS]
        if not any(exps_a) or not any(exps_b):
            continue
        a = Poly.one(2)
        b = Poly.one(2)
        g = Poly.one(2)
        for coeffs, ea, eb in zip(FORMS, exps_a, exps_b):
            form = linear_form(2, coeffs)
            a = a * form**ea
            b = b * form**eb
            g = g * form ** min(ea, eb)
        got = multivariate_gcd(a, b)
        assert equal_up_to_unit(got, g), (exps_a, exps_b)


def test_gcd_of_coprime_polys_is_unit():
    got = multivariate_gcd(_p("z1^3"), _p("z2^2"))
    assert got.is_unit()


def _gcd_polys(nv):
    """Polynomials in nv variables, zero included: up to three terms of
    degree <= 3 in each variable, with small, rational or above-2^64
    coefficients."""
    coeff = st.one_of(
        st.integers(-3, 3),
        st.fractions(min_value=-4, max_value=4, max_denominator=6),
        st.integers(2**64, 2**70),
    )
    term = st.tuples(coeff, st.tuples(*[st.integers(0, 3)] * nv))
    return st.lists(term, max_size=3).map(
        lambda ts: sum((Poly.monomial(nv, m, gr(c)) for c, m in ts), Poly.zero(nv))
    )


@settings(max_examples=60, deadline=None)
@given(nv=st.integers(1, 3), data=st.data())
def test_heuristic_gcd_agrees_with_the_intersection_gcd(nv, data):
    f, g, h = (data.draw(_gcd_polys(nv)) for _ in range(3))
    a, b = f * g, f * h
    want = _intersection_gcd(a, b)
    got = heuristic_gcd(a, b)
    assert got is None or got == want
    assert multivariate_gcd(a, b) == want
    if not f.is_zero():
        assert exact_divide(want, f) is not None


def test_squarefree_part_of_power_products():
    rng = make_rng("squarefree")
    for _ in range(10):
        exps = [rng.randint(0, 3) for _ in FORMS]
        if not any(exps):
            continue
        p = Poly.one(2)
        expect = Poly.one(2)
        for coeffs, e in zip(FORMS, exps):
            form = linear_form(2, coeffs)
            p = p * form**e
            if e:
                expect = expect * form
        got = squarefree_part(p)
        assert equal_up_to_unit(got, expect), exps


def test_squarefree_part_of_squarefree_input():
    p = _p("z1^2 + z2^3")  # irreducible, already squarefree
    assert equal_up_to_unit(squarefree_part(p), p)
    q = _p("z1^2*z2^4")
    assert equal_up_to_unit(squarefree_part(q), _p("z1*z2"))
