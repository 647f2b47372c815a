"""Exact coefficient and polynomial arithmetic."""

import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kohnmult.polyring import (
    MAX_NESTING,
    MAX_NUMBER_BITS,
    MAX_PARSE_WORK,
    MAX_POWER_TERMS,
    GaussRat,
    ParseError,
    Poly,
    default_names,
    differentiate,
    equal_up_to_unit,
    gr,
    gradient,
    jacobian_det,
    parse_poly,
    poly_matrix_adjugate,
    poly_matrix_det,
    poly_to_string,
    vanishing_order,
)

from oracles import make_rng, random_matrix, random_poly


# -- coefficient field -------------------------------------------------------

fractions = st.fractions(
    min_value=-20, max_value=20, max_denominator=12
)
gaussians = st.builds(GaussRat, fractions, fractions)


@given(gaussians, gaussians, gaussians)
def test_gaussrat_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert a + GaussRat() == a
    assert a * GaussRat(1) == a


@given(gaussians)
def test_gaussrat_inverse(a):
    if not a:
        with pytest.raises(ZeroDivisionError):
            a.inverse()
    else:
        assert a * a.inverse() == GaussRat(1)
        assert (GaussRat(7, -3) / a) * a == GaussRat(7, -3)


def test_gaussrat_is_immutable():
    a = GaussRat(1, 2)
    with pytest.raises(AttributeError):
        a.re = Fraction(3)


# -- polynomial ring ---------------------------------------------------------

def poly_strategy(nvars, max_degree=4):
    def split(data):
        total, cuts = data
        cuts = sorted(c % (total + 1) for c in cuts)
        return tuple(
            b - a for a, b in zip([0] + cuts, cuts + [total])
        )

    mono = st.tuples(
        st.integers(min_value=0, max_value=max_degree),
        st.tuples(*[st.integers(min_value=0, max_value=max_degree)] * (nvars - 1)),
    ).map(split)
    term = st.tuples(mono, gaussians)
    return st.lists(term, min_size=0, max_size=5).map(
        lambda terms: sum(
            (Poly.monomial(nvars, m, c) for m, c in terms),
            Poly.zero(nvars),
        )
    )


@settings(max_examples=60, deadline=None)
@given(poly_strategy(2), poly_strategy(2), poly_strategy(2))
def test_poly_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) * r == p * r + q * r
    assert (p * q) * r == p * (q * r)
    assert p - p == Poly.zero(2)
    assert p * Poly.one(2) == p


@settings(max_examples=60, deadline=None)
@given(poly_strategy(3), poly_strategy(3))
def test_differentiate_product_rule(p, q):
    for k in (1, 2, 3):
        lhs = differentiate(p * q, k)
        rhs = differentiate(p, k) * q + p * differentiate(q, k)
        assert lhs == rhs


@settings(max_examples=60, deadline=None)
@given(poly_strategy(2))
def test_parse_print_round_trip(p):
    text = poly_to_string(p, default_names(2))
    assert parse_poly(text, default_names(2)) == p


def test_print_uses_default_names():
    p = Poly.variable(2, 1) * Poly.variable(2, 2)
    assert poly_to_string(p) == poly_to_string(p, default_names(2))


@given(poly_strategy(2), st.integers(min_value=0, max_value=4))
@settings(max_examples=30, deadline=None)
def test_pow_matches_repeated_product(p, n):
    expect = Poly.one(2)
    for _ in range(n):
        expect = expect * p
    assert p**n == expect


def test_variable_indexing_is_one_based():
    z2 = Poly.variable(3, 2)
    assert poly_to_string(z2, ("a", "b", "c")) == "b"
    assert differentiate(z2, 2) == Poly.one(3)
    assert differentiate(z2, 1).is_zero()
    with pytest.raises((ValueError, IndexError)):
        Poly.variable(3, 0)


@pytest.mark.parametrize("mono", [(-1, 2), (1.5, 0), (0, Fraction(2))])
def test_malformed_exponents_are_refused(mono):
    # packed, z1^-1*z2^2 would share the key of z1: "z1 + z1", read back as 2*z1
    with pytest.raises(ValueError, match="not a non-negative integer"):
        Poly(2, {mono: GaussRat(1), (1, 0): GaussRat(1)})
    with pytest.raises(ValueError, match="not a non-negative integer"):
        Poly.monomial(2, mono)
    with pytest.raises(ValueError, match="not a non-negative integer"):
        Poly.variable(2, 1).mul_term(mono, GaussRat(1))


def test_monomial_derivative_power_rule():
    p = Poly.variable(2, 1) ** 5
    assert differentiate(p, 1) == Poly.variable(2, 1) ** 4 * Poly.const(
        2, gr(5)
    )


def test_gradient_matches_partials():
    rng = make_rng("gradient")
    for _ in range(10):
        p = random_poly(rng, 3, 4)
        assert gradient(p) == tuple(
            differentiate(p, k) for k in (1, 2, 3)
        )


def test_vanishing_order():
    assert vanishing_order(Poly.zero(2)) == math.inf
    assert vanishing_order(Poly.one(2)) == 0
    z1, z2 = Poly.variable(2, 1), Poly.variable(2, 2)
    assert vanishing_order(z1**2 * z2 + z1**5) == 3
    assert vanishing_order(z1 + z1**2) == 1


def test_parser_rejects_malformed_input():
    for bad in ("3+-3*z1", "z1^", "z1 +", "(z1", "z9", "^2", "1//2"):
        with pytest.raises(ParseError):
            parse_poly(bad, ("z1", "z2"))


@pytest.mark.parametrize("text, message, position", [
    ("z1 + $", "unexpected character '$'", 5),
    ("z1 +", "unexpected ''", 4),
    ("(z1", "expected ')'", 3),
    ("z1 z2", "unexpected 'z2'", 3),
    ("z9*z1", "unknown variable 'z9'", 0),
    ("z1^z2", "exponent must be a non-negative integer", 3),
    ("  z1 ^ 1/2", "exponent must be a non-negative integer", 7),
    ("3 + 1/0*z1", "zero denominator", 4),
    ("z1 + -z2", "unexpected '-'", 5),
    ("1//2", "unexpected character '/'", 1),
])
def test_parse_errors_name_their_position(text, message, position):
    with pytest.raises(ParseError) as err:
        parse_poly(text, ("z1", "z2"))
    assert str(err.value) == f"{message} (at position {position})"
    assert err.value.position == position


def test_parser_limits_parenthesis_nesting():
    z1 = Poly.variable(2, 1)
    deepest = "(" * MAX_NESTING + "z1" + ")" * MAX_NESTING
    assert parse_poly(deepest, ("z1", "z2")) == z1
    for depth in (MAX_NESTING + 1, 5000):
        with pytest.raises(ParseError) as err:
            parse_poly("(" * depth + "z1" + ")" * depth, ("z1", "z2"))
        assert err.value.position == MAX_NESTING


def test_parser_bounds_parenthesised_powers():
    # (1+z1+z2)^e has C(e + 2, 2) terms: 5,151 at e = 100, 20,301 at e = 200
    assert MAX_POWER_TERMS == 10_000
    assert len(poly_to_string(parse_poly("(1+z1+z2)^100", ("z1", "z2"))).split(" + ")) == 5151
    for text, names, caret in [
        ("(1+z1+z2)^200", ("z1", "z2"), 9),
        ("(1+z1+z2+z3)^60", ("z1", "z2", "z3"), 12),
        ("((1+z1+z2)^100)^2", ("z1", "z2"), 15),
        ("z1*(z1 + z2^3)^99999999999999999999", ("z1", "z2"), 14),
    ]:
        start = time.perf_counter()
        with pytest.raises(ParseError) as err:
            parse_poly(text, names)
        assert time.perf_counter() - start < 1.0
        assert err.value.position == caret and text[caret] == "^"
        assert "power may expand to more than 10000 terms" in str(err.value)
    # constants and zero expand to one term or none, whatever the exponent
    z = ("z1", "z2")
    assert parse_poly("(2)^1000", z) == Poly.const(2, gr(2**1000))
    assert parse_poly("(z1 - z1)^100000 + z2", z) == Poly.variable(2, 2)


def test_parser_bounds_number_powers():
    # e*bits(base) is added to the bits of a term's running numerator and
    # denominator, or of its constant groups, before any power is taken, on
    # both parse paths; the refused numbers here would take 12 KB to 400 MB
    assert MAX_NUMBER_BITS == 65_536
    z = ("z1", "z2")
    assert parse_poly("2^32000*z1", z) == Poly.monomial(2, (1, 0), gr(2**32000))
    assert parse_poly("z2 - 1/3^20000", z) == Poly.variable(2, 2) - Poly.const(2, gr(Fraction(1, 3**20000)))
    assert parse_poly("(2)^30000", z) == Poly.const(2, gr(2**30000))
    for text, at in [
        ("9^999999999", 1),
        ("z1 - 9^100000*z2", 6),
        ("9^10000*9^10000*z1", 9),
        ("1/3^50000*z1", 3),
        ("(9)^100000", 3),
        ("(9^16000)*(9^16000)*z1", 10),
        ("(1+2*i)^50000*z1", 7),
    ]:
        start = time.perf_counter()
        with pytest.raises(ParseError) as err:
            parse_poly(text, z)
        assert time.perf_counter() - start < 1.0
        # at the caret of a power, or where a constant group starts
        assert err.value.position == at and text[at] in "^("
        assert "number may exceed 65536 bits" in str(err.value)


def test_parser_powers_of_one_term_groups():
    # a one-term group stays one term at any exponent, so only its
    # coefficient is bounded, and the units 1, -1, i, -i not at all
    z = ("z1", "z2", "z3")
    assert parse_poly("((z1*z1*z1)^4)^4", z) == Poly.monomial(3, (48, 0, 0), gr(1))
    assert parse_poly("(-z2)^100001*(i)^100001", z) == Poly.monomial(3, (0, 100001, 0), gr(0, -1))
    assert parse_poly("(2*z3)^30000", z) == Poly.monomial(3, (0, 0, 30000), gr(2**30000))
    for text, at in [("(2*z1)^99999999999", 6), ("(3*z2)^20000*(1/3*z1)^30000", 21)]:
        start = time.perf_counter()
        with pytest.raises(ParseError) as err:
            parse_poly(text, z)
        assert time.perf_counter() - start < 1.0
        assert err.value.position == at and text[at] == "^"
        assert "number may exceed 65536 bits" in str(err.value)


def test_parser_bounds_the_work_of_powers_and_products():
    # every power and product of parenthesised factors in a term is charged
    # before any of them is computed, against one budget per parse; each
    # refused text here took 5 to 12 s to expand
    assert MAX_PARSE_WORK == 1 << 29
    z = ("z1", "z2")
    for text, names, at, what in [
        ("(1+z1+z2)^100*(1+z1+z2)^100", z, 23, "power"),
        ("(1+z1+z2)^60*(1+z1+z2)^60*(1+z1+z2)^60", z, 12, "product"),
        ("(1+z1)^4000", ("z1",), 6, "power"),
        # the first term is expanded before the second is charged
        ("(1+z1+z2)^100 - (1+z1+z2)^100", z, 25, "power"),
    ]:
        start = time.perf_counter()
        with pytest.raises(ParseError) as err:
            parse_poly(text, names)
        assert time.perf_counter() - start < (1.0 if " - " in text else 0.1)
        assert err.value.position == at and text[at] == ("^" if what == "power" else "*")
        assert f"{what} may cost more than {MAX_PARSE_WORK} term-pair bits" in str(err.value)
    # products of admitted powers within the budget, and of one-term and zero groups
    z1, z2 = Poly.variable(2, 1), Poly.variable(2, 2)
    assert parse_poly("(z1 + z2)^40*(z1 - z2)^40", z) == (z1 * z1 - z2 * z2) ** 40
    assert parse_poly("(1/2*z1 - 3*i*z2)^9*(2*z1)^3*(z1 + z2)^2", z) == (
        (z1.scale(gr(Fraction(1, 2))) - z2.scale(gr(0, 3))) ** 9 * z1.scale(gr(8)) ** 1 * z1 ** 2
        * (z1 + z2) ** 2
    )
    assert parse_poly("(1+z1+z2)^90*(z1 - z1)^3", z).is_zero()


def test_parser_accepts_documented_forms():
    names = ("z1", "z2")
    assert parse_poly("z1^2*z2 - 3*z1", names) == Poly.variable(
        2, 1
    ) ** 2 * Poly.variable(2, 2) - Poly.variable(2, 1) * Poly.const(2, gr(3))
    assert parse_poly("i*z1", names) == Poly.variable(2, 1) * Poly.const(
        2, gr(0, 1)
    )
    assert parse_poly("(1/2)*z2^3", names) == Poly.variable(2, 2) ** 3 * (
        Poly.const(2, gr(Fraction(1, 2)))
    )
    assert parse_poly("-z1 - 2", names) == -Poly.variable(2, 1) - Poly.const(
        2, gr(2)
    )


# -- matrices of polynomials -------------------------------------------------

def test_adjugate_identity_random():
    rng = make_rng("adjugate")
    for n in (2, 3):
        for _ in range(8):
            a = random_matrix(rng, n, max_degree=2, max_terms=2)
            det = poly_matrix_det(a)
            adj = poly_matrix_adjugate(a)
            for i in range(n):
                for j in range(n):
                    acc = Poly.zero(n)
                    for k in range(n):
                        acc = acc + adj[i][k] * a[k][j]
                    expect = det if i == j else Poly.zero(n)
                    assert acc == expect


def test_jacobian_det_hand_case():
    z1, z2 = Poly.variable(2, 1), Poly.variable(2, 2)
    got = jacobian_det([z1**2, z2**3])
    assert got == Poly.monomial(2, (1, 2), gr(6))
    assert jacobian_det([z1, z2]) == Poly.one(2)
    # antisymmetry
    assert jacobian_det([z2**3, z1**2]) == -got


def test_det_alternating_rows():
    z1, z2 = Poly.variable(2, 1), Poly.variable(2, 2)
    row = (z1 + z2, z1 * z2)
    assert poly_matrix_det((row, row)).is_zero()


def test_equal_up_to_unit():
    z1 = Poly.variable(2, 1)
    assert equal_up_to_unit(z1.scale(gr(3)), z1)
    assert equal_up_to_unit(z1.scale(gr(0, 1)), z1)
    assert not equal_up_to_unit(z1, z1**2)
    assert not equal_up_to_unit(z1, Poly.zero(2))


@settings(max_examples=40, deadline=None)
@given(poly_strategy(2))
def test_remap_lift_then_restrict_round_trip(p):
    lifted = p.remap(4, (3, 1))
    assert lifted == p.compose([Poly.variable(4, 3), Poly.variable(4, 1)])
    assert lifted.remap(2, (2, None, 1, None)) == p


def test_remap_drops_terms_that_use_a_dropped_variable():
    z1, z2, z3 = (Poly.variable(3, j) for j in (1, 2, 3))
    p = z1 * z1 + z1 * z2 + z3.scale(gr(5))
    assert p.remap(2, (1, None, 2)) == parse_poly("z1^2 + 5*z2", ["z1", "z2"])
    with pytest.raises(ValueError):
        p.remap(2, (1, 1, None))
    with pytest.raises(ValueError):
        p.remap(2, (1, 3, None))
    with pytest.raises(ValueError):
        p.remap(3, (1, 2))
