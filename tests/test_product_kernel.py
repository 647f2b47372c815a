"""Differential oracle for products, powers and parsing against sympy.

`Poly.__mul__` and `Poly.__pow__` run on packed exponent ints with integer
numerators, and `parse_poly` builds its term dict directly.  These tests
compare all three with sympy's expansion on random polynomials in one to
four variables, over Q and Q(i), with exponents that reach and cross the
bit widths of the packed exponent fields.  sympy is a test-only dependency;
the module is skipped where it is absent.

`parse_poly` reads canonical text on a fast path of string splits and
everything else with the recursive-descent parser.  The fast path is also
checked against that parser: every canonical print takes it, and on
near-canonical text it answers None or the parser's polynomial.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sympy = pytest.importorskip("sympy")

from kohnmult.polyring import (
    GaussRat,
    Poly,
    _parse_canonical,
    _Parser,
    default_names,
    gr,
    parse_poly,
    poly_to_string,
)

# total degrees at and around the bit-width boundaries of an exponent field
BOUNDARY_DEGREES = (1, 2, 3, 4, 7, 8, 15, 16, 31, 32, 63, 64, 127, 128)


def _symbols(nv):
    return sympy.symbols(" ".join(default_names(nv)), seq=True)


def _to_sympy(p: Poly, zs):
    expr = sympy.Integer(0)
    for mono, c in p.terms.items():
        term = sympy.Rational(c.re.numerator, c.re.denominator) + sympy.I * sympy.Rational(
            c.im.numerator, c.im.denominator
        )
        for z, e in zip(zs, mono):
            term *= z**e
        expr += term
    return expr


def _from_sympy(expr, zs) -> dict:
    """The term dict of a sympy expression, zero coefficients left out."""
    out = {}
    for mono, c in sympy.Poly(sympy.expand(expr), *zs, domain="QQ_I").terms():
        if c:
            re, im = sympy.re(c), sympy.im(c)
            out[mono] = GaussRat(Fraction(int(re.p), int(re.q)), Fraction(int(im.p), int(im.q)))
    return out


def _coefficient(rng, gaussian):
    def part():
        return Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 4, 7)))

    c = GaussRat(part(), part() if gaussian else 0)
    return c if c else GaussRat(1)


def _random_poly(rng, nv, max_degree, max_terms, gaussian):
    p = Poly.zero(nv)
    for _ in range(rng.randint(1, max_terms)):
        total = rng.randint(0, max_degree)
        cuts = sorted(rng.randint(0, total) for _ in range(nv - 1))
        mono = tuple(b - a for a, b in zip([0] + cuts, cuts + [total]))
        p = p + Poly.monomial(nv, mono, _coefficient(rng, gaussian))
    return p


def _assert_terms(got: Poly, want: dict):
    """got has exactly the terms of want, and no zero coefficient."""
    wrong = sorted(m for m in got.terms.keys() | want.keys() if got.terms.get(m) != want.get(m))
    # a short message: pytest's diff of two large dicts takes minutes
    assert not wrong, f"{len(wrong)} wrong terms, first {wrong[:3]}"
    assert all(got.terms.values())


def _check_product(p, q):
    zs = _symbols(p.nvars)
    _assert_terms(p * q, _from_sympy(_to_sympy(p, zs) * _to_sympy(q, zs), zs))


def _check_power(p, n):
    zs = _symbols(p.nvars)
    _assert_terms(p**n, _from_sympy(_to_sympy(p, zs) ** n, zs))


@pytest.mark.parametrize("nv", [1, 2, 3, 4])
@pytest.mark.parametrize("gaussian", [False, True])
def test_random_products_match_sympy(nv, gaussian):
    rng = random.Random(f"kernel-mul:{nv}:{gaussian}")
    for _ in range(25):
        p = _random_poly(rng, nv, rng.choice((2, 5, 9)), 6, gaussian)
        q = _random_poly(rng, nv, rng.choice((2, 5, 9)), 6, gaussian)
        _check_product(p, q)


@pytest.mark.parametrize("nv", [1, 2, 3, 4])
@pytest.mark.parametrize("gaussian", [False, True])
def test_random_powers_match_sympy(nv, gaussian):
    rng = random.Random(f"kernel-pow:{nv}:{gaussian}")
    for _ in range(12):
        p = _random_poly(rng, nv, 3, 3, gaussian)
        _check_power(p, rng.randint(0, 6))


@pytest.mark.parametrize("nv", [1, 2, 3, 4])
def test_products_at_packing_width_boundaries(nv):
    # each product's largest exponent equals its total degree D, so a field
    # of one bit fewer than D needs overflows into the next variable
    rng = random.Random(f"kernel-width:{nv}")
    for degree in BOUNDARY_DEGREES:
        for var in range(nv):
            a = rng.randint(0, degree)
            left = tuple(a if j == var else 0 for j in range(nv))
            right = tuple(degree - a if j == var else 0 for j in range(nv))
            p = Poly.monomial(nv, left, gr(2)) + _random_poly(rng, nv, a, 3, True)
            q = Poly.monomial(nv, right, gr(-3)) + _random_poly(rng, nv, degree - a, 3, False)
            _check_product(p, q)


@pytest.mark.parametrize("nv", [1, 2, 3, 4])
def test_powers_at_packing_width_boundaries(nv):
    rng = random.Random(f"kernel-width-pow:{nv}")
    z = [Poly.variable(nv, j + 1) for j in range(nv)]
    for degree in BOUNDARY_DEGREES:
        for n in (n for n in (1, 2, 3, 4) if degree % n == 0):
            base = z[rng.randrange(nv)] ** (degree // n) + Poly.const(nv, _coefficient(rng, True))
            if nv > 1:
                base = base + z[rng.randrange(nv)]
            _check_power(base, n)


@pytest.mark.parametrize("nv", [1, 2, 3, 4])
def test_one_term_operands_match_sympy(nv):
    rng = random.Random(f"kernel-monomial:{nv}")
    for _ in range(20):
        gaussian = rng.random() < 0.5
        mono = tuple(rng.randint(0, 20) for _ in range(nv))
        m = Poly.monomial(nv, mono, _coefficient(rng, gaussian))
        p = _random_poly(rng, nv, 6, 5, not gaussian)
        _check_product(m, p)
        _check_product(p, m)
        _check_product(m, m)
        _check_power(m, rng.randint(0, 9))
    i = Poly.const(nv, GaussRat(0, 1))
    for n in range(9):
        _check_power(i, n)
        _check_power(i * Poly.variable(nv, nv), n)


@pytest.mark.parametrize("nv", [1, 2, 3, 4])
def test_cancelling_products_keep_no_zero_terms(nv):
    rng = random.Random(f"kernel-cancel:{nv}")
    z1 = Poly.variable(nv, 1)
    zn = Poly.variable(nv, nv)
    i = Poly.const(nv, GaussRat(0, 1))
    # cross terms cancel: every middle coefficient of these sums to zero
    _check_product(z1 - zn, z1 + zn)
    _check_product(z1 + i * zn, z1 - i * zn)
    _check_product(z1**3 + zn**3, z1**3 - zn**3)
    for _ in range(10):
        p = _random_poly(rng, nv, 5, 5, True)
        q = _random_poly(rng, nv, 5, 5, False)
        assert p * q - q * p == Poly.zero(nv)
        assert (p * q + (-p) * q).is_zero()
        assert (p * Poly.zero(nv)).is_zero() and (Poly.zero(nv) * p).is_zero()
        assert (Poly.zero(nv) ** 3).is_zero() and Poly.zero(nv) ** 0 == Poly.one(nv)


# -- parsing -----------------------------------------------------------------

coefficients = st.builds(
    GaussRat,
    st.fractions(min_value=-50, max_value=50, max_denominator=30),
    st.fractions(min_value=-50, max_value=50, max_denominator=30),
)


@st.composite
def polys(draw):
    nv = draw(st.integers(min_value=1, max_value=4))
    exps = st.tuples(*[st.integers(min_value=0, max_value=70)] * nv)
    terms = draw(st.lists(st.tuples(exps, coefficients), max_size=8))
    return sum((Poly.monomial(nv, m, c) for m, c in terms), Poly.zero(nv))


@settings(max_examples=150, deadline=None)
@given(polys())
def test_parse_of_print_round_trips(p):
    names = default_names(p.nvars)
    assert parse_poly(poly_to_string(p, names), names) == p


def _outcome(parse, text):
    """("ok", Poly) or (error type, message, position) of one parse.  Only
    ParseError has a position: int() raises a plain ValueError for a digit
    string over the interpreter's length limit."""
    try:
        return ("ok", parse(text))
    except ValueError as err:
        return (type(err).__name__, str(err), getattr(err, "position", None))


def _check_fast_path(text, names):
    """The fast path answers None or the recursive-descent parser's Poly, and
    parse_poly gives exactly the parser's Poly or error."""
    index = {name: j for j, name in enumerate(names)}
    want = _outcome(lambda t: _Parser(t, index).parse(), text)
    fast = _parse_canonical(text, index)
    assert fast is None or want == ("ok", fast)
    assert _outcome(lambda t: parse_poly(t, names), text) == want
    return fast


def _fraction(min_value, max_value):
    return st.fractions(min_value=min_value, max_value=max_value, max_denominator=40)


# real and imaginary parts of every sign, whole and fractional, with the
# printer's special cases: 1, -1, i, -i and a unit imaginary part beside a
# nonzero real one
gauss_coefficients = st.one_of(
    st.builds(GaussRat, _fraction(-10**6, 10**6), _fraction(-10**6, 10**6)),
    st.builds(GaussRat, _fraction(-50, 50)),
    st.builds(GaussRat, st.just(0), _fraction(-50, 50)),
    st.sampled_from([GaussRat(1), GaussRat(-1), GaussRat(0, 1), GaussRat(0, -1)]),
    st.builds(GaussRat, _fraction(-9, 9), st.sampled_from([1, -1])),
)

NAME_SETS = [("z1",), ("z1", "z2"), ("x", "yy", "w_3"), ("alpha", "B2", "_t", "z10")]


@st.composite
def named_polys(draw):
    names = draw(st.sampled_from(NAME_SETS))
    nv = len(names)
    # exponent 0 everywhere draws constants, and small exponents repeat
    # monomials, whose coefficients then add up or cancel
    exps = st.tuples(*[st.integers(min_value=0, max_value=12)] * nv)
    terms = draw(st.lists(st.tuples(exps, gauss_coefficients), max_size=10))
    return names, sum((Poly.monomial(nv, m, c) for m, c in terms), Poly.zero(nv))


@settings(max_examples=300, deadline=None)
@given(named_polys())
def test_canonical_prints_take_the_fast_path(case):
    names, p = case
    text = poly_to_string(p, names)
    assert _check_fast_path(text, names) == p


NEAR_CANONICAL = [
    "z1 + -z2",
    "z1 - -z2",
    "--z1",
    "-",
    "",
    "0",
    "-0",
    " - z1",
    "z1 - ",
    "z1 +  + z2",
    "2*3*z1",
    "z1*2*z2*z1",
    "1/0*z1",
    "1/0^0",
    "1/2^3*z2",
    "2^3/4*z1",
    "1/2/3*z1",
    "z1^2^3",
    "z1**z2",
    "z1^",
    "*z1",
    "z1*",
    "i*i",
    "i^3*z1",
    "-i",
    "-3/2*i*z2 - i",
    "(1+2*i)",
    "(1+-2*i)*z1",
    "(1-+2*i)*z1",
    "(--1+i)*z1",
    "(1+2*i)*z1 - (-1/2-i)*z2^2",
    "-(1+2*i)*z1",
    "(1+2*i)^2*z1",
    "(1+2*i)*(1-i)",
    "(1+2*i)z1",
    "(1+2*i",
    "(0+0*i)*z1 + z2",
    "(1+i*2)*z1",
    "(1+2*i*z1)",
    "(z1+i)*z2",
    "z1*(1+i)",
    "(1 + i)*z1",
    "(1+*i)*z1",
    "z1\t+ z2",
    "z1 +\tz2",
    "  z1 + z2",
    "z1 + z2 ",
    "z1  + z2",
    "z1^\u0663",
    "\u0663*z1 - 1/\u0662*z2",
    "z1^\u00b2",
    "z1 + z1",
    "z1 - z1",
    "0*z1",
    "0*z1 + z2 - 0",
    "z9*z1",
    "z1 + $",
    "+z1",
    "z1 ^2",
    "3_0*z1",
    "1" * 5000 + "*z1",
]


@pytest.mark.parametrize("text", NEAR_CANONICAL, ids=lambda text: ascii(text)[:40])
def test_near_canonical_text_reads_as_the_parser_reads_it(text):
    _check_fast_path(text, ("z1", "z2"))


NON_CANONICAL = [
    "z2*z1",
    "z1*z1^2",
    "z1^2*z2*z1^0*z2^3",
    "z1 + z1",
    "z1 - z1",
    "z1 - z1 + 0",
    "i*i",
    "i^3*z1",
    "2*i*3*i",
    "2/4*z1",
    "3/6*z1^2*2/5",
    "0*z1^3",
    "0^0",
    "1/2^3*z2",
    "-(z1 + z2)^2",
    "(z1 - z2)*(z1 + z2)",
    "(z1 + i*z2)^3*(z1 - i*z2)^3",
    "((z1 + 1)^2 - (z1 - 1)^2)^3",
    "((z1 + z2)^2)^2",
    "2*(z1*(z2 + 1))^2*z1 - 2*z1^3*z2^2",
    "(z1^2 + 1/3*z2)^0*5",
    "z2 - (z2)",
    "(0)^3 + z1",
]


@pytest.mark.parametrize("text", NON_CANONICAL)
def test_non_canonical_inputs_match_sympy(text):
    zs = _symbols(2)
    want = _from_sympy(sympy.sympify(text, locals={"i": sympy.I, "z1": zs[0], "z2": zs[1]}), zs)
    _assert_terms(parse_poly(text, ("z1", "z2")), want)


@st.composite
def expressions(draw, depth=3):
    """Random expression text in the parser's grammar over z1, z2, z3."""
    kind = draw(st.sampled_from(("atom", "atom", "sum", "product", "power", "group")))
    if depth == 0 or kind == "atom":
        return draw(st.sampled_from(("z1", "z2", "z3", "i", "2", "7", "3/4", "0", "1/5")))
    if kind == "sum":
        parts = draw(st.lists(expressions(depth - 1), min_size=2, max_size=4))
        # the grammar has no unary minus after an operator: `z1 + -z2` is an error
        lead = "-" if draw(st.booleans()) else ""
        parts = [f"({p})" if p.startswith("-") and (k or lead) else p for k, p in enumerate(parts)]
        ops = draw(st.lists(st.sampled_from((" + ", " - ")), min_size=len(parts), max_size=len(parts)))
        return lead + parts[0] + "".join(op + part for op, part in zip(ops[1:], parts[1:]))
    if kind == "product":
        parts = draw(st.lists(expressions(depth - 1), min_size=2, max_size=3))
        return "*".join(f"({p})" if ("+" in p or "-" in p) else p for p in parts)
    if kind == "power":
        base = draw(expressions(depth - 1))
        return f"({base})^{draw(st.integers(min_value=0, max_value=4))}"
    return f"({draw(expressions(depth - 1))})"


@settings(max_examples=150, deadline=None)
@given(expressions())
def test_random_expressions_match_sympy(text):
    zs = _symbols(3)
    env = {"i": sympy.I, **{str(z): z for z in zs}}
    want = _from_sympy(sympy.sympify(text, locals=env), zs)
    _assert_terms(parse_poly(text, ("z1", "z2", "z3")), want)
