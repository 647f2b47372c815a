"""The packed form of polynomials against the term dicts it stands for.

A product, power, sum of products or derivative is a `_Packed` Poly: integer
numerators over one common denominator, keyed by packed monomials, whose
`terms` dict is built on first read.  Printing, differentiation, negation,
equality, total degree, truth value and term count work on the numerators.
These tests check each of them against the polynomial's terms, read through
a reference printer and derivative that walk exponent tuples and Fractions,
on packed forms with wider fields and larger, unreduced common denominators
than the kernel makes, and on the kernel's own results.  They also check
that none of these operations builds the terms, and that real canonical
text parses straight into the packed form as the recursive-descent parser
reads it.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from kohnmult.polyring import (
    GaussRat,
    Poly,
    _field_width,
    _new_packed,
    _pack,
    _Packed,
    _parse_canonical,
    _Parser,
    _term_count,
    _unpack,
    differentiate,
    dot,
    grlex_key,
    poly_to_string,
)

NAME_SETS = [("z1",), ("z1", "z2"), ("x", "yy", "w_3")]


def _fraction(bound):
    return st.fractions(min_value=-bound, max_value=bound, max_denominator=12)


# whole and fractional parts, the units the printer writes specially, and
# real coefficients often enough that whole polynomials are real
coefficients = st.one_of(
    st.builds(GaussRat, _fraction(10**4)),
    st.builds(GaussRat, _fraction(50), _fraction(50)),
    st.builds(GaussRat, st.just(0), _fraction(50)),
    st.sampled_from([GaussRat(1), GaussRat(-1), GaussRat(0, 1), GaussRat(0, -1)]),
)
real_coefficients = st.one_of(
    st.builds(GaussRat, _fraction(10**4)),
    st.sampled_from([GaussRat(1), GaussRat(-1)]),
)


@st.composite
def eager_polys(draw, nv, coeffs=coefficients, max_terms=6):
    # small exponents repeat monomials, and half the draws are one term
    exps = st.tuples(*[st.integers(min_value=0, max_value=9)] * nv)
    size = draw(st.sampled_from([1, max_terms]))
    terms = draw(st.lists(st.tuples(exps, coeffs), min_size=1, max_size=size))
    return sum((Poly.monomial(nv, m, c) for m, c in terms), Poly.zero(nv))


def _repacked(p: Poly, extra_bits: int, factor: int) -> _Packed:
    """Nonzero p as a _Packed with ``extra_bits`` more bits per field than
    its degree needs and numerators and denominator times ``factor``."""
    width = _field_width(p.total_degree()) + extra_bits
    (real, imag), den = _pack(p.terms, width)
    return _new_packed(p.nvars, width, {k: c * factor for k, c in real.items()},
                       {k: c * factor for k, c in imag.items()}, den * factor)


def _reference_print(terms: dict, names) -> str:
    """The canonical text of a term dict, from exponent tuples and Fractions."""
    if not terms:
        return "0"
    out = []
    for mono in sorted(terms, key=grlex_key, reverse=True):
        c = terms[mono]
        powers = "*".join(n if e == 1 else f"{n}^{e}" for n, e in zip(names, mono) if e)
        if c.im:
            neg = c.im < 0
            mag = abs(c.im)
            cs = "i" if mag == 1 else f"{mag}*i"
            if c.re:
                cs = f"({c.re}{'-' if neg else '+'}{cs})"
                neg = False
        else:
            neg = c.re < 0
            cs = "" if abs(c.re) == 1 and powers else str(abs(c.re))
        out.append(" - " if neg else " + ")
        out.append("*".join(filter(None, (cs, powers))))
    out[0] = "-" if out[0] == " - " else ""
    return "".join(out)


def _reference_derivative(terms: dict, index: int) -> dict:
    i = index - 1
    return {
        m[:i] + (m[i] - 1,) + m[i + 1:]: GaussRat(c.re * m[i], c.im * m[i])
        for m, c in terms.items() if m[i]
    }


def _terms_of(p: Poly) -> dict:
    """p's terms, built from the packed form without setting p.terms."""
    return _unpack(p.nvars, *p._pk) if type(p) is _Packed else p.terms


def _has_terms(p: Poly) -> bool:
    try:
        Poly.terms.__get__(p)
    except AttributeError:
        return False
    return True


def _check_packed(p: _Packed, names):
    """Each packed operation of p against its terms, none building them."""
    assert type(p) is _Packed and not _has_terms(p)
    terms = _terms_of(p)
    nv = p.nvars
    eager = Poly(nv, terms)
    assert poly_to_string(p, names) == _reference_print(terms, names)
    for j in range(1, nv + 1):
        d = differentiate(p, j)
        assert _terms_of(d) == _reference_derivative(terms, j)
        assert poly_to_string(d, names) == _reference_print(_terms_of(d), names)
    assert _terms_of(-p) == {m: -c for m, c in terms.items()}
    assert p == eager and eager == p and not p != eager
    assert p == _repacked(eager, 2, 6) and _repacked(eager, 1, 35) == p
    assert p != -p
    assert p != eager + Poly.monomial(nv, (1,) * nv, GaussRat(Fraction(1, 3)))
    assert p.total_degree() == max(sum(m) for m in terms)
    assert bool(p) and not p.is_zero()
    assert _term_count(p) == len(terms)
    assert p.is_constant() == eager.is_constant() and p.is_unit() == eager.is_unit()
    assert p.constant_value() == eager.constant_value()
    assert not _has_terms(p)


@st.composite
def cases(draw):
    names = draw(st.sampled_from(NAME_SETS))
    return names, draw(eager_polys(len(names)))


@settings(max_examples=200, deadline=None)
@given(cases(), st.integers(min_value=0, max_value=3), st.integers(min_value=1, max_value=30))
def test_wide_and_unreduced_packed_forms_match_their_terms(case, extra_bits, factor):
    names, p = case
    if p:
        _check_packed(_repacked(p, extra_bits, factor), names)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_kernel_results_match_their_terms(data):
    names = data.draw(st.sampled_from(NAME_SETS))
    nv = len(names)
    a, b, c = (data.draw(eager_polys(nv)) for _ in range(3))
    # repacked operands of other widths and denominators give the same results
    wide = [_repacked(x, 2, 4) if x else x for x in (a, b, c)]
    # an eager one-term factor shifts the other eagerly; a packed one does not
    for x, y in ((a, b), (wide[0], b), (wide[0], wide[1])):
        product = x * y
        assert product == a * b
        if type(product) is _Packed:
            _check_packed(product, names)
    assert type(wide[0] * wide[1]) is (_Packed if a and b else Poly)
    for x in (a, wide[0]):
        power = x ** 3
        assert power == a * a * a
        if type(power) is _Packed:
            _check_packed(power, names)
    assert type(wide[0] ** 3) is (_Packed if a else Poly)
    # cancellation: to zero, and down to one product's terms
    zero = dot(nv, [(a, b), (-a, b)])
    assert not zero and zero.is_zero() and poly_to_string(zero, names) == "0"
    assert zero == Poly.zero(nv) and Poly.zero(nv) == zero
    rest = dot(nv, [(wide[0], b), (c, c), (-a, b)])
    assert rest == c * c
    if type(rest) is _Packed:
        _check_packed(rest, names)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_real_canonical_text_parses_into_the_packed_form(data):
    names = data.draw(st.sampled_from(NAME_SETS))
    p = data.draw(eager_polys(len(names), real_coefficients))
    index = {name: j for j, name in enumerate(names)}
    text = poly_to_string(p, names)
    fast = _parse_canonical(text, index)
    want = _Parser(text, index).parse()
    assert _terms_of(fast) == want.terms
    assert type(fast) is (_Packed if p else Poly)
