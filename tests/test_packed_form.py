"""Every public operation of a Poly against the term-dict oracle.

A Poly holds one form: packed monomial keys, and integer numerators over the
least common denominator of its coefficients.  The field width is the one
its constructor or operation chose, so equal polynomials may sit in fields
of different widths: a derivative, or a sum whose top terms cancel, keeps
its operands' wider fields.  These tests draw term dicts with Gaussian and
non-integer coefficients, build each as a Poly at its own width and at wider
ones, and check every public operation against the term-by-term reference
in ``oracles.py``: the terms, print, equality and hash, degrees, leading
term and constant, and the results of sums, products, powers, scaling,
shifts, derivatives, sums of products, ``monic``, ``coefficients_in``,
``remap``, ``compose`` and ``equal_up_to_unit``.  Real canonical text parses
straight into the same form as the recursive-descent parser reads it.
"""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from kohnmult.polyring import (
    GaussRat,
    Poly,
    _parse_canonical,
    _Parser,
    differentiate,
    dot,
    equal_up_to_unit,
    parse_poly,
    poly_to_string,
    vanishing_order,
)

from oracles import (
    reference_print,
    terms_add,
    terms_coefficients_in,
    terms_compose,
    terms_derivative,
    terms_leading,
    terms_mul,
    terms_pow,
    terms_remap,
    terms_scale,
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
def term_dicts(draw, nv, coeffs=coefficients, max_exponent=9, max_terms=6):
    # small exponents repeat monomials, whose coefficients add up or cancel,
    # and half the draws have at most one term
    exps = st.tuples(*[st.integers(min_value=0, max_value=max_exponent)] * nv)
    size = draw(st.sampled_from([1, max_terms]))
    terms = {}
    for mono, c in draw(st.lists(st.tuples(exps, coeffs), max_size=size)):
        terms = terms_add(terms, {mono: c})
    return terms


def _widened(p: Poly, degree: int) -> Poly:
    """p as the sum p + t - t, t a term of total degree ``degree`` whose
    coefficient has a denominator of its own: the sum keeps the field width
    that holds ``degree``."""
    top = Poly.monomial(p.nvars, (0,) * (p.nvars - 1) + (degree,), GaussRat(Fraction(1, 7), 3))
    return (p + top) - top


def _check_form(q: Poly, terms: dict, names):
    """Each operation of one Poly against its term dict."""
    nv = q.nvars
    own = Poly(nv, terms)
    origin = (0,) * nv
    assert q.terms == terms
    assert poly_to_string(q, names) == reference_print(terms, names)
    assert parse_poly(poly_to_string(q, names), names) == q
    assert q == own and own == q and not q != own and hash(q) == hash(own)
    assert q != own + Poly.monomial(nv, (1,) * nv, GaussRat(Fraction(1, 3)))
    assert q.total_degree() == max(map(sum, terms), default=-1)
    assert vanishing_order(q) == min(map(sum, terms), default=math.inf)
    assert bool(q) == bool(terms) and q.is_zero() == (not terms)
    assert q.is_constant() == (terms.keys() <= {origin})
    assert q.is_unit() == (terms.keys() == {origin})
    assert q.constant_value() == terms.get(origin, GaussRat())
    assert (-q).terms == terms_scale(terms, GaussRat(-1))
    for j in range(1, nv + 1):
        assert q.degree_in(j) == max((m[j - 1] for m in terms), default=-1)
        assert differentiate(q, j).terms == terms_derivative(terms, j)
        assert [c.terms for c in q.coefficients_in(j)] == terms_coefficients_in(terms, j)
    if terms:
        mono, c = terms_leading(terms)
        assert q.leading() == (mono, c)
        assert q.monic().terms == terms_scale(terms, c.inverse())


@st.composite
def cases(draw):
    names = draw(st.sampled_from(NAME_SETS))
    return names, draw(term_dicts(len(names)))


@settings(max_examples=200, deadline=None)
@given(cases(), st.sampled_from([1, 2, 15, 16, 40, 255]))
def test_wide_and_unreduced_packed_forms_match_their_terms(case, degree):
    names, terms = case
    p = Poly(len(names), terms)
    forms = [p, _widened(p, degree), _widened(_widened(p, degree), 3 * degree)]
    for q in forms:
        _check_form(q, terms, names)
    # equal polynomials at every width are one dict key
    assert len({q: None for q in forms}) == 1


def _operand(data, terms, nv):
    p = Poly(nv, terms)
    return _widened(p, data.draw(st.sampled_from([16, 70]))) if data.draw(st.booleans()) else p


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_kernel_results_match_their_terms(data):
    names = data.draw(st.sampled_from(NAME_SETS))
    nv = len(names)
    a, b, c = (data.draw(term_dicts(nv)) for _ in range(3))
    # operands at their own widths and at wider ones
    pa, pb, pc = (_operand(data, t, nv) for t in (a, b, c))
    assert (pa + pb).terms == terms_add(a, b)
    assert (pa - pb).terms == terms_add(a, b, -1)
    assert (pa * pb).terms == terms_mul(a, b)
    for n in range(4):
        assert (pa ** n).terms == terms_pow(a, nv, n)
    k = data.draw(coefficients)
    mono = data.draw(st.tuples(*[st.integers(min_value=0, max_value=9)] * nv))
    assert pa.scale(k).terms == terms_scale(a, k)
    assert pa.mul_term(mono, k).terms == terms_mul(a, {mono: k} if k else {})
    pairs = [(pa, pb), (pc, pc), (pb, pa.scale(GaussRat(-1)))]
    assert dot(nv, pairs).terms == terms_mul(c, c)
    assert dot(nv, pairs[:2]).terms == terms_add(terms_mul(a, b), terms_mul(c, c))
    # scaled copies, and only those, are equal up to a unit
    if a and k:
        assert equal_up_to_unit(pa.scale(k), pa) == k
    if a and b:
        m = terms_leading(a)[0]
        unit = a[m] / b[m] if m in b else None
        want = unit if unit is not None and terms_scale(b, unit) == a else None
    else:
        want = GaussRat(1) if a == b else None
    assert equal_up_to_unit(pa, pb) == want
    # move the variables into a larger ring, and back
    places = list(range(2, nv + 2))
    up = pa.remap(nv + 1, places)
    assert up.terms == terms_remap(a, nv + 1, places)
    assert up.remap(nv, [None] + list(range(1, nv + 1))) == pa
    dropped = [None] + list(range(1, nv))
    assert pa.remap(nv - 1, dropped).terms == terms_remap(a, nv - 1, dropped)
    # substitute small polynomials of another ring
    small = data.draw(term_dicts(nv, max_exponent=3, max_terms=3))
    subs = [data.draw(term_dicts(2, max_exponent=2, max_terms=2)) for _ in range(nv)]
    got = Poly(nv, small).compose([_operand(data, s, 2) for s in subs])
    assert got.nvars == 2 and got.terms == terms_compose(small, subs, 2)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_real_canonical_text_parses_into_the_packed_form(data):
    names = data.draw(st.sampled_from(NAME_SETS))
    terms = data.draw(term_dicts(len(names), real_coefficients))
    index = {name: j for j, name in enumerate(names)}
    text = poly_to_string(Poly(len(names), terms), names)
    fast = _parse_canonical(text, index)
    assert fast is not None and fast.terms == terms
    assert fast == _Parser(text, index).parse()


def test_equal_polynomials_of_other_widths_hash_alike():
    names = ("z1", "z2")
    p = parse_poly("z1^2 - 1/2*z1*z2 + (3+i)", names)
    z1, z2 = (Poly.variable(2, j) for j in (1, 2))
    far = z2 ** 300
    forms = [
        p,
        # a derivative keeps the field of its degree-200 operand
        differentiate(parse_poly("1/3*z1^3 - 1/4*z1^2*z2 + (3+i)*z1 + z2^200", names), 1),
        # a sum of products whose degree-301 products cancel
        dot(2, [(p, Poly.one(2)), (far, z1), (-far, z1)]),
        # a sum whose top term, with a denominator of its own, cancels
        (p + far.scale(GaussRat(Fraction(2, 9)))) - far.scale(GaussRat(Fraction(2, 9))),
    ]
    assert all(q == p and p == q for q in forms)
    assert len({hash(q) for q in forms}) == 1
    assert len({q: None for q in forms}) == len(set(forms)) == 1
    assert len({poly_to_string(q, names) for q in forms}) == 1
