"""Differential oracle for products, powers and parsing against sympy.

`Poly.__mul__` and `Poly.__pow__` run on packed exponent ints with integer
numerators, and `parse_poly` builds its term dict directly.  These tests
compare all three with sympy's expansion on random polynomials in one to
four variables, over Q and Q(i), with exponents that reach and cross the
bit widths of the packed exponent fields.  sympy is a test-only dependency;
the comparisons with it are skipped where it is absent.

`dot` sums products in the same kernel, each distinct operand brought to
the common field width once and every product added in packed form.  It is checked against the sum of `Poly`
products, which runs without sympy, and against sympy.

Large products multiply dense residue classes of packed keys as big ints,
each pair of classes at the two points 2^b and -2^b.  That path is checked
against the term-by-term loop it bypasses, which runs without sympy, on
seeded and Hypothesis-drawn operands, Gaussian ones through `_mul` too, and
against sympy on weighted-homogeneous binomial powers.

`parse_poly` reads real canonical text on a fast path of string splits and
everything else, Gaussian text included, with the recursive-descent parser.
The fast path is also checked against that parser: every real print takes
it, Gaussian prints, repeated monomials and powers of numbers do not, and on
near-canonical text it answers None or the parser's polynomial.
"""

import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

try:
    import sympy
except ImportError:  # the kernel's own differential tests still run
    sympy = None

from kohnmult import polyring
from kohnmult.polyring import (
    GaussRat,
    Poly,
    _dict_mul,
    _field_width,
    _int_mul,
    _mul,
    _operand,
    _parse_canonical,
    _Parser,
    default_names,
    dot,
    gr,
    parse_poly,
    poly_to_string,
)

# total degrees at and around the bit-width boundaries of an exponent field
BOUNDARY_DEGREES = (1, 2, 3, 4, 7, 8, 15, 16, 31, 32, 63, 64, 127, 128)


def _symbols(nv):
    if sympy is None:
        pytest.skip("sympy is not installed")
    return sympy.symbols(" ".join(default_names(nv)), seq=True)


def _sympy_number(c: GaussRat):
    return sympy.Rational(c.re.numerator, c.re.denominator) + sympy.I * sympy.Rational(
        c.im.numerator, c.im.denominator
    )


def _ring_poly(p: Poly, zs):
    """p in sympy's sparse polynomial ring over Q(i); its Poly is dense, and
    takes minutes to multiply at the degrees of the dense-class tests."""
    ring = sympy.ring(zs, sympy.QQ_I)[0]
    return ring.from_dict({m: sympy.QQ_I.from_sympy(_sympy_number(c)) for m, c in p.terms.items()})


def _ring_terms(poly) -> dict:
    """The term dict of a sparse ring element, zero coefficients left out."""
    return {
        m: GaussRat(Fraction(int(c.x.numerator), int(c.x.denominator)),
                    Fraction(int(c.y.numerator), int(c.y.denominator)))
        for m, c in poly.terms() if c
    }


def _to_sympy(p: Poly, zs):
    expr = sympy.Integer(0)
    for mono, c in p.terms.items():
        term = _sympy_number(c)
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


# -- sums of products -----------------------------------------------------------


def _check_dot(nv, pairs):
    """dot equals the sum of Poly products and, where sympy is installed,
    sympy's expansion of the sum."""
    got = dot(nv, pairs)
    _assert_terms(got, sum((a * b for a, b in pairs), Poly.zero(nv)).terms)
    if sympy is not None:
        zs = _symbols(nv)
        want = sum((_to_sympy(a, zs) * _to_sympy(b, zs) for a, b in pairs), sympy.Integer(0))
        _assert_terms(got, _from_sympy(want, zs))
    return got


@pytest.mark.parametrize("nv", [1, 2, 3, 4])
@pytest.mark.parametrize("gaussian", [False, True])
def test_random_sums_of_products(nv, gaussian):
    # denominators 1, 2, 3, 4 and 7 mix within and across the operands
    rng = random.Random(f"kernel-dot:{nv}:{gaussian}")
    for _ in range(10):
        pairs = [
            (_random_poly(rng, nv, rng.choice((2, 5, 9)), 6, gaussian),
             _random_poly(rng, nv, rng.choice((2, 5, 9)), 6, rng.random() < 0.5))
            for _ in range(rng.randint(1, 5))
        ]
        _check_dot(nv, pairs)


@pytest.mark.parametrize("nv", [1, 2, 3, 4])
def test_cancelling_sums_of_products_are_zero(nv):
    rng = random.Random(f"kernel-dot-cancel:{nv}")
    z1, zn = Poly.variable(nv, 1), Poly.variable(nv, nv)
    i = Poly.const(nv, GaussRat(0, 1))
    # (z1 - zn)(z1 + zn) - z1*z1 + zn*zn, and (z1 + i zn)(z1 - i zn) - z1^2 - zn^2
    assert _check_dot(nv, [(z1 - zn, z1 + zn), (-z1, z1), (zn, zn)]).is_zero()
    assert _check_dot(nv, [(z1 + i * zn, z1 - i * zn), (-z1, z1), (-zn, zn)]).is_zero()
    for _ in range(10):
        p = _random_poly(rng, nv, 5, 5, True)
        q = _random_poly(rng, nv, 5, 5, False)
        r = _random_poly(rng, nv, 3, 4, True)
        assert _check_dot(nv, [(p, q), (q, -p)]).is_zero()
        # only some terms cancel: p*q + r*p - p*q leaves r*p
        assert _check_dot(nv, [(p, q), (r, p), (-p, q)]) == r * p


@pytest.mark.parametrize("nv", [1, 2, 3, 4])
def test_sums_with_empty_and_one_term_operands(nv):
    rng = random.Random(f"kernel-dot-small:{nv}")
    zero = Poly.zero(nv)
    assert dot(nv, []) == zero
    assert dot(nv, iter(())) == zero
    for _ in range(10):
        p = _random_poly(rng, nv, 6, 5, True)
        m = Poly.monomial(nv, tuple(rng.randint(0, 9) for _ in range(nv)), _coefficient(rng, True))
        c = Poly.const(nv, _coefficient(rng, False))
        assert _check_dot(nv, [(zero, p), (p, zero), (zero, zero)]) == zero
        _check_dot(nv, [(m, p)])
        _check_dot(nv, [(p, m), (c, p), (m, c), (zero, m)])
        _check_dot(nv, [(c, c), (m, m)])


def test_shared_operands_are_packed_once(monkeypatch):
    packs = []
    operand = polyring._operand

    def counting(p, width):
        packs.append(p)
        return operand(p, width)

    monkeypatch.setattr(polyring, "_operand", counting)
    rng = random.Random("kernel-dot-shared")
    for _ in range(10):
        a = _random_poly(rng, 2, 6, 6, True)
        b = _random_poly(rng, 2, 6, 6, False)
        c = _random_poly(rng, 2, 4, 3, True)
        pairs = [(a, b), (b, a), (a, a), (c, a), (a, c), (b, b)]
        packs.clear()
        got = dot(2, pairs)
        assert len(packs) == 3
        assert got == sum((x * y for x, y in pairs), Poly.zero(2))


@pytest.mark.parametrize("nv", [1, 2, 3, 4])
def test_sums_of_products_of_very_different_degree(nv):
    # one field width holds every product: pairs of total degree 1 or 2 next
    # to one of degree 64, 128 or 255, where the field of the small pair alone
    # would be one or two bits wide
    rng = random.Random(f"kernel-dot-width:{nv}")
    z = [Poly.variable(nv, j + 1) for j in range(nv)]
    for degree in (64, 128, 255):
        for _ in range(3):
            a = rng.randint(1, degree - 1)
            big = (z[rng.randrange(nv)] ** a + _random_poly(rng, nv, 3, 3, True),
                   z[rng.randrange(nv)] ** (degree - a) - _random_poly(rng, nv, 2, 3, False))
            small = [(z[0] + z[-1], z[-1] - Poly.const(nv, gr(Fraction(1, 3)))),
                     (Poly.const(nv, gr(2, 1)), z[0])]
            _check_dot(nv, small + [big] if rng.random() < 0.5 else [big] + small)


# -- dense residue classes ----------------------------------------------------
#
# Large products multiply each pair of dense residue classes of packed keys as
# two half-size big ints, the classes at 2^b and at -2^b, and the rest term by
# term.  These tests compare that path with the term-by-term loop on the same
# packed dicts, and Poly products with sympy.


def _p(text):
    return parse_poly(text, ("z1", "z2"))


def _packed(p: Poly, q: Poly):
    """The packed numerator dicts of p and q, in fields that hold p*q, each
    with its (real, imag) pair of int dicts."""
    width = _field_width(p.total_degree() + q.total_degree())
    return [(nums, ({k: c.real for k, c in nums.items() if c.real},
                    {k: c.imag for k, c in nums.items() if c.imag}))
            for nums in (_operand(p, width)[0], _operand(q, width)[0])]


def _nonzero(d: dict) -> dict:
    return {k: c for k, c in d.items() if c}


def _check_kernel(a: dict, b: dict):
    assert _nonzero(_int_mul(a, b)) == _nonzero(_dict_mul(a, b, {}))


@pytest.fixture
def dense_calls(monkeypatch):
    """Every call of _class_at_points, so that a silent fall-back to the
    term-by-term loop shows."""
    calls = []
    pack = polyring._class_at_points

    def counting(*args):
        calls.append(args)
        return pack(*args)

    monkeypatch.setattr(polyring, "_class_at_points", counting)
    return calls


def _power(binomial, k, extra="0"):
    return _p(binomial) ** k + _p(extra)


# weighted-homogeneous binomial powers: packed keys on one progression, with
# signs that alternate, a few terms off it, Gaussian parts, and factors whose
# products cancel to zero in most slots; None squares the left operand
DENSE_CASES = {
    "square": (("z1^3 - 2*z2^2", 70), None),
    "off-progression": (("z1^3 - 2*z2^2", 63, "z1*z2 - 7"), ("z1^3 - 2*z2^2", 70, "5*z1^2")),
    "cancelling": (("z1^3 - 2*z2^2", 64), ("z1^3 + 2*z2^2", 64)),
    "gaussian": (("z1^3 + (1+2*i)*z2^2", 63), ("3*z1^3 - i*z2^2", 130, "z2")),
    "gaussian-square": (("z1^3 + (1+2*i)*z2^2", 64, "i*z1"), None),
    "conjugate": (("z1^3 + i*z2^2", 130), ("z1^3 - i*z2^2", 130)),
    "fractions": (("1/3*z1^3 - 2/5*z2^2", 64), ("z1^3 + 1/7*z2^2", 64, "-1/2*z1")),
}


def _operands(case):
    left, right = DENSE_CASES[case]
    p = _power(*left)
    return p, (None if right is None else _power(*right))


@pytest.mark.parametrize("case", sorted(DENSE_CASES))
def test_dense_classes_match_the_dict_loop(case, dense_calls):
    p, q = _operands(case)
    (pn, (pr, pi)), (qn, (qr, qi)) = _packed(p, p if q is None else q)
    if q is None:
        qn, qr, qi = pn, pr, pi  # one dict object, as the squares of a power are
    for a in (pr, pi):
        for b in (qr, qi):
            if a and b:
                _check_kernel(a, b)
    assert dense_calls
    # the whole one-dict operands, Gaussian numerators and all, take the
    # dense path too
    dense_calls.clear()
    assert _nonzero(_mul(pn, qn)) == _nonzero(_dict_mul(pn, qn, {}))
    assert dense_calls


@pytest.mark.parametrize("case", sorted(DENSE_CASES))
def test_dense_products_match_sympy(case, dense_calls):
    p, q = _operands(case)
    zs = _symbols(2)
    if q is None:
        _assert_terms(p**2, _ring_terms(_ring_poly(p, zs) ** 2))
    else:
        _assert_terms(p * q, _ring_terms(_ring_poly(p, zs) * _ring_poly(q, zs)))
    assert dense_calls


def _progression(rng, step, count, lo, coefficient):
    """count terms on lo + j*step, filling all of their span or at least
    half of it."""
    keys = sorted(rng.sample(range(2 * count), count)) if rng.random() < 0.5 else range(count)
    return {lo + j * step: coefficient() for j in keys}


@pytest.mark.parametrize("seed", range(4))
def test_structured_operands_match_the_dict_loop(seed, dense_calls):
    # steps from 1 to 9000, one to three classes per operand, a few keys off
    # them, coefficients up to 900 bits of either sign, and squares
    rng = random.Random(f"kernel-dense:{seed}")
    for _ in range(25):
        step = rng.choice((1, 2, 3, 5, 64, 6142, rng.randint(1, 9000)))
        bits = rng.choice((1, 8, 63, 64, 200, 900))

        def coefficient():
            return rng.choice((-1, 1)) * rng.choice((rng.getrandbits(bits), (1 << bits) - 1, 0))

        def operand():
            d = {}
            for _ in range(rng.randint(1, 3)):
                d.update(_progression(rng, step, rng.randint(16, 150), rng.randrange(10**6), coefficient))
            for _ in range(rng.randint(0, 4)):
                d[rng.randrange(10**7)] = coefficient()
            return d

        a = operand()
        _check_kernel(a, a if rng.random() < 0.25 else operand())
    assert dense_calls


@pytest.mark.parametrize("nbits, sign", [(28, 1), (28, -1), (60, 1), (60, -1)])
def test_slots_at_their_width_hold_without_carry(nbits, sign, dense_calls):
    # 255 terms of +-(2^nbits - 1) on one progression: the middle slot of the
    # product is +-255*(2^nbits - 1)^2, within one bit of the slot's reach;
    # a slot needs 2*nbits + 8 + 1 bits, one past a whole byte, so a slot one
    # bit narrower is a byte narrower and carries
    top = (1 << nbits) - 1
    a = {j * 7 + 3: top for j in range(255)}
    b = {j * 7: sign * top for j in range(255)}
    _check_kernel(a, b)
    _check_kernel(a, a)
    assert max(map(abs, _int_mul(a, b).values())) == 255 * top * top
    assert dense_calls


@st.composite
def _dense_operands(draw, step, top):
    """Up to three residue classes mod ``step`` in key ranges of their own,
    each spanning up to 130 slots with at most a quarter of them empty, so
    that ``step`` stays the most common gap, and up to three keys in a class
    of their own; the first class holds 64 terms or more, so that two
    operands make _DENSE_MIN_WORK pairs, and the others 16 or more;
    nonzero coefficients of both signs, mostly +-top."""
    coefficient = st.sampled_from((top, -top)) | st.integers(1, top) | st.integers(-top, -1)
    residues = draw(st.lists(st.integers(0, step - 1), min_size=1, max_size=min(step, 4), unique=True))
    d = {}
    for j, r in enumerate(residues[:3]):
        least = 64 if j == 0 else polyring._DENSE_MIN_TERMS
        span = draw(st.integers(least, 130))
        holes = draw(st.sets(st.integers(1, span - 2), max_size=min(span - least, span // 4)))
        cs = draw(st.lists(coefficient, min_size=span, max_size=span))
        d.update({(j * 1000 + i) * step + r: c for i, c in enumerate(cs) if i not in holes})
    if len(residues) == 4:
        for _ in range(draw(st.integers(1, 3))):
            d[draw(st.integers(0, 10**4)) * step + residues[3]] = draw(coefficient)
    return d


def _kernel_inputs(data):
    """(top, draw of an operand) for one step and one coefficient width."""
    step = data.draw(st.sampled_from((1, 2, 7, 64)) | st.integers(1, 9000), label="step")
    top = (1 << data.draw(st.sampled_from((1, 28, 60, 64, 200)), label="bits")) - 1
    return top, (lambda: data.draw(_dense_operands(step, top)))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_two_point_products_match_the_dict_loop(data):
    # spans of both parities, so an output count span_a + span_b - 1 of each,
    # slots at their width's edge, and squares of one dict object
    _, operand = _kernel_inputs(data)
    a = operand()
    b = a if data.draw(st.booleans(), label="square") else operand()
    with mock.patch.object(polyring, "_class_at_points", wraps=polyring._class_at_points) as spy:
        _check_kernel(a, b)
    assert spy.called


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_gaussian_products_match_the_dict_loop(data):
    # three int products for two Gaussian operands, two for a Gaussian square
    top, operand = _kernel_inputs(data)

    def gaussian():
        return {k: polyring._zi(c, data.draw(st.integers(-top, top))) for k, c in operand().items()}

    a = gaussian()
    b = data.draw(st.sampled_from(("gaussian", "square", "real")), label="right")
    b = {"gaussian": gaussian, "square": lambda: a, "real": operand}[b]()
    if data.draw(st.booleans(), label="swap"):
        a, b = b, a
    with mock.patch.object(polyring, "_class_at_points", wraps=polyring._class_at_points) as spy:
        assert _nonzero(_mul(a, b)) == _nonzero(_dict_mul(a, b, {}))
    assert spy.called


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

# the real ones, whole and fractional, with the printer's special cases 1 and -1
real_coefficients = st.one_of(
    st.builds(GaussRat, _fraction(-10**6, 10**6)),
    st.sampled_from([GaussRat(1), GaussRat(-1)]),
)

NAME_SETS = [("z1",), ("z1", "z2"), ("x", "yy", "w_3"), ("alpha", "B2", "_t", "z10")]


@st.composite
def named_polys(draw, coefficients):
    names = draw(st.sampled_from(NAME_SETS))
    nv = len(names)
    # exponent 0 everywhere draws constants, and small exponents repeat
    # monomials, whose coefficients then add up or cancel
    exps = st.tuples(*[st.integers(min_value=0, max_value=12)] * nv)
    terms = draw(st.lists(st.tuples(exps, coefficients), max_size=10))
    return names, sum((Poly.monomial(nv, m, c) for m, c in terms), Poly.zero(nv))


@settings(max_examples=300, deadline=None)
@given(named_polys(real_coefficients))
def test_real_prints_take_the_fast_path(case):
    names, p = case
    fast = _check_fast_path(poly_to_string(p, names), names)
    assert fast is not None and fast == p


@settings(max_examples=200, deadline=None)
@given(named_polys(gauss_coefficients))
def test_gaussian_prints_go_to_the_parser(case):
    names, p = case
    assume(any(c.im for c in p.terms.values()))
    text = poly_to_string(p, names)
    assert _check_fast_path(text, names) is None
    assert parse_poly(text, names) == p


# the fast path reads no repeated monomial, no power of a number and no
# number after a power: the parser reads each of them
PARSER_ONLY = [
    "z1 + z1",
    "z1 - z1",
    "z1*z2 + z2*z1",
    "z1^2 + 3 - 1/2",
    "2^3*z1",
    "2^0",
    "z1*2",
    "z1*2*z2",
]


@pytest.mark.parametrize("text", PARSER_ONLY)
def test_other_texts_go_to_the_parser(text):
    assert _check_fast_path(text, ("z1", "z2")) is None


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
