"""Exact sparse polynomial arithmetic over the Gaussian rationals.

A coefficient is a :class:`GaussRat`, a pair of `fractions.Fraction` values
(real and imaginary part of an element of Q(i)).  A monomial is a plain tuple
of non-negative integer exponents, one slot per variable.  These are what
the API takes and gives: a :class:`Poly` is built from monomials and
GaussRats, and ``leading``, ``constant_value`` and the read-only ``terms``
view give them back.  All operations are exact -- there is no floating point
anywhere in this package.

A Poly stores one form, the product kernel's (see "the integer product
kernel" below): each exponent tuple packed into one int, and the
coefficients as numerators over their least common denominator in one dict
keyed by packed int, an int for a real coefficient and a Gaussian integer
otherwise, the numerators ``Divisors`` holds too.  Every constructor packs,
and sums, products, powers, scaling, derivatives, printing, equality and
hashing all work on the numerators, so a chain of rule steps builds no
Fraction.  The ``terms`` dict, one GaussRat per term, is built on its first
read and kept.  A large product splits the packed keys into residue classes
modulo their most common gap, multiplies each pair of dense classes as two
half-size big ints, the classes evaluated at +-2^b with a fixed-width slot
per key (two-point Kronecker substitution), the real and imaginary parts of
Gaussian numerators apart, and the remaining terms one by one.  A sum of products, ``dot``, takes each distinct operand once
at one field width and adds every product's numerators over one common
denominator; determinants and the multiplier rules' sums of products use
it.

A monomial order is its block splits: () for graded lex, (k,) for the
elimination order elim(k).  One function, ``_order_keys``, ranks monomials:
it maps packed monomials to ints whose integer order is the monomial order,
and leading terms, ``monic``, the printer and division all compare those.
Division, and with it ``groebner``'s normal forms and Buchberger's
algorithm, packs each divisor once on these keys (``Divisors``; see
"division on packed order keys" below).

``poly_to_string`` writes one canonical form: terms in graded-lex
descending order joined by `` + `` and `` - ``, each a coefficient
(``n``, ``n/d``, ``i``, ``q*i`` or ``(re+q*i)``) and powers ``name^e``
joined by ``*`` (see "parsing and printing" below for the grammar).
``parse_poly`` reads a real print with string splits and ``int`` straight
into the packed form, and hands every other text, Gaussian text with ``i``
included, to a recursive-descent parser, which alone raises ``ParseError``
with a position.  Since ``parse_poly`` reads every print back as its
polynomial, equal canonical text means an equal polynomial: the
certificate verifier checks a derived payload by printing the polynomial
its rule computes and comparing the text.  The parser charges the work of
each power and product of parenthesised factors before computing it and
refuses a text past ``MAX_PARSE_WORK``.

Variable indices in the public operations are 1-based (``differentiate(p, 1)``
differentiates with respect to the first variable).
"""

from __future__ import annotations

import heapq
import math
import operator
import re
from collections import Counter
from fractions import Fraction
from typing import Sequence

_F0 = Fraction(0)


class GaussRat:
    """A Gaussian rational a + b*i with exact Fraction parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", re if isinstance(re, Fraction) else Fraction(re))
        object.__setattr__(self, "im", im if isinstance(im, Fraction) else Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussRat is immutable")

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        if isinstance(other, GaussRat):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        return hash((self.re, self.im))

    def __add__(self, other):
        return GaussRat(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return GaussRat(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return GaussRat(-self.re, -self.im)

    def __mul__(self, other):
        a, b = self.re, self.im
        c, d = other.re, other.im
        if not b and not d:
            # real-by-real is by far the common case
            return GaussRat(a * c, _F0)
        return GaussRat(a * c - b * d, a * d + b * c)

    def inverse(self):
        if not self:
            raise ZeroDivisionError("inverse of zero Gaussian rational")
        n = self.re * self.re + self.im * self.im
        return GaussRat(self.re / n, -self.im / n)

    def __truediv__(self, other):
        return self * other.inverse()

    def __repr__(self):
        if not self.im:
            return f"GaussRat({self.re})"
        return f"GaussRat({self.re}, {self.im})"


def _real(re: Fraction) -> GaussRat:
    """GaussRat(re) for a Fraction ``re``, without the conversion checks."""
    c = object.__new__(GaussRat)
    object.__setattr__(c, "re", re)
    object.__setattr__(c, "im", _F0)
    return c


GR_ZERO = GaussRat(0)
GR_ONE = GaussRat(1)
GR_I = GaussRat(0, 1)
# the units of Z[i], whose powers cycle with period 4
GAUSS_UNITS = (GR_ONE, -GR_ONE, GR_I, -GR_I)


def gr(re, im=0):
    """Shorthand constructor for a Gaussian rational."""
    return GaussRat(re, im)


def coefficient_bits(c: GaussRat) -> int:
    """Largest bit length of the numerators and denominators of c's parts
    in lowest terms."""
    return max(abs(c.re.numerator).bit_length(), c.re.denominator.bit_length(),
               abs(c.im.numerator).bit_length(), c.im.denominator.bit_length())


class _GaussInt:
    """A Gaussian integer real + imag*i, imag != 0, the numerator of a
    coefficient that is not real.  It mixes with ints in +, * and // by an
    int, since ints have ``real``, ``imag`` and ``conjugate`` too, and a
    result with no imaginary part is an int; so it never equals an int."""

    __slots__ = ("real", "imag")

    def __init__(self, real: int, imag: int):
        self.real, self.imag = real, imag

    def __eq__(self, other):
        return type(other) is _GaussInt and self.real == other.real and self.imag == other.imag

    def __hash__(self):
        return hash((self.real, self.imag))

    def __neg__(self):
        return _GaussInt(-self.real, -self.imag)

    def __add__(self, other):
        return _zi(self.real + other.real, self.imag + other.imag)

    def __mul__(self, other):
        a, b, c, d = self.real, self.imag, other.real, other.imag
        return _zi(a * c - b * d, a * d + b * c)

    def __floordiv__(self, n: int):
        return _GaussInt(self.real // n, self.imag // n)

    def conjugate(self):
        return _GaussInt(self.real, -self.imag)

    __radd__, __rmul__ = __add__, __mul__


def _zi(real: int, imag: int):
    return _GaussInt(real, imag) if imag else real


class Poly:
    """Sparse multivariate polynomial with GaussRat coefficients.

    ``Poly(nvars, terms)`` takes a dict mapping exponent tuples to
    coefficients, drops the zero ones and packs the rest.  ``_pk`` is
    (width, nums, den): a dict packed monomial -> nonzero numerator, an int
    or a _GaussInt, over ``den``, the least positive common denominator of
    the coefficients, each term's total degree within one field of
    ``width`` bits; the zero polynomial has an empty dict over 1.  ``terms``,
    the dict monomial -> GaussRat, is built from it on first read, and the
    total degree is kept once computed.  Instances are immutable: every
    operation returns a fresh Poly or an operand, and no code mutates a
    packed dict after construction.
    """

    __slots__ = ("nvars", "_pk", "_terms", "_degree")

    def __init__(self, nvars: int, terms: dict | None = None):
        clean = {}
        if terms:
            for mono, c in terms.items():
                if len(mono) != nvars:
                    raise ValueError(f"monomial {mono} does not have {nvars} slots")
                if not all(isinstance(e, int) and e >= 0 for e in mono):
                    raise ValueError(f"monomial {mono} has an exponent that is not a "
                                     "non-negative integer")
                if c:
                    clean[mono] = c
        self.nvars = nvars
        self._pk = _pack(clean, _field_width(max(map(sum, clean), default=0)))
        self._terms = self._degree = None

    @property
    def terms(self) -> dict:
        """The dict exponent tuple -> nonzero GaussRat; read-only."""
        terms = self._terms
        if terms is None:
            terms = self._terms = _unpack(self.nvars, *self._pk)
        return terms

    @staticmethod
    def zero(nvars: int) -> "Poly":
        return _new(nvars, 1, {}, 1)

    @staticmethod
    def const(nvars: int, c) -> "Poly":
        return Poly.monomial(nvars, (0,) * nvars, c)

    @staticmethod
    def one(nvars: int) -> "Poly":
        return _new(nvars, 1, {0: 1}, 1)

    @staticmethod
    def variable(nvars: int, index: int) -> "Poly":
        """The variable with 1-based ``index``."""
        if not 1 <= index <= nvars:
            raise ValueError(f"variable index {index} out of range 1..{nvars}")
        return _new(nvars, 1, {1 << (nvars - index): 1}, 1)

    @staticmethod
    def monomial(nvars: int, mono: tuple, c=GR_ONE) -> "Poly":
        return Poly(nvars, {tuple(mono): c if isinstance(c, GaussRat) else GaussRat(c)})

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._pk[1]

    def __bool__(self):
        return bool(self._pk[1])

    def is_constant(self) -> bool:
        return self._pk[1].keys() <= {0}

    def constant_value(self) -> GaussRat:
        _, nums, den = self._pk
        return _gauss(nums.get(0, 0), den)

    def is_unit(self) -> bool:
        """Nonzero constant."""
        return bool(self) and self.is_constant()

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        wa, na, da = self._pk
        wb, nb, db = other._pk
        if self.nvars != other.nvars or da != db or len(na) != len(nb):
            return False
        if wa != wb:
            na, _ = _operand(self, max(wa, wb))
            nb, _ = _operand(other, max(wa, wb))
        return na == nb

    def __hash__(self):
        # at the least width that holds the degree: equal Polys of other
        # widths hash alike
        nums, den = _operand(self, _field_width(self.total_degree()))
        return hash((self.nvars, den, frozenset(nums.items())))

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        return _sum(self, other, 1)

    def __sub__(self, other: "Poly") -> "Poly":
        return _sum(self, other, -1)

    def __neg__(self) -> "Poly":
        width, nums, den = self._pk
        return _new(self.nvars, width, {k: -c for k, c in nums.items()}, den, self._degree)

    def scale(self, c: GaussRat) -> "Poly":
        if not isinstance(c, GaussRat):
            c = GaussRat(c)
        if not c or not self:
            return Poly.zero(self.nvars)
        # c = z/cd, z a Gaussian integer, times each numerator
        cd = math.lcm(c.re.denominator, c.im.denominator)
        z = _zi(c.re.numerator * (cd // c.re.denominator), c.im.numerator * (cd // c.im.denominator))
        width, nums, den = self._pk
        return _packed(self.nvars, width, {k: v * z for k, v in nums.items()}, den * cd, self._degree)

    def mul_term(self, mono: tuple, c: GaussRat) -> "Poly":
        return _product(self, Poly.monomial(self.nvars, mono, c))

    def __mul__(self, other: "Poly") -> "Poly":
        return _product(self, other)

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        if n == 0:
            return Poly.one(self.nvars)
        if not self:
            return self
        degree = self.total_degree() * n
        width = _width_for(degree, (self,))
        base, den = _operand(self, width)
        den = den ** n
        result = None
        while True:
            if n & 1:
                result = base if result is None else _mul(result, base)
            n >>= 1
            if not n:
                break
            base = _mul(base, base)
        return _packed(self.nvars, width, result, den, degree)

    # -- structure ----------------------------------------------------------

    def total_degree(self) -> int:
        """Max total degree of a term; -1 for the zero polynomial."""
        degree = self._degree
        if degree is None:
            width, nums, _ = self._pk
            degree = _max_degree(nums, width) if nums else -1
            self._degree = degree
        return degree

    def term_count(self) -> int:
        """len(self.terms), without building the terms."""
        return len(self._pk[1])

    def leading(self, splits: tuple = ()):
        """(monomial, coefficient) of the largest term under the order of
        block boundaries ``splits`` (see :func:`_order_keys`)."""
        if not self:
            raise ValueError("zero polynomial has no leading term")
        width, nums, den = self._pk
        k = _leading_key(self, splits)
        return _unpacker(self.nvars, width)(k), _gauss(nums[k], den)

    def monic(self, splits: tuple = ()) -> "Poly":
        """Scale so the leading coefficient under ``splits`` is 1; self when
        it already is."""
        if not self:
            return self
        width, nums, den = self._pk
        c = nums[_leading_key(self, splits)]
        if type(c) is not int:
            return self.scale(_gauss(c, den).inverse())
        if c == den:
            return self
        # dividing by c/den leaves the numerators over c, its sign moved up
        if c < 0:
            nums, c = {k: -v for k, v in nums.items()}, -c
        return _packed(self.nvars, width, nums, c, self._degree)

    def degree_in(self, index: int) -> int:
        """Degree in the 1-based variable ``index``; -1 for zero."""
        if not self:
            return -1
        width, nums, _ = self._pk
        shift, mask = width * (self.nvars - index), (1 << width) - 1
        return max((k >> shift) & mask for k in nums)

    def coefficients_in(self, index: int) -> list:
        """Dense coefficient list [c_0, ..., c_d] with respect to variable
        ``index``; each c_k is a Poly not involving that variable."""
        width, nums, den = self._pk
        shift, mask = width * (self.nvars - index), (1 << width) - 1
        buckets = [{} for _ in range(self.degree_in(index) + 1)]
        for k, c in nums.items():
            e = (k >> shift) & mask
            buckets[e][k - (e << shift)] = c
        return [_packed(self.nvars, width, b, den) for b in buckets]

    def compose(self, subs: Sequence["Poly"]) -> "Poly":
        """Substitute subs[k] for the (k+1)-th variable.

        The substituted polynomials must all share one ring; the result lives
        there.  Powers are cached per variable, so composing a polynomial that
        is dense in one variable stays cheap, and the terms are summed as one
        ``dot`` of constants and products of powers.
        """
        if len(subs) != self.nvars:
            raise ValueError("need one substitution per variable")
        if not subs:
            raise ValueError("cannot compose in a ring with no variables")
        target_n = subs[0].nvars
        one = Poly.one(target_n)
        caches: list[dict[int, Poly]] = [{1: s} for s in subs]

        def power(k: int, e: int) -> Poly:
            cache = caches[k]
            got = cache.get(e)
            if got is None:
                got = cache[1] ** e
                cache[e] = got
            return got

        pairs = []
        for mono, c in self.terms.items():
            piece = one
            for k, e in enumerate(mono):
                if e:
                    piece = power(k, e) if piece is one else piece * power(k, e)
            pairs.append((Poly.const(target_n, c), piece))
        return dot(target_n, pairs)

    def remap(self, nvars: int, places: Sequence[int | None]) -> "Poly":
        """The polynomial in a ring of ``nvars`` variables, the (k+1)-th
        variable moved to the 1-based index ``places[k]``.  Where
        ``places[k]`` is None, every term that uses that variable is dropped.
        """
        if len(places) != self.nvars:
            raise ValueError("need one place per variable")
        moved = [(k, t - 1) for k, t in enumerate(places) if t is not None]
        targets = [t for _, t in moved]
        if len(set(targets)) != len(targets) or not all(0 <= t < nvars for t in targets):
            raise ValueError(f"places must be distinct indices in 1..{nvars}")
        width, nums, den = self._pk
        mask = (1 << width) - 1
        shifts = [width * (self.nvars - 1 - k) for k in range(self.nvars)]
        moves = [(shifts[k], width * (nvars - 1 - t)) for k, t in moved]
        dropped = sum(mask << shifts[k] for k, t in enumerate(places) if t is None)
        # the total degree of a kept term is unchanged, so the width holds it
        return _packed(nvars, width, {sum(((k >> a) & mask) << b for a, b in moves): c
                                      for k, c in nums.items() if not k & dropped}, den)

    def __repr__(self):
        return f"Poly({self.nvars}, {poly_to_string(self, default_names(self.nvars))!r})"


# ---------------------------------------------------------------------------
# the integer product kernel
#
# A Poly is held on packed integers.  An exponent tuple becomes one int, its
# exponents side by side in fields of ``width`` bits (the first variable in
# the highest field), so that adding two packed ints multiplies the
# monomials while no field overflows.  A constructor takes the width from
# the total degree, which bounds each exponent, and a product from the total
# degree of the result.  The coefficients are numerators over their least
# common denominator, in one dict keyed by packed int: an int for a real
# coefficient and a _GaussInt otherwise, and a product is accumulated and
# kept there.  An operand whose width differs from the product's has its
# keys repacked, and the width never shrinks below an operand's, since a
# wider field holds the same monomials and leaves every product unchanged;
# so a derivative or a sum that cancels its top terms may keep a wider field
# than its degree needs.  A shift by a monomial is a product with a one-term
# Poly, and a scaling multiplies the numerators and the denominator.
#
# Small products loop over pairs of terms, Gaussian numerators included.  A
# large one runs on int dicts: a Gaussian operand splits into its real and
# imaginary parts, and three int products make the product of two Gaussian
# operands, two a Gaussian square.  In each, the keys of a
# weighted-homogeneous operand lie on a few arithmetic progressions: with
# ``step`` the most common gap between the smaller operand's sorted keys,
# both operands split into residue classes mod ``step``.  A class of at
# least _DENSE_MIN_TERMS terms that fills at least half of its span is a
# polynomial F(y) = sum(c_i y^i), c_i the coefficient of key lo + i*step, and
# a pair of them multiplies by two-point Kronecker substitution (D. Harvey,
# "Faster polynomial multiplication via multipoint Kronecker substitution",
# J. Symbolic Comput. 44, 2009).  Every coefficient of a product F*G is a sum
# of at most len(a) products of coefficients below 2^ba and 2^bb, so a slot
# of B = ba + bb + bits(len(a)) + 1 bits, rounded up to whole bytes, holds it
# with a sign bit to spare.  Packed at that width, the even- and odd-index
# coefficients of F are ints Fe and Fo, F(y) = Fe(y^2) + y*Fo(y^2) at
# y^2 = 2^B, and with b = B/2 the class is evaluated at y = +-2^b as
# Fe +- (Fo << b).  The two products P+ = F(2^b)G(2^b) and P- = F(-2^b)G(-2^b)
# are each half the size of F(2^B)G(2^B), and since (y^2)^j = 2^(B*j),
# (P+ + P-)/2 is the even-index half of F*G and (P+ - P-)/2^(b+1) the odd one,
# each a polynomial in 2^B whose coefficients fill their slots without a
# carry: both shifts are exact, and adding 2^(B-1) to each slot of a half
# makes all of them non-negative without a borrow, so the slots are read back
# from its bytes.  A dense 2-D image of the same operands would be mostly
# empty slots, which is why each class is packed on its own.

# Below these sizes (terms of the smaller operand, and pairs of terms) a
# product multiplies term by term, and so does a residue class of fewer terms
_DENSE_MIN_TERMS = 16
_DENSE_MIN_WORK = 4096


def _field_width(degree: int) -> int:
    """Bits per exponent field that hold every exponent up to ``degree``."""
    return max(degree, 1).bit_length()


def _pack(terms: dict, width: int) -> tuple:
    """The packed form (width, nums, den) of a dict exponent tuple ->
    nonzero GaussRat whose total degrees fit in ``width`` bits."""
    den = 1
    for c in terms.values():
        if c.re.denominator != 1 or c.im.denominator != 1:
            den = math.lcm(den, c.re.denominator, c.im.denominator)
    nums = {}
    for mono, c in terms.items():
        key = 0
        for e in mono:
            key = (key << width) | e
        nums[key] = _zi(c.re.numerator * (den // c.re.denominator),
                        c.im.numerator * (den // c.im.denominator))
    return width, nums, den


def _mul(a: dict, b: dict) -> dict:
    """Product of two packed numerator dicts, int or _GaussInt values, as a
    fresh dict; zero entries may remain.  Small operands multiply term by
    term; in large ones the int parts go to _int_mul, three products for two
    Gaussian operands and two for a Gaussian square."""
    if min(len(a), len(b)) < _DENSE_MIN_TERMS or len(a) * len(b) < _DENSE_MIN_WORK:
        return _dict_mul(a, b, {})
    ar, ai = _parts(a)
    br, bi = (ar, ai) if b is a else _parts(b)
    if not (ai or bi):
        return _int_mul(ar, br)
    if b is a:
        # (ar + ai*i)^2 = (ar + ai)(ar - ai) + 2*ar*ai*i
        out = _int_mul(_add_into(dict(ar), ai, 1), _add_into(dict(ar), ai, -1))
        im = _add_into({}, _int_mul(ar, ai), 2)
    elif ai and bi:
        # the imaginary part is (ar + ai)(br + bi) - ar*br - ai*bi
        out, ii = _int_mul(ar, br), _int_mul(ai, bi)
        im = _int_mul(_add_into(dict(ar), ai, 1), _add_into(dict(br), bi, 1))
        _add_into(_add_into(im, out, -1), ii, -1)
        _add_into(out, ii, -1)
    else:
        out = _int_mul(ar, br)
        im = _int_mul(ai, br) if ai else _int_mul(ar, bi)
    for k, c in im.items():
        out[k] = _zi(out.get(k, 0), c)
    return out


def _parts(nums: dict) -> tuple:
    """(real, imag): the int dicts of the nonzero real and imaginary parts
    of ``nums``; ``nums`` itself and {} when every value is an int."""
    if all(type(c) is int for c in nums.values()):
        return nums, {}
    return ({k: c.real for k, c in nums.items() if c.real},
            {k: c.imag for k, c in nums.items() if c.imag})


def _int_mul(a: dict, b: dict) -> dict:
    """Product of two packed integer polynomials; zero entries may remain.

    Small operands, and the terms outside dense residue classes, multiply
    term by term; each pair of dense classes multiplies as two half-size big
    ints, the classes at 2^b and at -2^b."""
    if len(a) > len(b):
        a, b = b, a
    if len(a) < _DENSE_MIN_TERMS or len(a) * len(b) < _DENSE_MIN_WORK:
        return _dict_mul(a, b, {})
    keys = sorted(a)
    step = Counter(map(operator.sub, keys[1:], keys)).most_common(1)[0][0]
    dense_a, rest_a = _dense_classes(a, step)
    dense_b, rest_b = (dense_a, rest_a) if b is a else _dense_classes(b, step)
    if not dense_a or not dense_b:
        return _dict_mul(a, b, {})
    bits = (
        max(abs(c) for _, _, m in dense_a for _, c in m).bit_length()
        + max(abs(c) for _, _, m in dense_b for _, c in m).bit_length()
        + len(a).bit_length() + 1
    )
    nb = (bits + 7) // 8
    points_a = [_class_at_points(m, lo, span, step, nb) for lo, span, m in dense_a]
    points_b = points_a if b is a else [
        _class_at_points(m, lo, span, step, nb) for lo, span, m in dense_b
    ]
    out = _dict_mul(rest_a, b, {})
    if rest_b:
        _dict_mul(rest_b, {k: c for _, _, m in dense_a for k, c in m}, out)
    half = 1 << (8 * nb - 1)
    half_bytes = half.to_bytes(nb, "little")
    shift = 4 * nb + 1
    get = out.get
    from_bytes = int.from_bytes
    for (lo_a, span_a, _), (plus_a, minus_a) in zip(dense_a, points_a):
        for (lo_b, span_b, _), (plus_b, minus_b) in zip(dense_b, points_b):
            n = span_a + span_b - 1
            plus, minus = plus_a * plus_b, minus_a * minus_b
            halves = (plus + minus) >> 1, (plus - minus) >> shift
            del plus, minus
            for h, z in enumerate(halves):
                count = (n + 1 - h) // 2
                # the bias lifts every slot into [0, 2^(8 nb)): no slot borrows
                raw = (z + from_bytes(half_bytes * count, "little")).to_bytes(count * nb, "little")
                k = lo_a + lo_b + h * step
                for i in range(0, count * nb, nb):
                    c = from_bytes(raw[i:i + nb], "little") - half
                    if c:
                        out[k] = get(k, 0) + c
                    k += 2 * step
    return out


def _dict_mul(a: dict, b: dict, out: dict) -> dict:
    """out + a*b term by term, updating out in place; the values may be
    ints or _GaussInts."""
    get = out.get
    b_items = list(b.items())
    for ka, ca in a.items():
        for kb, cb in b_items:
            k = ka + kb
            out[k] = get(k, 0) + ca * cb
    return out


def _dense_classes(terms: dict, step: int):
    """(dense, rest): the residue classes of the keys mod ``step`` that hold
    at least _DENSE_MIN_TERMS terms and fill at least half of their span,
    each as (lowest key, span in steps, [(key, coefficient)]), and a dict of
    every other term."""
    classes: dict = {}
    for k, c in terms.items():
        classes.setdefault(k % step, []).append((k, c))
    dense, rest = [], {}
    for members in classes.values():
        lo = min(members)[0]
        span = (max(members)[0] - lo) // step + 1
        if len(members) >= _DENSE_MIN_TERMS and span <= 2 * len(members):
            dense.append((lo, span, members))
        else:
            rest.update(members)
    return dense, rest


def _class_at_points(members: list, lo: int, span: int, step: int, nb: int) -> tuple:
    """(F(2^b), F(-2^b)) for the class as the polynomial F(y) = sum(c_i y^i),
    c_i the coefficient of key lo + i*step and b = 4*nb: its even- and
    odd-index coefficients each packed in slots of ``nb`` bytes, Fe and Fo,
    give Fe + (Fo << b) and Fe - (Fo << b)."""
    zero = bytes(nb)
    pos, neg = [zero] * span, [zero] * span
    for k, c in members:
        if c > 0:
            pos[(k - lo) // step] = c.to_bytes(nb, "little")
        elif c < 0:
            neg[(k - lo) // step] = (-c).to_bytes(nb, "little")
    even, odd = (int.from_bytes(b"".join(pos[h::2]), "little")
                 - int.from_bytes(b"".join(neg[h::2]), "little") for h in (0, 1))
    odd <<= 4 * nb
    return even + odd, even - odd


def _add_into(x: dict, y: dict, sign: int) -> dict:
    """x + sign*y, updating x in place."""
    get = x.get
    for k, c in y.items():
        x[k] = get(k, 0) + sign * c
    return x


def _unpacker(nvars: int, width: int):
    """The map from a packed key back to its exponent tuple."""
    mask = (1 << width) - 1
    shifts = [width * (nvars - 1 - j) for j in range(nvars)]
    return lambda key: tuple((key >> s) & mask for s in shifts)


def _unpack(nvars: int, width: int, nums: dict, den: int) -> dict:
    """The term dict of a packed numerator dict over ``den``, which holds no
    zero entry."""
    mono = _unpacker(nvars, width)
    return {mono(key): _gauss(c, den) for key, c in nums.items()}


def _new(nvars: int, width: int, nums: dict, den: int, degree=None) -> Poly:
    # trusted constructor: the dict already meets the conditions of Poly._pk,
    # and ``degree`` is the total degree or None
    p = object.__new__(Poly)
    p.nvars = nvars
    p._pk = (width, nums, den)
    p._terms = None
    p._degree = degree
    return p


def _packed(nvars: int, width: int, nums: dict, den: int, degree=None) -> Poly:
    """The Poly of a packed numerator dict over a common denominator
    ``den``, which may hold zero entries, and of total degree ``degree``
    when it is known and the Poly is not zero.  A factor shared by ``den``
    and every numerator is divided out, which leaves the least common
    denominator."""
    if 0 in nums.values():
        nums = {k: c for k, c in nums.items() if c}
    if not nums:
        return Poly.zero(nvars)
    if den != 1:
        g = den
        for c in nums.values():
            g = math.gcd(g, c.real, c.imag)
            if g == 1:
                break
        else:
            nums = {k: c // g for k, c in nums.items()}
            den //= g
    return _new(nvars, width, nums, den, degree)


def _gauss(c, den: int) -> GaussRat:
    """The GaussRat c/den of an int or _GaussInt numerator c."""
    if type(c) is int:
        return _real(Fraction(c, den)) if c else GR_ZERO
    return GaussRat(Fraction(c.real, den), Fraction(c.imag, den))


def _max_degree(part: dict, width: int) -> int:
    """Largest total degree of a key of ``part``, 0 when it is empty.  A
    key is congruent to the sum of its fields mod 2^width - 1, and that sum
    is at most 2^width - 1, so a nonzero key's total degree is
    (key - 1) mod (2^width - 1) + 1."""
    top = (1 << width) - 1
    return max([(k - 1) % top for k in part if k], default=-1) + 1


def _order_keys(keys, width: int, nvars: int, splits: tuple = ()) -> list:
    """The order key of each monomial packed at ``width``: an int whose
    integer order is the monomial order of block boundaries ``splits``,
    graded lex within each block and the first block dominant; () is graded
    lex, (k,) elim(k).  Each block gives its degree, the sum of its fields
    (see _max_degree), and then its exponents, one field of ``width`` bits
    each.  Under graded lex that is the key with its degree above it."""
    top = (1 << width) - 1
    if not splits:
        span = width * nvars
        return [(((k - 1) % top + 1) << span) | k if k else 0 for k in keys]
    keys = list(keys)
    out = [0] * len(keys)
    bounds = [min(s, nvars) for s in splits]
    for a, b in zip((0, *bounds), (*bounds, nvars)):
        mask, at = (1 << width * (b - a)) - 1, width * (nvars - b)
        span = width * (b - a)
        out = [(o << width | ((e - 1) % top + 1 if e else 0)) << span | e
               for o, e in zip(out, [(k >> at) & mask for k in keys])]
    return out


def _leading_key(p: Poly, splits: tuple) -> int:
    """The packed key of the largest term of a nonzero p under ``splits``."""
    width, nums, _ = p._pk
    keys = list(nums)
    ranks = _order_keys(keys, width, p.nvars, splits)
    return keys[ranks.index(max(ranks))]


def _width_for(degree: int, polys) -> int:
    """The field width that holds ``degree`` and the packed forms of
    ``polys`` as they are: a wider field changes no product."""
    return max(_field_width(degree), *(p._pk[0] for p in polys))


def _operand(p: Poly, width: int):
    """(nums, den) of p in fields of ``width`` bits, which hold its total
    degree: its packed form, with the keys repacked when that width
    differs."""
    w, nums, den = p._pk
    return (nums if w == width else _repack(nums, p.nvars, w, width)), den


def _sum(a: Poly, b: Poly, sign: int) -> Poly:
    """a + sign*b, sign 1 or -1, over the lcm of the two denominators at the
    wider of the two widths, which holds every degree of the sum."""
    if not b:
        return a
    if not a:
        return b if sign > 0 else -b
    width = max(a._pk[0], b._pk[0])
    na, da = _operand(a, width)
    nb, db = _operand(b, width)
    den = math.lcm(da, db)
    scale = den // da
    nums = _add_into({k: c * scale for k, c in na.items()}, nb, sign * (den // db))
    return _packed(a.nvars, width, nums, den)


def _product(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return Poly.zero(a.nvars)
    degree = a.total_degree() + b.total_degree()
    width = max(_field_width(degree), a._pk[0], b._pk[0])
    na, da = _operand(a, width)
    nb, db = _operand(b, width)
    # the product of the leading terms leads, so the degrees add
    return _packed(a.nvars, width, _mul(na, nb), da * db, degree)


def _repack(part: dict, nvars: int, old: int, new: int) -> dict:
    """``part`` with each key's fields moved from ``old`` to ``new`` bits."""
    if nvars == 1 or not part:
        return part
    mask = (1 << old) - 1
    if nvars == 2:
        return {((k >> old) << new) | (k & mask): c for k, c in part.items()}
    moves = [(old * j, new * j) for j in range(nvars)]
    out = {}
    for k, c in part.items():
        key = 0
        for a, b in moves:
            key |= ((k >> a) & mask) << b
        out[key] = c
    return out


def dot(nvars: int, pairs) -> Poly:
    """sum(a * b for a, b in pairs), the zero of ``nvars`` variables when
    there is no pair, as one sum of products in the integer kernel.

    Each distinct operand object is repacked at most once, to one field width
    that holds every product; each product's numerators are scaled to one common
    denominator and added in the packed dicts, and the sum stays packed, so
    no product builds Fractions of its own."""
    return _signed_dot(nvars, [(a, b, 1) for a, b in pairs])


def _signed_dot(nvars: int, triples) -> Poly:
    """sum(sign * a * b for a, b, sign in triples), each sign 1 or -1 folded
    into the scale of that product's numerators."""
    triples = [t for t in triples if t[0] and t[1]]
    if not triples:
        return Poly.zero(nvars)
    width = _width_for(max(a.total_degree() + b.total_degree() for a, b, _ in triples),
                       [p for a, b, _ in triples for p in (a, b)])
    packed: dict = {}
    products = []
    for a, b, sign in triples:
        for p in (a, b):
            if id(p) not in packed:
                packed[id(p)] = _operand(p, width)
        (na, da), (nb, db) = packed[id(a)], packed[id(b)]
        products.append((_mul(na, nb), da * db, sign))
    den = math.lcm(*(d for _, d, _ in products))
    nums: dict = {}
    for product, d, sign in products:
        _add_into(nums, product, sign * (den // d))
    return _packed(nvars, width, nums, den)


def _gauss_pow(c: GaussRat, n: int) -> GaussRat:
    result = None
    while n:
        if n & 1:
            result = c if result is None else result * c
        n >>= 1
        if n:
            c = c * c
    return GR_ONE if result is None else result


# ---------------------------------------------------------------------------
# gcds with a monomial, in closed form

def monomial_gcd(p: Poly, q: Poly):
    """gcd(p, q) over Q(i)[z], monic, when both are nonzero and one is a
    single term c*z^a; else None.  Every divisor of c*z^a is a unit times a
    monomial, so the gcd is z^b, with b_j the least exponent of z_j over
    the terms of p and q."""
    if p.nvars != q.nvars:
        raise ValueError("operands live in different rings")
    if not p or not q or (p.term_count() != 1 and q.term_count() != 1):
        return None
    low = None
    for r in (p, q):
        width, nums, _ = r._pk
        mono = _unpacker(r.nvars, width)
        for key in nums:
            low = mono(key) if low is None else tuple(map(min, low, mono(key)))
    degree = sum(low)
    width = _field_width(degree)
    key = sum(e << width * j for j, e in enumerate(reversed(low)))
    return _new(p.nvars, width, {key: 1}, 1, degree)


# ---------------------------------------------------------------------------
# the heuristic integer gcd
#
# GCDHEU (Char, Geddes & Gonnet, J. Symb. Comput. 1989; Liao & Fateman,
# ISSAC 1995) on the packed integer dicts of the product kernel.  At k
# variables the keys use the k lowest fields, the current (first remaining)
# variable in the top one.  Each field has one bit more than the inputs'
# degree needs: headroom for candidate exponents.  Interpolation writes a
# candidate's top field unmasked, and it may exceed d = min(deg f, deg g).
# A candidate whose top exponent is at most d has fields that sum to at most
# 2d < 2^width - 1, so _max_degree reads its total degree exactly, and a
# candidate with a term above d is refused before it is packed as a Poly.
# The others are certified by trial division in the one division loop,
# ``Divisors``.

# xi growth steps per level before the heuristic gives up
_HEU_TRIES = 4


def heuristic_gcd(p: Poly, q: Poly):
    """gcd(p, q) over Q[z], monic in graded lex, or None.

    None means the heuristic did not answer: some coefficient is not real,
    or no evaluation point gave a candidate that survived the degree check
    and trial division.
    An answer is exact: every candidate is certified by exact division of
    both inputs, and at each level xi >= 2*min(|f|, |g|) + 2 (max norms)
    makes a certified candidate the gcd (Char, Geddes & Gonnet 1989).
    """
    if p.nvars != q.nvars:
        raise ValueError("operands live in different rings")
    if not p:
        return q.monic()
    if not q:
        return p.monic()
    if any(type(c) is not int for r in (p, q) for c in r._pk[1].values()):
        return None
    nv = p.nvars
    width = _field_width(max(p.total_degree(), q.total_degree())) + 1
    f, _ = _operand(p, width)
    g, _ = _operand(q, width)
    h = _heu_gcd(_primitive(f), _primitive(g), nv, width)
    return None if h is None else _new(nv, width, h, 1).monic()


def _int_content(f: dict) -> int:
    """The gcd of the integer parts of f's int or _GaussInt values."""
    c = 0
    for v in f.values():
        c = math.gcd(c, v.real, v.imag)
        if c == 1:
            break
    return c


def _primitive(f: dict) -> dict:
    c = _int_content(f)
    return f if c == 1 else {m: v // c for m, v in f.items()}


def _heu_gcd(f: dict, g: dict, k: int, width: int):
    """gcd of the primitive f and g in k variables, primitive, or None."""
    if k == 0:
        return {0: 1}
    shift = width * (k - 1)
    low = (1 << shift) - 1
    bound = min(_max_degree(f, width), _max_degree(g, width))
    xi = 2 * min(max(map(abs, f.values())), max(map(abs, g.values()))) + 2
    for _ in range(_HEU_TRIES):
        ff = _eval_top(f, xi, shift, low)
        gg = _eval_top(g, xi, shift, low)
        if ff and gg:
            inner = _heu_gcd(_primitive(ff), _primitive(gg), k - 1, width)
            if inner is None:
                return None
            c = math.gcd(_int_content(ff), _int_content(gg))
            h = _primitive(_interpolate(inner, c, xi, shift))
            if max(h) >> shift <= bound and _max_degree(h, width) <= bound:
                d = Divisors(k, (), [_new(k, width, h, 1)])
                if all(d.divide(_new(k, width, p, 1), False)[1].is_zero() for p in (f, g)):
                    return h
        xi = 2 * xi + xi.bit_length()
    return None


def _eval_top(f: dict, xi: int, shift: int, low: int) -> dict:
    """f with its top variable set to xi."""
    powers = [1]
    out: dict = {}
    get = out.get
    for key, c in f.items():
        e = key >> shift
        while len(powers) <= e:
            powers.append(powers[-1] * xi)
        rest = key & low
        out[rest] = get(rest, 0) + c * powers[e]
    # xi only bounds the smaller operand, so the other's image may cancel
    return {m: c for m, c in out.items() if c}


def _interpolate(gamma: dict, c: int, xi: int, shift: int) -> dict:
    """The polynomial whose top variable at xi is c*gamma: each coefficient
    expanded in base xi with digits in (-xi/2, xi/2]."""
    out = {}
    half = xi // 2
    for rest, v in gamma.items():
        v *= c
        e = 0
        while v:
            d = v % xi
            if d > half:
                d -= xi
            if d:
                out[(e << shift) | rest] = d
            v = (v - d) // xi
            e += 1
    return out


# ---------------------------------------------------------------------------
# calculus operations on polynomials

def differentiate(p: Poly, var_index: int) -> Poly:
    """Formal partial derivative with respect to the 1-based ``var_index``,
    taken on the packed form at its width."""
    nvars = p.nvars
    if not 1 <= var_index <= nvars:
        raise ValueError(f"variable index {var_index} out of range 1..{nvars}")
    if not p:
        return Poly.zero(nvars)
    width, nums, den = p._pk
    shift = width * (nvars - var_index)
    mask = (1 << width) - 1
    one = 1 << shift
    # lowering one exponent keeps distinct monomials distinct, and c*e != 0
    return _packed(nvars, width, {k - one: c * e for k, c in nums.items()
                                  if (e := (k >> shift) & mask)}, den)


def gradient(p: Poly) -> tuple:
    return tuple(differentiate(p, j + 1) for j in range(p.nvars))


def vanishing_order(p: Poly):
    """Minimum total degree of a term; math.inf for the zero polynomial."""
    if not p:
        return math.inf
    width, nums, _ = p._pk
    top = (1 << width) - 1
    return min((k - 1) % top + 1 if k else 0 for k in nums)


def poly_matrix_det(rows: Sequence[Sequence[Poly]]) -> Poly:
    """Determinant of a square matrix of polynomials by cofactor expansion."""
    n = len(rows)
    for r in rows:
        if len(r) != n:
            raise ValueError("determinant needs a square matrix")
    if n == 0:
        raise ValueError("determinant of an empty matrix")
    return _signed_det(rows, 1)


def _signed_det(rows, sign: int) -> Poly:
    """sign * det(rows) for a nonempty square matrix, each cofactor's sign
    folded into the sum of products rather than negating an entry."""
    n = len(rows)
    if n == 1:
        return rows[0][0] if sign > 0 else -rows[0][0]
    nv = rows[0][0].nvars
    if n == 2:
        return _signed_dot(nv, [(rows[0][0], rows[1][1], sign), (rows[0][1], rows[1][0], -sign)])
    triples = []
    for j in range(n):
        entry = rows[0][j]
        if entry.is_zero():
            continue
        minor = [[rows[i][k] for k in range(n) if k != j] for i in range(1, n)]
        triples.append((entry, _signed_det(minor, 1), -sign if j % 2 else sign))
    return _signed_dot(nv, triples)


def poly_matrix_adjugate(rows: Sequence[Sequence[Poly]]) -> list:
    """Adjugate matrix: adj[i][j] = (-1)^(i+j) * minor_det(j, i)."""
    n = len(rows)
    if n == 1:
        return [[Poly.one(rows[0][0].nvars)]]
    adj = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [
                [rows[r][c] for c in range(n) if c != i]
                for r in range(n)
                if r != j
            ]
            adj[i][j] = _signed_det(minor, -1 if (i + j) % 2 else 1)
    return adj


def jacobian_det(fs: Sequence[Poly]) -> Poly:
    """Determinant of the derivative matrix of n polynomials in n variables."""
    if not fs:
        raise ValueError("jacobian_det of an empty family")
    n = fs[0].nvars
    if len(fs) != n:
        raise ValueError(f"need exactly {n} polynomials in {n} variables, got {len(fs)}")
    rows = [[differentiate(f, j + 1) for j in range(n)] for f in fs]
    return poly_matrix_det(rows)


def equal_up_to_unit(p: Poly, q: Poly):
    """GaussRat c with p == c*q, or None.  Zero matches only zero (c = 1)."""
    if p.is_zero() and q.is_zero():
        return GR_ONE
    if p.is_zero() or q.is_zero():
        return None
    if p.term_count() != q.term_count():
        return None
    # c*q has q's leading monomial
    (mono, cp), (mono_q, cq) = p.leading(), q.leading()
    if mono != mono_q:
        return None
    ratio = cp / cq
    return ratio if p == q.scale(ratio) else None


# ---------------------------------------------------------------------------
# division on packed order keys
#
# A key is the monomial's order key (see _order_keys): per block of
# variables (one for grlex, two for elim(k)), the block's degree and then its
# exponents, the first variable highest, in fields whose top bit is a guard
# that no key sets: a product of monomials is a sum of keys, and l divides m
# exactly when m - l sets no guard bit.
# The degrees set the width, and bound every term met under grlex; under
# elim(k) the second block's degree can grow (z1^3 by z1 - z2^40 leaves
# z2^120), so a step that would set a guard bit repacks the divisors at
# twice the width and starts over.  Each divisor's leading key, leading
# coefficient and tail are packed once, and the terms left to reduce wait on
# a max-heap of keys (Johnson 1974; Monagan & Pearce, CASC 2007).  The
# coefficients are integer numerators, ints or _GaussInts, and division is
# pseudo-division (Knuth, TAOCP vol. 2, 4.6.1): to reduce a term c by a
# leading coefficient L, with u = conj(L) and n = L*u > 0, all terms are
# first scaled by n/g, g = gcd(n, c*u), so that the quotient c*u/g is integral.

class Divisors:
    """Nonzero polynomials ``polys`` packed once for division under the
    order of block boundaries ``splits``: () for grlex, (k,) for elim(k).
    Divisor i is an integer polynomial, its Poly's numerators over
    ``dens[i]``, with the leading key ``keys[i]`` and ``items[i]`` =
    (leading coefficient, tail [(key, -coefficient)])."""

    def __init__(self, nvars: int, splits: tuple, polys: Sequence[Poly]):
        self.nvars, self.splits = nvars, tuple(min(s, nvars) for s in splits)
        self.blocks = list(zip((0, *self.splits), (*self.splits, nvars)))
        self.keys, self.items, self.dens = [], [], []
        self._layout(_field_width(max((p.total_degree() for p in polys), default=0)) + 1)
        for p in polys:
            self._push(self.encode(p)[1], p._pk[2])

    def _layout(self, width: int) -> None:
        self.width, f = width, self.nvars + len(self.blocks)  # fields
        self.guards = sum(1 << (width * g + width - 1) for g in range(f))
        # per block: the shift of its exponents, which lie side by side as
        # in a monomial packed at this width, their mask, and their shift in
        # that monomial
        self.chunks = []
        for a, b in self.blocks:
            f -= 1 + b - a
            self.chunks.append((width * f, (1 << width * (b - a)) - 1, width * (self.nvars - b)))

    def _widen(self) -> None:
        """Repack every divisor at twice the width."""
        old, dens = self.width, self.dens
        whole = [{lead: lc, **{k: -c for k, c in tail}}
                 for lead, (lc, tail) in zip(self.keys, self.items)]
        self._layout(2 * old)
        self.keys, self.items, self.dens = [], [], []
        for work, den in zip(whole, dens):
            self._push(self._at_width([old, work]), den)

    def _at_width(self, value: list) -> dict:
        """The key dict of a [width, key dict] operand, repacked in place."""
        if value[0] != self.width:
            fields = self.nvars + len(self.blocks)
            value[:] = self.width, _repack(value[1], fields, value[0], self.width)
        return value[1]

    def _unkey(self, keys) -> list:
        """The packed monomials of order keys: a block's degree stays below
        half of a field's reach, so a total degree of at most two blocks
        fits in one field."""
        out = [0] * len(keys)
        for shift, mask, at in self.chunks:
            out = [m | ((k >> shift) & mask) << at for m, k in zip(out, keys)]
        return out

    def encode(self, p: Poly) -> list:
        """[width, p's numerators as a key dict of int or _GaussInt], the
        operand of :meth:`times`, widening until p's degree fits."""
        while p.total_degree() >= 1 << (self.width - 1):
            self._widen()
        nums, _ = _operand(p, self.width)
        return [self.width, dict(zip(_order_keys(nums, self.width, self.nvars, self.splits),
                                     nums.values()))]

    def poly(self, work: dict, den=1) -> Poly:
        """The Poly of work/den at this width, for a key dict of int or
        _GaussInt numerators and a nonzero int or _GaussInt den."""
        if type(den) is not int or den < 0:
            u = den.conjugate()
            den, work = den * u, {k: c * u for k, c in work.items()}
        return _packed(self.nvars, self.width, dict(zip(self._unkey(work), work.values())), den)

    def _push(self, work: dict, den: int) -> None:
        lead = max(work)
        self.keys.append(lead)
        self.items.append((work[lead], [(k, -c) for k, c in work.items() if k != lead]))
        self.dens.append(den)

    def add(self, work: dict) -> int:
        """Add the nonzero key dict ``work`` over its integer content as a
        divisor over 1, and return that content."""
        g = _int_content(work)
        self._push(work if g == 1 else {k: c // g for k, c in work.items()}, 1)
        return g

    def leading_monomial(self, i: int) -> tuple:
        return _unpacker(self.nvars, self.width)(self._unkey([self.keys[i]])[0])

    def divide(self, p: Poly, want_quotients: bool):
        """:func:`divide` of p by the divisors."""
        quots, rem, scale = self.reduce(lambda: self.encode(p)[1], want_quotients)
        den = scale * p._pk[2]
        if quots is not None:
            quots = [self.poly({k: c * d for k, c in q.items()}, den)
                     for q, d in zip(quots, self.dens)]
        return quots, self.poly(rem, den)

    def times(self, a: list, b: list):
        """The remainder of a*b up to a positive constant, or None when it
        is zero, for operands [width, key dict] as :meth:`encode` and this
        method give them: order keys add like monomials, so the product
        kernel multiplies them, widening when a product sets a guard bit."""
        def build():
            while True:
                work = _mul(self._at_width(a), self._at_width(b))
                if not any(k & self.guards for k in work):
                    return work
                self._widen()

        _, rem, scale = self.reduce(build, False)
        return [self.width, rem if scale == 1 else _primitive(rem)] if rem else None

    def s_poly(self, i: int, j: int, lcm: tuple) -> dict:
        """L_j*(lcm/m_i)*divisor_i - L_i*(lcm/m_j)*divisor_j, for divisors of
        leading monomials m_i, m_j and coefficients L_i, L_j, with zero
        coefficients left in."""
        top = 0
        for e in lcm:
            top = (top << self.width) | e
        top = _order_keys((top,), self.width, self.nvars, self.splits)[0]
        si, sj = top - self.keys[i], top - self.keys[j]
        a, b = -self.items[j][0], self.items[i][0]
        out = {k + si: a * c for k, c in self.items[i][1]}
        for k, c in self.items[j][1]:
            out[k + sj] = out.get(k + sj, 0) + b * c
        if any(k & self.guards for k in out):
            self._widen()
            return self.s_poly(i, j, lcm)
        return out

    def reduce(self, build, want_quotients: bool):
        """(quotients or None, remainder, scale) of the key dict d that
        ``build()`` returns: scale*d = sum(quotient_i * divisor_i) +
        remainder, scale a positive int.  Each term is reduced by the first
        divisor whose leading key divides it.  A term cancelled to zero
        stays in the dict until its key is popped.  Where a product would
        set a guard bit, it starts over at twice the width."""
        work, leads, divs, guards = build(), self.keys, self.items, self.guards
        quots = [{} for _ in divs] if want_quotients else None
        rem, scale = {}, 1
        heap = [-k for k in work]
        heapq.heapify(heap)
        pop, push = heapq.heappop, heapq.heappush
        while heap:
            m = -pop(heap)
            c = work.pop(m)
            if not c:
                continue
            for idx, lead in enumerate(leads):
                t = m - lead
                if not t & guards:
                    break
            else:
                rem[m] = c
                continue
            lc, tail = divs[idx]
            if lc != 1:
                u = lc.conjugate()
                n = lc * u
                c *= u
                g = math.gcd(n, c.real, c.imag)
                c, f = c // g, n // g
                if f != 1:
                    scale *= f
                    for part in (work, rem, *(quots or ())):
                        for k in part:
                            part[k] *= f
            if quots is not None:
                quots[idx][t] = c  # leading keys strictly decrease, so t is new here
            for k, bc in tail:
                k += t
                if k & guards:
                    self._widen()
                    return self.reduce(build, want_quotients)
                if k in work:
                    work[k] += bc * c
                else:
                    work[k] = bc * c
                    push(heap, -k)
        return quots, rem, scale


def divide(p: Poly, divisors: Sequence[Poly], splits: tuple, want_quotients: bool):
    """Multivariate division of p by the divisor list under the order of
    block boundaries ``splits``: () for grlex, (k,) for elim(k).

    Returns (quotients, remainder) with p == sum(q_i * divisors_i) + remainder
    and no remainder term divisible by any divisor's leading term; quotients
    is None unless ``want_quotients``.  Divisor selection is first-match in
    list order, so the quotients are deterministic even where the remainder
    alone would be.
    """
    return Divisors(p.nvars, splits, divisors).divide(p, want_quotients)


def exact_divide(p: Poly, d: Poly):
    """Quotient q with p == q*d, or None when d does not divide p exactly.

    (d) has the Groebner basis {d}, so the remainder of dividing by d alone
    is zero exactly when d divides p.
    """
    if d.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    quots, rem = divide(p, [d], (), True)
    return quots[0] if rem.is_zero() else None


# ---------------------------------------------------------------------------
# parsing and printing
#
# ``poly_to_string`` writes one canonical form:
#
#     text  := "0" | ["-"] term ((" + " | " - ") term)*
#     term  := coeff | [coeff "*"] power ("*" power)*
#     coeff := NUM | "i" | NUM "*i" | "(" ["-"] NUM ("+" | "-") ("i" | NUM "*i") ")"
#     power := NAME ["^" DIGITS]
#     NUM   := DIGITS ["/" DIGITS]
#
# Terms are in graded-lex descending order, each coefficient is in lowest
# terms, and no term after the first starts with a sign.  ``parse_poly``
# reads the real prints, whose terms are
#
#     rterm := NUM | [NUM "*"] power ("*" power)*
#
# with no monomial twice, on a fast path of string splits straight into the
# packed form.  That path also takes powers in any order, a name twice in a
# term and a coefficient not in lowest terms, which the recursive-descent
# parser reads as the same polynomial.  Every other text (``i``, a mixed
# coefficient, a repeated monomial, a power of a number, a number after a
# power) goes to that parser, which alone checks the resource bounds below
# and raises ``ParseError`` with a position.  Both pack the terms over the
# lcm of their denominators, which every numerator is scaled to, so both
# refuse an lcm past MAX_NUMBER_BITS at the term that takes it there.

# Deepest parenthesis nesting the parser accepts (the printer writes depth 1)
MAX_NESTING = 100

# Most terms a parenthesised power may expand to: (group)^e in n variables
# has at most C(n + e*deg(group), n) terms, and larger bounds are refused
# before the power is taken; a one-term group stays one term
MAX_POWER_TERMS = 10_000

# Most bits a term's numerator or denominator may reach through powers and
# products of numbers, ``9^999999999`` for one, and likewise its constant
# parenthesised factors, such as ``(9)^e``; estimated as e*bits(base) per
# factor before any power is taken (a literal of the interpreter's longest
# int string, 4,300 digits, has about 14,300 bits).  Also the most bits of
# a text's common denominator
MAX_NUMBER_BITS = 1 << 16

# Most work one parse may spend on the powers and products of parenthesised
# factors, charged before each is computed.  A product a*b costs about
# terms(a) * terms(b) * (bits(a) + bits(b) + 1): its term pairs times the
# bit length that bounds a coefficient of the result, where bits(p) is the
# ceiling of log2 of the larger of p's common denominator and the l1 norm of
# its numerators over it.  A power g^e is charged as its last product,
# g^(e - e//2) * g^(e//2), each factor g^k bounded by C(n + k*deg, n) terms
# and k*bits(g) bits.  (1+z1+z2)^100 is charged 353M and parses in about
# half a second; (1+z1+z2)^100*(1+z1+z2)^100 would be charged 11G
MAX_PARSE_WORK = 1 << 29


def default_names(nvars: int) -> tuple:
    return tuple(f"z{j + 1}" for j in range(nvars))


class ParseError(ValueError):
    """Syntax or name error in a polynomial expression, with position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:/\d+)?)"
    rf"|(?P<name>{_NAME.pattern})"
    r"|(?P<op>[-+*^()])"
    r"|(?P<bad>\S))"
)


def check_names(names) -> tuple:
    """The variable names as a tuple: a list (a string is not one) of
    distinct names of the parser's grammar, without the imaginary unit ``i``."""
    ok = isinstance(names, (list, tuple)) and all(
        isinstance(v, str) and _NAME.fullmatch(v) and v != "i" for v in names
    )
    if not ok or len(set(names)) != len(names):
        raise ValueError(f"variables must be a list of distinct names, not i: {names!r:.30}")
    return tuple(names)


def _coefficient(num: int, den: int, ipow: int) -> GaussRat:
    """num/den * i^ipow for integers num, den != 0 and ipow >= 0."""
    coef = Fraction(num, den) if den != 1 else Fraction(num)
    ipow %= 4
    if ipow == 0:
        return _real(coef)
    if ipow == 2:
        return _real(-coef)
    return GaussRat(_F0, coef if ipow == 1 else -coef)


def _ratio(text: str):
    """(a, b) for the text of a number a or a/b, b != 0; else None.  The
    digits are those ``\\d`` matches, which ``int`` reads."""
    a, slash, b = text.partition("/")
    if not a.isdecimal() or (slash and not b.isdecimal()):
        return None
    b = int(b) if slash else 1
    return (int(a), b) if b else None


def _number_power(num: int, den: int, ratio: tuple, e: int):
    """(num * a^e, den * b^e) for ``ratio`` (a, b), or None when either
    might pass MAX_NUMBER_BITS bits, judged before any power is taken."""
    a, b = ratio
    if max(num.bit_length() + e * a.bit_length(), den.bit_length() + e * b.bit_length()) > MAX_NUMBER_BITS:
        return None
    return num * a ** e, den * b ** e


def _parse_canonical(text: str, index: dict):
    """The packed Poly of ``text`` when it has the real canonical shape (see
    above) over the variables of ``index`` (name -> 0-based slot), with no
    monomial twice; else None.  It never raises and takes no power of a
    number: what it cannot read, or a common denominator past
    MAX_NUMBER_BITS bits, is left to ``_Parser``."""
    nvars = len(index)
    items = []  # (exponents, numerator, denominator) per term
    try:
        for k, chunk in enumerate(text.split(" - ")):
            for j, piece in enumerate(chunk.split(" + ")):
                sign = -1 if k and not j else 1
                if not (k or j) and piece[:1] == "-":
                    sign, piece = -1, piece[1:]
                factors = piece.split("*")
                ratio = _ratio(factors[0])
                if ratio is not None:
                    del factors[0]
                num, den = ratio or (1, 1)
                if den != 1:
                    g = math.gcd(num, den)
                    num, den = num // g, den // g
                mono = [0] * nvars
                for factor in factors:
                    name, caret, exp = factor.partition("^")
                    v = index.get(name)
                    if v is None or (caret and not exp.isdecimal()):
                        return None
                    mono[v] += int(exp) if caret else 1
                items.append((mono, sign * num, den))
        den = _common_denominator({t[2] for t in items}, 0)
    except ValueError:
        # int() refuses digit strings longer than the interpreter's limit,
        # and _common_denominator a denominator past its bound
        return None
    width = _field_width(max(sum(t[0]) for t in items))
    nums = {}
    for mono, num, d in items:
        key = 0
        for e in mono:
            key = (key << width) | e
        nums[key] = num if d == den else num * (den // d)
    if len(nums) != len(items):
        return None
    # the ratios are in lowest terms, so den is their least common denominator
    return _new(nvars, width, nums, den) if all(nums.values()) else _packed(nvars, width, nums, den)


def _common_denominator(dens, at: int) -> int:
    """The lcm of ``dens``, built one at a time: every numerator is scaled
    to it, so ParseError at ``at`` once it passes MAX_NUMBER_BITS bits."""
    den = 1
    for d in dens:
        den = math.lcm(den, d)
        if den.bit_length() > MAX_NUMBER_BITS:
            raise ParseError(f"common denominator exceeds {MAX_NUMBER_BITS} bits", at)
    return den


def _tokenize(text: str):
    """(kind, text, position) per token in one regex pass.  The kind of an
    operator is the operator itself; the last token has kind "end"."""
    tokens = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        val = m.group(kind)
        pos = m.start(kind)
        if kind == "bad":
            raise ParseError(f"unexpected character {val!r}", pos)
        tokens.append((val if kind == "op" else kind, val, pos))
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    """Recursive descent for:  expr := ['-'] term (('+'|'-') term)*
    term := factor ('*' factor)* ; factor := atom ['^' INT] ;
    atom := '(' expr ')' | NUMBER | 'i' | VARIABLE.

    ``expr`` sums its terms into one dict monomial -> coefficient.  A term
    made of numbers, ``i``, variables and constant parenthesised factors,
    such as a Gaussian coefficient ``(re+q*i)``, is one entry of it; only a
    parenthesised factor with a variable is expanded with Poly products.
    ``index`` maps each variable name to its 0-based slot."""

    def __init__(self, text: str, index: dict):
        self.tokens = _tokenize(text)
        self.k = 0
        self.depth = 0
        self.index = index
        self.nvars = len(index)
        self.work = 0  # charged so far against MAX_PARSE_WORK

    def parse(self) -> Poly:
        terms = self.expr()
        kind, val, pos = self.tokens[self.k]
        if kind != "end":
            raise ParseError(f"unexpected {val!r}", pos)
        cs = terms.values()
        _common_denominator({c.re.denominator for c in cs} | {c.im.denominator for c in cs}, pos)
        return Poly(self.nvars, terms)

    def expr(self) -> dict:
        acc: dict = {}
        sign = 1
        if self.tokens[self.k][0] == "-":
            self.k += 1
            sign = -1
        while True:
            self.term(acc, sign)
            kind = self.tokens[self.k][0]
            if kind == "+":
                sign = 1
            elif kind == "-":
                sign = -1
            else:
                return acc
            self.k += 1

    def term(self, acc: dict, sign: int) -> None:
        """Add sign * (the next term) into ``acc``."""
        tokens = self.tokens
        num, den, ipow = sign, 1, 0
        mono = [0] * self.nvars
        origin = (0,) * self.nvars
        powers = []  # the parenthesised factors, (group, e), expanded last
        scalars = []  # the constant ones, (coefficient, e)
        size = None  # (terms, degree, bits) bounds of their product
        group_bits = 0  # a bound on the bits of its one-term ones
        star = None  # position of the '*' before this factor
        while True:
            kind, val, pos = tokens[self.k]
            self.k += 1
            group = scalar = None
            if kind == "(":
                if self.depth == MAX_NESTING:
                    raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", pos)
                self.depth += 1
                inner = self.expr()
                self.depth -= 1
                kind, _, close = tokens[self.k]
                self.k += 1
                if kind != ")":
                    raise ParseError("expected ')'", close)
                if inner.keys() <= {origin}:
                    scalar = inner.get(origin, GR_ZERO)
                else:
                    cs = inner.values()
                    _common_denominator({c.re.denominator for c in cs} | {c.im.denominator for c in cs},
                                        close)
                    group = Poly(self.nvars, inner)
            elif kind == "num":
                ratio = _ratio(val)
                if ratio is None:
                    raise ParseError("zero denominator", pos)
            elif kind != "name":
                raise ParseError(f"unexpected {val!r}", pos)
            elif val != "i" and val not in self.index:
                raise ParseError(f"unknown variable {val!r}", pos)
            e, at = 1, pos
            if tokens[self.k][0] == "^":
                at = tokens[self.k][2]
                ekind, etext, epos = tokens[self.k + 1]
                if ekind != "num" or "/" in etext:
                    raise ParseError("exponent must be a non-negative integer", epos)
                e = int(etext)
                self.k += 2
                deg = -1 if group is None else group.total_degree()
                if (deg > 0 and group.term_count() > 1
                        and math.comb(self.nvars + e * deg, self.nvars) > MAX_POWER_TERMS):
                    raise ParseError(f"power may expand to more than {MAX_POWER_TERMS} terms", at)
            if group is not None or scalar is not None:
                # the coefficient of a one-term factor counts towards MAX_NUMBER_BITS
                if group is None:
                    coeff = scalar
                else:
                    coeff = group.leading()[1] if group.term_count() == 1 else None
                if coeff and coeff not in GAUSS_UNITS:
                    group_bits += e * coefficient_bits(coeff)
                    if group_bits > MAX_NUMBER_BITS:
                        raise ParseError(f"number may exceed {MAX_NUMBER_BITS} bits", at)
                if group is None:
                    # a constant group, such as a Gaussian coefficient (re+q*i),
                    # joins the term's coefficient
                    size = self.charge(size, Poly.const(self.nvars, scalar), e, at, star)
                    scalars.append((scalar, e))
                else:
                    size = self.charge(size, group, e, at, star)
                    powers.append((group, e))
            elif kind == "num":
                powered = _number_power(num, den, ratio, e)
                if powered is None:
                    raise ParseError(f"number may exceed {MAX_NUMBER_BITS} bits", at)
                num, den = powered
            elif val == "i":
                ipow += e
            else:
                mono[self.index[val]] += e
            if tokens[self.k][0] != "*":
                break
            star = tokens[self.k][2]
            self.k += 1
        c = _coefficient(num, den, ipow)
        for scalar, e in scalars:
            scalar = _gauss_pow(scalar, e)
            c = scalar if c == GR_ONE else c * scalar
        product = None
        for group, e in powers:
            group = group ** e
            product = group if product is None else product * group
        if product is None:
            items = ((tuple(mono), c),)
        else:
            items = product.mul_term(tuple(mono), c).terms.items()
        for m, c in items:
            old = acc.get(m)
            acc[m] = c if old is None else old + c

    def charge(self, size, group, e: int, at: int, star) -> tuple:
        """The (terms, degree, bits) bounds of size * group^e, size None for
        an empty product, after charging the work of the power (its caret
        at ``at``) and of the product (its ``*`` at ``star``)."""
        n = self.nvars
        t, d, b = _size_bounds(group)

        def terms(k):
            return t if k == 1 or t <= 1 else math.comb(n + k * d, n)

        if e > 1 and t > 1:
            h = e // 2
            self.spend(terms(h) * terms(e - h) * (e * b + 1), "power", at)
        power = (terms(e), e * d, e * b) if e else (1, 0, 0)
        if size is None:
            return power
        (ts, ds, bs), (tp, dp, bp) = size, power
        self.spend(ts * tp * (bs + bp + 1), "product", star)
        return min(ts * tp, math.comb(n + ds + dp, n)), ds + dp, bs + bp

    def spend(self, work: int, what: str, at: int) -> None:
        self.work += work
        if self.work > MAX_PARSE_WORK:
            raise ParseError(f"{what} may cost more than {MAX_PARSE_WORK} term-pair bits", at)


def _size_bounds(p: Poly) -> tuple:
    """(terms, total degree, bits) of p, bits as MAX_PARSE_WORK defines
    them, and degree 0 for the zero polynomial."""
    _, nums, den = p._pk
    norm = sum(abs(c.real) + abs(c.imag) for c in nums.values())
    return p.term_count(), max(p.total_degree(), 0), (max(norm, den) - 1).bit_length()


def parse_poly(text: str, variables: Sequence[str]) -> Poly:
    """Parse ``text`` over the given variable names.

    Coefficients are integers or a/b fractions, the imaginary unit is ``i``,
    operators are + - * ^ with parentheses, nested at most ``MAX_NESTING``
    deep; exponents are non-negative integer literals.  A parenthesised
    factor raised to a power that may expand to more than
    ``MAX_POWER_TERMS`` terms is refused, and so is a term whose powers and
    products of numbers may pass ``MAX_NUMBER_BITS`` bits, a text whose
    terms' common denominator passes it, and a text whose
    powers and products of parenthesised factors may cost more than
    ``MAX_PARSE_WORK``, each charged before any factor of its term is
    expanded.  ``variables`` must pass :func:`check_names`.

    A real print of :func:`poly_to_string` (the grammar heads this module's
    "parsing and printing" section) is read by string splits into the
    packed form; every other text, Gaussian text included, goes to the
    recursive-descent parser, which raises :class:`ParseError` with the
    position of the first fault.
    """
    index = {name: j for j, name in enumerate(check_names(variables))}
    if not isinstance(text, str):
        raise ParseError(f"a polynomial must be a string, not {text!r:.30}", 0)
    p = _parse_canonical(text, index)
    return p if p is not None else _Parser(text, index).parse()


def poly_to_string(p: Poly, names: Sequence[str] | None = None) -> str:
    """Canonical rendering, re-parseable by parse_poly.

    Terms run in graded-lex descending order, joined by `` + `` and `` - ``;
    only the first term may carry a leading ``-``.  A term is its
    coefficient, ``*``, and its powers ``name`` or ``name^e``; a coefficient
    of 1 is left out.  A coefficient is a rational in lowest terms ``n`` or
    ``n/d``, a pure imaginary ``i`` or ``q*i``, or ``(re+q*i)``/``(re-q*i)``
    in parentheses when both parts are nonzero (``q*i`` is ``i`` when q = 1).
    The zero polynomial is ``0``.
    """
    if names is None:
        names = default_names(p.nvars)
    nvars = p.nvars
    if len(names) != nvars:
        raise ValueError("need one name per variable")
    if not p:
        return "0"
    width, nums, den = p._pk
    top = (1 << width) - 1
    fields = [(name, width * (nvars - 1 - j)) for j, name in enumerate(names)]
    low = (1 << width * nvars) - 1
    order = _order_keys(nums, width, nvars)
    order.sort(reverse=True)
    out = []
    for k in order:
        k &= low
        monostr = "*".join([
            name if e == 1 else f"{name}^{e}" for name, s in fields if (e := (k >> s) & top)
        ])
        n = nums[k]
        if type(n) is not int:
            im = n.imag
            neg = im < 0
            mag = _ratio_text(-im if neg else im, den)
            cs = "i" if mag == "1" else f"{mag}*i"
            if n.real:
                # a mixed coefficient keeps its sign inside the parentheses
                cs = f"({_ratio_text(n.real, den)}{'-' if neg else '+'}{cs})"
                neg = False
        else:
            neg = n < 0
            cs = _ratio_text(-n if neg else n, den)
            if cs == "1" and monostr:
                cs = ""
        out.append(" - " if neg else " + ")
        out.append(f"{cs}*{monostr}" if cs and monostr else cs or monostr)
    out[0] = "-" if out[0] == " - " else ""
    return "".join(out)


def _ratio_text(num: int, den: int) -> str:
    """str(Fraction(num, den)) for den > 0: in lowest terms, as Fraction
    keeps each coefficient."""
    g = math.gcd(num, den)
    return f"{num // g}/{den // g}" if den != g else str(num // g)
