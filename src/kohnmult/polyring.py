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
coefficients as integer numerators over their least common denominator, real
and imaginary parts in two dicts keyed by packed int.  Every constructor
packs, and sums, products, powers, scaling, derivatives, printing,
equality and hashing all work on the numerators, so a chain of rule steps
builds no Fraction.  The ``terms`` dict, one GaussRat per term, is built on
its first read and kept.  A large product splits the packed keys into
residue classes modulo their most common gap, multiplies each pair of dense
classes as one big int with a fixed-width slot per key (Kronecker
substitution), and the remaining terms one by one.  A sum of products,
``dot``, takes each distinct operand once at one field width and adds every
product's numerators over one common denominator; determinants and the
multiplier rules' sums of products use it.

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
import itertools
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


class Poly:
    """Sparse multivariate polynomial with GaussRat coefficients.

    ``Poly(nvars, terms)`` takes a dict mapping exponent tuples to
    coefficients, drops the zero ones and packs the rest.  ``_pk`` is
    (width, real, imag, den): dicts packed monomial -> nonzero integer
    numerator over ``den``, the least positive common denominator of the
    coefficients, each term's total degree within one field of ``width``
    bits; the zero polynomial has two empty dicts over 1.  ``terms``, the
    dict monomial -> GaussRat, is built from it on first read, and the
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
        return _new(nvars, 1, {}, {}, 1)

    @staticmethod
    def const(nvars: int, c) -> "Poly":
        return Poly.monomial(nvars, (0,) * nvars, c)

    @staticmethod
    def one(nvars: int) -> "Poly":
        return _new(nvars, 1, {0: 1}, {}, 1)

    @staticmethod
    def variable(nvars: int, index: int) -> "Poly":
        """The variable with 1-based ``index``."""
        if not 1 <= index <= nvars:
            raise ValueError(f"variable index {index} out of range 1..{nvars}")
        return _new(nvars, 1, {1 << (nvars - index): 1}, {}, 1)

    @staticmethod
    def monomial(nvars: int, mono: tuple, c=GR_ONE) -> "Poly":
        return Poly(nvars, {tuple(mono): c if isinstance(c, GaussRat) else GaussRat(c)})

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        _, real, imag, _ = self._pk
        return not real and not imag

    def __bool__(self):
        _, real, imag, _ = self._pk
        return bool(real) or bool(imag)

    def is_constant(self) -> bool:
        _, real, imag, _ = self._pk
        return real.keys() <= {0} and imag.keys() <= {0}

    def constant_value(self) -> GaussRat:
        _, real, imag, den = self._pk
        return _gauss(real.get(0, 0), imag.get(0, 0), den)

    def is_unit(self) -> bool:
        """Nonzero constant."""
        return bool(self) and self.is_constant()

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        wa, ra, ia, da = self._pk
        wb, rb, ib, db = other._pk
        if self.nvars != other.nvars or da != db or len(ra) != len(rb) or len(ia) != len(ib):
            return False
        if wa != wb:
            (ra, ia), _ = _operand(self, max(wa, wb))
            (rb, ib), _ = _operand(other, max(wa, wb))
        return ra == rb and ia == ib

    def __hash__(self):
        # at the least width that holds the degree: equal Polys of other
        # widths hash alike
        (real, imag), den = _operand(self, _field_width(self.total_degree()))
        return hash((self.nvars, den, frozenset(real.items()), frozenset(imag.items())))

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        return _sum(self, other, 1)

    def __sub__(self, other: "Poly") -> "Poly":
        return _sum(self, other, -1)

    def __neg__(self) -> "Poly":
        width, real, imag, den = self._pk
        return _new(self.nvars, width, {k: -c for k, c in real.items()},
                    {k: -c for k, c in imag.items()}, den, self._degree)

    def scale(self, c: GaussRat) -> "Poly":
        if not isinstance(c, GaussRat):
            c = GaussRat(c)
        if not c or not self:
            return Poly.zero(self.nvars)
        # c = (cr + i*ci)/cd times each numerator
        cd = math.lcm(c.re.denominator, c.im.denominator)
        cr, ci = c.re.numerator * (cd // c.re.denominator), c.im.numerator * (cd // c.im.denominator)
        width, real, imag, den = self._pk
        if ci:
            parts = _gauss_mul((real, imag), ({0: cr} if cr else {}, {0: ci}))
        else:
            parts = {k: v * cr for k, v in real.items()}, {k: v * cr for k, v in imag.items()}
        return _packed(self.nvars, width, parts, den * cd, self._degree)

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
                result = base if result is None else _gauss_mul(result, base)
            n >>= 1
            if not n:
                break
            base = _gauss_mul(base, base)
        return _packed(self.nvars, width, result, den, degree)

    # -- structure ----------------------------------------------------------

    def total_degree(self) -> int:
        """Max total degree of a term; -1 for the zero polynomial."""
        degree = self._degree
        if degree is None:
            width, real, imag, _ = self._pk
            degree = max(_max_degree(real, width), _max_degree(imag, width)) if real or imag else -1
            self._degree = degree
        return degree

    def term_count(self) -> int:
        """len(self.terms), without building the terms."""
        _, real, imag, _ = self._pk
        return len(real.keys() | imag.keys()) if imag else len(real)

    def leading(self, splits: tuple = ()):
        """(monomial, coefficient) of the largest term under the order of
        block boundaries ``splits`` (see :func:`_order_keys`)."""
        if not self:
            raise ValueError("zero polynomial has no leading term")
        width, real, imag, den = self._pk
        k = _leading_key(self, splits)
        return _unpacker(self.nvars, width)(k), _gauss(real.get(k, 0), imag.get(k, 0), den)

    def monic(self, splits: tuple = ()) -> "Poly":
        """Scale so the leading coefficient under ``splits`` is 1; self when
        it already is."""
        if not self:
            return self
        width, real, imag, den = self._pk
        k = _leading_key(self, splits)
        r, i = real.get(k, 0), imag.get(k, 0)
        if i:
            return self.scale(_gauss(r, i, den).inverse())
        if r == den:
            return self
        # dividing by r/den leaves the numerators over r, its sign moved up
        if r < 0:
            real, imag, r = {k: -c for k, c in real.items()}, {k: -c for k, c in imag.items()}, -r
        return _packed(self.nvars, width, (real, imag), r, self._degree)

    def degree_in(self, index: int) -> int:
        """Degree in the 1-based variable ``index``; -1 for zero."""
        if not self:
            return -1
        width, real, imag, _ = self._pk
        shift, mask = width * (self.nvars - index), (1 << width) - 1
        return max((k >> shift) & mask for k in itertools.chain(real, imag))

    def coefficients_in(self, index: int) -> list:
        """Dense coefficient list [c_0, ..., c_d] with respect to variable
        ``index``; each c_k is a Poly not involving that variable."""
        width, real, imag, den = self._pk
        shift, mask = width * (self.nvars - index), (1 << width) - 1
        buckets = [({}, {}) for _ in range(self.degree_in(index) + 1)]
        for j, part in enumerate((real, imag)):
            for k, c in part.items():
                e = (k >> shift) & mask
                buckets[e][j][k - (e << shift)] = c
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
        width, real, imag, den = self._pk
        mask = (1 << width) - 1
        shifts = [width * (self.nvars - 1 - k) for k in range(self.nvars)]
        moves = [(shifts[k], width * (nvars - 1 - t)) for k, t in moved]
        dropped = sum(mask << shifts[k] for k, t in enumerate(places) if t is None)

        def move(part: dict) -> dict:
            return {sum(((k >> a) & mask) << b for a, b in moves): c
                    for k, c in part.items() if not k & dropped}

        # the total degree of a kept term is unchanged, so the width holds it
        return _packed(nvars, width, (move(real), move(imag)), den)

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
# degree of the result.  The coefficients are integer numerators over their
# least common denominator, real and imaginary parts in two dicts keyed by
# packed int, and a product is accumulated and kept there.  An operand whose
# width differs from the product's has its keys repacked, and the width
# never shrinks below an operand's, since a wider field holds the same
# monomials and leaves every product unchanged; so a derivative or a sum
# that cancels its top terms may keep a wider field than its degree needs.
# A shift by a monomial is a product with a one-term Poly, and a scaling
# multiplies the numerators and the denominator.
#
# Small products loop over pairs of terms.  In a large one, the keys of a
# weighted-homogeneous operand lie on a few arithmetic progressions: with
# ``step`` the most common gap between the smaller operand's sorted keys,
# both operands split into residue classes mod ``step``.  A class of at
# least _DENSE_MIN_TERMS terms that fills at least half of its span becomes
# one int, the coefficient of key lo + i*step in slot i, and the product of
# two such ints is the product of the classes (Kronecker substitution).
# Every slot of it is a sum of at most len(a) products of coefficients
# below 2^ba and 2^bb, so w = ba + bb + bits(len(a)) + 1 bits, rounded up
# to whole bytes, hold it with a sign bit to spare: adding 2^(w-1) to each
# slot makes all of them non-negative without a carry, and the slots are
# read back from the bytes.  A dense 2-D image of the same operands would
# be mostly empty slots, which is why each class is packed on its own.

# Below these sizes (terms of the smaller operand, and pairs of terms) a
# product multiplies term by term, and so does a residue class of fewer terms
_DENSE_MIN_TERMS = 16
_DENSE_MIN_WORK = 4096


def _field_width(degree: int) -> int:
    """Bits per exponent field that hold every exponent up to ``degree``."""
    return max(degree, 1).bit_length()


def _pack(terms: dict, width: int) -> tuple:
    """The packed form (width, real, imag, den) of a dict exponent tuple ->
    nonzero GaussRat whose total degrees fit in ``width`` bits."""
    den = 1
    for c in terms.values():
        if c.re.denominator != 1 or c.im.denominator != 1:
            den = math.lcm(den, c.re.denominator, c.im.denominator)
    real, imag = {}, {}
    for mono, c in terms.items():
        key = 0
        for e in mono:
            key = (key << width) | e
        if c.re:
            real[key] = c.re.numerator * (den // c.re.denominator)
        if c.im:
            imag[key] = c.im.numerator * (den // c.im.denominator)
    return width, real, imag, den


def _int_mul(a: dict, b: dict) -> dict:
    """Product of two packed integer polynomials; zero entries may remain.

    Small operands, and the terms outside dense residue classes, multiply
    term by term; each pair of dense classes multiplies as one big int."""
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
    packed_a = [_pack_class(m, lo, span, step, nb) for lo, span, m in dense_a]
    packed_b = packed_a if b is a else [
        _pack_class(m, lo, span, step, nb) for lo, span, m in dense_b
    ]
    out = _dict_mul(rest_a, b, {})
    if rest_b:
        _dict_mul(rest_b, {k: c for _, _, m in dense_a for k, c in m}, out)
    half = 1 << (8 * nb - 1)
    half_bytes = half.to_bytes(nb, "little")
    get = out.get
    from_bytes = int.from_bytes
    for (lo_a, span_a, _), xa in zip(dense_a, packed_a):
        for (lo_b, span_b, _), xb in zip(dense_b, packed_b):
            n = span_a + span_b - 1
            # the bias lifts every slot into [0, 2^(8 nb)): no slot borrows
            z = xa * xb + from_bytes(half_bytes * n, "little")
            raw = z.to_bytes(n * nb, "little")
            k = lo_a + lo_b
            for i in range(0, n * nb, nb):
                c = from_bytes(raw[i:i + nb], "little") - half
                if c:
                    out[k] = get(k, 0) + c
                k += step
    return out


def _dict_mul(a: dict, b: dict, out: dict) -> dict:
    """out + a*b term by term, updating out in place."""
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


def _pack_class(members: list, lo: int, span: int, step: int, nb: int) -> int:
    """The class as one int, coefficient of key lo + i*step in slot i of
    ``nb`` bytes: sum(c_i * 2^(8*nb*i))."""
    zero = bytes(nb)
    pos, neg = [zero] * span, [zero] * span
    for k, c in members:
        if c > 0:
            pos[(k - lo) // step] = c.to_bytes(nb, "little")
        elif c < 0:
            neg[(k - lo) // step] = (-c).to_bytes(nb, "little")
    return int.from_bytes(b"".join(pos), "little") - int.from_bytes(b"".join(neg), "little")


def _add_into(x: dict, y: dict, sign: int) -> dict:
    """x + sign*y, updating x in place."""
    get = x.get
    for k, c in y.items():
        x[k] = get(k, 0) + sign * c
    return x


def _gauss_mul(a: tuple, b: tuple) -> tuple:
    """(ar + i*ai)(br + i*bi) on (real, imag) pairs of packed dicts."""
    ar, ai = a
    br, bi = b
    real = _int_mul(ar, br)
    if not ai and not bi:
        return real, {}
    _add_into(real, _int_mul(ai, bi), -1)
    return real, _add_into(_int_mul(ar, bi), _int_mul(ai, br), 1)


def _unpacker(nvars: int, width: int):
    """The map from a packed key back to its exponent tuple."""
    mask = (1 << width) - 1
    shifts = [width * (nvars - 1 - j) for j in range(nvars)]
    return lambda key: tuple((key >> s) & mask for s in shifts)


def _unpack(nvars: int, width: int, real: dict, imag: dict, den: int) -> dict:
    """The term dict of packed numerator dicts over ``den``, which hold no
    zero entry."""
    mono = _unpacker(nvars, width)
    if not imag:
        return {mono(key): _real(Fraction(r, den)) for key, r in real.items()}
    return {mono(key): _gauss(real.get(key, 0), imag.get(key, 0), den)
            for key in real.keys() | imag.keys()}


def _new(nvars: int, width: int, real: dict, imag: dict, den: int, degree=None) -> Poly:
    # trusted constructor: the dicts already meet the conditions of Poly._pk,
    # and ``degree`` is the total degree or None
    p = object.__new__(Poly)
    p.nvars = nvars
    p._pk = (width, real, imag, den)
    p._terms = None
    p._degree = degree
    return p


def _packed(nvars: int, width: int, parts: tuple, den: int, degree=None) -> Poly:
    """The Poly of packed (real, imag) numerator dicts over a common
    denominator ``den``, which may hold zero entries, and of total degree
    ``degree`` when it is known and the Poly is not zero.  A factor shared
    by ``den`` and every numerator is divided out, which leaves the least
    common denominator."""
    real, imag = parts
    if 0 in real.values():
        real = {k: c for k, c in real.items() if c}
    if imag and 0 in imag.values():
        imag = {k: c for k, c in imag.items() if c}
    if not real and not imag:
        return Poly.zero(nvars)
    if den != 1:
        g = den
        for c in itertools.chain(real.values(), imag.values()):
            g = math.gcd(g, c)
            if g == 1:
                break
        else:
            real = {k: c // g for k, c in real.items()}
            imag = {k: c // g for k, c in imag.items()}
            den //= g
    return _new(nvars, width, real, imag, den, degree)


def _gauss(re: int, im: int, den: int) -> GaussRat:
    """The GaussRat (re + im*i)/den of integer numerators."""
    if not im:
        return _real(Fraction(re, den)) if re else GR_ZERO
    return GaussRat(Fraction(re, den), Fraction(im, den))


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
    width, real, imag, _ = p._pk
    keys = list(real.keys() | imag.keys() if imag else real)
    ranks = _order_keys(keys, width, p.nvars, splits)
    return keys[ranks.index(max(ranks))]


def _width_for(degree: int, polys) -> int:
    """The field width that holds ``degree`` and the packed forms of
    ``polys`` as they are: a wider field changes no product."""
    return max(_field_width(degree), *(p._pk[0] for p in polys))


def _operand(p: Poly, width: int):
    """((real, imag), den) of p in fields of ``width`` bits, which hold its
    total degree: its packed form, with the keys repacked when that width
    differs."""
    w, real, imag, den = p._pk
    if w != width:
        real, imag = _repack(real, p.nvars, w, width), imag and _repack(imag, p.nvars, w, width)
    return (real, imag), den


def _sum(a: Poly, b: Poly, sign: int) -> Poly:
    """a + sign*b, sign 1 or -1, over the lcm of the two denominators at the
    wider of the two widths, which holds every degree of the sum."""
    if not b:
        return a
    if not a:
        return b if sign > 0 else -b
    width = max(a._pk[0], b._pk[0])
    (ra, ia), da = _operand(a, width)
    (rb, ib), db = _operand(b, width)
    den = math.lcm(da, db)
    scale = den // da
    real = {k: c * scale for k, c in ra.items()}
    imag = {k: c * scale for k, c in ia.items()}
    scale = sign * (den // db)
    _add_into(real, rb, scale)
    _add_into(imag, ib, scale)
    return _packed(a.nvars, width, (real, imag), den)


def _product(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return Poly.zero(a.nvars)
    degree = a.total_degree() + b.total_degree()
    width = max(_field_width(degree), a._pk[0], b._pk[0])
    pa, da = _operand(a, width)
    pb, db = _operand(b, width)
    # the product of the leading terms leads, so the degrees add
    return _packed(a.nvars, width, _gauss_mul(pa, pb), da * db, degree)


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
        (pa, da), (pb, db) = packed[id(a)], packed[id(b)]
        products.append((_gauss_mul(pa, pb), da * db, sign))
    den = math.lcm(*(d for _, d, _ in products))
    real, imag = {}, {}
    for (r, i), d, sign in products:
        scale = sign * (den // d)
        _add_into(real, r, scale)
        _add_into(imag, i, scale)
    return _packed(nvars, width, (real, imag), den)


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
        width, real, imag, _ = r._pk
        mono = _unpacker(r.nvars, width)
        for key in real.keys() | imag.keys() if imag else real:
            low = mono(key) if low is None else tuple(map(min, low, mono(key)))
    degree = sum(low)
    width = _field_width(degree)
    key = sum(e << width * j for j, e in enumerate(reversed(low)))
    return _new(p.nvars, width, {key: 1}, {}, 1, degree)


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
    nv = p.nvars
    width = _field_width(max(p.total_degree(), q.total_degree())) + 1
    (f, f_imag), _ = _operand(p, width)
    (g, g_imag), _ = _operand(q, width)
    if f_imag or g_imag:
        return None
    h = _heu_gcd(_primitive(f), _primitive(g), nv, width)
    return None if h is None else _new(nv, width, h, {}, 1).monic()


def _int_content(f: dict) -> int:
    c = 0
    for v in f.values():
        c = math.gcd(c, v)
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
                d = Divisors(k, (), [_new(k, width, h, {}, 1)])
                if all(d.divide(_new(k, width, p, {}, 1), False)[1].is_zero() for p in (f, g)):
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
    width, real, imag, den = p._pk
    shift = width * (nvars - var_index)
    mask = (1 << width) - 1
    one = 1 << shift
    # lowering one exponent keeps distinct monomials distinct, and c*e != 0
    return _packed(nvars, width, (
        {k - one: c * e for k, c in real.items() if (e := (k >> shift) & mask)},
        {k - one: c * e for k, c in imag.items() if (e := (k >> shift) & mask)},
    ), den)


def gradient(p: Poly) -> tuple:
    return tuple(differentiate(p, j + 1) for j in range(p.nvars))


def vanishing_order(p: Poly):
    """Minimum total degree of a term; math.inf for the zero polynomial."""
    if not p:
        return math.inf
    width, real, imag, _ = p._pk
    top = (1 << width) - 1
    return min((k - 1) % top + 1 if k else 0 for k in itertools.chain(real, imag))


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
# a max-heap of keys (Johnson 1974; Monagan & Pearce, CASC 2007), with
# Fraction coefficients while every polynomial met is real.  The first
# Gaussian dividend switches the divisors to GaussRat coefficients, once and
# in place.

class Divisors:
    """Nonzero polynomials ``polys`` packed once for division under the
    order of block boundaries ``splits``: () for grlex, (k,) for elim(k).
    Divisor i has the leading key ``keys[i]`` and ``items[i]`` = (leading
    coefficient or None for 1, tail [(key, coefficient)]).  The
    coefficients are Fractions while ``real`` holds, else GaussRats; the
    field is read from the polynomials, and :meth:`divide` switches it."""

    def __init__(self, nvars: int, splits: tuple, polys: Sequence[Poly]):
        self.nvars, self.splits = nvars, tuple(min(s, nvars) for s in splits)
        self.real = not any(p._pk[2] for p in polys)
        self._pack_all(_field_width(max((p.total_degree() for p in polys), default=0)) + 1, polys)

    def _pack_all(self, width: int, polys) -> None:
        self.width, self.polys, self.keys, self.items = width, [], [], []
        blocks = list(zip((0, *self.splits), (*self.splits, self.nvars)))
        f = self.nvars + len(blocks)  # fields
        self.guards = sum(1 << (width * g + width - 1) for g in range(f))
        # per block: the shift of its exponents, which lie side by side as
        # in a monomial packed at this width, their mask, and their shift in
        # that monomial
        self.chunks = []
        for a, b in blocks:
            f -= 1 + b - a
            self.chunks.append((width * f, (1 << width * (b - a)) - 1, width * (self.nvars - b)))
        for p in polys:
            self.add(p)

    def encode(self, p: Poly) -> dict:
        """p's terms, key -> coefficient, widening until its degree fits."""
        while p.total_degree() >= 1 << (self.width - 1):
            self._pack_all(2 * self.width, self.polys)
        (real, imag), den = _operand(p, self.width)
        monos = list(real.keys() | imag.keys() if imag else real)
        keys = _order_keys(monos, self.width, self.nvars, self.splits)
        if self.real:
            return {key: Fraction(real[m], den) for key, m in zip(keys, monos)}
        return {key: _gauss(real.get(m, 0), imag.get(m, 0), den) for key, m in zip(keys, monos)}

    def poly(self, work: dict) -> Poly:
        """The Poly of a dict key -> nonzero coefficient, at this width: a
        block's degree stays below half of a field's reach, so a total
        degree of at most two blocks fits in one field."""
        keys = [0] * len(work)
        for shift, mask, at in self.chunks:
            keys = [key | ((k >> shift) & mask) << at for key, k in zip(keys, work)]
        cs = work.values()
        parts = (cs, ()) if self.real else ([c.re for c in cs], [c.im for c in cs])
        den = math.lcm(*[c.denominator for part in parts for c in part])
        real, imag = [{k: c.numerator * (den // c.denominator) for k, c in zip(keys, part) if c}
                      for part in parts]
        return _new(self.nvars, self.width, real, imag, den)

    def add(self, p: Poly) -> None:
        work = self.encode(p)
        lead = max(work)
        lc = work.pop(lead)
        self.polys.append(p)
        self.keys.append(lead)
        self.items.append((None if lc == 1 else lc, list(work.items())))

    def divide(self, p: Poly, want_quotients: bool):
        """:func:`divide` of p by the divisors.  A Gaussian p switches real
        divisors to GaussRat coefficients for good."""
        if self.real and p._pk[2]:
            self.real = False
            self._pack_all(self.width, self.polys)
        return self.reduce(lambda: self.encode(p), want_quotients)

    def s_poly(self, i: int, j: int, lcm: tuple) -> dict:
        """The S-polynomial of the monic divisors i and j, whose leading
        monomials have the lcm ``lcm``, with zero coefficients left in."""
        top = 0
        for e in lcm:
            top = (top << self.width) | e
        top = _order_keys((top,), self.width, self.nvars, self.splits)[0]
        si, sj = top - self.keys[i], top - self.keys[j]
        out = {k + si: c for k, c in self.items[i][1]}
        for k, c in self.items[j][1]:
            out[k + sj] = out[k + sj] - c if k + sj in out else -c
        if any(k & self.guards for k in out):
            self._pack_all(2 * self.width, self.polys)
            return self.s_poly(i, j, lcm)
        return out

    def reduce(self, build, want_quotients: bool):
        """(quotients or None, remainder) of the key dict that ``build()``
        returns, each term by the first divisor whose leading key divides
        it.  A term cancelled to zero stays in the dict until its key is
        popped.  Where a product would set a guard bit, it starts over at
        twice the width."""
        work, leads, divs, guards = build(), self.keys, self.items, self.guards
        quots = [{} for _ in divs] if want_quotients else None
        rem = {}
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
            qc = c if lc is None else c / lc
            if quots is not None:
                quots[idx][t] = qc  # leading keys strictly decrease, so t is new here
            for k, bc in tail:
                k += t
                if k & guards:
                    self._pack_all(2 * self.width, self.polys)
                    return self.reduce(build, want_quotients)
                if k in work:
                    work[k] -= bc * qc
                else:
                    work[k] = -bc * qc
                    push(heap, -k)
        return quots and [self.poly(q) for q in quots], self.poly(rem)


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
# and raises ``ParseError`` with a position.  The fast path packs its terms
# over the lcm of their denominators, which no bound below limits: terms
# with many distinct denominators give every numerator that lcm's bits.

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
# int string, 4,300 digits, has about 14,300 bits)
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
    number: what it cannot read is left to ``_Parser``."""
    if not isinstance(text, str):
        return None
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
                mono = [0] * nvars
                for factor in factors:
                    name, caret, exp = factor.partition("^")
                    v = index.get(name)
                    if v is None or (caret and not exp.isdecimal()):
                        return None
                    mono[v] += int(exp) if caret else 1
                items.append((mono, sign * num, den))
    except ValueError:
        # int() refuses digit strings longer than the interpreter's limit
        return None
    width = _field_width(max(sum(t[0]) for t in items))
    den = math.lcm(*(t[2] for t in items))
    real = {}
    for mono, num, d in items:
        key = 0
        for e in mono:
            key = (key << width) | e
        real[key] = num if d == den else num * (den // d)
    if len(real) != len(items):
        return None
    return _packed(nvars, width, (real, {}), den)


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
    _, real, imag, den = p._pk
    norm = sum(map(abs, real.values())) + sum(map(abs, imag.values()))
    return p.term_count(), max(p.total_degree(), 0), (max(norm, den) - 1).bit_length()


def parse_poly(text: str, variables: Sequence[str]) -> Poly:
    """Parse ``text`` over the given variable names.

    Coefficients are integers or a/b fractions, the imaginary unit is ``i``,
    operators are + - * ^ with parentheses, nested at most ``MAX_NESTING``
    deep; exponents are non-negative integer literals.  A parenthesised
    factor raised to a power that may expand to more than
    ``MAX_POWER_TERMS`` terms is refused, and so is a term whose powers and
    products of numbers may pass ``MAX_NUMBER_BITS`` bits, and a text whose
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
    width, real, imag, den = p._pk
    top = (1 << width) - 1
    fields = [(name, width * (nvars - 1 - j)) for j, name in enumerate(names)]
    low = (1 << width * nvars) - 1
    order = _order_keys(real.keys() | imag.keys() if imag else real, width, nvars)
    order.sort(reverse=True)
    out = []
    for k in order:
        k &= low
        monostr = "*".join([
            name if e == 1 else f"{name}^{e}" for name, s in fields if (e := (k >> s) & top)
        ])
        im = imag.get(k) if imag else None
        if im:
            neg = im < 0
            mag = _ratio_text(-im if neg else im, den)
            cs = "i" if mag == "1" else f"{mag}*i"
            re_num = real.get(k)
            if re_num:
                # a mixed coefficient keeps its sign inside the parentheses
                cs = f"({_ratio_text(re_num, den)}{'-' if neg else '+'}{cs})"
                neg = False
        else:
            n = real[k]
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
