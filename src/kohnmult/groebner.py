"""Deterministic Groebner bases over Q(i) and the ideal operations built on them.

The basis returned by :func:`groebner_basis` is the monic reduced basis, which
is unique for a given ideal and monomial order; combined with a fixed pair
processing order this makes every computation in the package reproducible
byte for byte.  Buchberger's running basis, and a basis on its first normal
form, are packed once as ``polyring.Divisors``: integer order keys with the
leading terms split off, divided on a heap of keys.

Ideal-theoretic operations used by the multiplier algorithms live here as
well: normal forms with cofactor tracking, vector-space dimension of the
quotient, radical membership (Rabinowitsch trick), the least power of a list
of elements lying in an ideal, isolation of the origin, elimination, gcd (a
monomial's in closed form, else a heuristic integer gcd, with the
intersection (p) ∩ (q) = (lcm) as the fallback), and squarefree parts.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
import operator
from typing import Sequence

from kohnmult.polyring import (
    GR_ONE,
    Divisors,
    Poly,
    differentiate,
    exact_divide,
    heuristic_gcd,
    monomial_gcd,
)


class MonomialOrder:
    """Monomial order given by its block splits: graded lex within each
    block, the first block dominant.

    ``splits`` are the variable indices where a block after the first
    starts: () for grlex, (k,) for elim(k), the order that makes the first
    k variables expensive.  A basis under elim(k) intersected with the cheap
    block solves elimination.  ``polyring`` ranks monomials under the
    splits, on packed order keys.
    """

    __slots__ = ("name", "splits")

    def __init__(self, name: str, splits: tuple = ()):
        self.name = name
        self.splits = splits

    def __repr__(self):
        return f"MonomialOrder({self.name})"

    def __eq__(self, other):
        return isinstance(other, MonomialOrder) and self.name == other.name

    @staticmethod
    def grlex() -> "MonomialOrder":
        return MonomialOrder("grlex")

    @staticmethod
    def elim(k: int) -> "MonomialOrder":
        return MonomialOrder(f"elim({k})", (k,))


GRLEX = MonomialOrder.grlex()


def _combine(quots, rows, ngens: int, nv: int) -> list:
    """sum_i quots[i] * rows[i], one entry per original generator."""
    out = [Poly.zero(nv) for _ in range(ngens)]
    for q, row in zip(quots, rows):
        if q.is_zero():
            continue
        for j, a in enumerate(row):
            if not a.is_zero():
                out[j] = out[j] + q * a
    return out


class GroebnerBasis:
    """Monic reduced basis of an ideal, with optional cofactor provenance.

    When built with ``provenance=True`` each basis element carries its
    expression as a combination of the original generators, so
    :meth:`cofactors` can write any ideal member explicitly in terms of the
    generators the caller supplied.
    """

    def __init__(self, gens, basis, order, provenance=None):
        self.gens = tuple(gens)
        self.basis = tuple(basis)
        self.order = order
        self.provenance = provenance  # provenance[i][j]: basis[i] = sum_j prov*gens[j]
        self.nvars = gens[0].nvars if gens else 0

    def is_unit_ideal(self) -> bool:
        return len(self.basis) == 1 and self.basis[0].is_unit()

    def is_zero_ideal(self) -> bool:
        return not self.basis

    @functools.cached_property
    def _divisors(self) -> Divisors:
        return Divisors(self.nvars, self.order.splits, self.basis)

    def normal_form(self, p: Poly) -> Poly:
        if not self.basis:
            return p
        return self._divisors.divide(p, False)[1]

    def contains(self, p: Poly) -> bool:
        return self.normal_form(p).is_zero()

    def cofactors(self, p: Poly):
        """(cofactors over the original generators, remainder).

        p == sum(cof_j * gens_j) + remainder.  Requires provenance tracking.
        """
        if self.provenance is None:
            raise ValueError("basis was computed without provenance tracking")
        quots, r = self._divisors.divide(p, True)
        return _combine(quots, self.provenance, len(self.gens), self.nvars), r

    def leading_monomials(self):
        return [b.leading(self.order.splits)[0] for b in self.basis]


def groebner_basis(
    gens: Sequence[Poly],
    order: MonomialOrder = GRLEX,
    provenance: bool = False,
) -> GroebnerBasis:
    """Buchberger with a fixed pair order, returning the monic reduced basis.

    Pairs are processed by (degree of the leading-term lcm, the lcm itself,
    generator indices); pairs with coprime leading terms, or of two
    monomials, are never queued.  The final interreduction drops redundant
    elements and tail-reduces the rest.
    """
    gens = [g for g in gens]
    if not gens:
        raise ValueError("need at least one generator")
    nv = gens[0].nvars
    for g in gens:
        if g.nvars != nv:
            raise ValueError("generators live in different rings")

    splits = order.splits
    monic: list[Poly] = []
    leads: list[tuple] = []
    provs: list[list[Poly]] = []
    for j, g in enumerate(gens):
        if g.is_zero():
            continue
        m, c = g.leading(splits)
        monic.append(g.monic(splits))
        leads.append(m)
        if provenance:
            provs.append([Poly.const(nv, c.inverse() if t == j else 0) for t in range(len(gens))])
    if not monic:
        return GroebnerBasis(gens, [], order, [] if provenance else None)
    work = Divisors(nv, splits, monic)

    heap: list = []

    def push(i: int, j: int) -> None:
        # coprime leading terms, or two monomials, give nothing new
        if any(map(min, leads[i], leads[j])) and (work.items[i][1] or work.items[j][1]):
            lcm = tuple(map(max, leads[i], leads[j]))
            heapq.heappush(heap, (sum(lcm), lcm, i, j))

    for i, j in itertools.combinations(range(len(leads)), 2):
        push(i, j)

    while heap:
        _, lcm, i, j = heapq.heappop(heap)
        quots, r = work.reduce(lambda: work.s_poly(i, j, lcm), provenance)
        if r.is_zero():
            continue
        m, c = r.leading(splits)
        r = r.monic(splits)
        if provenance:
            # s = (lcm/mi)*work[i] - (lcm/mj)*work[j] = sum(quots*work) + r
            qi, qj = (tuple(map(operator.sub, lcm, leads[t])) for t in (i, j))
            used = _combine(quots, provs, len(gens), nv)
            inv = c.inverse()
            provs.append([(a.mul_term(qi, GR_ONE) - b.mul_term(qj, GR_ONE) - u).scale(inv)
                          for a, b, u in zip(provs[i], provs[j], used)])
        new = len(leads)
        work.add(r)
        leads.append(m)
        for t in range(new):
            push(t, new)

    # interreduce: drop elements whose leading term another divides, then
    # tail-reduce each survivor against the rest; a survivor keeps its monic
    # leading term, so the basis comes out sorted by the order
    kept: list[int] = []
    for t in sorted(range(len(leads)), key=work.keys.__getitem__):
        if not any(all(map(operator.le, leads[s], leads[t])) for s in kept):
            kept.append(t)
    final: list[Poly] = []
    final_prov: list[list[Poly]] = []
    reducers = Divisors(nv, splits, [work.polys[t] for t in kept])
    for idx, t in enumerate(kept):
        # reduce the tail by every survivor: no other survivor's leading term
        # divides this leading term, and this one divides no term below it
        quots, r = reducers.reduce(lambda: dict(reducers.items[idx][1]), provenance)
        final.append(r + Poly.monomial(nv, leads[t]))
        if provenance:
            used = _combine(quots, [provs[s] for s in kept], len(gens), nv)
            final_prov.append([a - u for a, u in zip(provs[t], used)])
    return GroebnerBasis(gens, final, order, final_prov if provenance else None)


def _as_gb(gens_or_gb) -> GroebnerBasis:
    if isinstance(gens_or_gb, GroebnerBasis):
        return gens_or_gb
    return groebner_basis(list(gens_or_gb))


def ideal_membership(p: Poly, gens_or_gb) -> bool:
    return _as_gb(gens_or_gb).contains(p)


def quotient_dimension(gens_or_gb):
    """dim of k[z]/I as a vector space; math.inf when not finite."""
    stairs = standard_monomials(gens_or_gb)
    return math.inf if stairs is None else len(stairs)


def standard_monomials(gens_or_gb):
    """Monomials spanning k[z]/I, graded-lex ascending; None when infinite.

    Finite iff for every variable some leading monomial is a pure power of
    it; then the standard monomials lie in the box those powers bound.
    """
    gb = _as_gb(gens_or_gb)
    if gb.is_unit_ideal():
        return []
    if gb.is_zero_ideal():
        return None
    lms = gb.leading_monomials()
    bounds = []
    for k in range(gb.nvars):
        pure = [m[k] for m in lms if m[k] and sum(m) == m[k]]
        if not pure:
            return None
        bounds.append(min(pure))
    out = [
        mono
        for mono in itertools.product(*(range(b) for b in bounds))
        if not any(all(map(operator.le, m, mono)) for m in lms)
    ]
    out.sort(key=lambda m: (sum(m), m))
    return out


def power_in_ideal(p: Poly, s: int, gens_or_gb) -> bool:
    """Whether p^s lies in the ideal, via squaring of normal forms.

    The normal form map is the projection onto the quotient ring, so
    NF(p^s) can be built from NF(p) by square-and-multiply with a reduction
    after every product; the huge intermediate power is never expanded.
    """
    if s < 1:
        raise ValueError("power must be >= 1")
    gb = _as_gb(gens_or_gb)
    r = gb.normal_form(p)
    acc = None
    while True:
        if s & 1:
            acc = r if acc is None else gb.normal_form(acc * r)
            if acc.is_zero():
                return True
        s >>= 1
        if not s:
            return acc.is_zero()
        r = gb.normal_form(r * r)
        if r.is_zero():
            # a set bit remains, so the final product picks up this zero
            return True


def least_power(gens: Sequence[Poly], gens_or_gb, cap: int):
    """Least s <= cap with every s-fold product of ``gens`` in the ideal, else
    None: for one element its least power, for the variables the least m^s.

    One ascending scan over s.  Layer s holds the nonzero normal forms of the
    s-fold products, taken as multisets: a product is extended only by
    generators at or after its last factor.  NF(NF(p)*g) = NF(p*g), and a
    product in the ideal stays there when extended, so the first empty layer
    is the least s.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    gb = _as_gb(gens_or_gb)
    gens = [g for g in gens if not g.is_zero()]
    if any(g.is_constant() for g in gens):
        return 1 if gb.is_unit_ideal() else None

    layer = [(0, Poly.one(gb.nvars))]  # (index of the last factor, normal form)
    for s in range(1, cap + 1):
        nxt = []
        for last, p in layer:
            for j in range(last, len(gens)):
                r = gb.normal_form(p * gens[j])
                if not r.is_zero():
                    nxt.append((j, r))
        if not nxt:
            return s
        layer = nxt
    return None


def radical_membership(p: Poly, gens: Sequence[Poly]) -> bool:
    """p in rad(I), decided by adjoining t and testing 1 in I + (1 - t*p)."""
    if p.is_zero():
        return True
    gens = list(gens)
    n = p.nvars
    places = range(1, n + 1)
    lifted = [g.remap(n + 1, places) for g in gens]
    tp = p.remap(n + 1, places).mul_term((0,) * n + (1,), GR_ONE)
    gb = groebner_basis(lifted + [Poly.one(n + 1) - tp])
    return gb.is_unit_ideal()


def origin_isolated(gens_or_gb) -> bool:
    """Whether the ideal has no zero other than the origin.

    Infinitely many zeros make the quotient infinite (finiteness theorem).
    A finite quotient of dimension q with no zero but 0 is local, and its
    maximal ideal m loses a dimension at each power, so m^q = 0 and each
    z_j^q lies in the ideal; a zero away from 0 keeps some z_j's powers out.
    """
    gb = _as_gb(gens_or_gb)
    q = quotient_dimension(gb)
    if q == math.inf:
        return False
    n = gb.nvars
    return all(power_in_ideal(Poly.variable(n, j), max(q, 1), gb) for j in range(1, n + 1))


def eliminate(gens: Sequence[Poly], drop: Sequence[int]) -> list:
    """Generators of the ideal's intersection with the subring that omits
    the 1-based variables in ``drop``; results live in the smaller ring,
    remaining variables keeping their relative order."""
    gens = list(gens)
    n = gens[0].nvars
    drop_set = sorted(set(drop))
    for d in drop_set:
        if not 1 <= d <= n:
            raise ValueError(f"variable index {d} out of range 1..{n}")
    keep = [j for j in range(1, n + 1) if j not in drop_set]
    k = len(drop_set)
    # dropped variables first, so the elimination order makes them expensive
    layout = drop_set + keep
    places = [layout.index(j) + 1 for j in range(1, n + 1)]
    gb = groebner_basis([g.remap(n, places) for g in gens], order=MonomialOrder.elim(k))
    restrict = [None] * k + list(range(1, len(keep) + 1))
    return [
        b.remap(len(keep), restrict)
        for b in gb.basis
        if all(b.degree_in(j) == 0 for j in range(1, k + 1))
    ]


# ---------------------------------------------------------------------------
# gcd: a monomial's closed form, the heuristic integer gcd, or p*q over the lcm

def multivariate_gcd(p: Poly, q: Poly) -> Poly:
    """gcd over Q(i)[z], normalized monic in graded lex; gcd(0, 0) = 0.

    A one-term operand c*z^a gives the closed form :func:`monomial_gcd`,
    over Q and Q(i) alike; the heuristic integer gcd answers the rest, its
    rare failures and Gaussian data going to :func:`_intersection_gcd`.  The
    monic gcd is unique, so every path gives the same polynomial.
    """
    g = monomial_gcd(p, q) or heuristic_gcd(p, q)
    return _intersection_gcd(p, q) if g is None else g


def _intersection_gcd(p: Poly, q: Poly) -> Poly:
    """multivariate_gcd as p*q / lcm(p, q).  (p) and (q) meet in (lcm), the
    part of (t*p, (1-t)*q) free of a new variable t; the reduced basis of a
    principal ideal is its one monic generator."""
    if p.is_zero():
        return q if q.is_zero() else q.monic()
    if q.is_zero():
        return p.monic()
    n = p.nvars
    places = range(2, n + 2)
    t = Poly.variable(n + 1, 1)
    lp, lq = p.remap(n + 1, places), q.remap(n + 1, places)
    (lcm,) = eliminate([t * lp, lq - t * lq], [1])
    return _exact(p * q, lcm).monic()


def _exact(p: Poly, d: Poly) -> Poly:
    q = exact_divide(p, d)
    if q is None:
        raise ArithmeticError("exact division failed inside gcd")
    return q


def squarefree_part(p: Poly) -> Poly:
    """Product of the distinct irreducible factors, monic; 0 and units map
    to themselves (a unit to 1), and a term c*z^a to the product of the z_j
    with a_j > 0, its gcd with z1*...*zn."""
    if p.is_zero():
        return p
    if p.is_constant():
        return Poly.one(p.nvars)
    if p.term_count() == 1:
        return monomial_gcd(p, Poly.monomial(p.nvars, (1,) * p.nvars))
    g = p
    for j in range(1, p.nvars + 1):
        d = differentiate(p, j)
        if not d.is_zero():
            g = multivariate_gcd(g, d)
        if g.is_unit():
            return p.monic()
    return _exact(p, g).monic()
