"""Deterministic Groebner bases over Q(i) and the ideal operations built on them.

The basis returned by :func:`groebner_basis` is the monic reduced basis, which
is unique for a given ideal and monomial order; combined with a fixed pair
processing order this makes every computation in the package reproducible
byte for byte.  Buchberger's running basis, and a basis on its first normal
form, are packed once as ``polyring.Divisors``: integer order keys and
integer numerators with the leading terms split off, pseudo-divided on a
heap of keys.  One ascending power scan, :func:`least_power`, keeps its
normal forms there too and stops at the least power in the ideal.

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
from fractions import Fraction
from typing import Sequence

from kohnmult.polyring import (
    GR_ONE,
    Divisors,
    Poly,
    differentiate,
    exact_divide,
    gr,
    heuristic_gcd,
    monomial_gcd,
)


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

    def __init__(self, gens, basis, splits, provenance=None):
        self.gens = tuple(gens)
        self.basis = tuple(basis)
        self.splits = splits
        self.provenance = provenance  # provenance[i][j]: basis[i] = sum_j prov*gens[j]
        self.nvars = gens[0].nvars if gens else 0

    def is_unit_ideal(self) -> bool:
        return len(self.basis) == 1 and self.basis[0].is_unit()

    def is_zero_ideal(self) -> bool:
        return not self.basis

    @functools.cached_property
    def _divisors(self) -> Divisors:
        return Divisors(self.nvars, self.splits, self.basis)

    def normal_form(self, p: Poly) -> Poly:
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
        return [b.leading(self.splits)[0] for b in self.basis]


def groebner_basis(
    gens: Sequence[Poly],
    splits: tuple = (),
    provenance: bool = False,
) -> GroebnerBasis:
    """Buchberger with a fixed pair order, returning the monic reduced basis
    under the monomial order of block splits ``splits``: () for grlex, (k,)
    for elim(k), which makes the first k variables expensive.

    Pairs are processed by (degree of the leading-term lcm, the lcm itself,
    generator indices); pairs with coprime leading terms, or of two
    monomials, are never queued.  The final interreduction drops redundant
    elements and tail-reduces the rest.  A nonzero constant generator gives
    the basis (1) at once, with that generator's cofactor.
    """
    gens = [g for g in gens]
    if not gens:
        raise ValueError("need at least one generator")
    nv = gens[0].nvars
    for g in gens:
        if g.nvars != nv:
            raise ValueError("generators live in different rings")

    cols = [j for j, g in enumerate(gens) if g]
    for j in cols:
        if gens[j].is_constant():
            # a nonzero constant: the unit ideal, 1 = g_j / c
            prov = [[Poly.const(nv, gens[j].constant_value().inverse() if t == j else 0)
                     for t in range(len(gens))]] if provenance else None
            return GroebnerBasis(gens, [Poly.one(nv)], splits, prov)
    if not cols:
        return GroebnerBasis(gens, [], splits, [] if provenance else None)
    # divisor i is an integer polynomial, a generator times its denominator
    # or an S-remainder over its content; provs[i] writes it over the gens
    work = Divisors(nv, splits, [gens[j] for j in cols])
    leads = [work.leading_monomial(i) for i in range(len(cols))]
    provs = [[Poly.const(nv, d if t == j else 0) for t in range(len(gens))]
             for j, d in zip(cols, work.dens)] if provenance else []

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
        quots, r, s = work.reduce(lambda: work.s_poly(i, j, lcm), provenance)
        if not r:
            continue
        if provenance:
            # s*(L_j*(lcm/mi)*work[i] - L_i*(lcm/mj)*work[j]) = sum(quots*work) + r
            qi, qj = (tuple(map(operator.sub, lcm, leads[t])) for t in (i, j))
            a, b = (gr(work.items[t][0].real, work.items[t][0].imag) for t in (j, i))
            used = _combine([work.poly(q, s) for q in quots], provs, len(gens), nv)
        new = len(leads)
        content = work.add(r)
        leads.append(work.leading_monomial(new))
        if provenance:
            provs.append([(x.mul_term(qi, a) - y.mul_term(qj, b) - u).scale(Fraction(s, content))
                          for x, y, u in zip(provs[i], provs[j], used)])
        for t in range(new):
            push(t, new)

    # interreduce: drop elements whose leading term another divides, then
    # tail-reduce each survivor against the rest; a survivor keeps its
    # leading term, made monic, so the basis comes out sorted by the order
    kept: list[int] = []
    for t in sorted(range(len(leads)), key=work.keys.__getitem__):
        if not any(all(map(operator.le, leads[s], leads[t])) for s in kept):
            kept.append(t)
    final: list[Poly] = []
    final_prov: list[list[Poly]] = []
    # the divisors shrink to the survivors, in that order
    work.keys, work.items, work.dens = ([seq[t] for t in kept]
                                        for seq in (work.keys, work.items, work.dens))
    for idx, t in enumerate(kept):
        # reduce the tail by every survivor: no other survivor's leading term
        # divides this leading term, and this one divides no term below it;
        # (items hold it negated) s*tail = sum(quots*work) + r, so the
        # element is (s*L*lead + r)/(s*L)
        quots, r, s = work.reduce(lambda: {k: -c for k, c in work.items[idx][1]}, provenance)
        lc = work.items[idx][0]
        r[work.keys[idx]] = s * lc
        final.append(work.poly(r, s * lc))
        if provenance:
            used = _combine([work.poly(q, s) for q in quots], [provs[u] for u in kept],
                            len(gens), nv)
            inv = gr(lc.real, lc.imag).inverse()
            final_prov.append([(x - u).scale(inv) for x, u in zip(provs[t], used)])
    return GroebnerBasis(gens, final, splits, final_prov if provenance else None)


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


def least_power(gens: Sequence[Poly], gens_or_gb, cap: int):
    """Least s <= cap with every s-fold product of ``gens`` in the ideal, else
    None: for one element its least power, for the variables the least m^s.

    The package's one power scan, ascending over s and stopping at the least
    power; :func:`power_in_ideal` is its yes-or-no form.  Layer s holds the
    nonzero normal forms of the s-fold products, taken as multisets: a
    product is extended only by generators at or after its last factor.
    NF(NF(p)*g) = NF(p*g), and a product in the ideal stays there when
    extended, so the first empty layer is the least s.  The normal forms stay
    packed in the basis' ``Divisors``, up to a constant, which a zero test
    ignores.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    gb = _as_gb(gens_or_gb)
    gens = [g for g in gens if not g.is_zero()]
    if any(g.is_constant() for g in gens):
        return 1 if gb.is_unit_ideal() else None

    div = gb._divisors
    gens = [div.encode(g) for g in gens]
    layer = [(0, div.encode(Poly.one(gb.nvars)))]  # (index of the last factor, normal form)
    for s in range(1, cap + 1):
        nxt = []
        for last, p in layer:
            for j in range(last, len(gens)):
                r = div.times(p, gens[j])
                if r is not None:
                    nxt.append((j, r))
        if not nxt:
            return s
        layer = nxt
    return None


def power_in_ideal(p: Poly, s: int, gens_or_gb) -> bool:
    """Whether p^s lies in the ideal: p^t in I for some t <= s exactly when
    p^s is, so this is the scan of :func:`least_power` capped at s."""
    return least_power([p], gens_or_gb, s) is not None


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
    gb = groebner_basis([g.remap(n, places) for g in gens], (k,))
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
