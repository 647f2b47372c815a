"""Independent oracles used by the test suite.

Everything in this file is deliberately dumb: plain enumeration, exact
Gaussian elimination over the coefficient field, and each polynomial
operation restated term by term on dicts of exponent tuples.  The one exception is the
plain division loop and Buchberger's algorithm on exponent tuples that the
packed division kernel must reproduce term for term (``divide_reference``,
``groebner_reference``); they share no code with the engine's.  The point is
that agreement between these and the engine is evidence, not circularity.
The radical loop's round (``jacobian_ideal_gens_reference``,
``certified_radical_reference``) is kept as it read before the loop
certified the variables first and cached its determinants: the engine's
primitives, without the shortcuts.  The power scans
(``least_power_reference``, ``power_in_ideal_reference``) multiply Polys
and take exact normal forms, as the engine's scans did before they kept
their normal forms packed in the basis' divisors.
"""

import itertools
import math
import random

from kohnmult.groebner import (
    GroebnerBasis,
    groebner_basis,
    multivariate_gcd,
    power_in_ideal,
    radical_membership,
    squarefree_part,
)
from kohnmult.polyring import (
    GaussRat,
    Poly,
    differentiate,
    gr,
    jacobian_det,
    poly_matrix_adjugate,
)


# ---------------------------------------------------------------------------
# truncated-jet multiplicity
# ---------------------------------------------------------------------------

def monomials_below(nvars, degree):
    """All exponent tuples of total degree < degree, in a fixed order."""
    out = []
    for total in range(degree):
        for combo in itertools.combinations_with_replacement(range(nvars), total):
            mono = [0] * nvars
            for j in combo:
                mono[j] += 1
            out.append(tuple(mono))
    return out


def _row_reduce(rows):
    """Rank of a list of dict-backed sparse rows {col: GaussRat} via exact
    elimination.  Destroys its argument."""
    pivots = {}
    rank = 0
    for row in rows:
        row = dict(row)
        while row:
            col = min(row)
            if col not in pivots:
                inv = row[col].inverse()
                pivots[col] = {c: v * inv for c, v in row.items()}
                rank += 1
                break
            lead = row[col]
            for c, v in pivots[col].items():
                acc = row.get(c, GaussRat()) - lead * v
                if acc:
                    row[c] = acc
                else:
                    row.pop(c, None)
        # an emptied row contributes nothing
    return rank


def jet_dimension(gens, degree):
    """dim of (polynomials of degree < degree) / (truncated shifts of gens).

    Rows are x^a * g truncated below the cut; columns are indexed by the
    monomials below the cut.
    """
    nvars = gens[0].nvars
    cols = {m: i for i, m in enumerate(monomials_below(nvars, degree))}
    rows = []
    for g in gens:
        for shift in monomials_below(nvars, degree):
            row = {}
            for mono, c in g.terms.items():
                prod = tuple(a + b for a, b in zip(mono, shift))
                if sum(prod) < degree:
                    row[cols[prod]] = row.get(cols[prod], GaussRat()) + c
            row = {k: v for k, v in row.items() if v}
            if row:
                rows.append(row)
    return len(cols) - _row_reduce(rows)


def jet_multiplicity(gens, start=3, limit=40):
    """Vanishing-order-weighted multiplicity at the origin, computed by
    growing the jet cut until the dimension stops moving.

    Returns the stabilized dimension, or None if no stabilization was seen
    below the limit (callers treat that as "infinite or too large").
    """
    prev = None
    streak = 0
    for degree in range(start, limit):
        cur = jet_dimension(gens, degree)
        if cur == prev:
            streak += 1
            if streak >= 2:
                return cur
        else:
            streak = 0
        prev = cur
    return None


# ---------------------------------------------------------------------------
# monomial-ideal staircases
# ---------------------------------------------------------------------------

def staircase_quotient(monos):
    """Quotient dimension of a monomial ideal in 2 variables, by brute
    divisibility counting.  Returns math.inf when no box bounds the
    staircase."""
    monos = [m for m in monos if m is not None]
    if not monos:
        return math.inf
    if any(sum(m) == 0 for m in monos):
        return 0
    xcap = min((a for a, b in monos if b == 0), default=None)
    ycap = min((b for a, b in monos if a == 0), default=None)
    if xcap is None or ycap is None:
        return math.inf
    count = 0
    for a in range(xcap):
        for b in range(ycap):
            if not any(a >= p and b >= q for p, q in monos):
                count += 1
    return count


def standard_monomials_brute(monos):
    """The staircase itself (exponent tuples not divisible by any generator),
    or None when it is infinite."""
    dim = staircase_quotient(monos)
    if dim is math.inf:
        return None
    xcap = min(a for a, b in monos if b == 0)
    ycap = min(b for a, b in monos if a == 0)
    out = [
        (a, b)
        for a in range(xcap)
        for b in range(ycap)
        if not any(a >= p and b >= q for p, q in monos)
    ]
    out.sort(key=lambda m: (sum(m), m))
    return out


def all_antichains(max_degree=4):
    """Every antichain of 2-variable monomials of total degree <= max_degree,
    under divisibility.  Each antichain is a minimal generating set of a
    distinct monomial ideal; the empty antichain (zero ideal) is skipped."""
    monos = [
        (a, b)
        for a in range(max_degree + 1)
        for b in range(max_degree + 1 - a)
    ]
    monos.sort(key=lambda m: (sum(m), m))

    def divides(p, q):
        return p[0] <= q[0] and p[1] <= q[1]

    results = []

    def extend(prefix, start):
        for i in range(start, len(monos)):
            cand = monos[i]
            if any(divides(p, cand) or divides(cand, p) for p in prefix):
                continue
            chosen = prefix + [cand]
            results.append(tuple(chosen))
            extend(chosen, i + 1)

    extend([], 0)
    return results


# ---------------------------------------------------------------------------
# least powers in an ideal, m^k containment and isolation of the origin
# ---------------------------------------------------------------------------

def uniform_power_brute(gens, in_ideal, cap):
    """Least s <= cap with every s-fold product of gens in the ideal, else None.

    Every cap-fold product is multiplied out in full and tested with the
    membership predicate `in_ideal`; when all lie in the ideal, bisection
    finds the least s the same way.  Products with a zero factor are zero,
    so with no nonzero generator every product lies in the ideal.
    """
    gens = [g for g in gens if not g.is_zero()]

    def holds(s):
        for combo in itertools.combinations_with_replacement(gens, s):
            prod = combo[0]
            for f in combo[1:]:
                prod = prod * f
            if not in_ideal(prod):
                return False
        return True

    if not holds(cap):
        return None
    lo, hi = 1, cap
    while lo < hi:
        mid = (lo + hi) // 2
        if holds(mid):
            hi = mid
        else:
            lo = mid + 1
    return hi


def min_power_brute(p, in_ideal, cap):
    """Least s <= cap with p^s in the ideal, else None: test the cap, bracket
    by doubling, finish by bisection, expanding p^s in full at every probe."""
    if not in_ideal(p**cap):
        return None
    lo, hi = 0, 1
    while hi < cap and not in_ideal(p**hi):
        lo, hi = hi, min(2 * hi, cap)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if in_ideal(p**mid):
            hi = mid
        else:
            lo = mid
    return hi


def maximal_power_brute(nvars, in_ideal, k):
    """Whether every monomial of total degree k lies in the ideal."""
    return all(
        in_ideal(Poly.monomial(nvars, mono)) for mono in monomials_below(nvars, k + 1)
        if sum(mono) == k
    )


def origin_isolated_brute(nvars, in_radical):
    """Whether every variable lies in the radical, one membership test each."""
    return all(in_radical(Poly.variable(nvars, j)) for j in range(1, nvars + 1))


# ---------------------------------------------------------------------------
# matrix contractions to a vector multiplier, as literal triple sums
# ---------------------------------------------------------------------------

def matrix_to_vector_brute(entries):
    """b_j = sum_{p,l} adj(a)_{pl} * d_p a_{lj}, one term at a time."""
    n = len(entries)
    nv = entries[0][0].nvars
    adj = poly_matrix_adjugate([list(r) for r in entries])
    b = []
    for j in range(n):
        acc = Poly.zero(nv)
        for p in range(n):
            for ell in range(n):
                acc = acc + adj[p][ell] * differentiate(entries[ell][j], p + 1)
        b.append(acc)
    return b


def general_gamma_brute(Gamma, A, entries):
    """b_j = sum_{p,k,l} Gamma_{pk} A_{kl} * d_p a_{lj}, one term at a time."""
    n = len(entries)
    nv = entries[0][0].nvars
    b = []
    for j in range(n):
        acc = Poly.zero(nv)
        for p in range(n):
            for k in range(n):
                if Gamma[p][k].is_zero():
                    continue
                for ell in range(n):
                    acc = acc + Gamma[p][k] * A[k][ell] * differentiate(
                        entries[ell][j], p + 1
                    )
        b.append(acc)
    return b


# ---------------------------------------------------------------------------
# polynomial operations on term dicts
# ---------------------------------------------------------------------------
#
# A term dict maps exponent tuples to nonzero GaussRat coefficients.  Each
# operation below walks its dicts term by term; the packed Poly operations of
# ``kohnmult.polyring`` are checked against them.

def _nonzero(terms):
    return {m: c for m, c in terms.items() if c}


def terms_add(a, b, sign=1):
    """a + sign*b, sign 1 or -1."""
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, GaussRat()) + (c if sign > 0 else -c)
    return _nonzero(out)


def terms_scale(a, c):
    return _nonzero({m: v * c for m, v in a.items()})


def terms_mul(a, b):
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            out[m] = out.get(m, GaussRat()) + ca * cb
    return _nonzero(out)


def terms_pow(a, nvars, n):
    out = {(0,) * nvars: GaussRat(1)}
    for _ in range(n):
        out = terms_mul(out, a)
    return out


def terms_derivative(a, index):
    """The partial derivative in the 1-based variable ``index``."""
    i = index - 1
    return {m[:i] + (m[i] - 1,) + m[i + 1:]: c * GaussRat(m[i]) for m, c in a.items() if m[i]}


def terms_leading(a):
    """(monomial, coefficient) of the largest term in graded lex with
    z1 > z2 > ... ."""
    mono = max(a, key=lambda m: (sum(m), m))
    return mono, a[mono]


def terms_coefficients_in(a, index):
    """[c_0, ..., c_d] with a = sum c_k * z_index^k, z_index's slot of each
    c_k set to 0."""
    i = index - 1
    out = [{} for _ in range(max((m[i] for m in a), default=-1) + 1)]
    for m, c in a.items():
        out[m[i]][m[:i] + (0,) + m[i + 1:]] = c
    return out


def terms_remap(a, nvars, places):
    """a in nvars variables, variable k+1 moved to places[k], and the terms
    using a variable whose place is None dropped."""
    out = {}
    for m, c in a.items():
        if any(e and t is None for e, t in zip(m, places)):
            continue
        new = [0] * nvars
        for e, t in zip(m, places):
            if t is not None:
                new[t - 1] = e
        out[tuple(new)] = c
    return out


def terms_compose(a, subs, nvars):
    """a with the term dict subs[k] in nvars variables substituted for its
    variable k+1."""
    out = {}
    for m, c in a.items():
        piece = {(0,) * nvars: c}
        for s, e in zip(subs, m):
            for _ in range(e):
                piece = terms_mul(piece, s)
        out = terms_add(out, piece)
    return out


def reference_print(terms, names):
    """The canonical text of a term dict (``kohnmult.polyring``'s grammar),
    written from exponent tuples and Fractions."""
    if not terms:
        return "0"
    out = []
    for mono in sorted(terms, key=lambda m: (sum(m), m), reverse=True):
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


# ---------------------------------------------------------------------------
# random polynomial builders (never via the parser: constructed term by term)
# ---------------------------------------------------------------------------

def random_poly(rng, nvars, max_degree, max_terms=4, zero_constant=False,
                gaussian=False):
    """A random sparse polynomial with small integer (or Gaussian integer)
    coefficients.  Never returns the zero polynomial."""
    while True:
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            total = rng.randint(1 if zero_constant else 0, max_degree)
            cuts = sorted(rng.randint(0, total) for _ in range(nvars - 1))
            mono = tuple(
                b - a for a, b in zip([0] + cuts, cuts + [total])
            )
            re = rng.randint(-3, 3)
            im = rng.randint(-3, 3) if gaussian else 0
            if re == 0 and im == 0:
                re = 1
            terms[mono] = GaussRat(re, im)
        p = sum(
            (Poly.monomial(nvars, m, c) for m, c in terms.items()),
            Poly.zero(nvars),
        )
        if not p.is_zero():
            return p


def order_key(splits=()):
    """Sort key on exponent tuples for the monomial order of block
    boundaries ``splits``: graded lex within each block, the first block
    dominant.  () is graded lex and (k,) the elimination order elim(k)."""
    def key(mono):
        bounds = (0, *splits, len(mono))
        return tuple(itertools.chain.from_iterable(
            (sum(mono[a:b]), mono[a:b]) for a, b in zip(bounds, bounds[1:])))
    return key


def divide_reference(p, divisors, key, want_quotients):
    """Multivariate division term by term on exponent tuples, as
    ``kohnmult.polyring.divide`` defines it: each step takes the largest
    term under the sort key ``key`` and reduces it by the first divisor, in
    list order, whose leading monomial divides it.  Returns (quotient term
    dicts or None, remainder term dict)."""
    lts = [max(d.terms.items(), key=lambda item: key(item[0])) for d in divisors]
    quots = [{} for _ in divisors] if want_quotients else None
    rem = {}
    work = dict(p.terms)
    while work:
        mono = max(work, key=key)
        c = work.pop(mono)
        for idx, (ltm, ltc) in enumerate(lts):
            if all(x <= y for x, y in zip(ltm, mono)):
                qm = tuple(y - x for x, y in zip(ltm, mono))
                qc = c / ltc
                if want_quotients:
                    quots[idx][qm] = qc
                for bm, bc in divisors[idx].terms.items():
                    if bm == ltm:
                        continue
                    tm = tuple(x + y for x, y in zip(bm, qm))
                    s = work.get(tm, GaussRat()) - bc * qc
                    if s:
                        work[tm] = s
                    else:
                        work.pop(tm, None)
                break
        else:
            rem[mono] = c
    return quots, rem


def groebner_reference(gens, key, provenance):
    """(basis, provenance rows or None) of Buchberger's algorithm on exponent
    tuples with ``divide_reference``, in the order ``kohnmult.groebner``
    fixes: generators made monic, pairs taken by (degree of the lcm of
    their leading monomials, that lcm, indices), coprime pairs skipped,
    then interreduction of the survivors in ascending order.  Row i holds
    basis[i]'s cofactors over gens."""
    nv, ng = gens[0].nvars, len(gens)

    def lead(p):
        return max(p.terms.items(), key=lambda item: key(item[0]))

    def as_poly(terms):
        return Poly(nv, terms)

    def combine(quots, rows):
        out = [Poly.zero(nv) for _ in range(ng)]
        for q, row in zip(quots, rows):
            for j, a in enumerate(row):
                out[j] = out[j] + as_poly(q) * a
        return out

    work, provs = [], []
    for j, g in enumerate(gens):
        if g.is_zero():
            continue
        inv = lead(g)[1].inverse()
        work.append(g.scale(inv))
        provs.append([Poly.const(nv, inv if t == j else 0) for t in range(ng)])
    pairs = []
    for j in range(len(work)):
        for i in range(j):
            lcm = tuple(map(max, lead(work[i])[0], lead(work[j])[0]))
            pairs.append((sum(lcm), lcm, i, j))
    while pairs:
        pairs.sort()
        _, lcm, i, j = pairs.pop(0)
        mi, mj = lead(work[i])[0], lead(work[j])[0]
        if lcm == tuple(a + b for a, b in zip(mi, mj)):
            continue
        qi, qj = (tuple(a - b for a, b in zip(lcm, m)) for m in (mi, mj))
        s = work[i].mul_term(qi, GaussRat(1)) - work[j].mul_term(qj, GaussRat(1))
        quots, rem = divide_reference(s, work, key, True)
        if not rem:
            continue
        inv = lead(as_poly(rem))[1].inverse()
        used = combine(quots, provs)
        provs.append([(a.mul_term(qi, GaussRat(1)) - b.mul_term(qj, GaussRat(1)) - u).scale(inv)
                      for a, b, u in zip(provs[i], provs[j], used)])
        work.append(as_poly(rem).scale(inv))
        new = len(work) - 1
        for t in range(new):
            lcm = tuple(map(max, lead(work[t])[0], lead(work[new])[0]))
            pairs.append((sum(lcm), lcm, t, new))
    order = sorted(range(len(work)), key=lambda t: key(lead(work[t])[0]))
    kept = []
    for t in order:
        if not any(all(a <= b for a, b in zip(lead(work[s])[0], lead(work[t])[0])) for s in kept):
            kept.append(t)
    basis, rows = [], []
    for t in kept:
        others = [s for s in kept if s != t]
        quots, rem = divide_reference(work[t], [work[s] for s in others], key, True)
        inv = lead(as_poly(rem))[1].inverse()
        basis.append(as_poly(rem).scale(inv))
        used = combine(quots, [provs[s] for s in others])
        rows.append([(a - u).scale(inv) for a, u in zip(provs[t], used)])
    order = sorted(range(len(basis)), key=lambda t: key(lead(basis[t])[0]))
    return [basis[t] for t in order], [rows[t] for t in order] if provenance else None


# ---------------------------------------------------------------------------
# the power scans on Polys: each product built with Poly.__mul__ and reduced
# to its exact normal form, as the engine's scans read before they kept
# their normal forms packed in the basis' divisors
# ---------------------------------------------------------------------------

def _reference_gb(gens_or_gb):
    if isinstance(gens_or_gb, GroebnerBasis):
        return gens_or_gb
    return groebner_basis(list(gens_or_gb))


def power_in_ideal_reference(p, s, gens_or_gb):
    """Whether p^s lies in the ideal, by square-and-multiply on exact normal
    forms."""
    if s < 1:
        raise ValueError("power must be >= 1")
    gb = _reference_gb(gens_or_gb)
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
            return True


def least_power_reference(gens, gens_or_gb, cap):
    """Least s <= cap with every s-fold product of gens in the ideal, else
    None, by layers of exact normal forms of multiset products."""
    if cap < 1:
        raise ValueError("cap must be >= 1")
    gb = _reference_gb(gens_or_gb)
    gens = [g for g in gens if not g.is_zero()]
    if any(g.is_constant() for g in gens):
        return 1 if gb.is_unit_ideal() else None
    layer = [(0, Poly.one(gb.nvars))]
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


# ---------------------------------------------------------------------------
# one round of the radical loop: a fresh determinant for each subset, and
# the full candidate search before any certificate
# ---------------------------------------------------------------------------

def jacobian_ideal_gens_reference(v_list, nvars):
    """Monic Jacobian determinants of all n-subsets of V, deduplicated, in subset order."""
    out = {}  # insertion-ordered set
    for combo in itertools.combinations(range(len(v_list)), nvars):
        d = jacobian_det([v_list[i] for i in combo])
        if not d.is_zero():
            out.setdefault(d.monic())
    return list(out)


def _push_unique(acc, p):
    """Add p made monic to the insertion-ordered set ``acc``, unless p is constant."""
    if not p.is_constant():
        acc.setdefault(p.monic())


def certified_radical_reference(j_gens, j_gb, nvars, power_cap, degree_cap):
    """(generators, complete) of the round's certified radical, every
    candidate built and tested before the variables are looked at."""
    if j_gb.is_unit_ideal():
        return (Poly.one(nvars),), True
    if len(j_gb.basis) == 1:
        return (squarefree_part(j_gb.basis[0]),), True

    # many pairwise gcds coincide; take each distinct one's squarefree part
    # once (every input below is monic: J's generators and basis, and gcds)
    parts = {}

    def part(p):
        got = parts.get(p)
        if got is None:
            got = parts[p] = squarefree_part(p)
        return got

    variables = [Poly.variable(nvars, k) for k in range(1, nvars + 1)]
    candidates = {}
    for v in variables:
        _push_unique(candidates, v)
    for g in j_gens:
        _push_unique(candidates, part(g))
    for b in j_gb.basis:
        if b.total_degree() <= degree_cap:
            _push_unique(candidates, part(b))
    for a, b in itertools.combinations(j_gens, 2):
        d = multivariate_gcd(a, b)
        if 0 < d.total_degree() <= degree_cap:
            _push_unique(candidates, part(d))

    # a bounded-power witness is preferred; Rabinowitsch decides the leftovers
    certified = [
        c for c in candidates
        if power_in_ideal(c, power_cap, j_gb) or radical_membership(c, j_gens)
    ]

    if all(any(v == c for c in certified) for v in variables):
        # V(J) = {0}: the radical is the maximal ideal, generated by the variables
        return tuple(variables), True

    i_out = dict.fromkeys(certified)
    for g in j_gens:
        _push_unique(i_out, g)
    return tuple(i_out), False


def random_matrix(rng, n, max_degree=3, max_terms=3):
    """An n x n matrix of random polynomials in n variables."""
    return tuple(
        tuple(
            random_poly(rng, n, max_degree, max_terms=max_terms)
            for _ in range(n)
        )
        for _ in range(n)
    )


def linear_form(nvars, coeffs):
    """sum_j coeffs[j] * z_{j+1} as an exact polynomial."""
    p = Poly.zero(nvars)
    for j, c in enumerate(coeffs):
        if c:
            mono = tuple(1 if k == j else 0 for k in range(nvars))
            p = p + Poly.monomial(nvars, mono, gr(c))
    return p


def make_rng(label):
    """Deterministic RNG seeded from a short label, so every test names its
    stream."""
    return random.Random(f"oracle:{label}")
