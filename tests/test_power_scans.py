"""The power scan and exact quotients on integer numerators.

`groebner.least_power`, the one power scan (`groebner.power_in_ideal` is
its yes-or-no form), keeps each running normal form as a key dict of the
basis' `polyring.Divisors`, up to a positive constant: products come from
the packed kernel on order keys and reductions from `Divisors.reduce`,
which pseudo-divides.  The references in
`oracles` multiply Polys and take exact normal forms, so every answer must
agree: over Q and Q(i), under graded lex and elim(k), and where a product
outgrows the width the basis was packed at.  `GroebnerBasis.cofactors` and
`exact_divide` divide the pseudo-division's scale back out, so their
quotients must equal the plain division's of `oracles.divide_reference`
term for term, for divisors that are not monic or not integral.
"""

import random
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from kohnmult import groebner, kohn_full_radical, polyring
from kohnmult.groebner import groebner_basis, least_power, power_in_ideal
from kohnmult.multiplier_core import SpecialDomain
from kohnmult.polyring import Poly, exact_divide, gr, parse_poly

from oracles import (
    divide_reference,
    least_power_reference,
    order_key,
    power_in_ideal_reference,
    random_poly,
)


def _splits(nv, split):
    return (split,) if 0 < split < nv else ()


def _scan_setup(nv, seed, split, gaussian):
    """A basis of low-degree generators, so that products of the higher-degree
    probes set guard bits at the width the basis is packed at."""
    rng = random.Random(seed)
    gens = [random_poly(rng, nv, 2, max_terms=3, gaussian=gaussian and rng.random() < 0.5)
            for _ in range(rng.randint(1, 3))]
    if rng.random() < 0.5:
        gens.append(Poly.variable(nv, rng.randint(1, nv)) ** rng.randint(2, 4))
    probes = [random_poly(rng, nv, 4, max_terms=3, zero_constant=True,
                          gaussian=gaussian and rng.random() < 0.5)
              for _ in range(rng.randint(1, 2))]
    return rng, groebner_basis(gens, _splits(nv, split)), probes


@settings(max_examples=80, deadline=None)
@given(nv=st.integers(1, 3), seed=st.integers(0, 2**32 - 1), split=st.integers(0, 2),
       gaussian=st.booleans())
@example(nv=2, seed=0, split=0, gaussian=False)
@example(nv=2, seed=1, split=1, gaussian=True)
@example(nv=3, seed=2, split=2, gaussian=False)
def test_least_power_matches_the_reference(nv, seed, split, gaussian):
    rng, gb, probes = _scan_setup(nv, seed, split, gaussian)
    cap = rng.randint(1, 4)
    # a fresh basis for the reference, so that neither scan sees the other's widening
    fresh = groebner_basis(list(gb.gens), gb.splits)
    assert least_power(probes, gb, cap) == least_power_reference(probes, fresh, cap)
    variables = [Poly.variable(nv, j) for j in range(1, nv + 1)]
    assert least_power(variables, gb, cap) == least_power_reference(variables, fresh, cap)


@settings(max_examples=80, deadline=None)
@given(nv=st.integers(1, 3), seed=st.integers(0, 2**32 - 1), split=st.integers(0, 2),
       gaussian=st.booleans())
@example(nv=2, seed=0, split=0, gaussian=False)
@example(nv=2, seed=3, split=1, gaussian=True)
def test_power_in_ideal_matches_the_reference(nv, seed, split, gaussian):
    rng, gb, probes = _scan_setup(nv, seed, split, gaussian)
    fresh = groebner_basis(list(gb.gens), gb.splits)
    for p in probes + [Poly.variable(nv, 1), Poly.zero(nv)]:
        s = rng.randint(1, 12)
        assert power_in_ideal(p, s, gb) == power_in_ideal_reference(p, s, fresh)


def test_scans_widen_past_the_basis_width():
    # (z1^2 - z2, z2^3) packs at 3-bit fields, which hold degree 3; the
    # products of z1 + z2^2 reach degree 4 and more before they reduce, under
    # graded lex and elim(1) alike (those of z1 + z2 stay inside under elim(1))
    names = ["z1", "z2"]
    for splits in ((), (1,)):
        gb = groebner_basis([parse_poly(t, names) for t in ("z1^2 - z2", "z2^3")], splits)
        width = gb._divisors.width
        probe = parse_poly("z1 + z2^2", names)
        fresh = groebner_basis(list(gb.gens), splits)
        assert least_power([probe], gb, 8) == least_power_reference([probe], fresh, 8) == 6
        assert power_in_ideal(probe, 6, gb) and not power_in_ideal(probe, 5, gb)
        assert gb._divisors.width > width


def test_least_power_on_the_radical_loop_builds_no_poly(monkeypatch):
    # round 1 of the radical loop on z1^3, z2^5 + z2*z1^9 asks for the least
    # power of the maximal ideal in J: 14 layers of products of z1 and z2,
    # all on packed keys, with no Poly product and no Poly built from a key dict
    names = ("z1", "z2")
    domain = SpecialDomain(names, tuple(parse_poly(t, names) for t in ("z1^3", "z2^5 + z2*z1^9")))
    seen = []
    scan = kohn_full_radical.least_power

    def record(gens, gb, cap):
        seen.append((gens, gb, cap))
        return scan(gens, gb, cap)

    with monkeypatch.context() as patch:
        patch.setattr(kohn_full_radical, "least_power", record)
        kohn_full_radical.run_full_radical(domain)
    gens, gb, cap = next(args for args in seen if len(args[0]) == 2)
    calls = []

    def count(name, f):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return f(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(polyring.Divisors, "poly", count("poly", polyring.Divisors.poly))
    monkeypatch.setattr(Poly, "__mul__", count("mul", Poly.__mul__))
    assert groebner.least_power(gens, gb, cap) == 14
    assert calls == []


def _cofactor_rows(quots, provenance, nv, ngens):
    out = [Poly.zero(nv) for _ in range(ngens)]
    for q, row in zip(quots, provenance):
        for j, a in enumerate(row):
            out[j] = out[j] + Poly(nv, q) * a
    return out


@settings(max_examples=60, deadline=None)
@given(nv=st.integers(1, 3), seed=st.integers(0, 2**32 - 1), split=st.integers(0, 2),
       gaussian=st.booleans())
@example(nv=2, seed=0, split=0, gaussian=False)
@example(nv=2, seed=5, split=1, gaussian=True)
def test_cofactors_match_the_reference_division(nv, seed, split, gaussian):
    # the reduced basis is monic, but 2*z1 + 3 makes z1 + 3/2: divisors with
    # a leading numerator L != 1
    rng = random.Random(seed)
    splits = _splits(nv, split)
    gens = [random_poly(rng, nv, 2, max_terms=3, gaussian=gaussian and rng.random() < 0.5)
            for _ in range(rng.randint(1, 3))]
    gb = groebner_basis(gens, splits, provenance=True)
    p = random_poly(rng, nv, 4, max_terms=4, gaussian=gaussian)
    p = p + sum((g * random_poly(rng, nv, 1, max_terms=2) for g in gens), Poly.zero(nv))
    cofs, rem = gb.cofactors(p)
    quots, ref_rem = divide_reference(p, list(gb.basis), order_key(splits), True)
    assert rem.terms == ref_rem
    want = _cofactor_rows(quots, gb.provenance, nv, len(gens))
    assert [c.terms for c in cofs] == [c.terms for c in want]
    assert sum((c * g for c, g in zip(cofs, gens)), rem) == p


@settings(max_examples=80, deadline=None)
@given(nv=st.integers(1, 3), seed=st.integers(0, 2**32 - 1), gaussian=st.booleans(),
       scale=st.sampled_from([Fraction(2), Fraction(-3), Fraction(1, 3), Fraction(-5, 6)]))
@example(nv=2, seed=0, gaussian=False, scale=Fraction(1, 3))
@example(nv=1, seed=1, gaussian=True, scale=Fraction(-3))
def test_exact_divide_matches_the_reference_division(nv, seed, gaussian, scale):
    # d is scaled so that it is not monic, or not integral
    rng = random.Random(seed)
    d = random_poly(rng, nv, 2, max_terms=3, gaussian=gaussian).scale(gr(scale))
    q = random_poly(rng, nv, 3, max_terms=3, gaussian=gaussian and rng.random() < 0.5)
    key = order_key(())
    assert exact_divide(q * d, d) == q
    assert divide_reference(q * d, [d], key, True) == ([q.terms], {})
    p = random_poly(rng, nv, 4, max_terms=4, gaussian=gaussian)
    (ref_q,), ref_rem = divide_reference(p, [d], key, True)
    got = exact_divide(p, d)
    assert (got is None) == bool(ref_rem)
    if got is not None:
        assert got.terms == ref_q
