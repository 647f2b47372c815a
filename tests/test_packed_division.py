"""The packed division kernel against plain division on exponent tuples.

`polyring.divide`, the Groebner normal forms and Buchberger's algorithm run
on `polyring.Divisors`: monomials packed as integer order keys with a guard
bit per field, each divisor's leading term split off once, and the terms
left to reduce on a heap of keys.  `oracles.divide_reference` divides term
by term on exponent tuples under a sort key.  Both reduce each term by the
first divisor in list order whose leading monomial divides it, so their
quotients and remainders must be equal: under graded lex and the
elimination orders, over Q and Q(i), with non-monic divisors and with
several leading monomials dividing the same term.  Under elim(k) the second
block's degree can outgrow the width the inputs set, and a grlex
S-polynomial's degree the generators'; the kernel then repacks wider.
`oracles.groebner_reference` runs Buchberger's algorithm in the same pair
order on that reference division, so bases and cofactor rows must be equal
term for term.
"""

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from kohnmult.groebner import eliminate, groebner_basis
from kohnmult.polyring import GR_ONE, Poly, divide, gr, parse_poly

from oracles import divide_reference, groebner_reference, order_key, random_poly


def _check_against_reference(p, divisors, splits, want_quotients):
    quots, rem = divide(p, divisors, splits, want_quotients)
    ref_quots, ref_rem = divide_reference(p, divisors, order_key(splits), want_quotients)
    assert rem.terms == ref_rem
    if want_quotients:
        assert [q.terms for q in quots] == ref_quots
        assert sum((q * d for q, d in zip(quots, divisors)), rem) == p
    else:
        assert quots is None


def _steep(rng, nv):
    """z_a - c * z_b^e with a before b: under elim(k) with a <= k < b its
    tail raises the cheap block's degree by e at each step."""
    a = rng.randrange(nv - 1)
    b = rng.randrange(a + 1, nv)
    lead = tuple(int(j == a) for j in range(nv))
    tail = tuple(rng.randint(20, 70) * (j == b) for j in range(nv))
    return Poly.monomial(nv, lead) - Poly.monomial(nv, tail, rng.choice([1, 2, -3]))


@settings(max_examples=150, deadline=None)
@given(
    nv=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    split=st.integers(0, 3),
    gaussian=st.booleans(),
    want=st.booleans(),
)
@example(nv=2, seed=0, split=1, gaussian=False, want=True)
@example(nv=3, seed=1, split=2, gaussian=True, want=True)
@example(nv=2, seed=2, split=3, gaussian=False, want=True)
def test_divide_matches_the_reference(nv, seed, split, gaussian, want):
    rng = random.Random(seed)
    splits = (split,) if split else ()
    divisors = [random_poly(rng, nv, 2, max_terms=3, gaussian=gaussian and rng.random() < 0.5)
                for _ in range(rng.randint(1, 4))]
    # a multiple of a divisor's leading term puts two leading monomials over
    # the same terms, and the first in list order must win
    divisors.insert(rng.randrange(len(divisors) + 1),
                    divisors[0] * Poly.variable(nv, rng.randint(1, nv)) + divisors[-1])
    if nv > 1 and rng.random() < 0.5:
        divisors.append(_steep(rng, nv))
    divisors = [d for d in divisors if not d.is_zero()]
    p = random_poly(rng, nv, 6, max_terms=6, gaussian=gaussian)
    _check_against_reference(p, divisors, splits, want)


def test_several_leading_monomials_divide_the_same_term():
    names = ["z1", "z2"]
    p = parse_poly("3*z1^2*z2 + z1*z2 - 5", names)
    divisors = [parse_poly(t, names) for t in ("2*z1*z2 + z2^2", "z1 - 1", "z1^2*z2 + 1/2")]
    for splits in ((), (1,)):
        for want in (True, False):
            _check_against_reference(p, divisors, splits, want)
    (q1, q2, q3), r = divide(p, divisors, (), True)
    assert q3.is_zero() and not q1.is_zero()


def test_elimination_order_outgrows_the_dividends_width():
    names = ["z1", "z2"]
    d = parse_poly("z1 - z2^40", names)
    (q,), r = divide(parse_poly("z1^3", names), [d], (1,), True)
    assert q == parse_poly("z2^80 + z1*z2^40 + z1^2", names)
    assert r == parse_poly("z2^120", names)
    _check_against_reference(parse_poly("z1^3 + z1*z2", names), [d], (1,), True)


def _s_polynomial(f, g, key):
    (mf, cf), (mg, cg) = (max(h.terms.items(), key=lambda t: key(t[0])) for h in (f, g))
    lcm = tuple(map(max, mf, mg))
    return (f.mul_term(tuple(a - b for a, b in zip(lcm, mf)), cf.inverse())
            - g.mul_term(tuple(a - b for a, b in zip(lcm, mg)), cg.inverse()))


def _assert_reduced_basis_of(gens, gb):
    """gb is the monic reduced Groebner basis of gens, checked with the
    reference division alone: every generator and every S-polynomial
    reduces to zero (Buchberger's criterion), and every element is monic
    with no term divisible by another element's leading monomial."""
    key = order_key(gb.splits)
    basis = list(gb.basis)
    for p in gens + [_s_polynomial(f, g, key) for i, f in enumerate(basis) for g in basis[:i]]:
        assert divide_reference(p, basis, key, False)[1] == {}
    for i, b in enumerate(basis):
        lead = max(b.terms, key=key)
        assert b.terms[lead] == GR_ONE
        others = basis[:i] + basis[i + 1:]
        assert divide_reference(b, others, key, False)[1] == b.terms
    assert [key(max(b.terms, key=key)) for b in basis] == sorted(
        key(max(b.terms, key=key)) for b in basis)


def test_grlex_basis_past_the_generators_degree():
    # degree-3 generators pack in fields below 4; their S-polynomials and
    # basis reach degree 5 and more
    names = ["z1", "z2", "z3"]
    gens = [parse_poly(t, names) for t in ("z1^3 - z2", "z1*z2^2 - z3", "2*z2*z3^2 - z1 + 1")]
    gb = groebner_basis(gens)
    assert max(b.total_degree() for b in gb.basis) > 3
    _assert_reduced_basis_of(gens, gb)
    with_provenance = groebner_basis(gens, provenance=True)
    assert with_provenance.basis == gb.basis
    for b, row in zip(gb.basis, with_provenance.provenance):
        assert sum((c * g for c, g in zip(row, gens)), Poly.zero(3)) == b


def test_elimination_past_the_generators_degree():
    names = ["z1", "z2", "z3"]
    gens = [parse_poly(t, names) for t in ("z1 - z2^40", "z1^2 - z3^50")]
    gb = groebner_basis(gens, (1,))
    _assert_reduced_basis_of(gens, gb)
    assert eliminate(gens, [1]) == [parse_poly("z1^80 - z2^50", ["z1", "z2"])]


@settings(max_examples=60, deadline=None)
@given(nv=st.integers(2, 3), seed=st.integers(0, 2**32 - 1), split=st.integers(0, 2))
@example(nv=3, seed=7, split=0)
def test_groebner_basis_matches_the_reference(nv, seed, split):
    # degree-3 generators with a linear one: S-polynomials outgrow the width
    # the generators set, and the linear leading term divides their terms
    rng = random.Random(seed)
    splits = (split,) if split else ()
    gens = [random_poly(rng, nv, 3, max_terms=3) for _ in range(rng.randint(1, 3))]
    gens.append(random_poly(rng, nv, 1, max_terms=2, zero_constant=rng.random() < 0.5))
    gb = groebner_basis(gens, splits, provenance=True)
    basis, rows = groebner_reference(gens, order_key(splits), True)
    assert [b.terms for b in gb.basis] == [b.terms for b in basis]
    assert [[c.terms for c in row] for row in gb.provenance] == [[c.terms for c in row] for row in rows]


def test_s_polynomial_past_the_width_keeps_the_reference_cofactors():
    # under elim(2) the S-polynomial of the first two generators has the term
    # z2*z3^4, whose second-block degree 4 is past the fields that degree 3
    # sets; packed without widening, its guard bit changes which divisors the
    # reduction finds, and with them the cofactors
    names = ["z1", "z2", "z3"]
    gens = [parse_poly(t, names) for t in ("z2^2*z3 - z2 + 3", "-3*z3^3 + z2 + 2",
                                           "-2*z1^2 + z2 + 1", "-z2")]
    splits = (2,)
    gb = groebner_basis(gens, splits, provenance=True)
    basis, rows = groebner_reference(gens, order_key(splits), True)
    assert [b.terms for b in gb.basis] == [b.terms for b in basis]
    assert [[c.terms for c in row] for row in gb.provenance] == [[c.terms for c in row] for row in rows]


@settings(max_examples=60, deadline=None)
@given(nv=st.integers(2, 3), seed=st.integers(0, 2**32 - 1), split=st.integers(0, 1),
       gaussian=st.booleans())
@example(nv=2, seed=0, split=0, gaussian=False)
@example(nv=3, seed=1, split=1, gaussian=True)
def test_a_constant_generator_gives_the_unit_basis_of_the_reference(nv, seed, split, gaussian):
    # the basis (1) returns at once, with the first constant's cofactor;
    # the reference runs the whole loop
    rng = random.Random(seed)
    splits = (split,) if split else ()
    gens = [random_poly(rng, nv, 2, max_terms=3, gaussian=gaussian) for _ in range(rng.randint(1, 3))]
    for _ in range(rng.randint(1, 2)):
        c = gr(rng.choice([1, -2, 3, 5]), rng.choice([0, 1, -2]) if gaussian else 0)
        gens.insert(rng.randint(0, len(gens)), Poly.const(nv, c))
    gb = groebner_basis(gens, splits, provenance=True)
    basis, rows = groebner_reference(gens, order_key(splits), True)
    assert [b.terms for b in gb.basis] == [b.terms for b in basis] == [{(0,) * nv: GR_ONE}]
    assert [[c.terms for c in row] for row in gb.provenance] == [[c.terms for c in row] for row in rows]
    assert groebner_basis(gens, splits).basis == gb.basis


def test_one_basis_answers_real_then_gaussian_then_real_normal_forms():
    # a Gaussian dividend meets the basis's packed divisors on their int
    # numerators, which it leaves as they are; the real dividend after it
    # must not notice
    names = ["z1", "z2", "z3"]
    gens = [parse_poly(t, names) for t in ("z1^2 - z2*z3", "z2^2 + 3*z1", "z3^3 - 2*z1*z2")]
    gb = groebner_basis(gens)
    key = order_key(())
    for text in ("z1^3*z2 + z3^4 - 5", "i*z1^3 + (2-i)*z2^3*z3 + z3^5", "z1*z2*z3^3 - 7/3*z2^4"):
        p = parse_poly(text, names)
        assert gb.normal_form(p).terms == divide_reference(p, list(gb.basis), key, False)[1]
    assert all(type(c) is int for _, tail in gb._divisors.items for _, c in tail)
