"""The one ranking of monomials against the oracle's own sort key.

A monomial order is its block splits: () for graded lex, (k,) for elim(k).
`polyring._order_keys` maps packed monomials to ints whose integer order is
that order; leading terms, `monic`, the printer and division all compare
those ints.  `oracles.order_key` states the same order on exponent tuples,
graded lex per block with the first block dominant, sharing no code with
the engine.  Both must sort random monomials alike, over one to four
variables, every split 0 <= k < n, and any field width that holds the
degrees; and `Poly.leading` and `Poly.monic` must pick the oracle's largest
term, over Q and Q(i).
"""

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from kohnmult.polyring import GaussRat, Poly, _field_width, _order_keys

from oracles import order_key, terms_scale


@st.composite
def _monomials(draw):
    nv = draw(st.integers(1, 4))
    monos = draw(st.lists(st.tuples(*[st.integers(0, 12)] * nv),
                          min_size=1, max_size=12, unique=True))
    splits = draw(st.sampled_from([()] + [(k,) for k in range(nv)]))
    return nv, monos, splits


def _packed(mono, width):
    key = 0
    for e in mono:
        key = (key << width) | e
    return key


@settings(max_examples=300, deadline=None)
@given(case=_monomials(), extra=st.integers(0, 3))
@example(case=(2, [(7, 0), (0, 7), (3, 4), (0, 0), (1, 0)], ()), extra=0)
@example(case=(3, [(7, 0, 0), (0, 3, 4), (1, 6, 0), (0, 0, 0)], (1,)), extra=0)
@example(case=(4, [(0, 0, 5, 2), (0, 1, 0, 6), (2, 0, 0, 0), (0, 0, 0, 0)], (2,)), extra=1)
def test_order_keys_sort_as_the_oracle_key(case, extra):
    nv, monos, splits = case
    width = _field_width(max(map(sum, monos))) + extra
    ranks = dict(zip(monos, _order_keys([_packed(m, width) for m in monos], width, nv, splits)))
    assert sorted(monos, key=ranks.__getitem__) == sorted(monos, key=order_key(splits))


@settings(max_examples=200, deadline=None)
@given(case=_monomials(), gaussian=st.booleans(), seed=st.integers(0, 2**32 - 1))
@example(case=(3, [(0, 2, 0), (1, 0, 0)], (1,)), gaussian=False, seed=0)
@example(case=(2, [(0, 3), (1, 1), (2, 0)], (1,)), gaussian=True, seed=1)
def test_leading_and_monic_take_the_oracles_largest_term(case, gaussian, seed):
    nv, monos, splits = case
    rng = random.Random(seed)
    terms = {m: GaussRat(rng.choice([-3, -2, -1, 1, 2, 5]), rng.randint(-3, 3) if gaussian else 0)
             for m in monos}
    p = Poly(nv, terms)
    mono = max(terms, key=order_key(splits))
    assert p.leading(splits) == (mono, terms[mono])
    assert p.monic(splits).terms == terms_scale(terms, terms[mono].inverse())
