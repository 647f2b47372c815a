"""Submodule membership for tuples of polynomials."""

import pytest

from kohnmult.polyring import Poly, parse_poly
from kohnmult.modules import VecPoly, module_membership

from oracles import make_rng, random_poly


def _p(text, names=("z1", "z2", "z3")):
    return parse_poly(text, names)


def _vec(*texts):
    return VecPoly([_p(t) for t in texts])


def test_explicit_combination_is_recognized():
    rows = [_vec("z1", "0", "z3"), _vec("0", "z2", "z1")]
    target = rows[0].mul_poly(_p("z2")) + rows[1].mul_poly(_p("z3 - z1"))
    ok, cofs = module_membership(target, rows)
    assert ok
    acc = VecPoly([Poly.zero(3)] * 3)
    for c, r in zip(cofs, rows):
        acc = acc + r.mul_poly(c)
    assert acc == target


def test_non_member_is_rejected():
    rows = [_vec("z1", "0", "0"), _vec("0", "z2", "0")]
    ok, cofs = module_membership(_vec("0", "0", "z3"), rows)
    assert not ok and cofs is None
    # a unit in one slot never lies in a module whose entries all vanish at 0
    ok, _ = module_membership(_vec("1", "0", "0"), rows)
    assert not ok


def test_zero_vector_is_member_of_anything():
    rows = [_vec("z1^2", "z2", "0")]
    ok, cofs = module_membership(VecPoly([Poly.zero(3)] * 3), rows)
    assert ok
    acc = VecPoly([Poly.zero(3)] * 3)
    for c, r in zip(cofs, rows):
        acc = acc + r.mul_poly(c)
    assert acc.is_zero()


def test_random_combinations_replay():
    rng = make_rng("module-replay")
    for _ in range(8):
        rows = [
            VecPoly([random_poly(rng, 3, 2, max_terms=2) for _ in range(3)])
            for _ in range(2)
        ]
        target = VecPoly([Poly.zero(3)] * 3)
        for r in rows:
            target = target + r.mul_poly(random_poly(rng, 3, 2, max_terms=2))
        ok, cofs = module_membership(target, rows)
        assert ok
        acc = VecPoly([Poly.zero(3)] * 3)
        for c, r in zip(cofs, rows):
            acc = acc + r.mul_poly(c)
        assert acc == target


def test_syzygy_of_clearing_pair():
    # z2 * (z1, 0) - z1 * (z2, 0) = 0: membership of each generator in the
    # other two must still report exact cofactors
    r1 = VecPoly([Poly.variable(2, 1), Poly.zero(2)])
    r2 = VecPoly([Poly.variable(2, 2), Poly.zero(2)])
    target = r1.mul_poly(Poly.variable(2, 2))
    ok, cofs = module_membership(target, [r1, r2])
    assert ok
    acc = VecPoly([Poly.zero(2)] * 2)
    for c, r in zip(cofs, [r1, r2]):
        acc = acc + r.mul_poly(c)
    assert acc == target


def test_membership_is_deterministic():
    rows = [_vec("z1", "z2", "0"), _vec("0", "z1", "z2")]
    target = rows[0].mul_poly(_p("z3")) + rows[1].mul_poly(_p("z1^2"))
    ok1, cofs1 = module_membership(target, rows)
    ok2, cofs2 = module_membership(target, rows)
    assert ok1 and ok2
    assert [c.terms for c in cofs1] == [c.terms for c in cofs2]


@pytest.mark.parametrize(
    "v, gens, message",
    [
        (_vec("z1", "0", "0"), [], "at least one generator"),
        (
            _vec("z1", "0", "0"),
            [_vec("z1", "0", "0"), VecPoly([_p("z2"), _p("z3")])],
            "different ranks",
        ),
        (VecPoly([_p("z1"), _p("z2")]), [_vec("z1", "0", "0")], "rank 2"),
        (
            VecPoly([Poly.variable(2, 1)] * 3),
            [_vec("z1", "0", "0")],
            "different rings",
        ),
    ],
    ids=["no-generators", "mixed-generator-ranks", "vector-rank", "vector-ring"],
)
def test_membership_rejects_malformed_input(v, gens, message):
    with pytest.raises(ValueError, match=message):
        module_membership(v, gens)
