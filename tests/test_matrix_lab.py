"""Matrix-to-vector procedures: naive expansion vs determinant gradient."""

import pytest

from kohnmult.polyring import Poly, parse_poly, poly_matrix_det
from kohnmult.modules import VecPoly, module_membership
from kohnmult.multiplier_core import VerificationError, matrix_to_vector_form
from kohnmult.matrix_lab import (
    adjugate_divergence,
    compare_procedures,
    determinant_gradient,
    load_matrix,
    triangular_comparison,
    triangular_matrix,
    verify_planar_equivalence,
    verify_triangular_obstruction,
)

from oracles import make_rng, random_matrix


def _p3(text):
    return parse_poly(text, ("z1", "z2", "z3"))


def _p2(text):
    return parse_poly(text, ("z1", "z2"))


# -- the two procedures and their exact difference ---------------------------

def test_diagonal_b_form():
    entries = ((_p2("z1"), Poly.zero(2)), (Poly.zero(2), _p2("z2")))
    rep = compare_procedures(entries)
    assert rep.b_form == (_p2("z2"), _p2("z1"))
    assert rep.grad_det == (_p2("z2"), _p2("z1"))
    assert all(d.is_zero() for d in rep.difference)
    assert rep.verdict == "reducible"


def test_b_form_matches_derivation_rule_payload():
    rng = make_rng("matrix-cross")
    for _ in range(6):
        entries = random_matrix(rng, 2, max_degree=2, max_terms=2)
        rep = compare_procedures(entries)
        assert tuple(rep.b_form) == tuple(matrix_to_vector_form(entries))


def test_difference_decomposes_over_rows_always():
    # the divergence identity makes the difference a row combination for
    # every square matrix, so the verdict can only be "reducible"
    rng = make_rng("matrix-universal")
    for n in (2, 3):
        for _ in range(8):
            entries = random_matrix(rng, n, max_degree=2, max_terms=2)
            rep = compare_procedures(entries)
            assert rep.verdict == "reducible"
            assert rep.decomposition is not None
            acc = VecPoly([Poly.zero(n)] * n)
            for c, row in zip(rep.decomposition, entries):
                acc = acc + VecPoly(list(row)).mul_poly(c)
            assert acc == VecPoly(list(rep.difference))


def test_difference_matches_adjugate_divergence():
    rng = make_rng("matrix-div")
    for _ in range(6):
        entries = random_matrix(rng, 3, max_degree=2, max_terms=2)
        rep = compare_procedures(entries)
        div = adjugate_divergence(entries)
        acc = VecPoly([Poly.zero(3)] * 3)
        for c, row in zip(div, entries):
            acc = acc + VecPoly(list(row)).mul_poly(c)
        assert acc == VecPoly(list(rep.difference))


def test_compare_procedures_validates_shape():
    with pytest.raises(ValueError):
        compare_procedures(((_p2("z1"),),))  # 1x1 over 2 vars
    with pytest.raises(ValueError):
        compare_procedures(
            ((_p2("z1"), _p2("z2")),)  # non-square
        )


def test_membership_denial_is_an_engine_defect(monkeypatch):
    # the divergence identity has just been replayed, so a "not a member"
    # answer contradicts it and must not surface as the verdict "new"
    import kohnmult.matrix_lab as lab

    monkeypatch.setattr(lab, "module_membership", lambda v, gens: (False, None))
    entries = ((_p2("z1"), _p2("z2")), (_p2("z2^2"), _p2("z1")))
    with pytest.raises(VerificationError, match="engine defect"):
        compare_procedures(entries)


def test_comparison_report_json():
    entries = ((_p2("z1"), Poly.zero(2)), (Poly.zero(2), _p2("z2")))
    data = compare_procedures(entries).to_json()
    assert data["schema"] == "kohn-report/1"
    assert data["kind"] == "procedure-comparison"
    assert data["verdict"] == "reducible"


# -- planar closed form ------------------------------------------------------

def test_planar_equivalence_random():
    rng = make_rng("planar")
    for _ in range(25):
        entries = random_matrix(rng, 2, max_degree=3, max_terms=3)
        assert verify_planar_equivalence(entries)


def test_planar_equivalence_symmetric_counterexample_shape():
    # symmetric off-diagonal entries make both correction coefficients
    # the curl of the same column, a case that distinguishes the correct
    # pairing from a transposed one
    entries = ((_p2("z1"), _p2("z2")), (_p2("z2"), _p2("z1")))
    assert verify_planar_equivalence(entries)


# -- triangular laboratory ---------------------------------------------------

def _documented():
    return dict(
        a11=_p3("z1"), a22=_p3("z2"), a33=_p3("z3"),
        xi=_p3("z3"), eta=_p3("z1"),
    )


def test_triangular_matrix_shape():
    t = triangular_matrix(**_documented())
    assert t[1][0].is_zero() and t[2][0].is_zero() and t[2][1].is_zero()
    assert t[0][2].is_zero()
    assert t[0][1] == _p3("z3") and t[1][2] == _p3("z1")


def test_documented_triangular_instance():
    rep = triangular_comparison(**_documented())
    comp = rep.comparison
    assert comp.verdict == "reducible"
    assert tuple(comp.difference) == (
        Poly.zero(3), Poly.zero(3), -_p3("z3^2")
    )
    assert comp.decomposition is not None
    # the advertised shorthand differs from the computed difference here
    assert tuple(rep.narrated_difference) == (
        -_p3("z1^2"), Poly.zero(3), -_p3("z3^2")
    )
    assert rep.narration_matches is False
    assert rep.obstruction is False


def test_narration_matches_on_diagonal_instance():
    rep = triangular_comparison(
        a11=_p3("z1"), a22=_p3("z2"), a33=_p3("z3"),
        xi=Poly.zero(3), eta=Poly.zero(3),
    )
    assert rep.narration_matches is True
    assert rep.comparison.verdict == "reducible"
    assert all(d.is_zero() for d in rep.comparison.difference)


def test_narration_still_differs_when_only_xi_survives():
    # the shorthand charges -a33*xi*d(xi) even when the honest difference
    # vanishes identically
    rep = triangular_comparison(
        a11=_p3("z1"), a22=_p3("z2"), a33=_p3("z3"),
        xi=_p3("z3"), eta=Poly.zero(3),
    )
    assert all(d.is_zero() for d in rep.comparison.difference)
    assert not all(d.is_zero() for d in rep.narrated_difference)
    assert rep.narration_matches is False


def test_obstruction_quartet():
    z3 = _p3("z3")
    zero = Poly.zero(3)
    assert verify_triangular_obstruction(
        _p3("z1"), _p3("z2"), _p3("z3"), zero, z3
    ) is False
    assert verify_triangular_obstruction(
        _p3("z1"), _p3("z2"), _p3("z3^2"), zero, z3
    ) is True
    assert verify_triangular_obstruction(
        Poly.one(3), Poly.one(3), _p3("z3"), zero, z3
    ) is False
    d = _documented()
    assert verify_triangular_obstruction(
        d["a11"], d["a22"], d["a33"], d["xi"], d["eta"]
    ) is False


def test_triangular_report_json():
    data = triangular_comparison(**_documented()).to_json()
    assert data["schema"] == "kohn-report/1"
    assert data["kind"] == "triangular-comparison"
    assert data["narration_matches"] is False
    assert data["obstruction"] is False


# -- matrix file format ------------------------------------------------------

def test_load_matrix_round_trip():
    data = {
        "vars": ["z1", "z2"],
        "entries": [["z1", "0"], ["z2^2", "z1 + z2"]],
    }
    names, entries = load_matrix(data)
    assert tuple(names) == ("z1", "z2")
    assert entries[1][0] == _p2("z2^2")
    assert entries[0][1].is_zero()


def test_load_matrix_rejects_garbage():
    with pytest.raises((KeyError, ValueError)):
        load_matrix({"entries": [["z1"]]})
