"""Effective triangular-system procedure in two complex variables."""

import dataclasses
import json
import re
from fractions import Fraction

import pytest

from kohnmult.polyring import Poly, differentiate, parse_poly
from kohnmult import cli, kohn_effective3d
from kohnmult.multiplier_core import (
    RULES,
    Derivation,
    GenericityError,
    SpecialDomain,
    VerificationError,
    certificate_verify,
)
from kohnmult.kohn_effective3d import (
    run_effective3d,
    skoda_verify,
    weierstrass_from_image,
)


def _dom(gens):
    return SpecialDomain.from_strings(("z1", "z2"), gens)


def _p(text):
    return parse_poly(text, ("z1", "z2"))


def _floor(q):
    return Fraction(1, 3 * q**7 * 2 ** (q * q + 3))


# -- full runs ---------------------------------------------------------------

def test_linear_domain_short_circuits():
    res = run_effective3d(_dom(["z1", "z2"]))
    assert res.short_circuit
    assert res.q == 1
    assert res.final_order == Fraction(1, 4)
    assert res.floor_order == _floor(1)
    assert res.final_order >= res.floor_order
    assert len(res.certificate.steps) == 8
    ver = certificate_verify(res.certificate, res.domain)
    assert ver.ok, ver.reason
    assert ver.final_order == Fraction(1, 4)


def test_square_domain_full_run():
    res = run_effective3d(_dom(["z1^2", "z2^2"]), seed=0)
    assert not res.short_circuit
    assert res.q == 4
    assert res.k1 == 1
    assert res.ell_tilde == 4
    assert res.final_order == Fraction(1, 393216)
    assert res.final_order >= res.floor_order == _floor(4)
    assert res.final_order >= res.floor_order_prefixed
    ver = certificate_verify(res.certificate, res.domain)
    assert ver.ok, ver.reason
    assert ver.final_order == res.final_order


def test_square_domain_is_deterministic_per_seed():
    a = run_effective3d(_dom(["z1^2", "z2^2"]), seed=0)
    b = run_effective3d(_dom(["z1^2", "z2^2"]), seed=0)
    assert a.certificate.dumps() == b.certificate.dumps()
    assert a.final_order == b.final_order


def test_square_domain_seed_changes_run_but_not_guarantee():
    a = run_effective3d(_dom(["z1^2", "z2^2"]), seed=0)
    c = run_effective3d(_dom(["z1^2", "z2^2"]), seed=2)
    assert c.ell_tilde == 2
    assert c.final_order == Fraction(1, 49152)
    # both runs clear the same uniform floor
    for res in (a, c):
        assert res.final_order >= res.floor_order


def test_cubic_square_domain_full_run():
    res = run_effective3d(_dom(["z1^3", "z2^2"]), seed=0)
    assert res.q == 6
    assert res.k1 == 2
    assert res.ell_tilde == 5
    assert res.prefix_r == 0
    assert res.final_order == Fraction(1, 9953280)
    assert res.final_order >= res.floor_order == _floor(6)
    ver = certificate_verify(res.certificate, res.domain)
    assert ver.ok, ver.reason


def test_degenerate_family_is_rejected_not_mis_certified():
    with pytest.raises(GenericityError):
        run_effective3d(_dom(["z1^2", "z2^3 + z2*z1^4"]))


def test_wedge_identity_on_every_run():
    # beta * dh1 wedge dw2 = D * dw1 wedge dw2 structure: D is dh1/dw1 in
    # the rotated coordinates, so dh1 = D dw1 + (dh1/dw2) dw2 exactly
    res = run_effective3d(_dom(["z1^2", "z2^2"]), seed=0)
    s2 = res.step_two
    a, b = s2.coord_matrix[0]
    c, d = s2.coord_matrix[1]
    det = a * d - b * c
    # chain rule: d/dw = M^{-T} d/dz with integer matrix M, det != 0
    dz1 = differentiate(s2.h1, 1)
    dz2 = differentiate(s2.h1, 2)
    lhs = s2.D.scale(det)
    rhs = dz1.scale(d) - dz2.scale(c)
    assert lhs == rhs


# -- gradient-ideal membership of powers -------------------------------------

def test_skoda_verify_linear():
    ok, cofs = skoda_verify(_p("z1"))
    assert ok
    assert cofs[0] == _p("z1^3") and cofs[1].is_zero()


def test_skoda_verify_monomials_and_binomials():
    for text in ("z1^2", "z2^3", "z1*z2", "z1^2 + z2^2", "z2^4 + z1^3"):
        f = _p(text)
        ok, cofs = skoda_verify(f)
        assert ok, text
        acc = Poly.zero(2)
        for c, k in zip(cofs, (1, 2)):
            acc = acc + c * differentiate(f, k)
        assert acc == f**3, text


def test_skoda_verify_rejects_unit():
    with pytest.raises(ValueError):
        skoda_verify(_p("z1 + 1"))


# -- image curve equations ---------------------------------------------------

def test_weierstrass_parabola():
    # V(z2 - z1^2) under (z1, z2): image is v = u^2
    H = _p("z2 - z1^2")
    data = weierstrass_from_image(H, _p("z1"), _p("z2"), ell=2)
    u = Poly.variable(2, 1)
    v = Poly.variable(2, 2)
    assert data.wpoly == v - u**2
    assert data.degree == 1
    assert data.prefix_r == 0
    # substituted equation factors exactly through H
    assert data.cofactor * H == data.substituted


def test_weierstrass_cusp():
    # V(z2^2 - z1^3) under (z1, z2): image is v^2 = u^3
    H = _p("z2^2 - z1^3")
    data = weierstrass_from_image(H, _p("z1"), _p("z2"), ell=3)
    u = Poly.variable(2, 1)
    v = Poly.variable(2, 2)
    assert data.wpoly == v**2 - u**3
    assert data.degree == 2
    assert data.distinguished
    assert data.degree <= data.ell
    # the derivative chain ends at a unit multiple of a constant
    last = data.chain[-1]
    assert last.is_constant() or differentiate(last, 2).is_constant()


def test_weierstrass_validates_hypotheses():
    H = _p("z2 - z1^2")
    with pytest.raises(ValueError):
        weierstrass_from_image(H, _p("z1"), _p("z2"), ell=0)
    with pytest.raises(ValueError):
        # V(zeta1, zeta2) not isolated
        weierstrass_from_image(H, _p("z1"), _p("z1"), ell=2)
    with pytest.raises(ValueError):
        # z2^1 lies outside (z2^2 - z1^3, z1)
        weierstrass_from_image(_p("z2^2 - z1^3"), _p("z1"), _p("z2"), ell=1)


def test_weierstrass_refuses_a_curve_equation_that_h_does_not_divide():
    # V(z1) maps onto v = 0 and the double line V(z1 - 1) to the point (5, 0)
    # on it; the image ideal (v^2, v*(u - 5)) is not principal, and its gcd v
    # pulls back to z1^2 - z1, in rad(H) but not in (H)
    H = _p("z1*(z1 - 1)^2")
    with pytest.raises(VerificationError, match="does not divide"):
        weierstrass_from_image(H, _p("z2 - z1*z2 + 5*z1"), _p("z1^2 - z1"), ell=1)


# -- certified multipliers land in the right ideals --------------------------

def test_final_step_payload_is_a_unit():
    for gens, seed in ((["z1", "z2"], 0), (["z1^2", "z2^2"], 0)):
        res = run_effective3d(_dom(gens), seed=seed)
        final = res.certificate.steps[-1]
        p = _p(final.payload[0])
        assert p.is_unit()


def test_h2_hat_membership_is_replayable():
    res = run_effective3d(_dom(["z1^2", "z2^2"]), seed=0)
    s1 = res.step_one
    # h2_hat = h2_star + correction with (h2_hat)^k in the gradient ideal
    # of Fhat2; its certified multiplier order must be positive
    assert s1.h2_hat_mult.order > 0
    assert s1.k1 >= 1


# -- closed-form payloads: stated once, checked by self-verification ---------

def _tamper_first(monkeypatch, method, keyword, change, inputs):
    """Patch the first `Derivation.<method>` call on `inputs` multipliers
    given a closed form `keyword`: the closed form goes in changed.  Returns
    the list that gets the derivation and the id of the tampered step."""
    orig = getattr(Derivation, method)
    seen = []

    def patched(der, *args, **kwargs):
        if seen or kwargs.get(keyword) is None or len(args[-1]) != inputs:
            return orig(der, *args, **kwargs)
        kwargs[keyword] = change(kwargs[keyword])
        out = orig(der, *args, **kwargs)
        seen.append((der, out.step))
        return out

    monkeypatch.setattr(Derivation, method, patched)
    return seen


@pytest.mark.parametrize(
    "method, keyword, change, inputs, rule, reason",
    [
        # a recursion combine is the one on (h2_hat, wedge): X_0 has one input
        ("rule_combine", "value", lambda v: v + _p("z1"), 2, "combine",
         "payload does not match the combine formula"),
        ("rule_det", "value", lambda v: v + _p("z1"), 2, "det",
         "payload does not match the det formula"),
        # 2*h1^m lies in the ideal of h1^m, so the emitter accepts it and only
        # the verifier's root identity can reject it
        ("rule_root", "power", lambda v: v.scale(2), 1, "root",
         "cofactor identity payload^m = sum(c_i * g_i) fails"),
    ],
    ids=["recursion-combine", "wedge-det", "h1-root"],
)
def test_a_wrong_closed_form_fails_self_verification_at_its_step(
    monkeypatch, method, keyword, change, inputs, rule, reason
):
    seen = _tamper_first(monkeypatch, method, keyword, change, inputs)
    with pytest.raises(VerificationError) as err:
        run_effective3d(_dom(["z1^2", "z2^2"]), seed=0)
    [(der, step)] = seen
    assert der.cert.steps[step].rule == rule
    assert re.fullmatch(f"self-verification failed at step {step}: {re.escape(reason)}",
                        str(err.value)), str(err.value)
    if rule == "combine":
        assert der.cert.steps[der.cert.steps[step].inputs[1]].rule == "det"


def test_each_formula_is_expanded_once_per_run(monkeypatch):
    calls = []
    combine = RULES["combine"]

    def counting(dom, ins, aux):
        calls.append(1)
        return combine.payload(dom, ins, aux)

    monkeypatch.setitem(RULES, "combine", dataclasses.replace(combine, payload=counting))

    powers = []  # (base, exponent) of each power taken while step three emits
    emitting = []
    pow_ = Poly.__pow__
    step_three = kohn_effective3d.step_three

    def counting_pow(p, n):
        if emitting:
            powers.append((p, n))
        return pow_(p, n)

    def traced_step_three(*args):
        emitting.append(1)
        try:
            return step_three(*args)
        finally:
            emitting.pop()

    monkeypatch.setattr(Poly, "__pow__", counting_pow)
    monkeypatch.setattr(kohn_effective3d, "step_three", traced_step_three)
    res = run_effective3d(_dom(["z1^2", "z2^2"]), seed=0)

    combines = sum(st.rule == "combine" for st in res.certificate.steps)
    assert combines == res.ell_tilde + 3
    # self-verification evaluates each combine; the emitter evaluates none
    assert len(calls) == combines
    m_h1 = 3 * res.q**2 * res.ell_tilde + res.prefix_r
    assert not [n for p, n in powers if n == m_h1 and p == res.step_two.h1]


def test_each_payload_is_printed_once_per_run(reprints, tmp_path, capsys):
    res = run_effective3d(_dom(["z1^2", "z2^2"]), seed=0)
    # self-verification compares polynomials with the ones the emitter printed
    assert reprints == []

    # `kohnmult verify` reads the certificate as text and checks every
    # derived payload against a fresh print
    dom_path, cert_path = tmp_path / "domain.json", tmp_path / "cert.json"
    dom_path.write_text(json.dumps(res.domain.to_json()))
    cert_path.write_text(res.certificate.dumps())
    assert cli.main(["verify", str(dom_path), str(cert_path)]) == 0
    assert "certificate ok" in capsys.readouterr().out
    derived = [st.payload for st in res.certificate.steps if RULES[st.rule].payload is not None]
    assert len(derived) > 20 and reprints == derived
