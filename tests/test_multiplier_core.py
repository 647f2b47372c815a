"""Derivation rules, order bookkeeping, and certificate replay."""

import dataclasses
import functools
import hashlib
import json
import re
import time
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from kohnmult import catlin_dangelo, cli, kohn_effective3d, multiplier_core, polyring
from kohnmult.catlin_dangelo import CDParams, run_effective_chain
from kohnmult.kohn_effective3d import run_effective3d
from kohnmult.polyring import Poly, gr, parse_poly, poly_to_string
from kohnmult.multiplier_core import (
    RULES,
    SCALAR,
    Derivation,
    DerivationCertificate,
    DomainError,
    Multiplier,
    RuleError,
    SpecialDomain,
    VerifyResult,
    certificate_verify,
    general_gamma_form,
    matrix_to_vector_form,
    order_str,
    parse_order,
)

from oracles import general_gamma_brute, matrix_to_vector_brute


def _dom(gens, variables=("z1", "z2")):
    return SpecialDomain.from_strings(variables, gens)


def _p(text, names=("z1", "z2")):
    return parse_poly(text, names)


# -- domain validation -------------------------------------------------------

def test_domain_rejects_nonvanishing_generator():
    with pytest.raises(DomainError):
        _dom(["z1 + 1"])
    with pytest.raises(DomainError):
        _dom(["z1", "3"])


def test_domain_rejects_empty():
    with pytest.raises(DomainError):
        SpecialDomain(("z1",), ())
    with pytest.raises(DomainError):
        SpecialDomain((), ())


def test_domain_json_round_trip():
    d = _dom(["z1^2", "z2^3 + z2*z1^4"])
    data = d.to_json()
    assert data["variables"] == ["z1", "z2"]
    d2 = SpecialDomain.from_strings(data["variables"], data["generators"])
    assert d2.generators == d.generators


# -- individual rules --------------------------------------------------------

def test_init_premultipliers_order():
    der = Derivation(_dom(["z1", "z2"]))
    pms = der.init_premultipliers()
    assert [pm.order for pm in pms] == [
        Fraction(1, 4),
        Fraction(1, 4),
    ]
    assert pms[0].poly == _p("z1")


def test_jacobian_of_premultipliers():
    der = Derivation(_dom(["z1", "z2"]))
    g = der.rule_jacobian_of_premultipliers(der.init_premultipliers())
    assert g.poly == Poly.one(2)
    assert g.order == Fraction(1, 4)

    der2 = Derivation(_dom(["z1^2", "z2^2"]))
    g2 = der2.rule_jacobian_of_premultipliers(der2.init_premultipliers())
    assert g2.poly == Poly.monomial(2, (1, 1), gr(4))
    assert g2.order == Fraction(1, 4)


def test_differential_halves_order():
    der = Derivation(_dom(["z1^2", "z2^2"]))
    g = der.rule_jacobian_of_premultipliers(der.init_premultipliers())
    theta = der.rule_differential(g)
    assert theta.order == g.order / 2
    assert theta.polys == (
        Poly.monomial(2, (0, 1), gr(4)),
        Poly.monomial(2, (1, 0), gr(4)),
    )


def test_det_takes_min_order_and_checks_arity():
    der = Derivation(_dom(["z1^2", "z2^2"]))
    pms = der.init_premultipliers()
    t1 = der.rule_premultiplier_differential(pms[0])
    g = der.rule_jacobian_of_premultipliers(pms)
    t2 = der.rule_differential(g)  # order 1/8
    det = der.rule_det([t1, t2])
    assert det.order == Fraction(1, 8)
    # det((2z1, 0), (4z2, 4z1)) = 8 z1^2
    assert det.poly == Poly.monomial(2, (2, 0), gr(8))
    with pytest.raises(ValueError):
        der.rule_det([t1])


def test_root_rule_divides_order_and_stores_cofactors():
    der = Derivation(_dom(["z1^2", "z2^2"]))
    pms = der.init_premultipliers()
    t1 = der.rule_premultiplier_differential(pms[0])
    g = der.rule_jacobian_of_premultipliers(pms)
    det = der.rule_det([t1, der.rule_differential(g)])  # 8 z1^2 at 1/8
    root = der.rule_root(_p("z1"), 2, [det])
    assert root.order == Fraction(1, 16)
    aux = der.cert.steps[-1].aux
    assert aux["m"] == 2
    cof = _p(aux["cofactors"][0])
    assert cof * det.poly == _p("z1") ** 2


def test_root_rule_rejects_nonmember_without_recording_a_step():
    der = Derivation(_dom(["z1^2", "z2^2"]))
    pms = der.init_premultipliers()
    t1 = der.rule_premultiplier_differential(pms[0])
    g = der.rule_jacobian_of_premultipliers(pms)
    det = der.rule_det([t1, der.rule_differential(g)])  # 8 z1^2
    before = len(der.cert.steps)
    with pytest.raises(ValueError):
        der.rule_root(_p("z2"), 3, [det])
    assert len(der.cert.steps) == before
    with pytest.raises(ValueError):
        der.rule_root(_p("z1"), 0, [det])


def test_combine_payload_is_exact():
    der = Derivation(_dom(["z1^2", "z2^2"]))
    g = der.rule_jacobian_of_premultipliers(der.init_premultipliers())
    scaled = der.rule_combine([_p("z2^2 - 1")], [g])
    assert scaled.poly == _p("z2^2 - 1") * g.poly
    assert scaled.order == g.order


def test_premultiplier_combine_halves_scalar_orders():
    der = Derivation(_dom(["z1^2", "z2^2"]))
    pms = der.init_premultipliers()
    g = der.rule_jacobian_of_premultipliers(pms)  # scalar at 1/4
    mixed = der.premultiplier_combine([1, -1], [pms[0], g])
    assert mixed.order == min(
        Fraction(1, 4), g.order / 2
    )
    assert mixed.poly == pms[0].poly - g.poly
    with pytest.raises(TypeError):
        der.premultiplier_combine([1], [object()])
    with pytest.raises(ValueError):
        der.premultiplier_combine([1, 2], [pms[0]])


def test_matrix_to_vector_diagonal_case():
    der = Derivation(_dom(["z1^2", "z2^2"]))
    a = der.assume_matrix(
        ((_p("z1"), Poly.zero(2)), (Poly.zero(2), _p("z2"))),
        (Fraction(1, 4), Fraction(1, 4)),
    )
    b = der.rule_matrix_to_vector(a)
    assert b.polys == (_p("z2"), _p("z1"))
    assert b.order == Fraction(1, 8)


def test_matrix_to_vector_identity_matrix_gives_zero_form():
    form = matrix_to_vector_form(
        ((Poly.one(2), Poly.zero(2)), (Poly.zero(2), Poly.one(2)))
    )
    assert all(p.is_zero() for p in form)


def _matrix(n):
    """n x n matrices over n variables: entries of degree <= 2 in each
    variable, some zero, with integer and sometimes Gaussian coefficients."""
    coeff = st.one_of(st.integers(-3, 3).map(gr), st.just(gr(2, -1)))
    term = st.tuples(st.tuples(*[st.integers(0, 2)] * n), coeff)
    entry = st.lists(term, max_size=3).map(
        lambda ts: sum((Poly.monomial(n, m, c) for m, c in ts), Poly.zero(n))
    )
    return st.tuples(*[st.tuples(*[entry] * n)] * n)


_contraction_inputs = st.integers(2, 3).flatmap(
    lambda n: st.tuples(_matrix(n), _matrix(n), _matrix(n))
)


@settings(max_examples=40, deadline=None)
@given(_contraction_inputs)
@example((
    ((_p("0"), _p("1")), (_p("1"), _p("1"))),
    ((_p("z2"), _p("0")), (_p("0"), _p("z1"))),
    ((_p("z1"), _p("0")), (_p("z1*z2"), Poly.monomial(2, (0, 2), gr(2, -1)))),
))
def test_contractions_match_the_triple_sums(mats):
    Gamma, A, a = mats
    n = len(a)
    assume(any(Gamma[p][k] != (Poly.one(n) if p == k else Poly.zero(n))
               for p in range(n) for k in range(n)))
    assert matrix_to_vector_form(a) == matrix_to_vector_brute(a)
    assert general_gamma_form(Gamma, A, a) == general_gamma_brute(Gamma, A, a)


def test_general_gamma_requires_exact_hypothesis():
    der = Derivation(_dom(["z1^2", "z2^2"]))
    a = der.assume_matrix(
        ((_p("z1"), Poly.zero(2)), (Poly.zero(2), _p("z2"))),
        (Fraction(1, 4), Fraction(1, 4)),
    )
    alpha = der.rule_jacobian_of_premultipliers(der.init_premultipliers())
    # A = adj(a) satisfies A*a = det(a)*I, but alpha here is 4*z1*z2, not det
    A = ((_p("z2"), Poly.zero(2)), (Poly.zero(2), _p("z1")))
    with pytest.raises(ValueError):
        der.rule_general_gamma(
            ((Poly.one(2), Poly.zero(2)), (Poly.zero(2), Poly.one(2))),
            A,
            a,
            alpha,
        )
    # scaling the comparison scalar to the true determinant makes it pass
    alpha_det = der.rule_combine([Poly.const(2, gr(Fraction(1, 4)))], [alpha])
    b = der.rule_general_gamma(
        ((Poly.one(2), Poly.zero(2)), (Poly.zero(2), Poly.one(2))),
        A,
        a,
        alpha_det,
    )
    assert b.order == min(Fraction(1, 4), alpha_det.order) / 2


# -- certificates ------------------------------------------------------------

def _build_derivation():
    dom = _dom(["z1^2", "z2^2"])
    der = Derivation(dom)
    pms = der.init_premultipliers()
    t1 = der.rule_premultiplier_differential(pms[0])
    g = der.rule_jacobian_of_premultipliers(pms)
    det = der.rule_det([t1, der.rule_differential(g)])
    root = der.rule_root(_p("z1"), 2, [det])
    der.rule_combine([_p("z2")], [root])
    return dom, der


def _build_chain():
    dom, der = _build_derivation()
    return dom, der.cert


def test_certificate_verify_round_trip():
    dom, cert = _build_chain()
    res = certificate_verify(cert, dom)
    assert res.ok, res.reason
    assert res.final_order == Fraction(1, 16)

    cert2 = DerivationCertificate.from_json(json.loads(cert.dumps()))
    res2 = certificate_verify(cert2, dom)
    assert res2.ok
    assert res2.final_order == Fraction(1, 16)


def test_certificate_schema_is_versioned():
    _, cert = _build_chain()
    data = cert.to_json()
    assert data["schema"] == "kohn-cert/1"
    bad = dict(data)
    bad["schema"] = "kohn-cert/9"
    with pytest.raises(ValueError):
        DerivationCertificate.from_json(bad)


def test_certificate_rejects_tampered_payload():
    dom, cert = _build_chain()
    data = json.loads(cert.dumps())
    victim = next(s for s in data["steps"] if s["rule"] == "det")
    victim["payload"] = ["9*z1^2"]
    res = certificate_verify(DerivationCertificate.from_json(data), dom)
    assert not res.ok
    assert res.failed_step == victim["id"]


def test_certificate_rejects_tampered_order():
    dom, cert = _build_chain()
    data = json.loads(cert.dumps())
    data["steps"][-1]["order"] = "1/2"
    res = certificate_verify(DerivationCertificate.from_json(data), dom)
    assert not res.ok


def test_certificate_rejects_tampered_cofactors():
    dom, cert = _build_chain()
    data = json.loads(cert.dumps())
    victim = next(s for s in data["steps"] if s["rule"] == "root")
    victim["aux"]["cofactors"] = ["z1"]
    res = certificate_verify(DerivationCertificate.from_json(data), dom)
    assert not res.ok
    assert res.failed_step == victim["id"]


def _root_check(f: Poly, m: int, cofactor: Poly, g: Poly):
    """The root rule's side check of f^m = cofactor * g."""
    ins = [Multiplier(SCALAR, (g,), Fraction(1, 2), 0)]
    RULES["root"].check(_dom(["z1^2", "z2^2"]), ins, {"m": m, "cofactors": [cofactor]}, (f,))


def test_root_check_bounds_the_exponent_before_the_power():
    one, z = Poly.one(2), _p("z1 + z2")
    _root_check(z, 3, z * z, z)
    for f, cofactor, g, reason in [
        (z, z * z, z, "has degree 1000000000 * 1 > 3"),
        (z, Poly.zero(2), z, "has degree 1000000000 * 1 > -1"),
        (Poly.const(2, gr(2)), Poly.const(2, gr(2)), one, "a part of at least 2^((1000000000 - 1)/2)"),
        (Poly.const(2, gr(1, 1)), Poly.const(2, gr(-4)), one, "a part of at least"),
        (Poly.const(2, gr(2)), z, one, "fails"),
    ]:
        start = time.perf_counter()
        with pytest.raises(RuleError, match=re.escape(reason)):
            _root_check(f, 10**9, cofactor, g)
        assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize(
    "c",
    [gr(2), gr(-3), gr(Fraction(1, 2)), gr(1, 1), gr(Fraction(1, 2), Fraction(-1, 2)),
     gr(Fraction(3, 5), Fraction(4, 5)), gr(0, 2), gr(5, -12), gr(Fraction(-7, 6), 3)],
)
def test_root_check_admits_every_true_constant_identity(c):
    # the bound is necessary: some part of c^m in lowest terms reaches
    # 2^((m - 1)/2) whenever c is not a unit of Z[i]
    one, f = Poly.one(2), Poly.const(2, c)
    for m in range(1, 41):
        _root_check(f, m, f**m, one)
        with pytest.raises(RuleError):
            _root_check(f, m + 1, f**m, one)


@pytest.mark.parametrize("c", [gr(1), gr(-1), gr(0, 1), gr(0, -1)])
def test_root_check_reduces_unit_exponents_mod_4(c):
    one, f = Poly.one(2), Poly.const(2, c)
    for k in range(4):
        _root_check(f, 10**9 + k, f**k, one)
        if c != gr(1):
            with pytest.raises(RuleError):
                _root_check(f, 10**9 + k, f ** (k + 1), one)


def test_certificate_rejects_foreign_domain():
    _, cert = _build_chain()
    res = certificate_verify(cert, _dom(["z1", "z2"]))
    assert not res.ok
    assert res.failed_step is None
    assert "generators differ" in res.reason


def test_assumption_steps_are_reported():
    dom = _dom(["z1^2", "z2^2"])
    der = Derivation(dom)
    der.rule_assume_vector((_p("z1"), _p("z2")), Fraction(1, 4))
    res = certificate_verify(der.cert, dom)
    assert res.ok
    assert len(res.assumptions) == 1


def test_steps_carry_descriptive_citations():
    _, cert = _build_chain()
    for step in cert.steps:
        assert isinstance(step.paper_ref, str) and step.paper_ref


def test_order_string_round_trip():
    for f in (Fraction(1, 4), Fraction(3, 1024), Fraction(7)):
        assert parse_order(order_str(f)) == f


# -- the rule table ----------------------------------------------------------

def _self_verified(make):
    """Run `make` and return the certificate, domain and printed map that
    its self-verification was given."""
    calls = []

    def spy(cert, domain, printed=None):
        calls.append((cert, domain, printed))
        return certificate_verify(cert, domain, printed=printed)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kohn_effective3d, "certificate_verify", spy)
        mp.setattr(catlin_dangelo, "certificate_verify", spy)
        make()
    [call] = calls
    return call


def _all_rules_derivation():
    """The CD(2,3,5) chain followed by an assumed diagonal matrix, its
    adjugate contraction and a general_gamma step: all ten rules.  Its
    `printed` holds every step, the chain's as the chain recorded them."""
    cert, _, printed = _self_verified(lambda: run_effective_chain(CDParams(2, 3, 5)))
    der = Derivation(cert.domain)
    der.cert, der.printed = cert, printed
    one = Multiplier(SCALAR, (Poly.one(2),), cert.final.order, cert.final.id)
    zero = Poly.zero(2)
    a = der.assume_matrix(
        ((_p("z1"), zero), (zero, _p("z2"))), (Fraction(1, 4), Fraction(1, 4))
    )
    der.rule_matrix_to_vector(a)
    alpha = der.rule_combine([_p("z1*z2")], [one])
    der.rule_general_gamma(
        ((Poly.one(2), zero), (zero, Poly.one(2))),
        ((_p("z2"), zero), (zero, _p("z1"))),
        a,
        alpha,
    )
    return der


@functools.lru_cache(maxsize=None)
def _all_rules_text():
    return json.dumps(_all_rules_derivation().cert.to_json())


def _all_rules():
    data = json.loads(_all_rules_text())
    dom = SpecialDomain.from_strings(
        data["domain"]["variables"], data["domain"]["generators"]
    )
    return dom, data


def _replay(dom, data):
    return certificate_verify(DerivationCertificate.from_json(data), dom)


def test_all_rules_certificate_verifies():
    dom, data = _all_rules()
    assert {s["rule"] for s in data["steps"]} == set(RULES)
    res = _replay(dom, data)
    assert res.ok, res.reason
    assert len(res.assumptions) == 2


@pytest.mark.parametrize("rule", sorted(RULES))
def test_tampered_step_is_rejected_at_that_step(rule):
    dom, data = _all_rules()
    victims = [s["id"] for s in data["steps"] if s["rule"] == rule]
    assert victims, f"no {rule} step in the all-rules certificate"
    for k in victims:
        tampered = json.loads(json.dumps(data))
        step = tampered["steps"][k]
        if RULES[rule].order is None:
            step["order"] = "3/2"  # a hypothesis must lie in (0, 1]
        else:
            step["order"] = order_str(parse_order(step["order"]) / 2)
        res = _replay(dom, tampered)
        assert (res.ok, res.failed_step) == (False, k), (rule, k, res.reason)
        if data["steps"][k]["inputs"]:
            tampered = json.loads(json.dumps(data))
            tampered["steps"][k]["inputs"].pop()
            res = _replay(dom, tampered)
            assert (res.ok, res.failed_step) == (False, k), (rule, k, res.reason)


def _set_aux(rule, edit):
    def apply(data):
        step = next(s for s in data["steps"] if s["rule"] == rule)
        edit(step)
        return step["id"]
    return apply


MALFORMED_AUX = {
    "root-aux-list": _set_aux("root", lambda s: s.update(aux=[])),
    "combine-int-coeff": _set_aux("combine", lambda s: s["aux"].update(coeffs=[3])),
    "root-null-cofactor": _set_aux("root", lambda s: s["aux"].update(cofactors=[None])),
    "gamma-short-rows": _set_aux(
        "general_gamma", lambda s: s["aux"].update(gamma=[r[:-1] for r in s["aux"]["gamma"]])
    ),
    # a key the rule does not read, on a step with no aux and next to valid ones
    "det-unread-key": _set_aux("det", lambda s: s.setdefault("aux", {}).update(unread=[1e308, None])),
    "root-unread-key": _set_aux("root", lambda s: s["aux"].update(unread="z1")),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_AUX))
def test_malformed_aux_is_rejected_at_its_step(case):
    dom, data = _all_rules()
    k = MALFORMED_AUX[case](data)
    res = _replay(dom, data)
    assert (res.ok, res.failed_step) == (False, k), res.reason


@pytest.mark.parametrize("rule", ["det", "differential", "root"])
def test_unread_aux_key_is_named_in_the_refusal(rule):
    dom, data = _all_rules()
    k = _set_aux(rule, lambda s: s.setdefault("aux", {}).update(extra=1))(data)
    res = _replay(dom, data)
    assert (res.ok, res.failed_step) == (False, k)
    assert res.reason == f"aux 'extra' is not read by the {rule} rule"


@pytest.mark.parametrize("value", [{"a": [1, None]}, 3, None, ["Kohn 1979"]])
def test_paper_ref_must_be_a_string(value):
    _, data = _all_rules()
    data["steps"][3]["paper_ref"] = value
    with pytest.raises(ValueError, match="step 3: paper_ref must be a string"):
        DerivationCertificate.from_json(data)


@pytest.mark.parametrize("case", sorted(MALFORMED_AUX))
def test_cli_verify_rejects_malformed_aux(case, tmp_path, capsys):
    dom, data = _all_rules()
    k = MALFORMED_AUX[case](data)
    dom_path = tmp_path / "domain.json"
    dom_path.write_text(json.dumps(dom.to_json()))
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(data))
    code = cli.main(["verify", str(dom_path), str(cert_path)])
    out = capsys.readouterr().out
    assert code == 1
    assert out.startswith(f"certificate rejected at step {k}:")


# -- byte identity -----------------------------------------------------------

PINNED = {
    "catlin-dangelo-2-3-5": (
        lambda: run_effective_chain(CDParams(2, 3, 5)).certificate,
        "715cd82d3df019b61052fead2a415b3f890fd62325cb700a99b9efbc850d7e1c",
    ),
    "effective3d-z1^2-z2^2-seed-0": (
        lambda: run_effective3d(_dom(["z1^2", "z2^2"]), seed=0).certificate,
        "f4e6853086bc318b0a5f29d7481c0a8b3209b950d60369a3e8c2771edbedca5e",
    ),
    # every payload with an i in it is read by the recursive-descent parser
    "effective3d-z1^2-z2^2+i*z1*z2-seed-0": (
        lambda: run_effective3d(_dom(["z1^2", "z2^2 + i*z1*z2"]), seed=0).certificate,
        "c7ead9e5daf63189f5d8361450976d76c1a33589d9fd51142eec8dc6feff550a",
    ),
}


@pytest.mark.parametrize("case", sorted(PINNED))
def test_certificate_bytes_are_pinned(case):
    make, digest = PINNED[case]
    assert hashlib.sha256(make().dumps().encode()).hexdigest() == digest


# -- derived payloads checked as text ---------------------------------------
#
# A step whose rule has a payload formula is accepted without a parse when
# its payload strings are the canonical prints of the formula's polynomials;
# any other text is parsed and compared, and that path alone rejects.


def _is_derived(step) -> bool:
    return RULES[step["rule"]].payload is not None


def _aux_strings(v):
    if isinstance(v, str):
        return [v]
    if isinstance(v, list):
        return [s for x in v for s in _aux_strings(x)]
    if isinstance(v, dict):
        return [s for x in v.values() for s in _aux_strings(x)]
    return []


@pytest.fixture
def parsed_texts(monkeypatch):
    """Every text the verifier parses, so that a silent fall-back from the
    text check to the parsing path shows."""
    texts = []
    parse = multiplier_core.parse_poly

    def counting(text, variables):
        texts.append(text)
        return parse(text, variables)

    monkeypatch.setattr(multiplier_core, "parse_poly", counting)
    return texts


@functools.lru_cache(maxsize=None)
def _pinned_text(case):
    return PINNED[case][0]().dumps()


def test_gaussian_certificate_verifies():
    data = json.loads(_pinned_text("effective3d-z1^2-z2^2+i*z1*z2-seed-0"))
    cert = DerivationCertificate.from_json(data)
    res = certificate_verify(cert, cert.domain)
    assert res.ok, res.reason
    assert len(cert.steps) == 31 and res.final_order == Fraction(1, 393216)


@pytest.mark.parametrize("case", sorted(PINNED))
def test_text_check_accepts_every_derived_step_of_the_pinned_certificates(case, parsed_texts):
    data = json.loads(_pinned_text(case))
    cert = DerivationCertificate.from_json(data)
    parsed_texts.clear()
    assert certificate_verify(cert, cert.domain).ok
    derived = [s for s in data["steps"] if _is_derived(s)]
    assert {s["rule"] for s in derived} >= {"combine", "det", "differential"}
    # only aux fields and the payloads of root and assumption steps are read
    want = [t for s in data["steps"] if not _is_derived(s) for t in s["payload"]]
    want += [t for s in data["steps"] for t in _aux_strings(s.get("aux", {}))]
    assert sorted(parsed_texts) == sorted(want)


def _rewrite(text, names=("z1", "z2")):
    """The polynomial of canonical ``text`` written another way: terms in
    ascending order, each its powers followed by ``*`` and its coefficient,
    as in ``z1^2*z2*(-3/2) + z1*2``."""
    p = _p(text, names)
    terms = []
    for mono, c in sorted(p.terms.items(), key=lambda t: (sum(t[0]), t[0])):
        powers = [f"{v}^{e}" for v, e in zip(names, mono) if e]
        terms.append("*".join(powers + [f"({poly_to_string(Poly.const(len(names), c))})"]))
    return " + ".join(terms) or "0*z1"


def test_equal_non_canonical_derived_payloads_are_accepted(parsed_texts):
    dom, data = _all_rules()
    for k, step in enumerate(data["steps"]):
        if not _is_derived(step):
            continue
        edited = json.loads(json.dumps(data))
        edited["steps"][k]["payload"] = [_rewrite(t) for t in step["payload"]]
        assert edited["steps"][k]["payload"] != step["payload"]
        parsed_texts.clear()
        res = _replay(dom, edited)
        assert res.ok, (k, res.reason)
        assert res.final_order == _replay(dom, data).final_order
        assert set(edited["steps"][k]["payload"]) <= set(parsed_texts)


def test_equal_payload_with_a_trailing_number_factor_is_accepted():
    dom, data = _all_rules()
    k = next(s["id"] for s in data["steps"] if s["rule"] == "det" and s["payload"] != ["0"])
    text = data["steps"][k]["payload"][0]
    # 2*z1^2*z2 -> z1^2*z2*2: the same term, not canonical
    edited = re.sub(r"(?<![\w^/])(\d+)\*((?:z\d(?:\^\d+)?\*?)+)", r"\2*\1", text)
    assert edited != text
    data["steps"][k]["payload"] = [edited]
    assert _replay(dom, data).ok


@pytest.mark.parametrize("bad", ["{} +", "{} +- z1", "({}", "{} $"])
def test_derived_payload_syntax_error_keeps_its_reason(bad):
    dom, data = _all_rules()
    for k, step in enumerate(data["steps"]):
        if not _is_derived(step):
            continue
        text = bad.format(step["payload"][0])
        with pytest.raises(ValueError) as err:
            parse_poly(text, dom.variables)
        tampered = json.loads(json.dumps(data))
        tampered["steps"][k]["payload"][0] = text
        res = _replay(dom, tampered)
        assert (res.ok, res.failed_step) == (False, k)
        assert res.reason == f"payload parse error: {err.value}"
        # the parse error comes first, before a broken input list
        if step["inputs"]:
            tampered["steps"][k]["inputs"].pop()
            assert _replay(dom, tampered).reason == res.reason


# -- replay in the packed form -----------------------------------------------
#
# Payload text parses into the packed form, and the rule formulas, their
# prints and comparisons run on it: a replay builds a term dict neither for
# a payload it parses nor for one it derives.


@pytest.fixture
def term_dicts(monkeypatch):
    """Every term dict built from a packed form, and (text, parsed Poly) for
    every text the verifier parses."""
    built, parsed = [], []
    unpack, parse = polyring._unpack, multiplier_core.parse_poly

    def counting_unpack(*args):
        built.append(args)
        return unpack(*args)

    def recording_parse(text, variables):
        p = parse(text, variables)
        parsed.append((text, p))
        return p

    monkeypatch.setattr(polyring, "_unpack", counting_unpack)
    monkeypatch.setattr(multiplier_core, "parse_poly", recording_parse)
    return built, parsed


@pytest.mark.parametrize("case", sorted(PINNED) + ["all-rules"])
def test_replay_builds_no_term_dict(case, term_dicts):
    data = json.loads(_all_rules_text() if case == "all-rules" else _pinned_text(case))
    built, parsed = term_dicts
    built.clear()
    parsed.clear()
    cert = DerivationCertificate.from_json(data)
    assert certificate_verify(cert, cert.domain).ok
    assert built == []
    assert any(p for text, p in parsed if "i" not in text)


# -- mutation fuzzing of derived payloads ------------------------------------


def _fuzz_source(name):
    if name == "all-rules":
        return _all_rules()
    data = json.loads(_pinned_text("effective3d-z1^2-z2^2-seed-0"))
    return _dom(data["domain"]["generators"]), data


def _edit(text, kind, draw):
    """One edit of payload text at a position chosen by ``draw`` in [0, 1)."""
    if kind == "digit":
        digits = [m.start() for m in re.finditer(r"\d", text)]
        if not digits:
            return text + "1"
        at = digits[int(draw * len(digits))]
        digit = str((int(text[at]) + 1 + int(draw * 80) % 9) % 10)
        return text[:at] + digit + text[at + 1:]
    terms = re.split(r" (?=[-+] )", text)
    if kind == "drop":
        if len(terms) == 1:
            return "0"
        k = int(draw * len(terms))
        rest = terms[:k] + terms[k + 1:]
        if k == 0:  # the new first term takes its sign as a prefix
            sign, _, body = rest[0].partition(" ")
            rest[0] = body if sign == "+" else "-" + body
        return " ".join(rest)
    if kind == "sign":
        k = int(draw * len(terms))
        t = terms[k]
        if k == 0:
            terms[0] = t[1:] if t.startswith("-") else "-" + t
        else:
            terms[k] = ("- " if t.startswith("+") else "+ ") + t[2:]
        return " ".join(terms)
    # swap two factors of one term
    k = int(draw * len(terms))
    t = terms[k]
    lead = t[:2] if k else ("-" if t.startswith("-") else "")
    factors = t[len(lead):].split("*")
    if len(factors) > 1:
        j = int(draw * 997) % (len(factors) - 1)
        factors[j], factors[j + 1] = factors[j + 1], factors[j]
    terms[k] = lead + "*".join(factors)
    return " ".join(terms)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(["all-rules", "q4"]),
    st.floats(0, 1, exclude_max=True),
    st.floats(0, 1, exclude_max=True),
    st.sampled_from(["digit", "drop", "sign", "swap"]),
    st.floats(0, 1, exclude_max=True),
)
def test_edited_derived_payloads_are_judged_by_their_polynomial(source, where, slot, kind, draw):
    dom, data = _fuzz_source(source)
    derived = [s["id"] for s in data["steps"] if _is_derived(s)]
    k = derived[int(where * len(derived))]
    step = data["steps"][k]
    j = int(slot * len(step["payload"]))
    original = step["payload"][j]
    text = _edit(original, kind, draw)
    # the steps after k would only replay what k yields
    edited = json.loads(json.dumps(data))
    edited["steps"] = edited["steps"][:k + 1]
    edited["steps"][k]["payload"][j] = text
    res = _replay(dom, edited)
    assert isinstance(res, VerifyResult)
    try:
        same = parse_poly(text, dom.variables) == parse_poly(original, dom.variables)
    except ValueError:
        assert (res.ok, res.failed_step) == (False, k)
        assert res.reason.startswith("payload parse error: ")
        return
    if same:
        assert res.ok, res.reason
    else:
        assert (res.ok, res.failed_step) == (False, k)
        assert res.reason == f"payload does not match the {step['rule']} formula"


# -- structural fuzzing of the verifier --------------------------------------
#
# One edit of one field of one step of the all-rules certificate, to any JSON
# value or to nothing at all: reading it raises only ValueError, replaying it
# returns a verdict, and it is accepted only where the certificate still
# says the same thing.

JSON_SCALARS = (st.none() | st.booleans() | st.integers(-10**30, 10**30) | st.floats()
                | st.sampled_from(["1/0", "3/2", "1", "1/8", "0", "z1"]))
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
DELETED = object()


def _same_inputs(steps, old, new):
    """Whether the input lists name multipliers of the same kind, payload
    and order: steps 2 and 3 of the all-rules certificate are one multiplier."""
    def seen(ids):
        return [(RULES[steps[i]["rule"]].kind, steps[i]["payload"], steps[i]["order"]) for i in ids]

    return seen(old) == seen(new)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_structural_edits_are_refused_or_harmless(data):
    dom, cert = _all_rules()
    k = data.draw(st.integers(0, len(cert["steps"]) - 1), label="step")
    step = cert["steps"][k]
    field = data.draw(st.sampled_from(
        ["id", "rule", "inputs", "order", "payload", "paper_ref",
         *(f"aux.{name}" for name in sorted(step.get("aux", {}))), "aux.unread"]), label="field")
    value = data.draw(st.just(DELETED) | JSON_SCALARS | JSON_VALUES, label="value")
    edited = json.loads(json.dumps(cert))
    where, key = edited["steps"][k], field
    if field.startswith("aux."):
        # a deletion from a step without aux leaves it without aux
        where, key = (where.get("aux", {}) if value is DELETED else where.setdefault("aux", {})), field[4:]
    if value is DELETED:
        where.pop(key, None)
    else:
        where[key] = value
    assume(json.dumps(edited) != json.dumps(cert))
    try:
        read = DerivationCertificate.from_json(edited)
    except ValueError:
        return
    res = certificate_verify(read, dom)
    assert isinstance(res, VerifyResult)
    if res.ok:
        rule = RULES[step["rule"]]
        assert (field == "paper_ref"
                or (field == "order" and rule.order is None and 0 < parse_order(value) <= 1)
                or (field == "inputs" and _same_inputs(cert["steps"], step["inputs"], value))), field


# -- self-verification on the printed polynomials ----------------------------
#
# The emitter's self-verification hands `certificate_verify` the polynomials
# each step's text was printed from; a step that is the recorded `Step`
# object is decided by polynomial equality, with no second print.


def _emitted(case):
    """(certificate, domain, printed map) as the emitter leaves them."""
    if case == "chain":
        dom, der = _build_derivation()
        return der.cert, dom, der.printed
    if case == "all-rules":
        der = _all_rules_derivation()
        return der.cert, der.domain, der.printed
    if case == "catlin-dangelo-3-4-5":
        return _self_verified(lambda: run_effective_chain(CDParams(3, 4, 5)))
    return _self_verified(PINNED[case][0])


@pytest.mark.parametrize("case", ["chain", "all-rules", *sorted(PINNED), "catlin-dangelo-3-4-5"])
def test_printed_polynomials_give_the_verdict_of_the_json_text(case, reprints):
    cert, dom, printed = _emitted(case)
    read_back = DerivationCertificate.from_json(json.loads(cert.dumps()))
    reprints.clear()
    res = certificate_verify(cert, dom, printed=printed)
    assert res.ok, res.reason
    assert reprints == []
    assert res == certificate_verify(read_back, dom)


def test_in_memory_tamper_gets_the_verdict_of_the_json_tamper(reprints):
    dom, der = _build_derivation()
    data = json.loads(der.cert.dumps())
    k = next(s.id for s in der.cert.steps if s.rule == "det")
    der.cert.steps[k] = dataclasses.replace(der.cert.steps[k], payload=("9*z1^2",))
    data["steps"][k]["payload"] = ["9*z1^2"]
    reprints.clear()
    res = certificate_verify(der.cert, dom, printed=der.printed)
    assert (res.ok, res.failed_step) == (False, k)
    assert reprints == [("9*z1^2",)]
    assert res == certificate_verify(DerivationCertificate.from_json(data), dom)


def test_a_printed_map_decides_nothing_by_itself(reprints):
    dom, der = _build_derivation()
    k = next(s.id for s in der.cert.steps if s.rule == "det")
    step, polys = der.printed[k]
    # an equal copy of the step is not the recorded object: it is checked as text
    der.cert.steps[k] = dataclasses.replace(step)
    assert certificate_verify(der.cert, dom, printed=der.printed).ok
    assert reprints == [step.payload]
    # a recorded polynomial that differs from the formula leaves the text to decide
    der.cert.steps[k] = step
    der.printed[k] = (step, (polys[0] + _p("z1"),))
    reprints.clear()
    assert certificate_verify(der.cert, dom, printed=der.printed).ok
    assert reprints == [step.payload]
