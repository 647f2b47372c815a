"""Two-parameter family with ineffective radical powers but effective chains."""

from fractions import Fraction

import pytest

from kohnmult.polyring import Poly
from kohnmult.groebner import quotient_dimension, groebner_basis
from kohnmult.multiplier_core import DomainError, certificate_verify
from kohnmult.catlin_dangelo import (
    CDParams,
    build_domain,
    comparison_table,
    run,
    run_effective_chain,
    run_ineffective_trace,
)


def test_params_are_validated():
    with pytest.raises(DomainError):
        CDParams(1, 3, 4)  # M < 2
    with pytest.raises(DomainError):
        CDParams(2, 2, 4)  # N < 3
    with pytest.raises(DomainError):
        CDParams(3, 3, 3)  # K <= M
    with pytest.raises(DomainError):
        CDParams(2, 3, 2)
    CDParams(2, 3, 4)  # smallest legal point


def test_domain_multiplicity_is_MN():
    for (m, n, k) in ((2, 3, 4), (2, 3, 9), (3, 4, 5)):
        dom = build_domain(CDParams(m, n, k))
        gb = groebner_basis(list(dom.generators))
        assert quotient_dimension(gb) == m * n


def test_reference_point_2_3_5():
    report = run(CDParams(2, 3, 5))
    assert report.q == 6
    assert report.trace.p1_exact == 7
    assert report.trace.p1_lower == 7
    assert report.final_order == Fraction(1, 1024)
    assert report.differentiation_counts == {
        "full_radical": 4,
        "effective": 5,
    }
    assert report.floor_order == Fraction(
        1, 2 ** (6 + 4) * (6 + 1) * (6 - 1) ** 2
    )
    assert report.final_order >= report.floor_order


def test_reference_point_3_4_5():
    report = run(CDParams(3, 4, 5))
    assert report.q == 12
    assert report.trace.p1_exact == 9
    assert report.final_order == Fraction(1, 7680)
    assert report.differentiation_counts["effective"] == 6


def test_reference_point_2_5_7():
    report = run(CDParams(2, 5, 7))
    assert report.q == 10
    assert report.trace.p1_exact == 9
    assert report.final_order == Fraction(1, 12288)
    assert report.differentiation_counts["effective"] == 7


def test_p1_grows_with_K_while_chain_depth_does_not():
    p1s = []
    finals = []
    for k in (4, 6, 8):
        report = run(CDParams(2, 3, k))
        p1s.append(report.trace.p1_exact)
        finals.append(report.final_order)
        assert report.trace.p1_exact >= 2 + k - 2
        assert report.differentiation_counts["effective"] == 3 + 2
    assert p1s == sorted(p1s) and p1s[0] < p1s[-1]
    # the effective guarantee is K-independent
    assert len(set(finals)) == 1


def test_radical_content_depends_on_M():
    z1, z2 = Poly.variable(2, 1), Poly.variable(2, 2)
    t2 = run_ineffective_trace(CDParams(2, 3, 4))
    assert set(t2.i1) == {z1, z2}
    t3 = run_ineffective_trace(CDParams(3, 3, 4))
    assert set(t3.i1) == {z1}


def test_power_cap_reports_honest_lower_bound():
    params = CDParams(2, 3, 9)
    t = run_ineffective_trace(params, power_cap=8)
    assert t.p1_exact is None
    assert t.p1_lower == 9
    assert t.p1_upper == 2 * (2 + 9 - 1)
    # one scan up to p1_upper serves every cap: exact at p1, a lower bound
    # just below it, and a cap past p1_upper reports as the default run
    full = run_ineffective_trace(params)
    p1 = full.p1_exact
    assert p1 is not None and p1 < t.p1_upper
    at = run_ineffective_trace(params, power_cap=p1)
    assert at.p1_exact == at.p1_lower == p1
    below = run_ineffective_trace(params, power_cap=p1 - 1)
    assert below.p1_exact is None and below.p1_lower == p1
    above = run_ineffective_trace(params, power_cap=t.p1_upper + 5)
    assert above.p1_exact == p1 and above.p1_lower == p1
    assert {**above.to_json(), "power_cap": full.power_cap} == full.to_json()


def test_capped_lower_bound_keeps_the_benchmark_bound():
    # the cap of 3 is below M+K-2 = 5, which the J1 containment proves
    t = run_ineffective_trace(CDParams(2, 3, 5), power_cap=3)
    assert t.p1_exact is None
    assert t.p1_lower == 5
    # and stays a lower bound: the uncapped run finds p1 = 7
    assert run_ineffective_trace(CDParams(2, 3, 5)).p1_exact >= t.p1_lower


def test_trace_stage_count_is_constant():
    for k in (4, 7):
        t = run_ineffective_trace(CDParams(2, 3, k))
        assert t.differentiation_count == 4
        assert len(t.stages) == 4


def test_chain_payloads_follow_the_monomial_ladder():
    params = CDParams(2, 4, 5)
    chain = run_effective_chain(params)
    m, n = params.M, params.N
    # payloads are unit multiples of the ladder monomials
    from kohnmult.polyring import equal_up_to_unit, gr, parse_poly

    for j, payload in enumerate(chain.h_payloads, start=1):
        expect = Poly.monomial(2, ((j + 1) * (m - 1), n - j), gr(1))
        got = parse_poly(payload, ("z1", "z2"))
        assert equal_up_to_unit(got, expect), j


def test_chain_certificate_verifies_and_orders_match():
    params = CDParams(2, 3, 6)
    chain = run_effective_chain(params)
    dom = build_domain(params)
    res = certificate_verify(chain.certificate, dom)
    assert res.ok, res.reason
    assert res.final_order == chain.final_order
    m, n = params.M, params.N
    assert chain.final_order == Fraction(
        1, 2 ** (n + 4) * (n + 1) * (n - 1) * (m - 1)
    )


def test_report_json_kinds():
    report = run(CDParams(2, 3, 4))
    data = report.to_json()
    assert data["schema"] == "kohn-report/1"
    assert data["kind"] == "catlin-dangelo"
    assert data["trace"]["kind"] == "radical-trace"
    assert data["chain"]["kind"] == "effective-chain"
    assert data["multiplicity"] == 6


def test_comparison_table_mentions_both_counts():
    report = run(CDParams(2, 3, 4))
    table = comparison_table(report)
    assert "4" in table and "5" in table
    assert "effective" in table.lower()
