"""Generator-level radical multiplier loop."""

import hashlib
import itertools
import json
from fractions import Fraction

import pytest

from kohnmult import cli, groebner
from kohnmult.polyring import Poly, heuristic_gcd, parse_poly
from kohnmult.groebner import (
    _intersection_gcd,
    groebner_basis,
    ideal_membership,
    least_power,
    radical_membership,
)
from kohnmult.multiplier_core import SpecialDomain
from kohnmult.kohn_full_radical import (
    _certified_radical,
    ineffectiveness_witness,
    run_full_radical,
)

from oracles import (
    certified_radical_reference,
    jacobian_ideal_gens_reference,
    uniform_power_brute,
)


def _dom(gens):
    return SpecialDomain.from_strings(("z1", "z2"), gens)


def test_linear_domain_terminates_in_one_round():
    out = run_full_radical(_dom(["z1", "z2"]))
    assert out.terminated and not out.capped
    assert out.p_list == (1,)
    assert out.order_bound == Fraction(1, 4)
    assert out.differentiation_stages == 1
    assert out.flags == ()


def test_square_domain_terminates():
    out = run_full_radical(_dom(["z1^2", "z2^2"]))
    assert out.terminated and not out.capped
    assert out.order_bound is not None
    # every certified radical generator really lies in the round's radical
    for state in out.trace:
        for g in state.I_gens:
            assert radical_membership(g, list(state.J.gens))


def test_deformed_domain_full_run():
    out = run_full_radical(_dom(["z1^2", "z2^3 + z2*z1^4"]))
    assert out.terminated and not out.capped
    assert out.p_list == (1, 6, 1)
    assert out.order_bound == Fraction(1, 96)
    assert out.differentiation_stages == 3
    # the order bound follows from the uniform powers by halving per round
    order = Fraction(1, 4)
    for p in out.p_list:
        order = order / (2 * p)
    order = order * 2  # the last round's power feeds no further Jacobian stage
    assert out.order_bound == Fraction(1, 96)


def test_order_bound_formula_matches_trace():
    # order = 1/4 * prod over rounds nu >= 1 of 1/(2 p_nu), final round exempt
    for gens in (["z1", "z2"], ["z1^2", "z2^2"], ["z1^2", "z2^3 + z2*z1^4"]):
        out = run_full_radical(_dom(gens))
        assert out.terminated
        order = Fraction(1, 4)
        for state in out.trace[:-1]:
            order = order / (2 * state.p_nu)
        assert out.order_bound == order


def test_power_cap_cuts_run_short():
    out = run_full_radical(_dom(["z1^2", "z2^3 + z2*z1^9"]), power_cap=8)
    assert out.capped
    assert any(state.flags.get("cap_exceeded") for state in out.trace)


def test_round_ideals_nest_into_radicals():
    out = run_full_radical(_dom(["z1^2", "z2^3 + z2*z1^4"]))
    for state in out.trace:
        # the certified I sits inside the radical by construction; its
        # uniform power certificate must place I^p inside J itself
        if state.p_nu is None:
            continue
        for g in state.I_gens:
            assert ideal_membership(g ** state.p_nu, state.J)


def test_trace_json_schema():
    out = run_full_radical(_dom(["z1^2", "z2^2"]))
    data = json.loads(out.dumps())
    assert data["schema"] == "kohn-trace/1"
    assert data["generator_level"] is True
    assert data["terminated"] is True
    assert len(data["rounds"]) == out.differentiation_stages
    for r in data["rounds"]:
        assert set(r) >= {"nu", "V", "J", "I", "p", "flags"}
    assert data["caps"]["power_cap"] == 64


def test_max_rounds_is_honored():
    out = run_full_radical(_dom(["z1^2", "z2^3 + z2*z1^4"]), max_rounds=1)
    assert not out.terminated
    assert out.capped
    assert len(out.trace) == 1


def test_ineffectiveness_witness_explicit_ideal():
    z1 = Poly.variable(2, 1)
    dom = _dom(["z1", "z2"])
    assert ineffectiveness_witness(dom, z1, j_gens=[z1]) == 1
    assert ineffectiveness_witness(dom, z1, j_gens=[z1**5]) == 5
    with pytest.raises(ValueError):
        ineffectiveness_witness(dom, z1, j_gens=[Poly.variable(2, 2)])


def test_ineffectiveness_witness_from_loop_round():
    dom = _dom(["z1^2", "z2^3 + z2*z1^4"])
    z1 = Poly.variable(2, 1)
    s = ineffectiveness_witness(dom, z1, round_index=1)
    assert s == 6


@pytest.mark.parametrize(
    "variables, i_gens, j_gens, cap, expect",
    [
        (("z1", "z2"), ["z1", "z2"], ["z1^2", "z2^2"], 8, 3),
        (("z1", "z2"), ["z1", "z2"], ["z1^3", "z2^3"], 8, 5),
        (("z1", "z2"), ["z1", "z2"], ["z1^3", "z2^3"], 4, None),
        (("z1", "z2"), ["z1*z2", "z2^2"], ["z1^3", "z2^2"], 8, 2),
        (("z1", "z2"), ["z1 + z2", "z1 - z2"], ["z1^2", "z1*z2", "z2^3"], 8, 3),
        (("z1", "z2"), ["z1"], ["z2"], 8, None),
        (("z1", "z2"), ["1", "z1"], ["z1^2", "z2"], 8, None),
        (("z1", "z2"), ["0"], ["z1^2", "z2"], 8, 1),
        (("z1", "z2", "z3"), ["z1", "z2", "z3"], ["z1^2", "z2^2", "z3^2"], 8, 4),
    ],
    ids=["squares", "cubes", "cubes-past-cap", "mixed", "non-monomial", "never",
         "constant", "zero", "three-variables"],
)
def test_uniform_power_scan_matches_brute_force(variables, i_gens, j_gens, cap, expect):
    gb = groebner_basis([parse_poly(t, variables) for t in j_gens])
    gens = tuple(parse_poly(t, variables) for t in i_gens)
    assert least_power(gens, gb, cap) == uniform_power_brute(gens, gb.contains, cap) == expect


# -- the radical loop's gcds and its trace bytes -------------------------------

THREE_SQUARES = (("z1", "z2", "z3"), ["z1^2", "z2^2", "z3^2"])


CD_GRID = [(m, n, k) for m in (2, 3) for n in (3, 4, 5) for k in range(m + 1, m + 9)]


@pytest.mark.parametrize(
    "variables, gens, cap",
    [(("z1", "z2"), [f"z1^{m}", f"z2^{n} + z2*z1^{k}"], 64) for m, n, k in CD_GRID]
    + [
        (*THREE_SQUARES, 8),
        (("z1", "z2", "z3"), ["z1^2", "z2^2 + z1*z3", "z3^2"], 8),
        (("z1", "z2"), ["z1^2", "z2^2 + i*z1*z2"], 64),
        # round 1 certifies z2 but not z1
        (("z1", "z2"), ["z1^3", "z2^3 + z1*z2 + z1^2*z2"], 64),
    ],
    ids=[f"catlin-dangelo-{m}-{n}-{k}" for m, n, k in CD_GRID]
    + ["three-squares", "three-variable", "gaussian-2", "one-variable-certified"],
)
def test_each_round_matches_the_full_candidate_search(variables, gens, cap):
    # the loop certifies the variables before building candidates and keeps
    # its determinants across rounds; the reference does neither
    n = len(variables)
    out = run_full_radical(SpecialDomain.from_strings(variables, gens), power_cap=cap)
    for state in out.trace:
        j_gens = list(state.J.gens)
        assert j_gens == jacobian_ideal_gens_reference(list(state.V), n)
        want = certified_radical_reference(j_gens, state.J, n, cap, 6)
        assert _certified_radical(j_gens, state.J, n, cap, 6) == want
        assert state.I_gens == want[0]


def test_fast_gcd_answers_every_pairwise_gcd_of_the_three_variable_run():
    out = run_full_radical(SpecialDomain.from_strings(*THREE_SQUARES), power_cap=8)
    pairs = [p for state in out.trace for p in itertools.combinations(state.J.gens, 2)]
    assert len(pairs) == 5089
    got = [heuristic_gcd(a, b) for a, b in pairs]
    assert all(g is not None for g in got)
    # the intersection fallback is about 4x slower on these pairs; check a sample
    for (a, b), g in list(zip(pairs, got))[::37]:
        assert g == _intersection_gcd(a, b)


def test_gcds_with_a_one_term_operand_take_the_closed_form(monkeypatch):
    # the loop certifies gaussian-2's variables before its pairwise gcds, so
    # drive the gcd over every pair of each round's J; heuristic_gcd turns every
    # Gaussian pair away, so a one-term pair that got past monomial_gcd
    # would show in both logs
    out = run_full_radical(_dom(["z1^2", "z2^2 + i*z1*z2"]))
    pairs = [p for state in out.trace for p in itertools.combinations(state.J.gens, 2)]
    assert len(pairs) == 31
    calls = {name: [] for name in ("monomial_gcd", "heuristic_gcd", "_intersection_gcd")}
    for name, log in calls.items():
        def spy(p, q, real=getattr(groebner, name), log=log):
            got = real(p, q)
            log.append((p, q, got))
            return got
        monkeypatch.setattr(groebner, name, spy)
    for a, b in pairs:
        groebner.multivariate_gcd(a, b)
    assert any(g is not None for *_, g in calls["monomial_gcd"])
    # one pair of many-term generators in round 1, and six in round 2
    assert len(calls["_intersection_gcd"]) == 7
    for p, q, _ in calls["heuristic_gcd"] + calls["_intersection_gcd"]:
        assert p.term_count() > 1 and q.term_count() > 1, (p, q)


@pytest.mark.parametrize(
    "variables, gens, extra, digest",
    [
        (*THREE_SQUARES, ["--power-cap", "8"],
         "766cb8d4faa1e0f1e6735943a99a175652a06de4a646d7995d5b8e4a2ee477cd"),
        (("z1", "z2"), ["z1^2", "z2^5 + z2*z1^9"], [],
         "c8129b30f96f1175bb0d2e3b27a889ff5e8168dee0bd1db6a74e12374106ef72"),
        # Gaussian: round 1 certifies its variables before any gcd; the one
        # gcd left, in round 0's squarefree part, goes to the intersection fallback
        (("z1", "z2"), ["z1^2", "z2^2 + i*z1*z2"], [],
         "15a9488d20eb0512880a71daf9677c2c920324cd3375eb722d71eefb0fb8af70"),
        # the CI workflow checks the same two three-variable traces from the shell
        (("z1", "z2", "z3"), ["z1^2", "z2^2 + z1*z3", "z3^2"], ["--power-cap", "8"],
         "fe9047870e03ca11cd21f39d9b47c39e670ddad6697de11212629dda9702b733"),
        (("z1", "z2", "z3"), ["z1^2", "z2^2 + i*z1*z3", "z3^2"], ["--power-cap", "8"],
         "12f83d6758c8eb7535bf14318b6cc7d370e60cb20794f825437f22eef034e139"),
    ],
    ids=["three-squares", "catlin-dangelo-2-5-9", "gaussian-2", "three-variable",
         "gaussian-three-variable"],
)
def test_full_radical_trace_bytes_are_pinned(tmp_path, capsys, variables, gens, extra, digest):
    # perfbench checks only p_list and order_bound; this pins every round's
    # V, J and I and their order, including the radical-incomplete round 1 of
    # the three-variable run, whose I lists J's generators after the candidates
    dom = tmp_path / "domain.json"
    dom.write_text(json.dumps({"variables": list(variables), "generators": gens}))
    assert cli.main(["full-radical", str(dom), *extra]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    if len(variables) == 3:
        assert json.loads(out)["rounds"][1]["flags"]["radical_incomplete"] is True
