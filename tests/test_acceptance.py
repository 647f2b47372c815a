"""Acceptance gate: one test per contract criterion, in order.

Each test prints a single line

    ACCEPTANCE <n>: <PASS|FAIL> - <what was measured> (<seconds>)

and then asserts, so the -v listing and the printed lines agree.  Budgets
are wall-clock ceilings; exact values carry no tolerance at all.
"""

import math
import time
from fractions import Fraction

from kohnmult.polyring import (
    Poly,
    differentiate,
    equal_up_to_unit,
    gr,
    parse_poly,
)
from kohnmult.groebner import (
    groebner_basis,
    ideal_membership,
    multivariate_gcd,
    quotient_dimension,
    squarefree_part,
    standard_monomials,
)
from kohnmult.multiplier_core import SpecialDomain, certificate_verify
from kohnmult.kohn_effective3d import run_effective3d, skoda_verify
from kohnmult.catlin_dangelo import (
    CDParams,
    build_domain,
    run_effective_chain,
    run_ineffective_trace,
)
from kohnmult.matrix_lab import (
    compare_procedures,
    triangular_matrix,
    verify_planar_equivalence,
    verify_triangular_obstruction,
)

from oracles import (
    all_antichains,
    jet_multiplicity,
    linear_form,
    make_rng,
    random_matrix,
    standard_monomials_brute,
    staircase_quotient,
)

GRID = [
    (m, n, k)
    for m in (2, 3)
    for n in (3, 4)
    for k in range(m + 1, m + 7)
]


def _p(text, names=("z1", "z2")):
    return parse_poly(text, names)


def _line(n, ok, detail, t0, budget):
    took = time.monotonic() - t0
    status = "PASS" if ok and took < budget else "FAIL"
    line = f"ACCEPTANCE {n}: {status} - {detail} ({took:.1f}s, budget {budget}s)"
    print(line)
    import conftest

    conftest.ACCEPTANCE_LINES.append(line)
    return ok and took < budget


def test_criterion_1_grid_multiplicity_matches_jet_oracle():
    t0 = time.monotonic()
    ok = True
    for (m, n, k) in GRID:
        dom = build_domain(CDParams(m, n, k))
        q_gb = quotient_dimension(groebner_basis(list(dom.generators)))
        q_jet = jet_multiplicity(list(dom.generators))
        if q_gb != q_jet or q_gb > m * n:
            ok = False
            break
    assert _line(
        1, ok,
        f"{len(GRID)} grid multiplicities equal the jet oracle and stay <= M*N",
        t0, 10,
    )


def test_criterion_2_uniform_power_lower_bound():
    t0 = time.monotonic()
    ok = True
    for k in range(4, 13):
        trace = run_ineffective_trace(CDParams(2, 3, k), power_cap=64)
        if trace.p1_exact is None or trace.p1_exact < 2 + k - 2:
            ok = False
            break
    assert _line(
        2, ok,
        "first-round uniform power certified >= M+K-2 for K = 4..12",
        t0, 60,
    )


def test_criterion_3_effective_chain_orders_exact():
    t0 = time.monotonic()
    ok = True
    for (m, n, k) in GRID:
        chain = run_effective_chain(CDParams(m, n, k))
        want = Fraction(1, 2 ** (n + 4) * (n + 1) * (n - 1) * (m - 1))
        if chain.final_order != want:
            ok = False
            break
    assert _line(
        3, ok,
        f"{len(GRID)} effective chains end at 1/(2^(N+4)(N+1)(N-1)(M-1)) exactly",
        t0, 30,
    )


def test_criterion_4_differentiation_counts():
    t0 = time.monotonic()
    ok = True
    for (m, n, k) in GRID:
        chain = run_effective_chain(CDParams(m, n, k))
        if chain.differentiation_count != n + 2:
            ok = False
            break
    if ok:
        for k in (4, 6, 9):
            trace = run_ineffective_trace(CDParams(2, 3, k))
            if trace.differentiation_count != 4:
                ok = False
                break
    assert _line(
        4, ok,
        "effective chains use N+2 determinant stages; the radical loop uses 4",
        t0, 60,
    )


def test_criterion_5_planar_identity_random_matrices():
    t0 = time.monotonic()
    rng = make_rng("acceptance-planar")
    ok = all(
        verify_planar_equivalence(random_matrix(rng, 2, max_degree=3))
        for _ in range(100)
    )
    assert _line(
        5, ok,
        "planar correction identity on 100 random 2x2 matrices, degree <= 3",
        t0, 10,
    )


def test_criterion_6a_triangular_comparison_verdict():
    t0 = time.monotonic()
    names = ("z1", "z2", "z3")
    entries = triangular_matrix(
        _p("z1", names), _p("z2", names), _p("z3", names),
        _p("z3", names), _p("z1", names),
    )
    rep = compare_procedures(entries, names=names)
    ok = rep.verdict == "reducible" and rep.decomposition is not None
    if ok:
        for j in range(3):
            acc = Poly.zero(3)
            for k in range(3):
                acc = acc + rep.decomposition[k] * entries[k][j]
            if acc != rep.difference[j]:
                ok = False
    assert _line(
        6, ok,
        "documented triangular instance reducible, decomposition replayed",
        t0, 5,
    ), (
        "b - grad(det a) = -sum_k div(adj(a) column k) * row_k with "
        "polynomial cofactors, so the verdict must be 'reducible' with a "
        "decomposition that replays against the difference"
    )


def test_criterion_6b_triangular_obstruction():
    t0 = time.monotonic()
    names = ("z1", "z2", "z3")
    ok = verify_triangular_obstruction(
        _p("z1", names), _p("z2", names), _p("z3^2", names),
        Poly.zero(3), _p("z3", names),
    ) is True
    assert _line(
        6, ok,
        "cross-derivative obstruction detected on the documented instance",
        t0, 5,
    )


def test_criterion_7_effective3d_floor_and_certificates():
    t0 = time.monotonic()
    ok = True
    for gens in (["z1", "z2"], ["z1^2", "z2^2"]):
        dom = SpecialDomain.from_strings(("z1", "z2"), gens)
        res = run_effective3d(dom, seed=0)
        floor = Fraction(1, 3 * res.q**7 * 2 ** (res.q**2 + 3))
        ver = certificate_verify(res.certificate, dom)
        if res.final_order < floor or not ver.ok or ver.final_order != res.final_order:
            ok = False
            break
    assert _line(
        7, ok,
        "effective runs clear the 1/(3 q^7 2^(q^2+3)) floor with verified certificates",
        t0, 300,
    )


def test_criterion_8_gradient_power_membership():
    t0 = time.monotonic()
    texts = [
        "z1", "z2", "z1^2", "z1*z2", "z2^2", "z1^3", "z1^2*z2", "z1*z2^2",
        "z2^3",
        "z1 + z2", "z1^2 + z2^2", "z1^3 + z2^3", "z1^2 + z2^3",
        "z1^3 + z2^2", "z1^4 + z2^5", "z1*z2 + z1^3", "z2^4 + z1^3",
        "z1^5 + z2^2", "z1^2*z2 + z2^4", "z1^3*z2^2 + z2^3",
    ]
    assert len(texts) == 20
    ok = True
    for text in texts:
        f = _p(text)
        good, cofs = skoda_verify(f)
        if not good:
            ok = False
            break
        acc = Poly.zero(2)
        for c, j in zip(cofs, (1, 2)):
            acc = acc + c * differentiate(f, j)
        if acc != f**3:
            ok = False
            break
    assert _line(
        8, ok,
        "cube of each of 20 small functions lies in its gradient ideal, replayed",
        t0, 30,
    )


def test_criterion_9_property_suites():
    t0 = time.monotonic()
    ok = True

    # Groebner idempotence and membership on random ideals
    rng = make_rng("acceptance-gb")
    from oracles import random_poly

    for _ in range(10):
        gens = [
            random_poly(rng, 2, 3, max_terms=3, zero_constant=True)
            for _ in range(3)
        ]
        gb = groebner_basis(gens)
        if groebner_basis(gb.basis).basis != gb.basis:
            ok = False
        combo = Poly.zero(2)
        for g in gens:
            combo = combo + g * random_poly(rng, 2, 2)
        if not ideal_membership(combo, gb):
            ok = False
        if ideal_membership(combo + Poly.one(2), gb):
            ok = False

    # the staircase oracle over every monomial ideal generated in degree <= 4
    count = 0
    for antichain in all_antichains(4):
        gens = [Poly.monomial(2, mo, gr(1)) for mo in antichain]
        gb = groebner_basis(gens)
        expect = staircase_quotient(list(antichain))
        if quotient_dimension(gb) != expect:
            ok = False
        if expect is not math.inf:
            if list(standard_monomials(gb)) != standard_monomials_brute(
                list(antichain)
            ):
                ok = False
        count += 1

    # gcd and squarefree parts against constructed factorizations
    forms = [(1, 0), (0, 1), (1, 1), (1, -1), (2, 1)]
    rng2 = make_rng("acceptance-gcd")
    for _ in range(8):
        ea = [rng2.randint(0, 2) for _ in forms]
        eb = [rng2.randint(0, 2) for _ in forms]
        if not any(ea) or not any(eb):
            continue
        a = b = g = sf = Poly.one(2)
        for coeffs, x, y in zip(forms, ea, eb):
            form = linear_form(2, coeffs)
            a, b = a * form**x, b * form**y
            g = g * form ** min(x, y)
            if x:
                sf = sf * form
        if not equal_up_to_unit(multivariate_gcd(a, b), g):
            ok = False
        if not equal_up_to_unit(squarefree_part(a), sf):
            ok = False

    # coordinate-change identity inside each full effective3d run
    for seed in (0, 2):
        res = run_effective3d(
            SpecialDomain.from_strings(("z1", "z2"), ["z1^2", "z2^2"]),
            seed=seed,
        )
        s2 = res.step_two
        (a, b), (c, d) = s2.coord_matrix
        det = a * d - b * c
        if det == 0:
            ok = False
        lhs = s2.D.scale(det)
        rhs = differentiate(s2.h1, 1).scale(d) - differentiate(s2.h1, 2).scale(c)
        if lhs != rhs:
            ok = False
    short = run_effective3d(
        SpecialDomain.from_strings(("z1", "z2"), ["z1", "z2"]), seed=0
    )
    if short.step_two is not None:
        ok = False

    assert _line(
        9, ok,
        f"basis/membership properties, {count} staircases, gcd oracles, "
        "coordinate identities",
        t0, 120,
    )
