"""Effective multiplier chain for two-variable special domains.

Pipeline: a seeded genericity search picks linear combinations of the defining
functions (step one: the Jacobian h2* and its squarefree part), then a generic
h1 and coordinate change verified against the three finiteness conditions and
the Skoda cofactor identity (step two), then the Weierstrass image curve of
V(h2_hat) under (h1, w2) drives a derivative recursion whose every wedge
identity is checked exactly, ending in the constant multiplier 1 (step three).
`run_effective3d` is the one entry point: it checks the domain, sets up the
derivation, its premultipliers and the multiplicity q that the steps take as
inputs, then checks the final order against the paper's floor and replays the
emitted certificate once.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .groebner import (
    eliminate,
    groebner_basis,
    least_power,
    multivariate_gcd,
    origin_isolated,
    power_in_ideal,
    quotient_dimension,
    radical_membership,
    squarefree_part,
)
from .multiplier_core import (
    Derivation,
    DerivationCertificate,
    DomainError,
    GenericityError,
    Multiplier,
    SpecialDomain,
    VerificationError,
    certificate_verify,
)
from .polyring import (
    GR_ONE,
    GaussRat,
    Poly,
    differentiate,
    exact_divide,
    gr,
    jacobian_det,
    vanishing_order,
)

RETRY_BUDGET = 64


@dataclass(frozen=True)
class StepOneResult:
    h2_hat: Poly
    k1: int
    attempt: int
    h2_hat_mult: Multiplier


@dataclass(frozen=True)
class StepTwoResult:
    h1: Poly
    coord_matrix: tuple  # 2x2 integer rows defining (w1, w2)
    w1: Poly
    w2: Poly
    D: Poly  # dh1/dw1 in the new coordinates
    h1_s: Poly  # h1^(3q^2) = alpha*h2_hat + beta*D
    alpha: Poly
    beta: Poly
    attempt: int
    h1_pm: Multiplier  # pre-multiplier


@dataclass(frozen=True)
class WeierstrassData:
    prefix_r: int  # maximal power of u dividing the image equation T(u, v)
    wpoly: Poly  # monic-in-v factor W with T = unit * u^r * W
    degree: int  # ell_tilde = deg_v W
    ell: int
    distinguished: bool  # all lower v-coefficients of W vanish at u = 0
    chain: tuple  # h_{2,nu}(u,v): u^r*W then successive d/dv
    substituted: Poly  # (u^r W)(zeta1, zeta2)
    cofactor: Poly | None  # E with substituted = E * H when division is exact
    division_exact: bool
    flags: tuple


@dataclass(frozen=True)
class Effective3dResult:
    domain: SpecialDomain
    q: int
    seed: int
    short_circuit: bool
    k1: int
    final_order: Fraction
    floor_order: Fraction  # 1/(3 q^7 2^(q^2+3))
    floor_order_prefixed: Fraction  # 1/(3 q^7 2^(q^2+r+3))
    ell: int | None
    ell_tilde: int | None
    prefix_r: int | None
    certificate: DerivationCertificate
    step_one: StepOneResult
    step_two: StepTwoResult | None
    weierstrass: WeierstrassData | None


def _nonzero_int(rng: random.Random, bound: int) -> int:
    x = 0
    while x == 0:
        x = rng.randint(-bound, bound)
    return x


def _isolated_at_origin(gens_or_gb) -> bool:
    """0 is an isolated common zero of the generators, or of the basis's ideal.

    The germ condition is certified through the stronger global statement that
    the common zero set is finite (finite quotient dimension); a
    positive-dimensional component anywhere makes the draw retry, even when
    that component avoids the origin.
    """
    return quotient_dimension(gens_or_gb) != math.inf


def _combination(coeffs, pms) -> Poly:
    acc = Poly.zero(2)
    for c, pm in zip(coeffs, pms):
        acc = acc + pm.poly.scale(gr(c))
    return acc


def step_one(der: Derivation, pms: list, q: int, seed: int) -> StepOneResult:
    """Generic Jacobian of two combinations of the defining functions, with its
    squarefree part certified as a multiplier of order 1/(4*k1)."""
    last = "no admissible draw"
    for attempt in range(RETRY_BUDGET):
        rng = random.Random(f"one:{seed}:{attempt}")
        bound = 2 + attempt
        rows = [[_nonzero_int(rng, bound) for _ in pms] for _ in range(2)]
        h2s = jacobian_det([_combination(row, pms) for row in rows])
        if h2s.is_zero():
            last = "Jacobian vanished identically"
            continue
        if vanishing_order(h2s) > q:
            last = f"Jacobian vanishing order {vanishing_order(h2s)} exceeds q={q}"
            continue
        h2h = Poly.one(2) if h2s.is_constant() else squarefree_part(h2s)
        k1 = least_power([h2h], groebner_basis([h2s]), q)
        if k1 is None:
            # a factor repeats beyond q times away from the origin
            last = "squarefree part has no power witness within q"
            continue

        fhat = [der.premultiplier_combine([gr(c) for c in row], pms) for row in rows]
        hat = der.rule_root(h2h, k1, [der.rule_jacobian_of_premultipliers(fhat)])
        return StepOneResult(h2_hat=h2h, k1=k1, attempt=attempt, h2_hat_mult=hat)
    raise GenericityError(f"step one: retry budget {RETRY_BUDGET} exhausted ({last})")


def skoda_verify(f: Poly):
    """Membership of f^(n+1) in the ideal of the partial derivatives of f,
    with replayable cofactors.  A False return on in-scope data is a hard
    diagnostic, since the underlying statement is a theorem."""
    if f.constant_value():
        raise ValueError("skoda_verify expects f(0) = 0")
    parts = [differentiate(f, k) for k in range(1, f.nvars + 1)]
    if all(p.is_zero() for p in parts):
        return (True, [Poly.zero(f.nvars)] * f.nvars) if f.is_zero() else (False, None)
    gb = groebner_basis(parts, provenance=True)
    cofs, rem = gb.cofactors(f ** (f.nvars + 1))
    if rem.is_zero():
        return True, cofs
    return False, None


def step_two(der: Derivation, pms: list, q: int, seed: int, h2_hat: Poly) -> StepTwoResult:
    """Generic h1 and coordinates (w1, w2) with the three finiteness conditions
    verified exactly, plus the Skoda cofactor identity
    h1^(3q^2) = alpha*h2_hat + beta*(dh1/dw1)."""
    three_q2 = 3 * q * q

    last = "no admissible draw"
    for attempt in range(RETRY_BUDGET):
        rng = random.Random(f"two:{seed}:{attempt}")
        bound = 2 + attempt
        avec = [_nonzero_int(rng, bound) for _ in pms]
        h1 = _combination(avec, pms)
        if h1.is_zero():
            last = "h1 vanished identically"
            continue
        g11, g12 = _nonzero_int(rng, bound), _nonzero_int(rng, bound)
        g21, g22 = _nonzero_int(rng, bound), _nonzero_int(rng, bound)
        det_g = g11 * g22 - g12 * g21
        if det_g == 0:
            last = "coordinate matrix degenerate"
            continue
        z1 = Poly.variable(2, 1)
        z2 = Poly.variable(2, 2)
        w1 = z1.scale(gr(g11)) + z2.scale(gr(g12))
        w2 = z1.scale(gr(g21)) + z2.scale(gr(g22))
        # dh1/dw1 via z = G^{-1} w: the w1-derivative pulls back along column 1 of G^{-1}
        inv_det = GaussRat(Fraction(1, det_g))
        d = differentiate(h1, 1).scale(gr(g22) * inv_det) + differentiate(h1, 2).scale(
            gr(-g21) * inv_det
        )
        if d.is_zero():
            last = "dh1/dw1 vanished identically"
            continue

        if not _isolated_at_origin([w1, h1]):
            last = "condition (i): V(w1, h1) not isolated at the origin"
            continue
        if not _isolated_at_origin([h1, w2]):
            # precondition of the Weierstrass image step, folded into genericity
            last = "V(h1, w2) not isolated at the origin"
            continue
        gb2 = groebner_basis([h1, h2_hat])
        qd2 = quotient_dimension(gb2)
        if qd2 == math.inf or qd2 > q * q:
            last = f"condition (ii): dim(h1, h2_hat) = {qd2} not within q^2 = {q * q}"
            continue
        if least_power([z1, z2], gb2, q * q) is None:
            # m^(q^2) in (h1, h2_hat): every q^2-fold product of the
            # variables.  The root steps for w1, w2 consume this membership;
            # condition (ii) alone only gives its local analytic analogue
            last = "(h1, h2_hat) misses the q^2 power of the maximal ideal"
            continue
        gb3 = groebner_basis([h2_hat, d], provenance=True)
        qd3 = quotient_dimension(gb3)
        if qd3 == math.inf or qd3 > three_q2:
            last = f"condition (iii): dim(h2_hat, dh1/dw1) = {qd3} not within 3q^2 = {three_q2}"
            continue
        if not power_in_ideal(h1, three_q2, gb3):
            # decided on normal forms, before the power is expanded and divided
            last = "Skoda membership h1^(3q^2) in (h2_hat, dh1/dw1) failed"
            continue
        h1_s = h1 ** three_q2
        (alpha, beta), _ = gb3.cofactors(h1_s)
        assert alpha * h2_hat + beta * d == h1_s

        h1_pm = der.premultiplier_combine([gr(c) for c in avec], pms)
        return StepTwoResult(
            h1=h1,
            coord_matrix=((g11, g12), (g21, g22)),
            w1=w1,
            w2=w2,
            D=d,
            h1_s=h1_s,
            alpha=alpha,
            beta=beta,
            attempt=attempt,
            h1_pm=h1_pm,
        )
    raise GenericityError(f"step two: retry budget {RETRY_BUDGET} exhausted ({last})")


def weierstrass_from_image(H: Poly, zeta1: Poly, zeta2: Poly, ell: int) -> WeierstrassData:
    """Equation of the image of V(H) under (zeta1, zeta2), normalized to a
    monic-in-v Weierstrass factor with a u-power prefix, plus the v-derivative
    chain and the exact division certificate of the substituted equation by H."""
    if ell < 1:
        raise ValueError("ell must be positive")
    if H.nvars != 2 or zeta1.nvars != 2 or zeta2.nvars != 2:
        raise ValueError("expected two-variable data")
    if not _isolated_at_origin([zeta1, zeta2]):
        raise ValueError("V(zeta1, zeta2) must be isolated at the origin")
    gb = groebner_basis([H, zeta1])
    if not _isolated_at_origin(gb):
        raise ValueError("V(H, zeta1) must be isolated at the origin")
    if not power_in_ideal(zeta2, ell, gb):
        raise ValueError("zeta2^ell does not lie in (H, zeta1)")

    u = Poly.variable(4, 3)
    v = Poly.variable(4, 4)
    gens4 = [H.remap(4, (1, 2)), u - zeta1.remap(4, (1, 2)), v - zeta2.remap(4, (1, 2))]
    img = eliminate(gens4, [1, 2])
    img = [p for p in img if not p.is_zero()]
    if not img:
        raise ValueError("the image ideal is zero; no curve equation exists")
    flags = []
    T = img[0].monic()
    if len(img) > 1:
        for extra in img[1:]:
            T = multivariate_gcd(T, extra)
        T = T.monic()
        flags.append("image_not_principal")
        if T.is_constant():
            raise ValueError("the image ideal has no common curve equation")

    r = next(k for k, c in enumerate(T.coefficients_in(1)) if not c.is_zero())
    W = exact_divide(T, Poly.monomial(2, (r, 0)))
    ell_tilde = W.degree_in(2)
    if ell_tilde == 0:
        raise ValueError("the image curve is a pure u-power; preconditions exclude this")
    coeffs_v = W.coefficients_in(2)
    lead = coeffs_v[ell_tilde]
    if not lead.is_constant():
        raise ValueError("the v-leading coefficient is not a unit; not in Weierstrass position")
    W = W.scale(lead.constant_value().inverse())
    if ell_tilde > ell:
        raise ValueError(f"image degree {ell_tilde} exceeds the pledged bound {ell}")
    coeffs_v = W.coefficients_in(2)
    distinguished = all(not coeffs_v[j].constant_value() for j in range(ell_tilde))
    if not distinguished:
        flags.append("non_distinguished")

    h2uv = W.mul_term((r, 0), GR_ONE)
    chain = [h2uv]
    for _ in range(ell_tilde):
        chain.append(differentiate(chain[-1], 2))
    assert chain[-1] == Poly.monomial(2, (r, 0), gr(math.factorial(ell_tilde))), (
        "chain terminus is not ell!*u^r"
    )

    S = h2uv.compose([zeta1, zeta2])
    E = exact_divide(S, H)
    division_exact = E is not None
    if not division_exact:
        flags.append("division_by_radical_only")
        if not radical_membership(S, [H]):
            raise ValueError("substituted image equation is not even radically in (H)")

    return WeierstrassData(
        prefix_r=r,
        wpoly=W,
        degree=ell_tilde,
        ell=ell,
        distinguished=distinguished,
        chain=tuple(chain),
        substituted=S,
        cofactor=E,
        division_exact=division_exact,
        flags=tuple(flags),
    )


def step_three(der: Derivation, q: int, s1: StepOneResult, s2: StepTwoResult):
    """Derivative recursion ending in the constant multiplier 1.

    Returns (weierstrass_data, final_multiplier).  Every wedge identity and
    every combination payload is checked exactly; any failure aborts with the
    offending recursion index.  The w1, w2 root steps consume the membership
    m^(q^2) in (h1, h2_hat) that step two has checked, and `rule_root`
    re-derives their cofactors.
    """
    three_q2 = 3 * q * q
    h2m = s1.h2_hat_mult
    h1 = s2.h1
    (g11, g12), (g21, g22) = s2.coord_matrix
    det_g = g11 * g22 - g12 * g21

    w = weierstrass_from_image(s1.h2_hat, h1, s2.w2, q * q)
    if not w.division_exact:
        raise VerificationError(
            "division certificate degraded to radical membership on squarefree data"
        )

    def sub(p):
        return p.compose([h1, s2.w2])

    # X_0 = (u^r W)(h1, w2) = cofactor * h2_hat
    x = der.rule_combine([w.cofactor], [h2m])
    if x.poly != w.substituted:
        raise VerificationError("substituted image payload mismatch at nu=0")

    dh1 = der.rule_premultiplier_differential(s2.h1_pm)
    h1_pow = Poly.one(2)  # h1^(3q^2*nu)
    inv_detg = GaussRat(Fraction(1, det_g))

    for nu in range(w.degree):
        dx = der.rule_differential(x)
        t = der.rule_det([dh1, dx])
        succ = sub(w.chain[nu + 1])
        rhs = (s2.D * succ * h1_pow).scale(gr(det_g))
        if t.poly != rhs:
            raise VerificationError(f"wedge identity failed at nu={nu}")
        y = h1_pow * succ
        x = der.rule_combine([s2.alpha * y, s2.beta.scale(inv_detg)], [h2m, t])
        h1_pow = h1_pow * s2.h1_s
        if x.poly != h1_pow * succ:
            raise VerificationError(f"recursion payload mismatch at nu={nu}")

    inv_fact = GaussRat(Fraction(1, math.factorial(w.degree)))
    p_final = der.rule_combine([Poly.const(2, inv_fact)], [x])
    m_h1 = three_q2 * w.degree + w.prefix_r
    if p_final.poly != h1_pow * h1 ** w.prefix_r:
        raise VerificationError("chain terminus is not the expected power of h1")
    h1m = der.rule_root(h1, m_h1, [p_final])

    w1m = der.rule_root(s2.w1, q * q, [h1m, h2m])
    w2m = der.rule_root(s2.w2, q * q, [h1m, h2m])
    fin = der.rule_det([der.rule_differential(w1m), der.rule_differential(w2m)])
    one = der.rule_combine([Poly.const(2, inv_detg)], [fin])
    if not one.poly.is_unit() or one.poly.constant_value() != GaussRat(1):
        raise VerificationError("final payload is not the constant 1")
    return w, one


def _floor(q: int, r: int) -> Fraction:
    return Fraction(1, 3 * q**7 * 2 ** (q * q + r + 3))


def run_effective3d(domain: SpecialDomain, seed: int = 0) -> Effective3dResult:
    """Steps one to three on a two-variable domain, then one floor check and
    one self-verification of the emitted certificate.

    A constant h2_hat ends the chain after step one (the short circuit): its
    root step has already emitted the constant multiplier 1.
    """
    if domain.nvars != 2:
        raise DomainError("the effective chain needs exactly two variables")
    gb = groebner_basis(list(domain.generators))
    if not origin_isolated(gb):
        raise DomainError("the defining functions must have the origin as an isolated zero")
    q = quotient_dimension(gb)
    der = Derivation(domain)
    pms = der.init_premultipliers()
    s1 = step_one(der, pms, q, seed)
    s2 = wdata = None
    final = s1.h2_hat_mult
    if not s1.h2_hat.is_constant():
        s2 = step_two(der, pms, q, seed, s1.h2_hat)
        wdata, final = step_three(der, q, s1, s2)

    floor_prefixed = _floor(q, 0 if wdata is None else wdata.prefix_r)
    if final.order < floor_prefixed:
        raise VerificationError(f"final order {final.order} fell below the floor {floor_prefixed}")
    vr = certificate_verify(der.cert, domain)
    if not vr.ok:
        raise VerificationError(f"self-verification failed at step {vr.failed_step}: {vr.reason}")
    return Effective3dResult(
        domain=domain,
        q=q,
        seed=seed,
        short_circuit=wdata is None,
        k1=s1.k1,
        final_order=final.order,
        floor_order=_floor(q, 0),
        floor_order_prefixed=floor_prefixed,
        ell=None if wdata is None else wdata.ell,
        ell_tilde=None if wdata is None else wdata.degree,
        prefix_r=None if wdata is None else wdata.prefix_r,
        certificate=der.cert,
        step_one=s1,
        step_two=s2,
        weierstrass=wdata,
    )
