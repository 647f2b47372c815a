"""Two-parameter family z1^M, z2^N + z2*z1^K: ineffectiveness versus an
effective chain.

The family is the standard witness that the radical-based multiplier
algorithm terminates without an effective bound: the least p with
z1^p in the first Jacobian ideal grows with K while the multiplicity
q = M*N does not see K at all.  A hand-built derivation chain for the
same family certifies the trivial multiplier 1 with an order depending
only on (M, N).  Both halves are replayed exactly and packaged into one
report.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .polyring import (
    Poly,
    differentiate,
    gr,
    jacobian_det,
    poly_to_string,
)
from .groebner import (
    groebner_basis,
    ideal_membership,
    least_power,
    power_in_ideal,
    quotient_dimension,
    radical_membership,
)
from .multiplier_core import (
    Derivation,
    DerivationCertificate,
    DomainError,
    SpecialDomain,
    VerificationError,
    certificate_verify,
    order_str,
)

REPORT_SCHEMA = "kohn-report/1"


@dataclass(frozen=True)
class CDParams:
    """Family parameters, constrained to K > M >= 2 and N >= 3."""

    M: int
    N: int
    K: int

    def __post_init__(self):
        if not (isinstance(self.M, int) and isinstance(self.N, int) and isinstance(self.K, int)):
            raise DomainError("parameters must be integers")
        if not (self.K > self.M >= 2 and self.N >= 3):
            raise DomainError(
                f"parameters require K > M >= 2 and N >= 3, got M={self.M} N={self.N} K={self.K}"
            )


def build_domain(params: CDParams) -> SpecialDomain:
    """Domain with defining functions z1^M and z2^N + z2*z1^K.

    The multiplicity is checked to be exactly M*N; the family is
    engineered so that K never enters it.
    """
    m, n, k = params.M, params.N, params.K
    f1 = f"z1^{m}"
    f2 = f"z2^{n} + z2*z1^{k}"
    domain = SpecialDomain.from_strings(["z1", "z2"], [f1, f2])
    q = quotient_dimension(groebner_basis(list(domain.generators)))
    if q != m * n:
        raise DomainError(f"multiplicity {q} does not match M*N = {m * n}")
    return domain


@dataclass(frozen=True)
class IneffectiveTrace:
    """Staged radical run on the family, with every algebraic claim replayed.

    p1_exact is the least p with z1^p in the first Jacobian ideal when the
    search cap reaches it, else None; p1_lower is a certified lower bound
    either way (the exact value, or, when the cap-power is still outside the
    ideal, the larger of cap + 1 and the benchmark bound M+K-2)."""

    params: CDParams
    j0: tuple
    j1: tuple
    i1: tuple
    p1_exact: int | None
    p1_lower: int
    p1_upper: int
    power_cap: int
    stages: tuple
    differentiation_count: int

    def to_json(self) -> dict:
        names = ["z1", "z2"]
        return {
            "schema": REPORT_SCHEMA,
            "kind": "radical-trace",
            "params": {"M": self.params.M, "N": self.params.N, "K": self.params.K},
            "J0": [poly_to_string(p, names) for p in self.j0],
            "J1": [poly_to_string(p, names) for p in self.j1],
            "I1": [poly_to_string(p, names) for p in self.i1],
            "p1_exact": self.p1_exact,
            "p1_lower": self.p1_lower,
            "p1_upper": self.p1_upper,
            "power_cap": self.power_cap,
            "stages": list(self.stages),
            "differentiation_count": self.differentiation_count,
        }


def _fmt(p: Poly) -> str:
    return poly_to_string(p, ["z1", "z2"])


def run_ineffective_trace(params: CDParams, power_cap: int | None = None) -> IneffectiveTrace:
    """Four differentiation stages of the radical procedure on the family.

    Stage 1 forms the Jacobian of the defining pair, stage 2 the Jacobian
    ideal J1 against each defining function, stage 3 differentiates the
    recovered pre-multiplier z2^N against z1, stage 4 closes with the unit
    Jacobian of the coordinates.  Each stage's displayed identity is an
    exact polynomial check, and the z1-power bookkeeping around J1 carries
    certified bounds in both directions.
    """
    m, n, k = params.M, params.N, params.K
    if power_cap is None:
        # the upper-bound certificate below guarantees the search finishes
        power_cap = 2 * (m + k - 1)
    if power_cap < 1:
        raise DomainError("power cap must be >= 1")
    domain = build_domain(params)
    f1, f2 = domain.generators
    z1 = Poly.variable(2, 1)
    z2 = Poly.variable(2, 2)

    stages = []

    # stage 1: g spans J0
    g = jacobian_det([f1, f2])
    g_expected = (
        Poly.monomial(2, (m - 1, n - 1), gr(m * n))
        + Poly.monomial(2, (m + k - 1, 0), gr(m))
    )
    if g != g_expected:
        raise VerificationError("stage 1: Jacobian of the defining pair is off")
    stages.append(
        {
            "stage": 1,
            "action": "Jacobian determinant of the defining pair",
            "payload": _fmt(g),
        }
    )

    # stage 2: J1 and its radical
    j_f1 = jacobian_det([f1, g])
    j_f2 = jacobian_det([f2, g])
    unit = gr(m * m * n * (n - 1))
    if j_f1 != Poly.monomial(2, (2 * m - 2, n - 2), unit):
        raise VerificationError("stage 2: Jacobian against z1^M is off")
    j1 = (g, j_f1, j_f2)
    gb1 = groebner_basis(list(j1))

    # benchmark containment: every generator sits inside (z1^{M+K-2}, z2)
    bench = groebner_basis([Poly.monomial(2, (m + k - 2, 0)), z2])
    for p in j1:
        if not ideal_membership(p, bench):
            raise VerificationError("stage 2: J1 escapes the benchmark ideal")

    # certified power bounds for z1 against J1
    upper = 2 * (m + k - 1)
    if not power_in_ideal(z1, upper, gb1):
        raise VerificationError("stage 2: upper power certificate failed")
    p1_exact = least_power([z1], gb1, power_cap)
    if p1_exact is None:
        # z1^p in J1 puts it in the benchmark ideal too, so p >= M+K-2
        p1_lower = max(power_cap + 1, m + k - 2)
    else:
        p1_lower = p1_exact
        if p1_exact < m + k - 2:
            raise VerificationError("stage 2: power undercuts the benchmark bound")

    i1 = tuple(v for v in (z1, z2) if radical_membership(v, list(j1)))
    if z1 not in i1:
        raise VerificationError("stage 2: z1 missed the radical of J1")
    stages.append(
        {
            "stage": 2,
            "action": "Jacobian ideal of stage 1 against each defining function",
            "payload": [_fmt(j_f1), _fmt(j_f2)],
            "radical_variables": [_fmt(v) for v in i1],
            "benchmark": "J1 inside (z1^{M+K-2}, z2)",
        }
    )

    # stage 3: recover z2^N as F2 - z2*z1^K, differentiate against z1
    z2n = f2 - z2 * z1 ** k
    if z2n != Poly.monomial(2, (0, n)):
        raise VerificationError("stage 3: pre-multiplier recovery is off")
    j3 = jacobian_det([z1, z2n])
    if j3 != Poly.monomial(2, (0, n - 1), gr(n)):
        raise VerificationError("stage 3: coordinate Jacobian is off")
    if not radical_membership(z2, [z1, j3]):
        raise VerificationError("stage 3: z2 missed the enlarged radical")
    stages.append(
        {
            "stage": 3,
            "action": "Jacobian of z1 against the recovered pre-multiplier z2^N",
            "payload": _fmt(j3),
        }
    )

    # stage 4: unit Jacobian ends the run
    j4 = jacobian_det([z1, z2])
    if not j4.is_unit():
        raise VerificationError("stage 4: closing Jacobian is not a unit")
    stages.append(
        {
            "stage": 4,
            "action": "Jacobian of the certified coordinates",
            "payload": _fmt(j4),
        }
    )

    return IneffectiveTrace(
        params=params,
        j0=(g,),
        j1=j1,
        i1=i1,
        p1_exact=p1_exact,
        p1_lower=p1_lower,
        p1_upper=upper,
        power_cap=power_cap,
        stages=tuple(stages),
        differentiation_count=len(stages),
    )


@dataclass(frozen=True)
class EffectiveChain:
    """Certificate for the unit multiplier plus the payload milestones."""

    params: CDParams
    certificate: DerivationCertificate
    final_order: Fraction
    root_order: Fraction
    differentiation_count: int
    h_payloads: tuple

    def to_json(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "kind": "effective-chain",
            "params": {"M": self.params.M, "N": self.params.N, "K": self.params.K},
            "final_order": order_str(self.final_order),
            "root_order": order_str(self.root_order),
            "differentiation_count": self.differentiation_count,
            "h_payloads": list(self.h_payloads),
            "certificate": self.certificate.to_json(),
        }


def _h_monomial(params: CDParams, j: int) -> Poly:
    return Poly.monomial(2, ((j + 1) * (params.M - 1), params.N - j))


def run_effective_chain(params: CDParams) -> EffectiveChain:
    """Derivation chain certifying 1 at order 1/(2^{N+4}(N+1)(N-1)(M-1)).

    The ladder H_j = z1^{(j+1)(M-1)} z2^{N-j} climbs by differentiating
    against z1^M only; K enters the payloads but never the orders.  Every
    rung is produced by a det step and normalised to the monic monomial, so
    the certificate exposes the exact intermediate the narration names.
    """
    m, n = params.M, params.N
    domain = build_domain(params)
    der = Derivation(domain)
    pm1, pm2 = der.init_premultipliers()
    d_f1 = der.rule_premultiplier_differential(pm1)

    g = der.rule_jacobian_of_premultipliers([pm1, pm2])
    if g.order != Fraction(1, 4):
        raise VerificationError("defining Jacobian should carry order 1/4")

    z1 = Poly.variable(2, 1)
    z2 = Poly.variable(2, 2)
    h_payloads = []

    # first rung: z2 * jac(z1^M, g) is a unit multiple of H_1
    d_g = der.rule_differential(g)
    t = der.rule_det([d_f1, d_g])
    unit = gr(Fraction(1, m * m * n * (n - 1)))
    h = der.rule_combine([Poly.const(2, unit) * z2], [t])
    if h.poly != _h_monomial(params, 1):
        raise VerificationError("rung 1 payload is off")
    h_payloads.append(poly_to_string(h.poly, domain.variables))

    # inductive rungs: jac(z1^M, H_j) = M(N-j) * H_{j+1}
    for j in range(1, n):
        d_h = der.rule_differential(h)
        t = der.rule_det([d_f1, d_h])
        h = der.rule_combine([Poly.const(2, gr(Fraction(1, m * (n - j))))], [t])
        if h.poly != _h_monomial(params, j + 1):
            raise VerificationError(f"rung {j + 1} payload is off")
        if h.order != Fraction(1, 2 ** (j + 3)):
            raise VerificationError(f"rung {j + 1} order is off")
        h_payloads.append(poly_to_string(h.poly, domain.variables))

    # top rung is a pure z1 power; take its root
    root_m = (n + 1) * (m - 1)
    z1_mult = der.rule_root(z1, root_m, [h])
    omega = Fraction(1, 2 ** (n + 2) * root_m)
    if z1_mult.order != omega:
        raise VerificationError("root order is off")

    # z2*z1^K, then z2^N = F2 - z2*z1^K as a pre-multiplier
    tail = der.rule_combine([z2 * z1 ** (params.K - 1)], [z1_mult])
    z2n_pm = der.premultiplier_combine([1, -1], [pm2, tail])
    if z2n_pm.poly != Poly.monomial(2, (0, n)):
        raise VerificationError("pre-multiplier payload is off")
    if z2n_pm.order != omega / 2:
        raise VerificationError("pre-multiplier differential order is off")

    d_z2n = der.rule_premultiplier_differential(z2n_pm)
    d_z1 = der.rule_differential(z1_mult)
    t = der.rule_det([d_z1, d_z2n])
    if t.poly != Poly.monomial(2, (0, n - 1), gr(n)):
        raise VerificationError("coordinate det payload is off")
    z2_pow = der.rule_combine([Poly.const(2, gr(Fraction(1, n)))], [t])
    z2_mult = der.rule_root(z2, n - 1, [z2_pow])

    d_z2 = der.rule_differential(z2_mult)
    final = der.rule_det([d_z1, d_z2])
    if not (final.poly.is_unit() and final.poly == Poly.one(2)):
        raise VerificationError("closing det should be the constant 1")
    want = Fraction(1, 2 ** (n + 4) * (n + 1) * (n - 1) * (m - 1))
    if final.order != want:
        raise VerificationError(
            f"final order {final.order} differs from the closed form {want}"
        )

    outcome = certificate_verify(der.cert, domain)
    if not outcome:
        raise VerificationError(f"self-verification failed: {outcome.reason}")

    count = sum(
        1
        for s in der.cert.steps
        if s.rule in ("det",) and not _is_constant_payload(s.payload)
    )
    if count != n + 2:
        raise VerificationError(f"differentiation count {count} should be N+2")

    return EffectiveChain(
        params=params,
        certificate=der.cert,
        final_order=final.order,
        root_order=omega,
        differentiation_count=count,
        h_payloads=tuple(h_payloads),
    )


def _is_constant_payload(payload) -> bool:
    # payload entries are canonical strings; constants carry no variable
    return all("z" not in s for s in payload)


@dataclass(frozen=True)
class CDReport:
    """Side-by-side summary of both procedures on one parameter triple."""

    params: CDParams
    q: int
    trace: IneffectiveTrace
    chain: EffectiveChain

    @property
    def p1_lower(self) -> int:
        return self.trace.p1_lower

    @property
    def final_order(self) -> Fraction:
        return self.chain.final_order

    @property
    def differentiation_counts(self) -> dict:
        return {
            "full_radical": self.trace.differentiation_count,
            "effective": self.chain.differentiation_count,
        }

    @property
    def floor_order(self) -> Fraction:
        """Multiplicity-only floor 1/(2^{q+4}(q+1)(q-1)^2)."""
        q = self.q
        return Fraction(1, 2 ** (q + 4) * (q + 1) * (q - 1) ** 2)

    def to_json(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "kind": "catlin-dangelo",
            "params": {"M": self.params.M, "N": self.params.N, "K": self.params.K},
            "multiplicity": self.q,
            "p1_lower": self.p1_lower,
            "final_order": order_str(self.final_order),
            "floor_order": order_str(self.floor_order),
            "differentiation_counts": self.differentiation_counts,
            "trace": self.trace.to_json(),
            "chain": self.chain.to_json(),
        }


def run(params: CDParams, power_cap: int | None = None) -> CDReport:
    """Both halves of the comparison, with the floor inequality enforced."""
    # both halves call build_domain, which certifies the multiplicity M*N
    trace = run_ineffective_trace(params, power_cap)
    chain = run_effective_chain(params)
    report = CDReport(params=params, q=params.M * params.N, trace=trace, chain=chain)
    if report.final_order < report.floor_order:
        raise VerificationError("final order fell below the multiplicity floor")
    return report


def comparison_table(report: CDReport) -> str:
    """Plain-text table used by the command line output."""
    p = report.params
    rows = [
        ("multiplicity q = M*N", str(report.q)),
        ("least power of z1 in J1", str(report.trace.p1_exact)),
        ("certified lower bound", f">= {report.p1_lower} (benchmark M+K-2 = {p.M + p.K - 2})"),
        ("radical differentiation stages", str(report.trace.differentiation_count)),
        ("effective differentiation steps", str(report.chain.differentiation_count)),
        ("effective final order", order_str(report.final_order)),
        ("multiplicity floor", order_str(report.floor_order)),
    ]
    width = max(len(a) for a, _ in rows)
    lines = [f"family M={p.M} N={p.N} K={p.K}"]
    lines += [f"  {a.ljust(width)}  {b}" for a, b in rows]
    return "\n".join(lines)
