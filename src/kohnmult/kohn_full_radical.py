"""Full-real-radical multiplier loop: Jacobian rounds, certified radical passes, caps.

The loop keeps a finite spanning list V of pre-multiplier material, forms the
ideal J of all n-fold Jacobian determinants of V-elements, replaces J by a
certified-by-membership approximation of its radical, and repeats.  Every cap
(round count, uniform-power search, candidate degree) is a first-class outcome
recorded in the trace, never a silent truncation.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction

from .groebner import (
    GroebnerBasis,
    groebner_basis,
    least_power,
    multivariate_gcd,
    origin_isolated,
    power_in_ideal,
    radical_membership,
    squarefree_part,
)
from .multiplier_core import DomainError, SpecialDomain, order_str
from .polyring import Poly, equal_up_to_unit, gradient, poly_matrix_det, poly_to_string

TRACE_SCHEMA = "kohn-trace/1"


@dataclass(frozen=True)
class RadicalRoundState:
    """One round: the spanning list V, the Jacobian ideal J, the certified radical part I."""

    nu: int
    V: tuple[Poly, ...]
    J: GroebnerBasis
    I_gens: tuple[Poly, ...]
    p_nu: int | None
    flags: dict

    def to_json(self) -> dict:
        return {
            "nu": self.nu,
            "V": [poly_to_string(p) for p in self.V],
            "J": [poly_to_string(p) for p in self.J.gens],
            "I": [poly_to_string(p) for p in self.I_gens],
            "p": self.p_nu,
            "flags": {k: bool(v) for k, v in sorted(self.flags.items())},
        }


@dataclass(frozen=True)
class FullRadicalOutcome:
    domain: SpecialDomain
    trace: tuple[RadicalRoundState, ...]
    terminated: bool
    nu_star: int | None
    p_list: tuple[int | None, ...]
    order_bound: Fraction | None
    flags: tuple[str, ...]
    caps: dict

    @property
    def capped(self) -> bool:
        """True when any cap cut the run short of a fully certified outcome."""
        if not self.terminated:
            return True
        return any(r.flags.get("cap_exceeded") for r in self.trace)

    def to_json(self) -> dict:
        return {
            "schema": TRACE_SCHEMA,
            "domain": self.domain.to_json(),
            "caps": dict(self.caps),
            "generator_level": True,
            "rounds": [r.to_json() for r in self.trace],
            "terminated": self.terminated,
            "nu_star": self.nu_star,
            "p_list": list(self.p_list),
            "order_bound": order_str(self.order_bound) if self.order_bound is not None else None,
            "flags": list(self.flags),
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True)


def _jacobian_ideal_gens(
    v_list: list[Poly], nvars: int, grads: list[tuple], dets: dict[tuple, Poly | None]
) -> list[Poly]:
    """Monic Jacobian determinants of all n-subsets of V, deduplicated, in subset order.

    ``grads`` and ``dets`` hold the gradients and the determinants (None for
    zero) of earlier calls on a prefix of V, and are extended in place, so
    only the subsets that contain a new index are computed.
    """
    grads.extend(gradient(v) for v in v_list[len(grads):])
    out: dict[Poly, None] = {}  # insertion-ordered set
    for combo in itertools.combinations(range(len(v_list)), nvars):
        if combo not in dets:
            d = poly_matrix_det([grads[i] for i in combo])
            dets[combo] = None if d.is_zero() else d.monic()
        if dets[combo] is not None:
            out.setdefault(dets[combo])
    return list(out)


def _push_unique(acc: dict[Poly, None], p: Poly) -> None:
    """Add p made monic to the insertion-ordered set ``acc``, unless p is constant."""
    if not p.is_constant():
        acc.setdefault(p.monic())


def _certified_radical(
    j_gens: list[Poly],
    j_gb: GroebnerBasis,
    nvars: int,
    power_cap: int,
    degree_cap: int,
) -> tuple[tuple[Poly, ...], bool]:
    """Certified generators of (a subideal of) the radical of J.

    Returns (generators, complete).  Completeness is certified only in the three
    transparent cases: unit ideal, radical equal to the maximal ideal, and a
    principal J.  Otherwise the certified candidates are returned together with
    the J-generators themselves (so ideal(I) still contains J) and the round is
    flagged radical-incomplete.
    """
    if j_gb.is_unit_ideal():
        return (Poly.one(nvars),), True
    if len(j_gb.basis) == 1:
        return (squarefree_part(j_gb.basis[0]),), True

    def certify(c: Poly) -> bool:
        # a bounded-power witness is preferred; Rabinowitsch decides the leftovers
        return power_in_ideal(c, power_cap, j_gb) or radical_membership(c, j_gens)

    variables = [Poly.variable(nvars, k) for k in range(1, nvars + 1)]
    verdicts = {v: certify(v) for v in variables}
    if all(verdicts.values()):
        # V(J) = {0}: the radical is the maximal ideal, generated by the variables
        return tuple(variables), True

    # many pairwise gcds coincide; take each distinct one's squarefree part
    # once (every input below is monic: J's generators and basis, and gcds)
    parts: dict[Poly, Poly] = {}

    def part(p: Poly) -> Poly:
        got = parts.get(p)
        if got is None:
            got = parts[p] = squarefree_part(p)
        return got

    candidates: dict[Poly, None] = dict.fromkeys(variables)
    for g in j_gens:
        _push_unique(candidates, part(g))
    for b in j_gb.basis:
        if b.total_degree() <= degree_cap:
            _push_unique(candidates, part(b))
    for a, b in itertools.combinations(j_gens, 2):
        d = multivariate_gcd(a, b)
        if 0 < d.total_degree() <= degree_cap:
            _push_unique(candidates, part(d))

    certified = [c for c in candidates if (verdicts[c] if c in verdicts else certify(c))]
    i_out = dict.fromkeys(certified)
    for g in j_gens:
        _push_unique(i_out, g)
    return tuple(i_out), False


def run_full_radical(
    domain: SpecialDomain,
    max_rounds: int = 8,
    power_cap: int = 64,
    radical_degree_cap: int = 6,
) -> FullRadicalOutcome:
    """Execute the radical loop until 1 is certified, a cap trips, or the loop stalls."""
    if max_rounds < 1:
        raise ValueError("max_rounds must be at least 1")
    if power_cap < 1:
        raise ValueError("power_cap must be at least 1")
    if radical_degree_cap < 0:
        raise ValueError("radical_degree_cap must be nonnegative")
    if not origin_isolated(list(domain.generators)):
        raise DomainError("generators must have the origin as an isolated common zero")

    n = domain.nvars
    v_list: list[Poly] = list(domain.generators)
    # V is only appended to, so a gradient or determinant, once computed, holds for the run
    grads: list[tuple] = []
    dets: dict[tuple, Poly | None] = {}
    trace: list[RadicalRoundState] = []
    terminated = False
    nu_star: int | None = None
    run_flags: list[str] = []

    for nu in range(max_rounds):
        j_gens = _jacobian_ideal_gens(v_list, n, grads, dets)
        if not j_gens:
            run_flags.append("degenerate_jacobians")
            break
        j_gb = groebner_basis(j_gens)
        i_gens, complete = _certified_radical(j_gens, j_gb, n, power_cap, radical_degree_cap)

        if len(i_gens) == 1 and i_gens[0].is_constant():
            trace.append(
                RadicalRoundState(
                    nu, tuple(v_list), j_gb, i_gens, 1,
                    {"radical_incomplete": False, "cap_exceeded": False},
                )
            )
            terminated = True
            nu_star = nu
            break

        p_nu = least_power(i_gens, j_gb, power_cap)
        trace.append(
            RadicalRoundState(
                nu, tuple(v_list), j_gb, i_gens, p_nu,
                {"radical_incomplete": not complete, "cap_exceeded": p_nu is None},
            )
        )

        grew = False
        for c in i_gens:
            if not any(equal_up_to_unit(c, w) is not None for w in v_list):
                v_list.append(c)
                grew = True
        if not grew:
            run_flags.append("stalled")
            break
    else:
        run_flags.append("max_rounds_exceeded")

    p_list = tuple(r.p_nu for r in trace)
    order_bound: Fraction | None = None
    if terminated and all(p is not None for p in p_list):
        denom = 2 ** (nu_star + 2)
        for p in p_list:
            denom *= p
        order_bound = Fraction(1, denom)

    return FullRadicalOutcome(
        domain=domain,
        trace=tuple(trace),
        terminated=terminated,
        nu_star=nu_star,
        p_list=p_list,
        order_bound=order_bound,
        flags=tuple(run_flags),
        caps={
            "max_rounds": max_rounds,
            "power_cap": power_cap,
            "radical_degree_cap": radical_degree_cap,
        },
    )

