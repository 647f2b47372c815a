"""Multiplier objects with exact order bookkeeping, derivation rules, and an
independent certificate verifier.

A derivation is an append-only list of steps.  Each step names a rule, the
steps it consumed, the payload polynomial(s) it produced, and the exact
rational subellipticity order the rule arithmetic assigns.  `RULES` is the
single statement of the ten rules: for each, the kind of multiplier it
yields, the kinds of its inputs, its aux fields, its payload formula, its
side check and its order arithmetic.  A rule's inputs and its output are
`Multiplier` records: kind, payload polynomials, order and step id.
`Derivation` reads the table to emit steps and returns the record each step
yields; `certificate_verify` reads it to replay every step from the payload
strings alone, rebuilding the same records from the parsed payloads: it
re-derives the polynomials, runs the side checks (root cofactors are
replayed by plain multiplication), and re-computes every order, so a
certificate stands on its own without trusting the code that emitted it.

Scalar multipliers form an ideal: sums with arbitrary polynomial
coefficients keep the minimum order.  Differentials halve the order.
Determinants of n vector multipliers keep the minimum.  Roots divide by the
extracted power.  Pre-multipliers certify only their differential's order;
constant-coefficient combinations of pre-multipliers (and of scalar
multipliers, whose differentials count at half their order) stay
pre-multipliers.  The rules are those of Kohn, "Subellipticity of the
d-bar-Neumann problem on pseudo-convex domains: sufficient conditions",
Acta Math. 142 (1979).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

from kohnmult.polyring import (
    GAUSS_UNITS,
    Poly,
    check_names,
    coefficient_bits,
    differentiate,
    dot,
    gradient,
    parse_poly,
    poly_matrix_adjugate,
    poly_matrix_det,
    poly_to_string,
)
from kohnmult.groebner import groebner_basis

CERT_SCHEMA = "kohn-cert/1"
REPORT_SCHEMA = "kohn-report/1"

# kinds of multiplier a step yields
SCALAR, VECTOR, PREMULT = "scalar", "vector", "pre-multiplier"


def order_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def parse_order(s: str) -> Fraction:
    """An order as `order_str` writes it: a string "n/d" or "n"."""
    if not isinstance(s, str) or not re.fullmatch(r"[+-]?\d+(/\d+)?", s):
        raise ValueError(f"an order must be a string n/d, got {s!r:.40}")
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError(f"order {s!r:.40} has a zero denominator") from None


def _step_id(v) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ValueError(f"step ids and inputs must be integers, got {v!r:.40}")
    return v


def _strings(v, what) -> tuple:
    if not isinstance(v, (list, tuple)) or not all(isinstance(s, str) for s in v):
        raise ValueError(f"{what} must be a list of strings")
    return tuple(v)


class DomainError(ValueError):
    pass


class GenericityError(RuntimeError):
    """A seeded search ran out of retry budget before finding admissible data."""


class VerificationError(RuntimeError):
    """An exact identity the derivation depends on failed to hold."""


class RuleError(ValueError):
    """A step breaks its rule; the message says how."""


@dataclass(frozen=True)
class SpecialDomain:
    """Defining data of Re w + sum |F_j(z)|^2 < 0: the functions F_j."""

    variables: tuple
    generators: tuple

    def __post_init__(self):
        if not self.variables:
            raise DomainError("domain needs at least one variable")
        if not self.generators:
            raise DomainError("domain needs at least one generator")
        n = len(self.variables)
        for g in self.generators:
            if g.nvars != n:
                raise DomainError("generator arity does not match variables")
            if g.constant_value():
                raise DomainError("every defining function must vanish at 0")

    @property
    def nvars(self) -> int:
        return len(self.variables)

    @staticmethod
    def from_strings(variables: Sequence[str], gens: Sequence[str]) -> "SpecialDomain":
        vs = check_names(variables)
        polys = tuple(parse_poly(g, vs) for g in _strings(gens, "generators"))
        return SpecialDomain(vs, polys)

    def to_json(self) -> dict:
        return {
            "variables": list(self.variables),
            "generators": [poly_to_string(g, self.variables) for g in self.generators],
        }


class Multiplier(NamedTuple):
    """A multiplier as a step yields it, the one record the emitter returns
    and the verifier replays.  `polys` is the payload: one polynomial for a
    scalar or pre-multiplier, n for a vector multiplier (the coefficient of
    dz_j at slot j).  `order` is the certified order; for a pre-multiplier
    it is the order of its differential.  `step` is the yielding step's id."""

    kind: str
    polys: tuple
    order: Fraction
    step: int

    @property
    def poly(self) -> Poly:
        return self.polys[0]


@dataclass(frozen=True)
class Step:
    id: int
    rule: str
    inputs: tuple
    payload: tuple  # poly strings
    order: Fraction
    paper_ref: str
    aux: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        d = {
            "id": self.id,
            "rule": self.rule,
            "inputs": list(self.inputs),
            "payload": list(self.payload),
            "order": order_str(self.order),
            "paper_ref": self.paper_ref,
        }
        if self.aux:
            d["aux"] = self.aux
        return d


class DerivationCertificate:
    """Append-only log of rule applications over one domain."""

    def __init__(self, domain: SpecialDomain):
        self.domain = domain
        self.steps: list[Step] = []

    def add(self, rule, inputs, payload, order, aux=None) -> Step:
        step = Step(
            id=len(self.steps),
            rule=rule,
            inputs=tuple(inputs),
            payload=tuple(payload),
            order=order,
            paper_ref=RULES[rule].cite,
            aux=aux or {},
        )
        self.steps.append(step)
        return step

    @property
    def final(self) -> Step:
        if not self.steps:
            raise ValueError("empty certificate")
        return self.steps[-1]

    def to_json(self) -> dict:
        return {
            "schema": CERT_SCHEMA,
            "domain": self.domain.to_json(),
            "steps": [s.to_json() for s in self.steps],
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=False)

    @staticmethod
    def from_json(data: dict) -> "DerivationCertificate":
        if data.get("schema") != CERT_SCHEMA:
            raise ValueError(f"unsupported certificate schema {data.get('schema')!r}")
        domain = data.get("domain")
        if not isinstance(domain, dict):
            raise ValueError("certificate domain must be an object")
        dom = SpecialDomain.from_strings(domain.get("variables"), domain.get("generators"))
        cert = DerivationCertificate(dom)
        steps = data.get("steps")
        if not isinstance(steps, list):
            raise ValueError("certificate steps must be a list of objects")
        for n, s in enumerate(steps):
            if not isinstance(s, dict):
                raise ValueError(f"step {n} must be an object")
            for field in ("id", "rule", "inputs", "payload", "order"):
                if field not in s:
                    raise ValueError(f"step {n} has no field {field!r}")
            if not isinstance(s["inputs"], list):
                raise ValueError(f"step {n}: inputs must be a list of step ids")
            if not isinstance(s.get("paper_ref", ""), str):
                raise ValueError(f"step {n}: paper_ref must be a string")
            cert.steps.append(
                Step(
                    id=_step_id(s["id"]),
                    rule=s["rule"],
                    inputs=tuple(_step_id(t) for t in s["inputs"]),
                    payload=_strings(s["payload"], "a step payload"),
                    order=parse_order(s["order"]),
                    paper_ref=s.get("paper_ref", ""),
                    aux=s.get("aux", {}),
                )
            )
        return cert


class Derivation:
    """Rule applicator: builds multiplier objects while logging certificate
    steps.  All payloads are rendered through the canonical printer so the
    certificate is self-contained text.  `printed` maps each step id to the
    `Step` written and the payload polynomials its text is the print of, for
    the emitter's self-verification."""

    def __init__(self, domain: SpecialDomain):
        self.domain = domain
        self.cert = DerivationCertificate(domain)
        self.printed: dict[int, tuple] = {}

    # -- helpers ------------------------------------------------------------

    def _s(self, p: Poly) -> str:
        return poly_to_string(p, self.domain.variables)

    def _apply(self, name, ms, aux=None, payload=None, order=None) -> Multiplier:
        """Log one step of rule `name` on the input multipliers `ms` and
        return the multiplier it yields.  Payload and order come from the
        rule's entry unless the rule leaves them to the caller."""
        rule = RULES[name]
        for m in ms:
            if not isinstance(m, Multiplier):
                raise TypeError(f"{type(m).__name__} is not a multiplier")
        rule.check_inputs(self.domain.nvars, ms)
        aux = aux or {}
        if payload is None:
            payload = rule.payload(self.domain, ms, aux)
        if order is None:
            order = rule.order(ms, aux)
        polys = tuple(payload)
        step = self.cert.add(
            name,
            [m.step for m in ms],
            [self._s(p) for p in polys],
            order,
            aux={k: _render(aux[k], self._s) for k in rule.aux},
        )
        self.printed[step.id] = (step, polys)
        return Multiplier(rule.kind, polys, order, step.id)

    # -- rules --------------------------------------------------------------

    def init_premultipliers(self) -> list:
        """Record every defining function as a pre-multiplier whose
        differential carries order 1/4."""
        return [self._apply("premultiplier", [], {"generator_index": j})
                for j in range(len(self.domain.generators))]

    def premultiplier_combine(self, coeffs, inputs) -> Multiplier:
        """Constant-coefficient combination; scalar-multiplier inputs
        contribute half their order (their differential's order)."""
        if len(coeffs) != len(inputs):
            raise ValueError("one coefficient per input")
        nv = self.domain.nvars
        return self._apply("premultiplier_combine", inputs,
                           {"coeffs": [Poly.const(nv, c) for c in coeffs]})

    def rule_premultiplier_differential(self, pm: Multiplier) -> Multiplier:
        return self._apply("premultiplier_differential", [pm])

    def rule_differential(self, f: Multiplier) -> Multiplier:
        return self._apply("differential", [f])

    def rule_det(self, thetas, value=None) -> Multiplier:
        """Determinant of n vector multipliers.  A `value` goes into the
        certificate unevaluated; the emitter's self-verification checks it."""
        return self._apply("det", thetas, payload=None if value is None else [value])

    def rule_jacobian_of_premultipliers(self, gs) -> Multiplier:
        """Differentiate each pre-multiplier, then take the determinant."""
        thetas = [self.rule_premultiplier_differential(g) for g in gs]
        return self.rule_det(thetas)

    def rule_root(self, f: Poly, m: int, known, power=None) -> Multiplier:
        """f with f^m in the ideal of known multipliers; order = min/m.
        The membership cofactors are computed here and stored so the
        verifier can replay the identity by multiplication alone.  A given
        `power` stands for f^m unevaluated: its cofactors go into the
        certificate, and the emitter's self-verification checks f^m."""
        if m < 1:
            raise ValueError("root exponent must be >= 1")
        gb = groebner_basis([k.poly for k in known], provenance=True)
        cofs, rem = gb.cofactors(f ** m if power is None else power)
        if not rem.is_zero():
            raise ValueError(
                f"root rule rejected: payload^{m} is not in the ideal of the "
                "known multipliers"
            )
        return self._apply("root", known, {"m": m, "cofactors": cofs}, payload=[f])

    def rule_combine(self, coeffs, ms, value=None) -> Multiplier:
        """Polynomial-coefficient combination of scalar multipliers.  A `value`
        goes into the certificate unevaluated; the emitter's self-verification
        checks it."""
        if len(coeffs) != len(ms):
            raise ValueError("one coefficient per multiplier")
        return self._apply("combine", ms, {"coeffs": list(coeffs)},
                           payload=None if value is None else [value])

    def rule_assume_vector(self, form, order: Fraction) -> Multiplier:
        """Record a vector multiplier as a hypothesis (used for matrix rows
        whose multiplier property is an assumption, not a derivation)."""
        return self._apply("assume_vector", [], payload=tuple(form), order=order)

    def assume_matrix(self, entries, row_orders) -> list:
        """The rows of a matrix multiplier, each an assumed vector multiplier
        (row ell is the form sum_j entries[ell][j] dz_j at row_orders[ell])."""
        return [self.rule_assume_vector(row, w) for row, w in zip(entries, row_orders)]

    def rule_matrix_to_vector(self, rows) -> Multiplier:
        """b_j = sum_{p,l} adj(a)_{pl} * d_p a_{lj}; order = (min row)/2."""
        return self._apply("matrix_to_vector", rows)

    def rule_general_gamma(self, Gamma, A, rows, alpha: Multiplier) -> Multiplier:
        """b_j = sum_{p,k,l} Gamma_{pk} A_{kl} d_p a_{lj}, requiring the
        exact identity A * a = alpha * I; order = min(rows, alpha)/2."""
        n = self.domain.nvars
        if len(rows) != n or len(Gamma) != n or len(A) != n:
            raise ValueError("all matrices must be n x n")
        check_gamma_hypothesis(A, [r.polys for r in rows], alpha.poly)
        return self._apply("general_gamma", [*rows, alpha], {"gamma": Gamma, "A": A})


def _matmul(X, Y) -> list:
    nv = Y[0][0].nvars
    return [[dot(nv, [(x, Y[k][j]) for k, x in enumerate(row)]) for j in range(len(Y[0]))]
            for row in X]


def _contract(M, entries) -> list:
    """Components b_j = sum_{p,l} M_{pl} * d_p a_{lj}."""
    n = len(entries)
    nv = entries[0][0].nvars
    return [dot(nv, [(M[p][ell], differentiate(entries[ell][j], p + 1))
                     for p in range(n) for ell in range(n)])
            for j in range(n)]


def matrix_to_vector_form(entries) -> list:
    """The contraction by M = adj(a)."""
    return _contract(poly_matrix_adjugate([list(r) for r in entries]), entries)


def general_gamma_form(Gamma, A, entries) -> list:
    """The contraction by M = Gamma * A."""
    return _contract(_matmul(Gamma, A), entries)


def check_gamma_hypothesis(A, entries, alpha: Poly):
    """A * a must equal alpha * Identity exactly."""
    zero = Poly.zero(alpha.nvars)
    for j, row in enumerate(_matmul(A, entries)):
        for k, x in enumerate(row):
            if x != (alpha if j == k else zero):
                raise RuleError(f"hypothesis A*a = alpha*I fails at entry ({j + 1},{k + 1})")


# ---------------------------------------------------------------------------
# the rule table


# aux field readers: read(value, parse, n, k) checks and parses the JSON value
# of a step with k inputs over n variables, raising RuleError

def _integer(least: int):
    def read(v, parse, n, k):
        if isinstance(v, bool) or not isinstance(v, int) or v < least:
            raise RuleError(f"must be an integer >= {least}")
        return v

    return read


def _per_input(constant: bool = False):
    def read(v, parse, n, k):
        if not isinstance(v, list) or len(v) != k:
            raise RuleError("must list one polynomial per input")
        ps = [parse(s) for s in v]
        if constant and not all(p.is_constant() for p in ps):
            raise RuleError("must list constants")
        return ps

    return read


def _square(v, parse, n, k):
    if not isinstance(v, list) or len(v) != n or any(
        not isinstance(row, list) or len(row) != n for row in v
    ):
        raise RuleError("must be an n x n matrix of polynomials")
    return [[parse(s) for s in row] for row in v]


def _render(v, show):
    """An emitter's aux value as JSON: polynomials through `show`."""
    if isinstance(v, Poly):
        return show(v)
    if isinstance(v, (list, tuple)):
        return [_render(x, show) for x in v]
    return v


@dataclass(frozen=True)
class Rule:
    """One derivation rule.

    `inputs(n, k)` lists, for a step with k inputs over n variables, the
    kinds each input may have.  `aux` maps each aux field to its reader.
    `payload(domain, ins, aux)` is the payload formula; None means the step
    states its payload.  `check(domain, ins, aux, payload)` is the side
    check, raising RuleError.  `order(ins, aux)` is the order arithmetic;
    None means the step states its order as a hypothesis.
    """

    cite: str
    kind: str
    inputs: Callable
    payload: Callable | None = None
    order: Callable | None = None
    aux: dict = field(default_factory=dict)
    check: Callable | None = None

    def check_inputs(self, n: int, ins) -> None:
        want = self.inputs(n, len(ins))
        if len(ins) != len(want):
            raise RuleError(f"needs {len(want)} input(s), got {len(ins)}")
        for i, kinds in zip(ins, want):
            if i.kind not in kinds:
                raise RuleError(
                    f"input step {i.step} is a {i.kind} multiplier, "
                    f"not a {' or '.join(kinds)} one"
                )


def _min(ins) -> Fraction:
    return min(i.order for i in ins)


def _generator_index(dom, ins, aux, payload):
    if aux["generator_index"] >= len(dom.generators):
        raise RuleError("premultiplier step lacks a valid generator index")


def _root_identity(dom, ins, aux, payload):
    """payload^m = sum(c_i * g_i), with m bounded before the power is built.
    Each bound is a necessary condition of the identity."""
    f, m = payload[0], aux["m"]
    fails = "cofactor identity payload^m = sum(c_i * g_i) fails"
    deg = f.total_degree()
    if deg > 0:
        # deg(f^m) = m*deg(f) over a domain, and no product passes its degree
        top = max((c.total_degree() + i.poly.total_degree()
                   for c, i in zip(aux["cofactors"], ins) if c and i.poly), default=-1)
        if m * deg > top:
            raise RuleError(f"{fails}: payload^m has degree {m} * {deg} > {top}")
    acc = dot(dom.nvars, [(c, i.poly) for c, i in zip(aux["cofactors"], ins)])
    if deg == 0:
        c = f.constant_value()
        if c in GAUSS_UNITS:
            m %= 4
        elif not acc.is_unit():
            raise RuleError(fails)
        elif m - 1 > 2 * coefficient_bits(acc.constant_value()):
            # a Gaussian prime divides c or its inverse, with valuation at
            # least m in c^m, so some part of c^m in lowest terms is at least
            # 2^((m - 1)/2)
            raise RuleError(f"{fails}: payload^m has a part of at least 2^(({m} - 1)/2)")
    if f ** m != acc:
        raise RuleError(fails)


def _gamma_hypothesis(dom, ins, aux, payload):
    check_gamma_hypothesis(aux["A"], [i.polys for i in ins[:-1]], ins[-1].poly)


RULES = {
    "premultiplier": Rule(
        cite="defining function as pre-multiplier",
        kind=PREMULT,
        inputs=lambda n, k: [],
        aux={"generator_index": _integer(0)},
        payload=lambda dom, ins, aux: [dom.generators[aux["generator_index"]]],
        check=_generator_index,
        order=lambda ins, aux: Fraction(1, 4),
    ),
    "premultiplier_combine": Rule(
        cite="constant-coefficient combination of pre-multipliers",
        kind=PREMULT,
        inputs=lambda n, k: [(PREMULT, SCALAR)] * max(k, 1),
        aux={"coeffs": _per_input(constant=True)},
        payload=lambda dom, ins, aux: [
            dot(dom.nvars, [(c, i.poly) for c, i in zip(aux["coeffs"], ins)])
        ],
        # a scalar multiplier contributes its differential's order
        order=lambda ins, aux: min(i.order if i.kind == PREMULT else i.order / 2 for i in ins),
    ),
    "premultiplier_differential": Rule(
        cite="differential of a pre-multiplier",
        kind=VECTOR,
        inputs=lambda n, k: [(PREMULT,)],
        payload=lambda dom, ins, aux: gradient(ins[0].poly),
        order=lambda ins, aux: ins[0].order,
    ),
    "differential": Rule(
        cite="differential of a scalar multiplier",
        kind=VECTOR,
        inputs=lambda n, k: [(SCALAR,)],
        payload=lambda dom, ins, aux: gradient(ins[0].poly),
        order=lambda ins, aux: ins[0].order / 2,
    ),
    "det": Rule(
        cite="determinant of vector multipliers",
        kind=SCALAR,
        inputs=lambda n, k: [(VECTOR,)] * n,
        payload=lambda dom, ins, aux: [poly_matrix_det([i.polys for i in ins])],
        order=lambda ins, aux: _min(ins),
    ),
    "root": Rule(
        cite="root extraction from ideal membership",
        kind=SCALAR,
        inputs=lambda n, k: [(SCALAR,)] * max(k, 1),
        aux={"m": _integer(1), "cofactors": _per_input()},
        check=_root_identity,
        order=lambda ins, aux: _min(ins) / aux["m"],
    ),
    "combine": Rule(
        cite="holomorphic-coefficient combination of multipliers",
        kind=SCALAR,
        inputs=lambda n, k: [(SCALAR,)] * max(k, 1),
        aux={"coeffs": _per_input()},
        payload=lambda dom, ins, aux: [
            dot(dom.nvars, [(c, i.poly) for c, i in zip(aux["coeffs"], ins)])
        ],
        order=lambda ins, aux: _min(ins),
    ),
    "matrix_to_vector": Rule(
        cite="matrix multiplier contracted to a vector multiplier",
        kind=VECTOR,
        inputs=lambda n, k: [(VECTOR,)] * n,
        payload=lambda dom, ins, aux: matrix_to_vector_form([i.polys for i in ins]),
        order=lambda ins, aux: _min(ins) / 2,
    ),
    "general_gamma": Rule(
        cite="generalized matrix contraction to a vector multiplier",
        kind=VECTOR,
        inputs=lambda n, k: [(VECTOR,)] * n + [(SCALAR,)],
        aux={"gamma": _square, "A": _square},
        payload=lambda dom, ins, aux: general_gamma_form(
            aux["gamma"], aux["A"], [i.polys for i in ins[:-1]]
        ),
        check=_gamma_hypothesis,
        order=lambda ins, aux: _min(ins) / 2,
    ),
    # payload and order are the hypothesis; the range check every step
    # gets, orders in (0, 1], bounds it
    "assume_vector": Rule(
        cite="assumed vector multiplier (hypothesis)",
        kind=VECTOR,
        inputs=lambda n, k: [],
    ),
}


# ---------------------------------------------------------------------------
# verification

@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    failed_step: int | None = None
    reason: str = ""
    final_order: Fraction | None = None
    assumptions: tuple = ()

    def __bool__(self):
        return self.ok


def _fail(step_id, reason):
    return VerifyResult(False, step_id, reason)


def certificate_verify(cert: DerivationCertificate, domain: SpecialDomain,
                       printed: dict | None = None) -> VerifyResult:
    """Replay a certificate against a domain from its serialized payloads.

    Checks, per step and from the step's `RULES` entry: id topology, input
    kinds and arity, typed aux fields and no aux key the rule does not read,
    exact payload recomputation, the side check (root cofactor identities by
    multiplication), and exact order arithmetic.  Returns the first failure,
    or the final order plus the list of assumption steps on success.

    A payload the rule derives is recomputed from the inputs, after every
    check that comes before the formula, and printed: when the payload
    strings are those prints, the step takes the computed polynomials
    without parsing them, which is exact because `parse_poly` reads every
    print back as its polynomial.  Any other text is parsed and compared
    with the computed polynomials, so an equal payload in another form is
    accepted, and that path alone rejects: a parse error still comes first,
    and every failing step and reason is the one the parse-first replay
    gives.

    `printed` is `Derivation.printed` of the emitter that wrote `cert`, for
    its self-verification.  A step that is the very `Step` object recorded
    there has as its text the prints of the recorded polynomials, and a
    frozen `Step` keeps that text; printing is a function, so a computed
    payload equal to the recorded one prints as that text, and the step
    takes the recorded polynomials without printing them again.  Every
    other step, one swapped for another object or one whose computed
    payload differs, is checked as text as above, so the verdicts are the
    ones the certificate gets when read back from its JSON.
    """
    vs = domain.variables
    n = domain.nvars

    if tuple(cert.domain.variables) != tuple(vs):
        return _fail(None, "certificate domain variables differ from the given domain")
    if len(cert.domain.generators) != len(domain.generators) or any(
        a != b for a, b in zip(cert.domain.generators, domain.generators)
    ):
        return _fail(None, "certificate domain generators differ from the given domain")
    if not cert.steps:
        return _fail(None, "certificate has no steps")

    def parse(s):
        if not isinstance(s, str):
            raise RuleError(f"expected a polynomial string, got {type(s).__name__}")
        try:
            return parse_poly(s, vs)
        except ValueError as e:
            raise RuleError(f"parse error: {e}") from None

    polys: dict[int, tuple] = {}
    assumptions = []
    printed = printed or {}

    def replay(st, rule, payload):
        """The input multipliers and aux values of a step, after every check
        that comes before its payload formula.  A rule with a formula gets
        the payload None: its check does not read it."""
        ins = [
            Multiplier(RULES[cert.steps[i].rule].kind, polys[i], cert.steps[i].order, i)
            for i in st.inputs
        ]
        rule.check_inputs(n, ins)
        if len(st.payload) != (n if rule.kind == VECTOR else 1):
            raise RuleError(f"payload has the wrong arity for a {rule.kind} multiplier")
        if not isinstance(st.aux, dict):
            raise RuleError("aux must be an object")
        for name in st.aux:
            if name not in rule.aux:
                raise RuleError(f"aux {name!r} is not read by the {st.rule} rule")
        aux = {}
        for name, read in rule.aux.items():
            try:
                aux[name] = read(st.aux.get(name), parse, n, len(ins))
            except RuleError as e:
                raise RuleError(f"aux {name!r}: {e}") from None
        if rule.check is not None:
            rule.check(domain, ins, aux, None if rule.payload else payload)
        return ins, aux

    for pos, st in enumerate(cert.steps):
        rule = RULES.get(st.rule) if isinstance(st.rule, str) else None
        try:
            if st.id != pos:
                raise RuleError("step ids must be consecutive from 0")
            for i in st.inputs:
                if not 0 <= i < pos:
                    raise RuleError(f"input {i} does not precede this step")
            if rule is None:
                raise RuleError(f"unknown rule {st.rule!r}")
            derived = None
            if rule.payload is not None:
                try:
                    ins, aux = replay(st, rule, None)
                except RuleError:
                    pass  # the parsing path below names the first failure
                else:
                    derived = tuple(rule.payload(domain, ins, aux))
            step, recorded = printed.get(pos, (None, None))
            if derived is not None and step is st and derived == recorded:
                payload = recorded  # one copy of the payload stays alive
            elif derived is not None and _prints_as(st.payload, derived, vs):
                payload = derived
            else:
                try:
                    payload = tuple(parse(s) for s in st.payload)
                except RuleError as e:
                    raise RuleError(f"payload {e}") from None
                if derived is None:
                    # raises again for a rule with a formula: nothing before
                    # the formula reads the payload
                    ins, aux = replay(st, rule, payload)
                elif payload != derived:
                    raise RuleError(f"payload does not match the {st.rule} formula")
            polys[pos] = payload
            if rule.order is not None and st.order != rule.order(ins, aux):
                raise RuleError(f"order does not match the {st.rule} order arithmetic")
            if not (0 < st.order <= 1):
                raise RuleError("orders must lie in (0, 1]")
        except RuleError as e:
            return _fail(st.id, str(e))
        if rule.order is None:
            assumptions.append(st.id)

    return VerifyResult(
        True,
        None,
        "",
        cert.steps[-1].order,
        tuple(assumptions),
    )


def _prints_as(texts, derived, names) -> bool:
    """Whether the payload strings are the canonical prints of the derived
    polynomials.  parse_poly reads every print back as its polynomial, so
    then the payload is the derived one without a parse.  A coefficient too
    long for the interpreter's int-string limit has no print: its payload
    takes the parsing path."""
    try:
        return tuple(texts) == tuple(poly_to_string(p, names) for p in derived)
    except ValueError:
        return False
