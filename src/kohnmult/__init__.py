"""Exact multiplier-ideal engine for special pseudoconvex domains."""

from kohnmult.polyring import (
    GaussRat,
    Poly,
    ParseError,
    parse_poly,
    poly_to_string,
    differentiate,
    jacobian_det,
    vanishing_order,
)
from kohnmult.groebner import (
    groebner_basis,
    ideal_membership,
    least_power,
    origin_isolated,
    quotient_dimension,
    radical_membership,
)
from kohnmult.multiplier_core import (
    Derivation,
    DerivationCertificate,
    DomainError,
    GenericityError,
    SpecialDomain,
    VerificationError,
    certificate_verify,
)
from kohnmult.kohn_full_radical import run_full_radical
from kohnmult.kohn_effective3d import run_effective3d, skoda_verify
from kohnmult.catlin_dangelo import CDParams, CDReport
from kohnmult.catlin_dangelo import run as run_catlin_dangelo
from kohnmult.matrix_lab import compare_procedures

__all__ = [
    "GaussRat",
    "Poly",
    "ParseError",
    "parse_poly",
    "poly_to_string",
    "differentiate",
    "jacobian_det",
    "vanishing_order",
    "groebner_basis",
    "ideal_membership",
    "least_power",
    "origin_isolated",
    "quotient_dimension",
    "radical_membership",
    "Derivation",
    "DerivationCertificate",
    "DomainError",
    "GenericityError",
    "SpecialDomain",
    "VerificationError",
    "certificate_verify",
    "run_full_radical",
    "run_effective3d",
    "skoda_verify",
    "CDParams",
    "CDReport",
    "run_catlin_dangelo",
    "compare_procedures",
]

__version__ = "0.1.0"
