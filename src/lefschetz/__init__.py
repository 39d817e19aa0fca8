"""Weak Lefschetz Property, Laplace equations, and Togliatti systems.

Exact (rational / big-integer) tools for artinian ideals generated in one
degree d:

* decide the WLP and locate its failure degrees (``wlp``);
* Macaulay duality and apolar inverse systems (``apolarity``);
* osculating spaces and Laplace equations of monomial projections of
  Veronese varieties (``osculating``);
* lattice-polytope certificates: smoothness, toric degree (``polytope``);
* syzygy-bundle splitting types on general lines (``bundles``);
* the exhaustive classification of monomial Togliatti systems of cubics
  (``classify``).

All randomized checks are seeded and certified one-sided: ranks are exact,
and sampling only ever moves verdicts toward the generic value.
"""

from .algebra import Form, LinearSystem, monomial_basis
from .apolarity import apolar_complement, dual_map_rank
from .bundles import splitting_type, verify_r4_theorem
from .classify import (
    build_named_example,
    canonical_form,
    classification_case_ideal,
    classification_case_system,
    enumerate_cubic_togliatti,
    four_prime_projections,
)
from .osculating import laplace_count, perkinson_quadric
from .parser import ParseError, format_form, parse_polynomial
from .polytope import build_polytope, smoothness_report
from .wlp import (
    IdealSpec,
    certified_lefschetz_report,
    fails_in_degree_dminus1,
    generator_bound,
    h_vector,
    has_wlp,
    is_artinian,
    is_togliatti,
    multiplication_rank,
)

__version__ = "0.1.0"

__all__ = [
    "Form",
    "IdealSpec",
    "LinearSystem",
    "ParseError",
    "apolar_complement",
    "build_named_example",
    "build_polytope",
    "canonical_form",
    "certified_lefschetz_report",
    "classification_case_ideal",
    "classification_case_system",
    "dual_map_rank",
    "enumerate_cubic_togliatti",
    "fails_in_degree_dminus1",
    "format_form",
    "four_prime_projections",
    "generator_bound",
    "h_vector",
    "has_wlp",
    "is_artinian",
    "is_togliatti",
    "laplace_count",
    "monomial_basis",
    "multiplication_rank",
    "parse_polynomial",
    "perkinson_quadric",
    "smoothness_report",
    "splitting_type",
    "verify_r4_theorem",
]
