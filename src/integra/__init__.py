"""Exact integral-spectrum toolkit for Cayley graphs over small finite groups."""

from .classify import (
    MembershipReport,
    a2_structural,
    a3_structural,
    g3_structural,
    in_A_k,
    in_G_k,
    nilpotent_g3_case,
)
from .groups import (
    FiniteGroup,
    catalog_groups,
    closure,
    construct,
    from_table,
    parse_word,
    to_document,
)
from .polys import IntPolynomial
from .spectra import SpectrumReport, char_poly, is_integral, is_integral_cayley
from .symsets import count_symmetric_sets, enumerate_symmetric_sets
from .verify import Claim, ClaimResult, list_claims, run_all, run_claim

__version__ = "0.1.0"

__all__ = [
    "Claim",
    "ClaimResult",
    "FiniteGroup",
    "IntPolynomial",
    "MembershipReport",
    "SpectrumReport",
    "a2_structural",
    "a3_structural",
    "catalog_groups",
    "char_poly",
    "closure",
    "construct",
    "count_symmetric_sets",
    "enumerate_symmetric_sets",
    "from_table",
    "g3_structural",
    "in_A_k",
    "in_G_k",
    "is_integral",
    "is_integral_cayley",
    "list_claims",
    "nilpotent_g3_case",
    "parse_word",
    "run_all",
    "run_claim",
    "to_document",
    "__version__",
]
