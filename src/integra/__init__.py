"""Exact integral-spectrum toolkit for Cayley graphs over small finite groups."""

__version__ = "0.1.0"

# Each public name -> the submodule that defines it. A name is imported on
# its first use (PEP 562), so `import integra` loads no submodule and
# `integra.cli` loads only the modules of the command it runs.
_EXPORTS = {
    "MembershipReport": "classify",
    "a2_structural": "classify",
    "a3_structural": "classify",
    "g3_structural": "classify",
    "in_A_k": "classify",
    "in_G_k": "classify",
    "nilpotent_g3_case": "classify",
    "FiniteGroup": "groups",
    "catalog_groups": "groups",
    "closure": "groups",
    "construct": "groups",
    "from_table": "groups",
    "parse_word": "groups",
    "to_document": "groups",
    "IntPolynomial": "polys",
    "SpectrumReport": "spectra",
    "char_poly": "spectra",
    "is_integral": "spectra",
    "is_integral_cayley": "spectra",
    "count_symmetric_sets": "symsets",
    "enumerate_symmetric_sets": "symsets",
    "Claim": "verify",
    "ClaimResult": "verify",
    "list_claims": "verify",
    "run_all": "verify",
    "run_claim": "verify",
}

__all__ = [*sorted(_EXPORTS), "__version__"]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    __import__(f"{__name__}.{module}")
    # Bound here, so that later uses of the name skip this function.
    value = globals()[name] = getattr(globals()[module], name)
    return value
