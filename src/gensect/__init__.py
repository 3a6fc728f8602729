"""gensect: when is a hypersurface section of a general curve general?

Exact integer arithmetic answering, for a general degree-d genus-g curve in
P^r and a general degree-n hypersurface, whether the intersection is a
general point configuration on the hypersurface; classification comes with
machine-checkable derivation traces, and every finite computation feeding
the argument (lattice intersection theory, Euler characteristics, incidence
counts, dimension tallies) is reproducible through the verify battery.

Importing the package loads none of its submodules.  Each public name is
imported from the submodule that defines it on first access (PEP 562), so
``gensect.ClassificationEngine()`` loads the engine, the ledger, the
numerology and the audits table, never the lattice, Schubert or verify
layers, and from the standard library only the built-in ``_collections``,
which gives the records their field accessors, and ``_json``, whose scanner
reads the bundled ledger.
"""

import sys

__version__ = "0.1.0"

#: The submodule defining each public name.
_EXPORTS = {
    "audits": (
        "ConditionCount",
        "DimensionDeficit",
        "ExceptionalCase",
        "ExternalFact",
        "form_space_dim",
        "rr_curve",
        "run_audit",
    ),
    "engine": (
        "ClassificationEngine",
        "DerivationTrace",
        "IncompleteLedgerError",
        "Query",
        "Verdict",
    ),
    "lattices": (
        "CertificateError",
        "DivisorClass",
        "LatticeError",
        "SurfaceModel",
        "adjunction_genus",
        "anticanonical_degree",
        "enumerate_lines",
        "format_class",
        "h0_rational",
        "intersect",
        "k3_stats",
        "kv_vanishing_certificate",
        "positivity",
        "riemann_roch_chi",
    ),
    "ledger": ("Ledger", "LedgerEntry", "load_ledger"),
    "numerology": (
        "BNIndex",
        "interpolation_gates",
        "max_general_hypersurface_degree",
        "rho",
    ),
    "schubert": ("SchubertCycle", "format_cycle", "multiply", "sigma", "top_degree"),
}

_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)


def __getattr__(name: str):
    # Only names not yet in the module globals reach here; a submodule name
    # such as ``cli`` raises, so ``from gensect import cli`` imports it.
    try:
        module = _SOURCE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    # __import__ and sys.modules, not importlib, which a ready engine would
    # otherwise load together with warnings
    qualified = f"{__name__}.{module}"
    __import__(qualified)
    value = getattr(sys.modules[qualified], name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted(set(globals()) | _SOURCE.keys())
