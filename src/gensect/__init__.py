"""gensect: when is a hypersurface section of a general curve general?

Exact integer arithmetic answering, for a general degree-d genus-g curve in
P^r and a general degree-n hypersurface, whether the intersection is a
general point configuration on the hypersurface; classification comes with
machine-checkable derivation traces, and every finite computation feeding
the argument (lattice intersection theory, Euler characteristics, incidence
counts, dimension tallies) is reproducible through the verify battery.
"""

from .audits import (
    AuditReport,
    ConditionCount,
    DimensionDeficit,
    ExternalFact,
    form_space_dim,
    local_determinant_check,
    rr_curve,
    run_audit,
    scroll_case_study,
    surface_restriction_isomorphism_check,
)
from .engine import (
    ClassificationEngine,
    DerivationTrace,
    ExceptionalDescriptor,
    IncompleteLedgerError,
    Query,
    Verdict,
    classify,
    composite_invariants,
    side_condition_check,
)
from .lattices import (
    CertificateError,
    DivisorClass,
    LatticeError,
    SurfaceModel,
    adjunction_genus,
    anticanonical_degree,
    enumerate_lines,
    format_class,
    h0_rational,
    intersect,
    k3_stats,
    kv_vanishing_certificate,
    positivity,
    restricted_degree,
    riemann_roch_chi,
)
from .ledger import Ledger, LedgerEntry, load_ledger
from .numerology import (
    BNIndex,
    chi_twisted_normal,
    interpolation_gates,
    max_general_hypersurface_degree,
    moduli_dim,
    rho,
    rho_canonical_reduction_delta,
)
from .schubert import SchubertCycle, format_cycle, multiply, pieri, sigma, top_degree

__version__ = "0.1.0"

__all__ = [
    "AuditReport",
    "BNIndex",
    "CertificateError",
    "ClassificationEngine",
    "ConditionCount",
    "DerivationTrace",
    "DimensionDeficit",
    "DivisorClass",
    "ExceptionalDescriptor",
    "ExternalFact",
    "IncompleteLedgerError",
    "LatticeError",
    "Ledger",
    "LedgerEntry",
    "Query",
    "SchubertCycle",
    "SurfaceModel",
    "Verdict",
    "adjunction_genus",
    "anticanonical_degree",
    "chi_twisted_normal",
    "classify",
    "composite_invariants",
    "enumerate_lines",
    "form_space_dim",
    "format_class",
    "format_cycle",
    "h0_rational",
    "interpolation_gates",
    "intersect",
    "k3_stats",
    "kv_vanishing_certificate",
    "load_ledger",
    "local_determinant_check",
    "max_general_hypersurface_degree",
    "moduli_dim",
    "multiply",
    "pieri",
    "positivity",
    "restricted_degree",
    "rho",
    "rho_canonical_reduction_delta",
    "riemann_roch_chi",
    "rr_curve",
    "run_audit",
    "scroll_case_study",
    "side_condition_check",
    "sigma",
    "surface_restriction_isomorphism_check",
    "top_degree",
]
