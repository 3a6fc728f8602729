"""The all-checks verification battery.

Every externally anchored number in the library is recomputed here: Euler
characteristic anchors, the degree/genus/section-count table on the surface
lattices, line counts, vanishing certificates, incidence numbers, gluing
side conditions, the ten non-generality audits and each case's place at
the bottom of its genus column, the local determinant, the scroll and K3
case studies, and the classification sweeps (exceptional lists,
completeness, frontier).  Each case study is a literal table inside the
check that reports it.  The command line front end prints one line per
check and exits nonzero if any fails; the test suite reuses the same
battery.
"""

from __future__ import annotations

import functools

from . import audits, lattices, schubert
from . import engine as engine_module
from ._record import _new, named_fields
from .engine import (
    ClassificationEngine,
    IncompleteLedgerError,
    Query,
)
from .lattices import DivisorClass, SurfaceModel
from .ledger import GLUE_CHECK_TAGS, Ledger
from .numerology import (
    BNIndex,
    chi_twisted_normal_at,
    in_domain,
    interpolation_gates,
    max_general_hypersurface_degree,
    moduli_dim_at,
    rho_at,
    rho_canonical_reduction_delta_at,
)

#: The theorem lists, restated here as the sweep oracle.
EXPECTED_EXCEPTIONAL = {
    (2, 1): frozenset(),
    (2, 2): frozenset(),
    (3, 2): frozenset({(4, 1), (5, 2), (6, 2), (6, 4), (7, 5), (8, 6)}),
    (3, 1): frozenset({(6, 4)}),
    (4, 1): frozenset({(8, 5), (9, 6), (10, 7)}),
}

#: The finite frontier lists the induction must be seeded with; the plane
#: pairs need none, which is checked up to genus SWEEP_G_MAX.
EXPECTED_FRONTIER = {
    (2, 1): [],
    (2, 2): [],
    (3, 2): [
        (5, 1), (7, 2), (6, 3), (7, 4), (8, 5), (9, 6), (9, 7),
        (10, 9), (11, 10), (12, 12), (13, 13), (14, 14),
    ],
    (3, 1): [(7, 5), (8, 6)],
    (4, 1): [
        (9, 5), (10, 6), (11, 7), (12, 9), (16, 15), (17, 16), (18, 17),
    ],
}

#: The rank-2 K3 lattice of the sextic case study: H^2 = 6, H.R = 4, R^2 = -2.
SEXTIC_K3 = SurfaceModel.polarized(((6, 4), (4, -2)), (0, 0), ("H", "R"), kind_tag="k3")

SWEEP_D_MAX = 60
SWEEP_G_MAX = 40


@named_fields
class CheckResult(tuple):
    __slots__ = ()

    def __new__(cls, id: str, description: str, ok: bool, detail: str) -> CheckResult:
        return _new(cls, (id, description, ok, detail))


class _Poly:
    """An integer polynomial in r, d and g, as exponent triples to nonzero
    coefficients.  It has +, -, * and ==, and no order, truth value or hash,
    so a numerology core evaluated on it cannot branch on its arguments.
    The local determinant reads it as a polynomial in t, its first variable,
    and its coefficients of 1 and t as the value modulo t^2."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[tuple[int, int, int], int]) -> None:
        self.terms = {e: c for e, c in terms.items() if c}

    @staticmethod
    def _lift(value):
        if isinstance(value, _Poly):
            return value
        return _Poly({(0, 0, 0): value}) if isinstance(value, int) else NotImplemented

    def __add__(self, other):
        other = _Poly._lift(other)
        if other is NotImplemented:
            return other
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, 0) + c
        return _Poly(terms)

    __radd__ = __add__

    def __neg__(self):
        return _Poly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = _Poly._lift(other)
        return other if other is NotImplemented else self + -other

    def __rsub__(self, other):
        other = _Poly._lift(other)
        return other if other is NotImplemented else other + -self

    def __mul__(self, other):
        other = _Poly._lift(other)
        if other is NotImplemented:
            return other
        terms: dict[tuple[int, int, int], int] = {}
        for (a, b, c), x in self.terms.items():
            for (p, q, s), y in other.terms.items():
                e = (a + p, b + q, c + s)
                terms[e] = terms.get(e, 0) + x * y
        return _Poly(terms)

    __rmul__ = __mul__

    def __eq__(self, other):
        """True or False where the answer is the same at every integer point:
        the difference is zero, or a nonzero constant.  Otherwise the answer
        depends on the point, and asking raises TypeError."""
        difference = self - other
        if difference is NotImplemented:
            return difference
        if difference.terms.keys() - {(0, 0, 0)}:
            raise TypeError("equality of polynomials that differ by a nonconstant")
        return not difference.terms

    def __bool__(self):
        raise TypeError("a polynomial has no truth value")

    __hash__ = None


_R, _D, _G = _Poly({(1, 0, 0): 1}), _Poly({(0, 1, 0): 1}), _Poly({(0, 0, 1): 1})


def _proved(holds, *args) -> bool:
    """Whether the identity ``holds`` is proved for every integer point.

    ``holds`` compares a numerology core with the value it should take; its
    ``args`` are built from _R, _D and _G, so where it holds on them it holds
    at every integer point.  A TypeError means the core branches on its
    arguments or does arithmetic the polynomials lack: no proof.
    """
    try:
        return holds(*args)
    except TypeError:
        return False


def default_surfaces() -> list[SurfaceModel]:
    surfaces = [SurfaceModel.del_pezzo(k) for k in range(2, 7)]
    surfaces.append(SurfaceModel.quadric())
    surfaces.append(SurfaceModel.scroll())
    surfaces.append(SEXTIC_K3)
    return surfaces


def surface_invariant_problems(S: SurfaceModel) -> list[str]:
    """Re-validate a surface's lattice data without trusting its constructor."""
    problems = []
    n = len(S.gram)
    if any(len(row) != n for row in S.gram):
        problems.append("Gram matrix is not square")
        return problems
    for i in range(n):
        for j in range(n):
            if S.gram[i][j] != S.gram[j][i]:
                problems.append(f"Gram matrix asymmetric at ({i}, {j})")
    if len(S.canonical) != n or len(S.basis_names) != n:
        problems.append("basis data does not match the Gram rank")
    if S.kind == "del_pezzo":
        k = n - 1
        if S.canonical != (-3,) + (1,) * k:
            problems.append("del Pezzo canonical class is not -3L + sum E_i")
        for i in range(n):
            expected = 1 if i == 0 else -1
            if S.gram[i][i] != expected:
                problems.append(f"del Pezzo Gram diagonal wrong at {i}")
            for j in range(n):
                if i != j and S.gram[i][j] != 0:
                    problems.append(f"del Pezzo Gram off-diagonal nonzero at ({i}, {j})")
    if S.kind == "quadric" and S.canonical != (-2, -2):
        problems.append("quadric canonical class is not (-2, -2)")
    if S.kind_tag == "k3" and any(c != 0 for c in S.canonical):
        problems.append("K3 canonical class is nonzero")
    return problems


# -- individual checks ---------------------------------------------------------


def check_lattice_invariants() -> CheckResult:
    surfaces = default_surfaces()
    problems = []
    for S in surfaces:
        problems.extend(f"{S.kind}: {p}" for p in surface_invariant_problems(S))
    # Pairing symmetry on a small deterministic sample of classes.
    for S in surfaces:
        sample = [
            S.cls_(*[(i * 7 + j * 3) % 5 - 2 for j in range(S.rank)])
            for i in range(4)
        ]
        for a in sample:
            for b in sample:
                if lattices.intersect(S, a, b) != lattices.intersect(S, b, a):
                    problems.append(f"{S.kind}: pairing asymmetry")
    return CheckResult(
        "lattice-invariants",
        "Gram symmetry, canonical classes and pairing symmetry on all stock lattices",
        not problems,
        "; ".join(problems) if problems else f"{len(surfaces)} lattices validated",
    )


#: The values chi(N(-k)) takes in P^r, per anchor (r, k).
CHI_ANCHORS = {
    (3, 1): lambda d, g: 2 * d,
    (3, 2): lambda d, g: 0,
    (4, 1): lambda d, g: 2 * d - g + 1,
}


def check_chi_anchors() -> CheckResult:
    def holds(r, d, g, k):
        return chi_twisted_normal_at(r, d, g, k) == CHI_ANCHORS[r, k](d, g)

    bad = [(r, k) for r, k in CHI_ANCHORS if not _proved(holds, r, _D, _G, k)]
    return CheckResult(
        "chi-anchors",
        "chi(N(-1)) = 2d and chi(N(-2)) = 0 in P^3, chi(N(-1)) = 2d - g + 1 in P^4, "
        "for all integers d, g",
        not bad,
        f"not proved at (r, k) = {bad}" if bad else f"proved at (r, k) = {list(CHI_ANCHORS)}",
    )


def check_chi_untwisted_identity() -> CheckResult:
    identity = "chi(N) = (r+1)d + (r-3)(1-g)"
    ok = _proved(
        lambda r, d, g: chi_twisted_normal_at(r, d, g, 0) == (r + 1) * d + (r - 3) * (1 - g),
        _R, _D, _G,
    )
    return CheckResult(
        "chi-untwisted",
        f"{identity} for all integers r, d, g",
        ok,
        "proved for all integers r, d, g" if ok else f"not proved: {identity}",
    )


def check_rho_invariance() -> CheckResult:
    # peeling a rational normal curve, and the engine's add_canonical step,
    # which keeps rho because (r + 1) dd = r dg
    identities = {
        "rho(d - r, g - r - 1, r) = rho(d, g, r)": _proved(
            lambda r, d, g: rho_canonical_reduction_delta_at(r, d, g) == 0, _R, _D, _G
        ),
    }
    for r, (dd, dg) in sorted(engine_module.CANONICAL_STEP.items()):
        identities[f"rho(d - {dd}, g - {dg}, {r}) = rho(d, g, {r})"] = _proved(
            lambda d, g: rho_at(r, d - dd, g - dg) == rho_at(r, d, g), _D, _G
        )
    bad = [identity for identity, ok in identities.items() if not ok]
    return CheckResult(
        "rho-invariance",
        "rho(d - r, g - r - 1, r) = rho(d, g, r) and the add_canonical steps keep rho, "
        "for all integers r, d, g",
        not bad,
        f"not proved: {'; '.join(bad)}" if bad else f"proved: {'; '.join(identities)}",
    )


def check_moduli_plane_collapse() -> CheckResult:
    ok = _proved(lambda d, g: moduli_dim_at(3, d, g) == 4 * d, _D, _G)
    return CheckResult(
        "moduli-plane-collapse",
        "the space of maps to P^3 has dimension 4d independent of genus, for all integers d, g",
        ok,
        "dimension is 4d for all integers d, g" if ok else "not proved: moduli_dim(3, d, g) = 4d",
    )


def check_degree_bound() -> CheckResult:
    got = [max_general_hypersurface_degree(r) for r in (2, 3, 4, 5)]
    expected = [2, 2, 1, 0]
    return CheckResult(
        "hypersurface-degree-bound",
        "admissible hypersurface degrees per ambient: r = 2..5 give 2, 2, 1, 0",
        got == expected,
        f"computed {got}",
    )


def check_low_genus_nonspecial() -> CheckResult:
    # rho rises by r + 1 with each degree, is g at d = g + r and g - r - 1
    # one degree below, for all integers r, d, g; so for g <= r and r >= 2 it
    # is >= 0 exactly from d = g + r on
    identities = {
        "rho(d + 1, g, r) - rho(d, g, r) = r + 1": (
            lambda r, d, g: rho_at(r, d + 1, g) - rho_at(r, d, g) == r + 1
        ),
        "rho(g + r, g, r) = g": lambda r, d, g: rho_at(r, g + r, g) == g,
        "rho(g + r - 1, g, r) = g - r - 1": lambda r, d, g: rho_at(r, g + r - 1, g) == g - r - 1,
    }
    bad = [identity for identity, holds in identities.items() if not _proved(holds, _R, _D, _G)]
    return CheckResult(
        "low-genus-nonspecial",
        "rho >= 0 forces d >= g + r whenever g <= r, for all integers r >= 2, d, g",
        not bad,
        f"not proved: {'; '.join(bad)}" if bad else f"proved: {'; '.join(identities)}",
    )


def check_interpolation_gates() -> CheckResult:
    cases = [
        (BNIndex(3, 7, 4), 1, True),
        (BNIndex(3, 5, 2), 1, False),
        (BNIndex(4, 6, 2), 1, False),
        (BNIndex(3, 3, 0), 2, True),
        (BNIndex(4, 8, 4), 1, True),
    ]
    bad = [
        (ix.r, ix.d, ix.g, k)
        for ix, k, expected in cases
        if interpolation_gates(ix, k) != expected
    ]
    return CheckResult(
        "interpolation-gates",
        "the combined numeric gate agrees with its anchor cases",
        not bad,
        f"failures {bad}" if bad else f"{len(cases)} gate evaluations agree",
    )


#: The named curve classes on the del Pezzo lattices with their invariants.
SURFACE_CURVE_TABLE = (
    ("quintic with two double points", 6, (5, -2, -2, -1, -1, -1, -1), 7, 4),
    ("quintic with one double point", 6, (5, -2, -1, -1, -1, -1, -1), 8, 5),
    ("sextic with four double points", 6, (6, -1, -1, -2, -2, -2, -2), 8, 6),
    ("sextic with five double points", 6, (6, -1, -2, -2, -2, -2, -2), 7, 5),
    ("quintic on the quartic surface", 5, (5, -2, -1, -1, -1, -1), 9, 5),
    ("sextic on the quartic surface", 5, (6, -1, -2, -2, -2, -2), 9, 6),
)


def check_surface_curve_table() -> CheckResult:
    bad = []
    for name, k, coeffs, degree, genus in SURFACE_CURVE_TABLE:
        S = SurfaceModel.del_pezzo(k)
        C = DivisorClass(coeffs)
        got = (lattices.anticanonical_degree(S, C), lattices.adjunction_genus(S, C))
        if got != (degree, genus):
            bad.append(f"{name}: computed {got}, expected {(degree, genus)}")
    return CheckResult(
        "surface-curve-table",
        "the six named surface classes have degree/genus (7,4), (8,5), (8,6), (7,5), (9,5), (9,6)",
        not bad,
        "; ".join(bad) if bad else "all six classes check",
    )


def check_line_counts() -> CheckResult:
    expected = {2: 3, 3: 6, 4: 10, 5: 16, 6: 27}
    problems = []
    for k, count in expected.items():
        S = SurfaceModel.del_pezzo(k)
        lines = lattices.enumerate_lines(S)
        if len(lines) != count:
            problems.append(f"k={k}: found {len(lines)} lines, expected {count}")
        for line in lines:
            if lattices.adjunction_genus(S, line) != 0:
                problems.append(f"k={k}: line {line.coeffs} has nonzero genus")
            if lattices.anticanonical_degree(S, line) != 1:
                problems.append(f"k={k}: line {line.coeffs} has degree != 1")
    return CheckResult(
        "line-counts",
        "exhaustive line enumeration finds 3/6/10/16/27 classes, each of genus 0 and degree 1",
        not problems,
        "; ".join(problems) if problems else "counts and per-line invariants hold",
    )


#: The cited vanishing sites: (label, k or surface marker, class, cited mechanism).
KV_TABLE = (
    ("two-secant pair residual", 6, (3, -2, -2, -1, -1, -1, -1), "Kawamata-Viehweg"),
    ("one-secant residual on the cubic", 6, (6, -3, -2, -2, -2, -2, -2), "Kodaira"),
    ("two-secant residual on the cubic", 6, (3, -2, -1, -1, -1, -1, -1), "Kodaira"),
    ("one-secant residual on the quartic", 5, (2, -1, 0, -1, -1, -1), "Kodaira"),
    ("secant residual for the elliptic quartic", 5, (3, -2, -1, -1, -1, -1), "Kodaira"),
    ("ruling residual on the quadric", "quadric", (0, -1), "Kodaira"),
)


def check_kv_certificates() -> CheckResult:
    problems = []
    details = []
    for label, surface_key, coeffs, mechanism in KV_TABLE:
        S = (
            SurfaceModel.quadric()
            if surface_key == "quadric"
            else SurfaceModel.del_pezzo(surface_key)
        )
        B = DivisorClass(coeffs)
        if not lattices.kv_vanishing_certificate(S, B):
            problems.append(f"{label}: certificate failed")
            continue
        shifted = B - S.canonical_class()
        pos = lattices.positivity(S, shifted)
        grade = "ample" if pos.ample else "nef and big"
        details.append(f"{label}: certified ({mechanism} cited; shifted class {grade})")
    return CheckResult(
        "kv-certificates",
        "all six cited bundles certify: the class minus the canonical is nef and big",
        not problems,
        "; ".join(problems) if problems else "; ".join(details),
    )


def check_h0_table() -> CheckResult:
    dp6 = SurfaceModel.del_pezzo(6)
    dp5 = SurfaceModel.del_pezzo(5)
    quadric = SurfaceModel.quadric()
    anticanonical = -dp6.canonical_class()
    values = [
        lattices.h0_rational(dp6, 2 * anticanonical),
        lattices.h0_rational(dp6, anticanonical),
        lattices.h0_rational(dp6, dp6.cls_(6, -1, -2, -2, -2, -2, -2)),
        lattices.h0_rational(quadric, quadric.cls_(1, 0)),
        lattices.h0_rational(quadric, quadric.cls_(3, 2)),
        lattices.h0_rational(dp6, dp6.cls_(6, -1, -1, -2, -2, -2, -2)),
        lattices.h0_rational(dp5, dp5.cls_(6, -1, -2, -2, -2, -2)),
        lattices.h0_rational(dp5, dp5.cls_(3, 0, -1, -1, -1, -1)),
        lattices.h0_rational(quadric, quadric.cls_(3, 3)),
        lattices.h0_rational(dp6, dp6.cls_(0, 1, 0, 0, 0, 0, 0)),
        lattices.k3_stats(SEXTIC_K3, SEXTIC_K3.cls_(1, 1), SEXTIC_K3.cls_(1, 0)).h0,
        audits.rr_curve(6, 2),
        audits.rr_curve(14, 4),
    ]
    expected = [10, 4, 12, 2, 12, 14, 15, 6, 16, 1, 8, 5, 11]
    return CheckResult(
        "h0-table",
        "the thirteen cited section counts reproduce exactly",
        values == expected,
        f"computed {values}",
    )


def check_schubert_incidence() -> CheckResult:
    s2 = schubert.sigma(4, 2)
    cube = schubert.multiply(schubert.multiply(s2, s2), s2)
    top_cube = schubert.top_degree(cube)
    s1 = schubert.sigma(3, 1)
    fourth = schubert.multiply(
        schubert.multiply(schubert.multiply(s1, s1), s1), s1
    )
    top_fourth = schubert.top_degree(fourth)
    ok = top_cube == 1 and top_fourth == 2
    detail = (
        f"sigma_2^3 = {schubert.format_cycle(cube)} in G(1,4) (point coefficient "
        f"{top_cube}); the incidence citation writes the product as s[2,2], but in "
        "codimension 6 only a multiple of the point class s[3,3] is available, and "
        f"either reading is nonzero; sigma_1^4 in G(1,3) has point coefficient {top_fourth}"
    )
    return CheckResult(
        "schubert-incidence",
        "a line meets three general lines in P^4 (nonzero top class); four general lines in P^3 have 2 transversals",
        ok,
        detail,
    )


def check_schubert_duality() -> CheckResult:
    bad = []
    for n in range(2, 7):
        for a in range(0, n):
            for b in range(0, a + 1):
                product = schubert.multiply(
                    schubert.sigma(n, a, b), schubert.sigma(n, n - 1 - b, n - 1 - a)
                )
                if schubert.top_degree(product) != 1:
                    bad.append((n, a, b))
    return CheckResult(
        "schubert-duality",
        "sigma_{a,b} . sigma_{n-1-b,n-1-a} is the point class for every two-row class, n <= 6",
        not bad,
        f"failures {bad}" if bad else "duality pairing is unimodular across the range",
    )


def check_ledger_integrity(engine: ClassificationEngine) -> CheckResult:
    ledger = engine.ledger
    problems = list(ledger.invariant_problems())
    for entry in ledger.entries:
        if entry.premises_stated_only:
            continue
        for (pr, pn, pd, pg) in entry.premises:
            try:
                verdict = engine.classify(Query(pr, pn, pd, pg))
            except IncompleteLedgerError:
                problems.append(f"{entry.id}: premise ({pr}, {pn}, {pd}, {pg}) underivable")
                continue
            if verdict.status != "general":
                problems.append(
                    f"{entry.id}: premise ({pr}, {pn}, {pd}, {pg}) is {verdict.status}"
                )
                continue
            problems += (
                f"{entry.id}: premise ({pr}, {pn}, {pd}, {pg}) derivation: {problem}"
                for problem in engine.validate_trace(verdict.trace)
            )
    return CheckResult(
        "ledger-integrity",
        "ledger invariants hold and every verifiable premise classifies as general by a derivation that validates",
        not problems,
        "; ".join(problems) if problems else f"{len(ledger.entries)} entries validated",
    )


def check_side_conditions(engine: ClassificationEngine) -> CheckResult:
    # A curve of degree d2 and genus g2 in a hyperplane of P^r, attached at
    # n points with twist k, needs (r-2) n <= r d2 - (r-4)(g2-1) - k (r-2) d2
    # (the restricted bundle keeps enough Euler characteristic), n at least
    # g2 (k = 1) or g2 - 1 + (k-1) d2 (k > 1) (the twisted hyperplane series
    # has no H^1), and n >= g2 - d2 + r (the glued curve smooths).
    problems = []
    details = []
    for entry in engine.ledger.entries:
        if entry.tag not in GLUE_CHECK_TAGS or entry.glue is None:
            continue
        r, (d2, g2, n, k) = entry.r, entry.glue
        chi_bound = r * d2 - (r - 4) * (g2 - 1) - k * (r - 2) * d2
        series_bound = g2 if k == 1 else g2 - 1 + (k - 1) * d2
        smooth_bound = g2 - d2 + r
        line = (
            f"{entry.id}: restricted-chi {(r - 2) * n} <= {chi_bound}, "
            f"twisted-series {n} >= {series_bound}, smoothing {n} >= {smooth_bound}"
        )
        if (r - 2) * n <= chi_bound and n >= series_bound and n >= smooth_bound:
            details.append(line)
        else:
            problems.append(line)
    return CheckResult(
        "gluing-side-conditions",
        "every hyperplane-gluing entry passes its three numeric side conditions",
        not problems,
        "; ".join(problems) if problems else "; ".join(details),
    )


def check_exceptional_sweep(engine: ClassificationEngine) -> CheckResult:
    # Only the cases of the exceptional table can classify as exceptional,
    # so classifying the pair's cases there and the expected cells finds what
    # classifying every cell would.  The underivable cells are the grid rows'
    # '?' cells; the rows take an exceptional case above the bottom of its
    # genus column for admissible, so a found cell is not counted among them.
    problems = []
    for (r, n), expected in sorted(EXPECTED_EXCEPTIONAL.items()):
        found = set()
        for d, g in {c[2:] for c in audits.EXCEPTIONAL if c[:2] == (r, n)} | expected:
            if not (d <= SWEEP_D_MAX and g <= SWEEP_G_MAX and in_domain(r, d, g)):
                continue
            try:
                verdict = engine.classify(Query(r, n, d, g))
            except IncompleteLedgerError:
                continue
            if verdict.status == "exceptional":
                found.add((d, g))
        missing = engine.completeness_audit(r, n, SWEEP_D_MAX, SWEEP_G_MAX)
        underivable = sum(1 for cell in missing if cell not in found)
        if found != set(expected):
            problems.append(f"({r}, {n}): found {sorted(found)}")
        if underivable:
            problems.append(f"({r}, {n}): {underivable} cases underivable")
    return CheckResult(
        "exceptional-sweep",
        f"classification over d <= {SWEEP_D_MAX}, g <= {SWEEP_G_MAX} is exceptional exactly on the theorem lists",
        not problems,
        "; ".join(problems) if problems else "sweep matches the lists for all five pairs",
    )


def check_completeness(engine: ClassificationEngine) -> CheckResult:
    problems = []
    for (r, n) in ((3, 2), (3, 1), (4, 1)):
        missing = engine.completeness_audit(r, n, SWEEP_D_MAX, SWEEP_G_MAX)
        if missing:
            problems.append(f"({r}, {n}): underivable {missing[:5]}")
    return CheckResult(
        "completeness-audit",
        "every in-domain non-exceptional case in the sweep box admits a derivation",
        not problems,
        "; ".join(problems) if problems else "no underivable cases",
    )


def check_frontier(engine: ClassificationEngine) -> CheckResult:
    problems = []
    for (r, n), expected in sorted(EXPECTED_FRONTIER.items()):
        g_max = max((g for _, g in expected), default=SWEEP_G_MAX)
        got = engine.frontier(r, n, g_max)
        if got != expected:
            problems.append(f"({r}, {n}): computed {got}")
    return CheckResult(
        "frontier-lists",
        "the construction frontier reproduces the three finite seed lists",
        not problems,
        "; ".join(problems) if problems else "twelve, two and seven pairs as listed",
    )


def check_audits() -> CheckResult:
    problems = []
    for case in audits.EXCEPTIONAL:
        problems.extend(audits.audit_evidence_problems(audits.run_audit(case)))
    deficit62 = audits.run_audit((3, 2, 6, 2)).evidence
    deficit75 = audits.run_audit((3, 2, 7, 5)).evidence
    if (deficit62.total, deficit62.ambient_dim) != (23, 24):
        problems.append(f"(3,2,6,2): tally {deficit62.total} vs {deficit62.ambient_dim}")
    if (deficit75.total, deficit75.ambient_dim) != (27, 28):
        problems.append(f"(3,2,7,5): tally {deficit75.total} vs {deficit75.ambient_dim}")
    return CheckResult(
        "converse-audits",
        "all ten exceptional cases audit as not general, with deficits 23 < 24 and 27 < 28",
        not problems,
        "; ".join(problems) if problems else "ten audits hold",
    )


def check_exceptional_floor() -> CheckResult:
    # admissible_floor and the grid rows' E span read a genus's admissible
    # degrees as one interval from the floor; validate_trace's O(1) replay of
    # a run also reads the case one add_canonical step below each exceptional
    # case as not admissible
    problems = []
    for r, n, d, g in audits.EXCEPTIONAL:
        step = engine_module.Segment((r, n, d, g), engine_module.RULE_ADD_CANONICAL)
        for below in ((r, n, d - 1, g), step.premise()):
            if below is not None and engine_module.admissible(*below):
                problems.append(f"{(r, n, d, g)}: {below} is admissible")
    return CheckResult(
        "exceptional-floor",
        "every exceptional case sits at the bottom of its genus column and one add_canonical step above no admissible case",
        not problems,
        "; ".join(problems) or "the degree and the add_canonical step below each case are not admissible",
    )


def check_local_determinant() -> CheckResult:
    # Rows are the two chords to the marked points and the tangent vector,
    # over _Poly with _R as t; the coefficients of 1 and t are the
    # determinant modulo t^2, which the general-position argument needs
    # nonzero.
    t = _R
    (a, b, c), (d, e, f), (g, h, i) = (t - 1, 0, -1), (t + 1, 0, -1), (1, 2 * t, 0)
    determinant = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    c0, c1 = determinant.terms.get((0, 0, 0), 0), determinant.terms.get((1, 0, 0), 0)
    terms = [f"{c}{monomial}" for c, monomial in ((c0, ""), (c1, "t")) if c]
    return CheckResult(
        "local-determinant",
        "the 3x3 tangency determinant equals -4t, nonzero modulo t^2",
        (c0, c1) == (0, -4),
        f"determinant = {' + '.join(terms).replace('+ -', '- ') or '0'}",
    )


def check_scroll_case_study() -> CheckResult:
    # The scroll is the blowup of the plane at a point, embedded by 2L - E.
    # The curve is the proper transform 3L - E of a plane cubic through the
    # center; it is elliptic of degree 5.  Projecting from a well-chosen
    # point decomposes the twisted normal bundle into two degree-zero
    # pieces, and the top exterior power is 8L - 4E.  Twists by the marked
    # points p + q are carried as a count beside the class.
    S = SurfaceModel.scroll()
    hyperplane, cubic = S.cls_(2, -1), S.cls_(3, -1)
    lines = (
        ("scroll degree (2L - E)^2", lattices.intersect(S, hyperplane, hyperplane), 3),
        ("curve degree (3L - E).(2L - E)", lattices.intersect(S, cubic, hyperplane), 5),
        ("curve genus", lattices.adjunction_genus(S, cubic), 1),
        (
            "first twisted piece degree (-L + E + p + q)",
            lattices.intersect(S, cubic, S.cls_(-1, 1)) + 2,
            0,
        ),
        (
            "second twisted piece degree (L - E - p - q)",
            lattices.intersect(S, cubic, S.cls_(1, -1)) - 2,
            0,
        ),
        (
            "determinant class (3L - E + p + q) + (5L - 3E - p - q)",
            ((S.cls_(3, -1) + S.cls_(5, -3)).coeffs, +2 - 2),
            ((8, -4), 0),
        ),
    )
    return CheckResult(
        "scroll-case-study",
        "the cubic-scroll elliptic quintic: degrees 3 and 5, two degree-zero twists, class sum 8L - 4E",
        all(computed == expected for _, computed, expected in lines),
        "; ".join(f"{name}: {computed}" for name, computed, _ in lines),
    )


def check_k3_case_study() -> CheckResult:
    k3 = SEXTIC_K3
    H, R = k3.cls_(1, 0), k3.cls_(0, 1)
    stats_hr = lattices.k3_stats(k3, H + R, H)
    stats_r = lattices.k3_stats(k3, R, H)
    stats_h = lattices.k3_stats(k3, H, H)
    ok = (
        (stats_hr.genus, stats_hr.degree, stats_hr.h0) == (7, 10, 8)
        and (stats_r.genus, stats_r.h0) == (0, 1)
        and (stats_h.genus, stats_h.degree, stats_h.h0) == (4, 6, 5)
    )
    return CheckResult(
        "k3-case-study",
        "on the sextic K3 lattice: H + R has genus 7, degree 10, h0 = 8; R is rigid; H is the genus-4 section",
        ok,
        f"H+R: {stats_hr}; R: {stats_r}; H: {stats_h}",
    )


def check_restriction_isomorphisms() -> CheckResult:
    # At each site the restriction of forms from the surface to the curve
    # is an isomorphism, so the surface and curve h^0 must agree.
    dp6, dp5, scroll = SurfaceModel.del_pezzo(6), SurfaceModel.del_pezzo(5), SurfaceModel.scroll()
    anticanonical6, anticanonical5 = -dp6.canonical_class(), -dp5.canonical_class()
    sites = (
        ("(7,4)-cubic", lattices.h0_rational(dp6, anticanonical6), audits.rr_curve(7, 4)),
        # degree 8 on genus 5 sits at the canonical degree; the hyperplane
        # bundle of this curve is general (it is twisted by five general
        # points of the construction), so the general-bundle count applies.
        (
            "(8,5)-cubic",
            lattices.h0_rational(dp6, anticanonical6),
            audits.general_bundle_h0(8, 5),
        ),
        ("(7,5)-cubic", lattices.h0_rational(dp6, 2 * anticanonical6), audits.rr_curve(14, 5)),
        (
            "(9,5)-quartic",
            2 * lattices.h0_rational(dp5, anticanonical5),
            2 * audits.rr_curve(9, 5),
        ),
        # chi of the very ample hyperplane class; vanishing is classical for
        # the scroll, whose positivity grades this lattice model declines to
        # certify.
        (
            "(6,2)-scroll-h0",
            lattices.riemann_roch_chi(scroll, scroll.cls_(2, -1)),
            audits.rr_curve(6, 2),
        ),
    )
    problems = [
        f"{site}: {surface} != {curve}" for site, surface, curve in sites if surface != curve
    ]
    return CheckResult(
        "restriction-isomorphisms",
        "surface and curve section counts agree at the five cited restriction sites",
        not problems,
        "; ".join(problems)
        or "; ".join(f"{site}: {surface} = {curve}" for site, surface, curve in sites),
    )


def run_all(ledger: Ledger | None = None) -> list[CheckResult]:
    """Run the full battery in a fixed order and return one result per check.
    ``exceptional-sweep`` and ``completeness-audit`` read the same box audits,
    so the battery's engine runs each once; ``cache`` keeps no result for an
    audit that raises, so it raises again in the next check that asks."""
    engine = ClassificationEngine(ledger)
    engine.completeness_audit = functools.cache(engine.completeness_audit)
    checks = [
        check_lattice_invariants,
        check_chi_anchors,
        check_chi_untwisted_identity,
        check_rho_invariance,
        check_moduli_plane_collapse,
        check_degree_bound,
        check_low_genus_nonspecial,
        check_interpolation_gates,
        check_surface_curve_table,
        check_line_counts,
        check_kv_certificates,
        check_h0_table,
        check_schubert_incidence,
        check_schubert_duality,
        lambda: check_ledger_integrity(engine),
        lambda: check_side_conditions(engine),
        lambda: check_exceptional_sweep(engine),
        lambda: check_completeness(engine),
        lambda: check_frontier(engine),
        check_audits,
        check_exceptional_floor,
        check_local_determinant,
        check_scroll_case_study,
        check_k3_case_study,
        check_restriction_isomorphisms,
    ]
    results = []
    for runner in checks:
        try:
            results.append(runner())
        except Exception as exc:  # a crashed check is a failed check
            description = "a check raised instead of reporting"
            results.append(CheckResult("internal-error", description, False, repr(exc)))
    return results
