"""The all-checks verification battery.

Every externally anchored number in the library is recomputed here: Euler
characteristic anchors, the degree/genus/section-count table on the surface
lattices, line counts, vanishing certificates, incidence numbers, gluing
side conditions, the ten non-generality audits, the local determinant, the
scroll and K3 case studies, and the classification sweeps (exceptional
lists, completeness, frontier).  The command line front end prints one line
per check and exits nonzero if any fails; the test suite reuses the same
battery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from . import audits, lattices, schubert
from .engine import (
    ClassificationEngine,
    IncompleteLedgerError,
    Query,
    side_condition_check,
)
from .lattices import DivisorClass, SurfaceModel
from .ledger import GLUE_CHECK_TAGS, Ledger
from .numerology import (
    BNIndex,
    chi_twisted_normal,
    in_domain,
    interpolation_gates,
    max_general_hypersurface_degree,
    moduli_dim,
    rho,
    rho_canonical_reduction_delta,
)

#: The theorem lists, restated here as the sweep oracle.
EXPECTED_EXCEPTIONAL = {
    (2, 1): frozenset(),
    (2, 2): frozenset(),
    (3, 2): frozenset({(4, 1), (5, 2), (6, 2), (6, 4), (7, 5), (8, 6)}),
    (3, 1): frozenset({(6, 4)}),
    (4, 1): frozenset({(8, 5), (9, 6), (10, 7)}),
}

#: The finite frontier lists the induction must be seeded with.
EXPECTED_FRONTIER = {
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


@dataclass(frozen=True)
class CheckResult:
    id: str
    description: str
    ok: bool
    detail: str


def _result(check_id: str, description: str, ok: bool, detail: str) -> CheckResult:
    return CheckResult(id=check_id, description=description, ok=ok, detail=detail)


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


def check_lattice_invariants(surfaces: Sequence[SurfaceModel]) -> CheckResult:
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
    return _result(
        "lattice-invariants",
        "Gram symmetry, canonical classes and pairing symmetry on all stock lattices",
        not problems,
        "; ".join(problems) if problems else f"{len(surfaces)} lattices validated",
    )


def check_chi_anchors() -> CheckResult:
    bad = []
    for d in range(1, 101):
        for g in range(0, 101):
            if chi_twisted_normal(BNIndex(3, d, g), 1) != 2 * d:
                bad.append((3, d, g, 1))
            if chi_twisted_normal(BNIndex(3, d, g), 2) != 0:
                bad.append((3, d, g, 2))
            if chi_twisted_normal(BNIndex(4, d, g), 1) != 2 * d - g + 1:
                bad.append((4, d, g, 1))
    return _result(
        "chi-anchors",
        "chi(N(-1)) = 2d and chi(N(-2)) = 0 in P^3, chi(N(-1)) = 2d - g + 1 in P^4, d, g <= 100",
        not bad,
        f"first failure {bad[0]}" if bad else "30603 identities hold",
    )


def check_chi_untwisted_identity() -> CheckResult:
    bad = []
    for r in range(3, 7):
        for d in range(1, 61):
            for g in range(0, 61):
                ix = BNIndex(r, d, g)
                if chi_twisted_normal(ix, 0) != (r + 1) * d + (r - 3) * (1 - g):
                    bad.append((r, d, g))
    return _result(
        "chi-untwisted",
        "chi(N) = (r+1)d + (r-3)(1-g) for 3 <= r <= 6, d, g <= 60",
        not bad,
        f"first failure {bad[0]}" if bad else "identity holds across the box",
    )


def check_rho_invariance() -> CheckResult:
    bad = []
    for r in range(3, 7):
        for d in range(r + 1, 61):
            for g in range(r + 1, 61):
                if rho_canonical_reduction_delta(BNIndex(r, d, g)) != 0:
                    bad.append((r, d, g))
    return _result(
        "rho-invariance",
        "rho(d - r, g - r - 1, r) = rho(d, g, r) exhaustively, 3 <= r <= 6, d, g <= 60",
        not bad,
        f"first failure {bad[0]}" if bad else "reduction preserves rho across the box",
    )


def check_moduli_plane_collapse() -> CheckResult:
    bad = [
        (d, g)
        for d in range(1, 101)
        for g in range(0, 101)
        if moduli_dim(BNIndex(3, d, g)) != 4 * d
    ]
    return _result(
        "moduli-plane-collapse",
        "the space of maps to P^3 has dimension 4d independent of genus, d, g <= 100",
        not bad,
        f"first failure {bad[0]}" if bad else "dimension is 4d throughout",
    )


def check_degree_bound() -> CheckResult:
    got = [max_general_hypersurface_degree(r) for r in (2, 3, 4, 5)]
    expected = [2, 2, 1, 0]
    return _result(
        "hypersurface-degree-bound",
        "admissible hypersurface degrees per ambient: r = 2..5 give 2, 2, 1, 0",
        got == expected,
        f"computed {got}",
    )


def check_low_genus_nonspecial() -> CheckResult:
    bad = []
    for r in range(2, 7):
        for g in range(0, r + 1):
            for d in range(1, 61):
                if rho(BNIndex(r, d, g)) >= 0 and d < g + r:
                    bad.append((r, d, g))
    return _result(
        "low-genus-nonspecial",
        "rho >= 0 forces d >= g + r whenever g <= r (checked g <= r <= 6, d <= 60)",
        not bad,
        f"first failure {bad[0]}" if bad else "implication holds",
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
    return _result(
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
    return _result(
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
    return _result(
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
    return _result(
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
    return _result(
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
    return _result(
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
    return _result(
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
    return _result(
        "ledger-integrity",
        "ledger invariants hold and every verifiable premise classifies as general",
        not problems,
        "; ".join(problems) if problems else f"{len(ledger.entries)} entries validated",
    )


def check_side_conditions(engine: ClassificationEngine) -> CheckResult:
    problems = []
    details = []
    for entry in engine.ledger.entries:
        if entry.tag not in GLUE_CHECK_TAGS or entry.glue is None:
            continue
        report = side_condition_check(entry)
        rows = ", ".join(
            f"{row.name} {row.lhs} {row.relation} {row.rhs}" for row in report.rows
        )
        if report.all_hold:
            details.append(f"{entry.id}: {rows}")
        else:
            problems.append(f"{entry.id}: {rows}")
    return _result(
        "gluing-side-conditions",
        "every hyperplane-gluing entry passes its three numeric side conditions",
        not problems,
        "; ".join(problems) if problems else "; ".join(details),
    )


def check_exceptional_sweep(engine: ClassificationEngine) -> CheckResult:
    problems = []
    for (r, n), expected in sorted(EXPECTED_EXCEPTIONAL.items()):
        found = set()
        underivable = 0
        for g in range(0, SWEEP_G_MAX + 1):
            for d in range(1, SWEEP_D_MAX + 1):
                if not in_domain(r, d, g):
                    continue
                try:
                    verdict = engine.classify(Query(r, n, d, g))
                except IncompleteLedgerError:
                    underivable += 1
                    continue
                if verdict.status == "exceptional":
                    found.add((d, g))
        if found != set(expected):
            problems.append(f"({r}, {n}): found {sorted(found)}")
        if underivable:
            problems.append(f"({r}, {n}): {underivable} cases underivable")
    return _result(
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
    return _result(
        "completeness-audit",
        "every in-domain non-exceptional case in the sweep box admits a derivation",
        not problems,
        "; ".join(problems) if problems else "no underivable cases",
    )


def check_frontier(engine: ClassificationEngine) -> CheckResult:
    problems = []
    for (r, n), expected in sorted(EXPECTED_FRONTIER.items()):
        g_max = max(g for _, g in expected)
        got = engine.frontier(r, n, g_max)
        if got != expected:
            problems.append(f"({r}, {n}): computed {got}")
    return _result(
        "frontier-lists",
        "the construction frontier reproduces the three finite seed lists",
        not problems,
        "; ".join(problems) if problems else "twelve, two and seven pairs as listed",
    )


def check_audits() -> CheckResult:
    problems = []
    for case in audits.AUDIT_CASES:
        report = audits.run_audit(case)
        if report.verdict != "not_general":
            problems.append(f"{case}: verdict {report.verdict}")
        problems.extend(audits.audit_evidence_problems(report))
    deficit62 = audits.run_audit((3, 2, 6, 2)).evidence
    deficit75 = audits.run_audit((3, 2, 7, 5)).evidence
    if (deficit62.total, deficit62.ambient_dim) != (23, 24):
        problems.append(f"(3,2,6,2): tally {deficit62.total} vs {deficit62.ambient_dim}")
    if (deficit75.total, deficit75.ambient_dim) != (27, 28):
        problems.append(f"(3,2,7,5): tally {deficit75.total} vs {deficit75.ambient_dim}")
    return _result(
        "converse-audits",
        "all ten exceptional cases audit as not general, with deficits 23 < 24 and 27 < 28",
        not problems,
        "; ".join(problems) if problems else "ten audits hold",
    )


def check_local_determinant() -> CheckResult:
    value = audits.local_determinant_check()
    ok = (value.c0, value.c1) == (0, -4) and not value.is_zero()
    return _result(
        "local-determinant",
        "the 3x3 tangency determinant equals -4t, nonzero modulo t^2",
        ok,
        f"determinant = {value}",
    )


def check_scroll_case_study() -> CheckResult:
    checks = audits.scroll_case_study()
    bad = [c for c in checks if not c.ok]
    return _result(
        "scroll-case-study",
        "the cubic-scroll elliptic quintic: degrees 3 and 5, two degree-zero twists, class sum 8L - 4E",
        not bad,
        "; ".join(f"{c.name}: {c.computed}" for c in checks),
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
    return _result(
        "k3-case-study",
        "on the sextic K3 lattice: H + R has genus 7, degree 10, h0 = 8; R is rigid; H is the genus-4 section",
        ok,
        f"H+R: {stats_hr}; R: {stats_r}; H: {stats_h}",
    )


def check_restriction_isomorphisms() -> CheckResult:
    problems = []
    details = []
    for case in audits.RESTRICTION_CASES:
        line = audits.surface_restriction_isomorphism_check(case)
        if line.ok:
            details.append(f"{case}: {line.computed} = {line.expected}")
        else:
            problems.append(f"{case}: {line.computed} != {line.expected}")
    return _result(
        "restriction-isomorphisms",
        "surface and curve section counts agree at the five cited restriction sites",
        not problems,
        "; ".join(problems) if problems else "; ".join(details),
    )


def run_all(
    ledger: Optional[Ledger] = None,
    surfaces: Optional[Sequence[SurfaceModel]] = None,
) -> list[CheckResult]:
    """Run the full battery in a fixed order and return one result per check."""
    engine = ClassificationEngine(ledger)
    surface_list = list(surfaces) if surfaces is not None else default_surfaces()
    checks: list[Callable[[], CheckResult]] = [
        lambda: check_lattice_invariants(surface_list),
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
            results.append(
                _result("internal-error", "a check raised instead of reporting", False, repr(exc))
            )
    return results
