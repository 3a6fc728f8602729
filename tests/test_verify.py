"""The verify checks against independent references: the identity checks
prove their identities for all integers and fail on every mutated numerology
core, the exceptional sweep answers as the per-cell loop it replaces, on
the bundled code and on a mutated exceptional table, the exceptional floor
fails a case above an admissible degree, and ledger integrity fails every
misplaced exemption and plane or skew-lines tag.  The README's table of
the checks by strength names every check in run order."""

import os

import pytest

from gensect import audits, engine as engine_module, lattices, numerology, verify
from gensect.audits import EXCEPTIONAL
from gensect.engine import ClassificationEngine, DerivationTrace, IncompleteLedgerError, Query
from gensect.ledger import Ledger, load_ledger
from gensect.numerology import BNIndex, in_domain

# -- the identity checks ----------------------------------------------------------
# Each reference is a box loop over the numerology cores, read through the
# module attribute so that it calls whatever core is in place; it shows the
# mutant is wrong somewhere in the box.


def box_chi_anchors():
    for d in range(1, 101):
        for g in range(0, 101):
            if numerology.chi_twisted_normal_at(3, d, g, 1) != 2 * d:
                yield (3, d, g, 1)
            if numerology.chi_twisted_normal_at(3, d, g, 2) != 0:
                yield (3, d, g, 2)
            if numerology.chi_twisted_normal_at(4, d, g, 1) != 2 * d - g + 1:
                yield (4, d, g, 1)


def box_chi_untwisted():
    for r in range(3, 7):
        for d in range(1, 61):
            for g in range(0, 61):
                if numerology.chi_twisted_normal_at(r, d, g, 0) != (r + 1) * d + (r - 3) * (1 - g):
                    yield (r, d, g)


def box_rho_invariance():
    for r in range(3, 7):
        for d in range(r + 1, 61):
            for g in range(r + 1, 61):
                if numerology.rho_canonical_reduction_delta_at(r, d, g) != 0:
                    yield (r, d, g)


def box_moduli_plane_collapse():
    for d in range(1, 101):
        for g in range(0, 101):
            if numerology.moduli_dim_at(3, d, g) != 4 * d:
                yield (d, g)


CHI = numerology.chi_twisted_normal_at
RHO = numerology.rho_at
DELTA = numerology.rho_canonical_reduction_delta_at
MODULI = numerology.moduli_dim_at

#: (core, mutant, check, reference loop).  The mutants that compare their
#: arguments with == branch on them; the polynomials refuse that, so no proof
#: exists and the check fails.
MUTANTS = {
    "chi-anchors, polynomial": (
        "chi_twisted_normal_at",
        lambda r, d, g, k: CHI(r, d, g, k) + k * (k - 1) * (g - 7),
        verify.check_chi_anchors,
        box_chi_anchors,
    ),
    "chi-anchors, one cell": (
        "chi_twisted_normal_at",
        lambda r, d, g, k: CHI(r, d, g, k) + (r == 4) * (d == 60) * (g == 40),
        verify.check_chi_anchors,
        box_chi_anchors,
    ),
    "chi-untwisted, polynomial": (
        "chi_twisted_normal_at",
        lambda r, d, g, k: CHI(r, d, g, k) + (r - 3) * (r - 4) * (r - 5) * (d - 1),
        verify.check_chi_untwisted_identity,
        box_chi_untwisted,
    ),
    "chi-untwisted, one cell": (
        "chi_twisted_normal_at",
        lambda r, d, g, k: CHI(r, d, g, k) - (r == 5) * (d == 17) * (g == 0),
        verify.check_chi_untwisted_identity,
        box_chi_untwisted,
    ),
    "rho-invariance, rho polynomial": (
        "rho_at",
        lambda r, d, g: RHO(r, d, g) + d * g,
        verify.check_rho_invariance,
        box_rho_invariance,
    ),
    "rho-invariance, delta one cell": (
        "rho_canonical_reduction_delta_at",
        lambda r, d, g: DELTA(r, d, g) + (r == 5) * (d == 30) * (g == 31),
        verify.check_rho_invariance,
        box_rho_invariance,
    ),
    "moduli-plane-collapse, polynomial": (
        "moduli_dim_at",
        lambda r, d, g: MODULI(r, d, g) + (g - 1) * (d - 1) * (d - 2),
        verify.check_moduli_plane_collapse,
        box_moduli_plane_collapse,
    ),
    "moduli-plane-collapse, one cell": (
        "moduli_dim_at",
        lambda r, d, g: MODULI(r, d, g) + (d == 1) * (g == 100),
        verify.check_moduli_plane_collapse,
        box_moduli_plane_collapse,
    ),
    # wrong only outside the box: the box loop passes, the check does not
    "moduli-plane-collapse, outside the box": (
        "moduli_dim_at",
        lambda r, d, g: MODULI(r, d, g) + (d == 101),
        verify.check_moduli_plane_collapse,
        box_moduli_plane_collapse,
    ),
}


def patch_core(monkeypatch, name, replacement):
    for module in (numerology, verify):
        if hasattr(module, name):
            monkeypatch.setattr(module, name, replacement)


@pytest.mark.parametrize("label", list(MUTANTS))
def test_identity_check_names_the_box_loops_first_failure(label, monkeypatch):
    # every mutant fails its check, which names the identity it could not
    # prove; the box loop finds a failing cell for all but the one outside it
    name, mutant, check, box = MUTANTS[label]
    patch_core(monkeypatch, name, mutant)
    first = next(box(), None)
    result = check()
    assert not result.ok
    assert result.detail.startswith("not proved")
    assert (first is None) is label.endswith("outside the box")


def test_chi_anchors_names_the_anchor_it_cannot_prove(monkeypatch):
    mutant = lambda r, d, g, k: CHI(r, d, g, k) + (r - 3) * (k - 2) * d
    patch_core(monkeypatch, "chi_twisted_normal_at", mutant)
    assert verify.check_chi_anchors().detail == "not proved at (r, k) = [(4, 1)]"


def test_rho_invariance_proves_the_engine_step(monkeypatch):
    assert "rho(d - 8, g - 10, 4) = rho(d, g, 4)" in verify.check_rho_invariance().detail
    monkeypatch.setitem(engine_module.CANONICAL_STEP, 4, (8, 9))
    result = verify.check_rho_invariance()
    assert not result.ok
    assert result.detail == "not proved: rho(d - 8, g - 9, 4) = rho(d, g, 4)"


@pytest.mark.parametrize(
    "name, check",
    [
        ("chi_twisted_normal_at", verify.check_chi_anchors),
        ("chi_twisted_normal_at", verify.check_chi_untwisted_identity),
        ("rho_canonical_reduction_delta_at", verify.check_rho_invariance),
        ("moduli_dim_at", verify.check_moduli_plane_collapse),
    ],
)
def test_bundled_identities_are_proved_without_the_box(name, check, monkeypatch):
    core = getattr(numerology, name)
    integer_calls = []

    def counting(*args):
        if all(isinstance(a, int) for a in args):
            integer_calls.append(args)
        return core(*args)

    patch_core(monkeypatch, name, counting)
    assert check().ok
    assert integer_calls == []


def test_polynomial_equality_answers_only_where_every_point_agrees():
    d, g = verify._D, verify._G
    assert (d + g) * (d - g) == d * d - g * g
    assert (d + 1 == d) is False
    with pytest.raises(TypeError):
        d == 5
    with pytest.raises(TypeError):
        bool(d - d)
    with pytest.raises(TypeError):
        d < g
    with pytest.raises(TypeError):
        d // 2


# -- low-genus-nonspecial -------------------------------------------------------------


SLOPE = "rho(d + 1, g, r) - rho(d, g, r) = r + 1"
AT_G_PLUS_R = "rho(g + r, g, r) = g"
ONE_BELOW = "rho(g + r - 1, g, r) = g - r - 1"


def test_low_genus_nonspecial_holds_for_every_degree_without_a_degree_loop(monkeypatch):
    integer_calls = []

    def counting(r, d, g):
        if all(isinstance(a, int) for a in (r, d, g)):
            integer_calls.append((r, d, g))
        return RHO(r, d, g)

    patch_core(monkeypatch, "rho_at", counting)
    result = verify.check_low_genus_nonspecial()
    assert result.ok
    assert result.detail == f"proved: {SLOPE}; {AT_G_PLUS_R}; {ONE_BELOW}"
    # three identities proved on polynomials: no (r, g) is enumerated
    assert integer_calls == []


@pytest.mark.parametrize("offset", [1, -1], ids=["one more", "one less"])
def test_low_genus_nonspecial_fails_on_a_rho_wrong_by_one(offset, monkeypatch):
    patch_core(monkeypatch, "rho_at", lambda r, d, g: RHO(r, d, g) + offset)
    result = verify.check_low_genus_nonspecial()
    assert not result.ok
    assert result.detail == f"not proved: {AT_G_PLUS_R}; {ONE_BELOW}"


#: rho_at, (r + 1) d - r g - r (r + 1), with one coefficient changed, and the
#: identities each mutant breaks.  With g's coefficient r + 1, rho is
#: (r + 1)(d - g - r): it still starts at d = g + r, so a check that only
#: enumerated where rho turns nonnegative for g <= r <= 6 passed it.
RHO_ONE_COEFFICIENT = {
    "d's": (lambda r, d, g: (r + 2) * d - r * g - r * (r + 1), [SLOPE, AT_G_PLUS_R, ONE_BELOW]),
    "g's": (lambda r, d, g: (r + 1) * d - (r + 1) * g - r * (r + 1), [AT_G_PLUS_R, ONE_BELOW]),
    "the constant's": (
        lambda r, d, g: (r + 1) * d - r * g - r * (r + 2), [AT_G_PLUS_R, ONE_BELOW]
    ),
}


@pytest.mark.parametrize("coefficient", list(RHO_ONE_COEFFICIENT))
def test_low_genus_nonspecial_fails_on_rho_with_one_coefficient_changed(coefficient, monkeypatch):
    mutant, broken = RHO_ONE_COEFFICIENT[coefficient]
    patch_core(monkeypatch, "rho_at", mutant)
    result = verify.check_low_genus_nonspecial()
    assert not result.ok
    assert result.detail == f"not proved: {'; '.join(broken)}"


def test_low_genus_nonspecial_needs_the_slope(monkeypatch):
    # right at d = g + r and one degree below, wrong everywhere else: only
    # the slope proof sees it, and a box loop finds the failure
    patch_core(
        monkeypatch,
        "rho_at",
        lambda r, d, g: RHO(r, d, g) + (d - g - r) * (d - g - r + 1),
    )
    result = verify.check_low_genus_nonspecial()
    assert not result.ok
    assert result.detail == f"not proved: {SLOPE}"
    assert any(
        numerology.rho(BNIndex(r, d, g)) >= 0 and d < g + r
        for r in range(2, 7)
        for g in range(0, r + 1)
        for d in range(1, 61)
    )


# -- the exceptional sweep ----------------------------------------------------------


def per_cell_sweep(engine):
    """The reference: classify every in-domain cell of the box."""
    problems = []
    for (r, n), expected in sorted(verify.EXPECTED_EXCEPTIONAL.items()):
        found, underivable = set(), 0
        for g in range(0, verify.SWEEP_G_MAX + 1):
            for d in range(1, verify.SWEEP_D_MAX + 1):
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
    return not problems, problems


PLANE_2 = lattices.SurfaceModel.del_pezzo(2)
QUADRIC = lattices.SurfaceModel.quadric()


@pytest.mark.parametrize(
    "surface, problems",
    [
        (
            PLANE_2._replace(gram=((1, 0), (0, -1, 0), (0, 0, -1))),
            ["Gram matrix is not square"],
        ),
        (
            QUADRIC._replace(gram=((0, 1), (2, 0))),
            ["Gram matrix asymmetric at (0, 1)", "Gram matrix asymmetric at (1, 0)"],
        ),
        (QUADRIC._replace(basis_names=("A",)), ["basis data does not match the Gram rank"]),
        (
            PLANE_2._replace(canonical=(-3, 1, 0)),
            ["del Pezzo canonical class is not -3L + sum E_i"],
        ),
        (
            PLANE_2._replace(gram=((1, 0, 0), (0, -2, 0), (0, 0, -1))),
            ["del Pezzo Gram diagonal wrong at 1"],
        ),
        (
            PLANE_2._replace(gram=((1, 1, 0), (1, -1, 0), (0, 0, -1))),
            ["del Pezzo Gram off-diagonal nonzero at (0, 1)",
             "del Pezzo Gram off-diagonal nonzero at (1, 0)"],
        ),
        (QUADRIC._replace(canonical=(-2, -1)), ["quadric canonical class is not (-2, -2)"]),
        (verify.SEXTIC_K3._replace(canonical=(1, 0)), ["K3 canonical class is nonzero"]),
    ],
    ids=[
        "not-square", "asymmetric", "basis", "dp-canonical", "dp-diagonal",
        "dp-off-diagonal", "quadric-canonical", "k3-canonical",
    ],
)
def test_surface_invariant_problems_names_each_violation(surface, problems):
    # _replace skips the checks of SurfaceModel.__new__
    assert verify.surface_invariant_problems(surface) == problems


def test_sweep_matches_per_cell_reference_on_bundled_ledger():
    result = verify.check_exceptional_sweep(ClassificationEngine())
    assert result.ok
    assert per_cell_sweep(ClassificationEngine()) == (True, [])


def test_sweep_fails_when_an_exceptional_pair_is_added_mid_column(monkeypatch):
    # (20, 5) is not at the bottom of its genus column, so the grid rows read
    # it as general; only classifying it shows that it is exceptional
    row = EXCEPTIONAL[(3, 2, 8, 6)]._replace(case=(3, 2, 20, 5), description="mutant")
    monkeypatch.setitem(EXCEPTIONAL, (3, 2, 20, 5), row)
    result = verify.check_exceptional_sweep(ClassificationEngine())
    ok, problems = per_cell_sweep(ClassificationEngine())
    assert not result.ok and not ok
    assert result.detail == "; ".join(problems)
    assert "(3, 2): found [(4, 1), (5, 2), (6, 2), (6, 4), (7, 5), (8, 6), (20, 5)]" in problems


def test_sweep_classifies_only_the_exceptional_table(monkeypatch):
    calls = []
    classify = ClassificationEngine.classify

    def counting(self, q):
        calls.append(tuple(q))
        return classify(self, q)

    monkeypatch.setattr(ClassificationEngine, "classify", counting)
    assert verify.check_exceptional_sweep(ClassificationEngine()).ok
    expected_cells = sum(len(cells) for cells in verify.EXPECTED_EXCEPTIONAL.values())
    assert len(calls) <= len(EXCEPTIONAL) + expected_cells


# -- every exceptional case at the bottom of its genus column ---------------------------


def test_exceptional_floor_holds_on_the_table():
    result = verify.check_exceptional_floor()
    assert result.ok
    assert result.detail == "the degree and the add_canonical step below each case are not admissible"


def _add_20_5(table):
    table[(3, 2, 20, 5)] = table[(3, 2, 8, 6)]._replace(case=(3, 2, 20, 5), description="mutant")


def _add_26_30(table):
    table[(3, 2, 26, 30)] = table[(3, 2, 8, 6)]._replace(case=(3, 2, 26, 30), description="mutant")


@pytest.mark.parametrize(
    "mutate, detail",
    [
        (_add_20_5, "(3, 2, 20, 5): (3, 2, 19, 5) is admissible"),
        # then (6, 2) sits above an admissible degree
        (lambda table: table.pop((3, 2, 5, 2)), "(3, 2, 6, 2): (3, 2, 5, 2) is admissible"),
        # at the bottom of its genus column, but one add_canonical step above
        # an admissible case, so an add_canonical run can cross it
        (_add_26_30, "(3, 2, 26, 30): (3, 2, 20, 22) is admissible"),
    ],
    ids=["(3, 2, 20, 5) added", "(3, 2, 5, 2) dropped", "(3, 2, 26, 30) added"],
)
def test_exceptional_floor_fails_a_case_above_an_admissible_degree(mutate, detail):
    # the one table, edited in place so that the engine reads the mutant too,
    # and restored in its order
    saved = dict(EXCEPTIONAL)
    try:
        mutate(EXCEPTIONAL)
        result = verify.check_exceptional_floor()
        assert (result.ok, result.detail) == (False, detail)
        # in the whole battery the check fails by its own name, with no internal error
        failed = {r.id: r.detail for r in verify.run_all() if not r.ok}
    finally:
        EXCEPTIONAL.clear()
        EXCEPTIONAL.update(saved)
    assert failed["exceptional-floor"] == detail
    assert "internal-error" not in failed


# -- one battery, one box audit per pair ----------------------------------------------


def test_the_battery_audits_each_pair_once(monkeypatch):
    calls = []
    audit = ClassificationEngine.completeness_audit

    def counting(self, r, n, d_max, g_max):
        calls.append((r, n, d_max, g_max))
        return audit(self, r, n, d_max, g_max)

    monkeypatch.setattr(ClassificationEngine, "completeness_audit", counting)
    results = verify.run_all()
    assert all(result.ok for result in results)
    box = (verify.SWEEP_D_MAX, verify.SWEEP_G_MAX)
    assert calls == [(r, n, *box) for r, n in sorted(verify.EXPECTED_EXCEPTIONAL)]


def test_an_audit_that_raises_fails_each_check_that_asks_for_it(monkeypatch):
    def broken(self, r, n, d_max, g_max):
        raise ValueError(f"audit of ({r}, {n}) broke")

    monkeypatch.setattr(ClassificationEngine, "completeness_audit", broken)
    results = verify.run_all()
    # not kept, the failed audit runs again for the next check and fails it too
    failed = [(i, result) for i, result in enumerate(results) if not result.ok]
    assert [i for i, _ in failed] == [16, 17]
    assert all(result.id == "internal-error" for _, result in failed)
    assert [result.detail for _, result in failed] == [
        "ValueError('audit of (2, 1) broke')",
        "ValueError('audit of (3, 2) broke')",
    ]


def test_the_plane_pairs_have_an_empty_frontier_up_to_the_sweep_genus(monkeypatch):
    asked = []
    frontier = ClassificationEngine.frontier

    def recording(self, r, n, g_max):
        asked.append((r, n, g_max))
        return frontier(self, r, n, g_max)

    monkeypatch.setattr(ClassificationEngine, "frontier", recording)
    result = verify.check_frontier(ClassificationEngine())
    assert result.ok and result.detail == "twelve, two and seven pairs as listed"
    assert asked[:2] == [(2, 1, verify.SWEEP_G_MAX), (2, 2, verify.SWEEP_G_MAX)]


# -- ledger invariants -------------------------------------------------------------


def _mutant(entry_id, **fields):
    full = load_ledger()
    return Ledger(
        tuple(e._replace(**fields) if e.id == entry_id else e for e in full.entries), "doctored"
    )


@pytest.mark.parametrize(
    "entry_id",
    [e.id for e in load_ledger().entries if not e.rho_exempt],
)
def test_every_exemption_of_a_case_not_out_of_domain_fails_ledger_integrity(entry_id):
    # the exemption is read by the trace validator, so an exemption that
    # nothing needs is inert there: ledger integrity is what catches it
    engine = ClassificationEngine(_mutant(entry_id, rho_exempt=True))
    result = verify.check_ledger_integrity(engine)
    assert not result.ok
    assert f"{entry_id}: case " in result.detail
    assert "is exempted but not out of domain" in result.detail


def test_ledger_integrity_replays_each_premise_derivation(monkeypatch):
    # an engine whose add_line runs are one step too long still classifies
    # every premise as general; only the replay of its trace catches it
    classify = ClassificationEngine.classify

    def one_step_longer(self, query):
        verdict = classify(self, query)
        if verdict.trace is None:
            return verdict
        segments = tuple(
            seg._replace(repeat=seg.repeat + 1) if seg.rule == "add_line" else seg
            for seg in verdict.trace.segments
        )
        return verdict._replace(trace=DerivationTrace(segments))

    assert verify.check_ledger_integrity(ClassificationEngine()).ok
    monkeypatch.setattr(ClassificationEngine, "classify", one_step_longer)
    result = verify.check_ledger_integrity(ClassificationEngine())
    assert not result.ok
    assert result.detail.split("; ") == [
        f"r3n2-pglue-{d + 4}-{g + 8}: premise (3, 2, {d}, {g}) derivation: "
        f"(3, 2, {d - 1}, {g}): add_line premise (3, 2, {d - 1}, {g}) has wrong invariants"
        for d, g in ((6, 1), (8, 4), (9, 5), (10, 6))
    ]


@pytest.mark.parametrize(
    "entry_id, fields, problem",
    [
        ("r3n2-interp-3-0", {"tag": "PlaneCurve"}, "PlaneCurve tags only the r = 2 wildcards"),
        ("r2n1-plane", {"r": 3}, "PlaneCurve tags only the r = 2 wildcards"),
        ("r2n2-plane", {"d": 4, "g": 1}, "PlaneCurve tags only the r = 2 wildcards"),
        ("r4n1-skew-lines", {"g": 0}, "SkewLines tags only exact cases below genus 0"),
        ("r3n2-interp-3-0", {"tag": "SkewLines"}, "SkewLines tags only exact cases below genus 0"),
        ("r2n1-plane", {"tag": "SkewLines"}, "SkewLines tags only exact cases below genus 0"),
    ],
)
def test_plane_and_skew_line_tags_sit_where_they_belong(entry_id, fields, problem):
    problems = _mutant(entry_id, **fields).invariant_problems()
    assert f"{entry_id}: {problem}" in problems


@pytest.mark.parametrize(
    "fields, problem",
    [
        ({"tag": "Bogus"}, "unknown tag 'Bogus'"),
        ({"quote": " "}, "empty quote"),
        ({"citation": ""}, "empty citation"),
    ],
)
def test_every_entry_has_a_known_tag_a_quote_and_a_citation(fields, problem):
    problems = _mutant("r3n2-interp-3-0", **fields).invariant_problems()
    assert problems == [f"r3n2-interp-3-0: {problem}"]


@pytest.mark.parametrize("premise", [(2, 1, 4, 3), (2, 2, 4, 3)])
@pytest.mark.parametrize("entry_id", ["r2n1-plane", "r2n2-plane"])
def test_a_wildcard_entry_lists_no_premise(entry_id, premise):
    # in its own pair the premise is the wildcard itself; in the other plane
    # pair it is a wildcard that may rest on this one in turn
    problems = _mutant(entry_id, premises=(premise,)).invariant_problems()
    assert problems == [f"{entry_id}: premise {premise} on a wildcard entry"]


# -- gluing side conditions ---------------------------------------------------------


def test_side_conditions_read_every_gluing_entry_and_only_those():
    glued = [e.id for e in load_ledger().entries if e.tag in ("HyperplaneGlue", "PlaneCurveGlue")]
    result = verify.check_side_conditions(ClassificationEngine())
    assert result.ok
    lines = result.detail.split("; ")
    assert len(glued) == 15
    assert [line.split(": ")[0] for line in lines] == glued
    assert "r3n2-pglue-10-9: restricted-chi 6 <= 6, twisted-series 6 >= 6, smoothing 6 >= 2" in lines


@pytest.mark.parametrize(
    "glue, detail",
    [
        ({"twist": 3}, "restricted-chi 14 <= -18, twisted-series 7 >= 23, smoothing 7 >= 1"),
        ({"points": 10}, "restricted-chi 20 <= 18, twisted-series 10 >= 6, smoothing 10 >= 1"),
        ({"points": 5}, "restricted-chi 10 <= 18, twisted-series 5 >= 6, smoothing 5 >= 1"),
        (
            {"d2": 2, "g2": 2, "points": 2},
            "restricted-chi 4 <= 4, twisted-series 2 >= 2, smoothing 2 >= 4",
        ),
    ],
    ids=["twist 3", "restricted-chi", "twisted-series", "smoothing"],
)
def test_side_conditions_name_the_entry_whose_conditions_fail(glue, detail):
    # the last three break one condition each, the first two at once
    entry_id = "r4n1-hglue-16-15"
    doctored = _mutant(entry_id, glue=load_ledger().get(entry_id).glue._replace(**glue))
    result = verify.check_side_conditions(ClassificationEngine(doctored))
    assert not result.ok
    assert result.detail == f"{entry_id}: {detail}"


# -- case studies -------------------------------------------------------------------


@pytest.mark.parametrize(
    "t, ok, detail",
    [
        (verify._R, True, "-4t"),
        # with d for t the determinant is -4d: zero modulo t^2
        (verify._D, False, "0"),
        (verify._R + 1, False, "-4 - 4t"),
    ],
    ids=["t", "no linear term", "constant term"],
)
def test_local_determinant_reads_the_coefficients_of_one_and_t(t, ok, detail, monkeypatch):
    monkeypatch.setattr(verify, "_R", t)
    result = verify.check_local_determinant()
    assert result.ok is ok
    assert result.detail == f"determinant = {detail}"


SCROLL_LINES = {
    "scroll degree (2L - E)^2": 3,
    "curve degree (3L - E).(2L - E)": 5,
    "curve genus": 1,
    "first twisted piece degree (-L + E + p + q)": 0,
    "second twisted piece degree (L - E - p - q)": 0,
    "determinant class (3L - E + p + q) + (5L - 3E - p - q)": ((8, -4), 0),
}


@pytest.mark.parametrize(
    "name, mutant, wrong",
    [
        (None, None, {}),
        (
            "intersect",
            # the genus and the twisted degrees are read off intersections too
            lambda S, a, b, f=lattices.intersect: f(S, a, b) + 1,
            {
                "scroll degree (2L - E)^2": 4,
                "curve degree (3L - E).(2L - E)": 6,
                "curve genus": 2,
                "first twisted piece degree (-L + E + p + q)": 1,
                "second twisted piece degree (L - E - p - q)": 1,
            },
        ),
        (
            "adjunction_genus",
            lambda S, C, f=lattices.adjunction_genus: f(S, C) + 1,
            {"curve genus": 2},
        ),
    ],
    ids=["as computed", "intersect", "adjunction_genus"],
)
def test_scroll_case_study_names_each_line_it_computes(name, mutant, wrong, monkeypatch):
    # the class sum reads no kernel, so one of the six lines always holds:
    # the check fails unless every line does
    if name:
        monkeypatch.setattr(lattices, name, mutant)
    result = verify.check_scroll_case_study()
    assert result.ok is (not wrong)
    assert result.detail == "; ".join(
        f"{line}: {wrong.get(line, value)}" for line, value in SCROLL_LINES.items()
    )


@pytest.mark.parametrize(
    "module, name, mutant, detail",
    [
        (
            None,
            None,
            None,
            "(7,4)-cubic: 4 = 4; (8,5)-cubic: 4 = 4; (7,5)-cubic: 10 = 10; "
            "(9,5)-quartic: 10 = 10; (6,2)-scroll-h0: 5 = 5",
        ),
        (
            audits,
            "rr_curve",
            lambda deg, g: deg - g + 2,
            "(7,4)-cubic: 4 != 5; (7,5)-cubic: 10 != 11; (9,5)-quartic: 10 != 12; "
            "(6,2)-scroll-h0: 5 != 6",
        ),
        (audits, "general_bundle_h0", lambda deg, g: deg - g + 2, "(8,5)-cubic: 4 != 5"),
        (
            lattices,
            "h0_rational",
            lambda S, C: 0,
            "(7,4)-cubic: 0 != 4; (8,5)-cubic: 0 != 4; (7,5)-cubic: 0 != 10; "
            "(9,5)-quartic: 0 != 10",
        ),
        (
            lattices,
            "riemann_roch_chi",
            # h0_rational reads chi too, so only the scroll's chi moves
            lambda S, C, f=lattices.riemann_roch_chi, scroll=lattices.SurfaceModel.scroll(): (
                f(S, C) - (S == scroll)
            ),
            "(6,2)-scroll-h0: 4 != 5",
        ),
    ],
    ids=["as computed", "rr_curve", "general_bundle_h0", "h0_rational", "riemann_roch_chi"],
)
def test_restriction_isomorphisms_name_the_sites_that_disagree(
    module, name, mutant, detail, monkeypatch
):
    if module:
        monkeypatch.setattr(module, name, mutant)
    result = verify.check_restriction_isomorphisms()
    assert result.ok is (module is None)
    assert result.detail == detail


README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
STRENGTHS = {"proved", "exhaustive", "box", "anchor"}


def test_the_readme_table_of_strengths_names_every_check_in_run_order():
    with open(README, encoding="utf-8") as file:
        after_header = file.read().split("| Check | Strength | Over |\n| --- | --- | --- |\n")[1]
    rows = [line.split(" | ") for line in after_header.split("\n\n")[0].splitlines()]
    assert [row[0].strip("| `") for row in rows] == [r.id for r in verify.run_all()]
    assert {row[1] for row in rows} == STRENGTHS
