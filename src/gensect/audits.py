"""The ten exceptional cases, and the audits certifying that each is not general.

``EXCEPTIONAL`` is the one table of the exceptional cases: per case (r, n, d,
g) one record holding the case, the number d * n of intersection points, a
description of the intersection, an optional note and the evidence that it
is not general.  The engine reads it directly, and the same record is an
exceptional verdict's descriptor and ``run_audit``'s answer.  Most evidence
counts conditions: the points of intersection lie on (or are cut out by) a
linear system that a general point collection of the same size would
escape.  Two cases tally family dimensions and exhibit a deficit against
the symmetric power of the surface.  One case rests on a cited external
interpolation bound and is recorded as such rather than refabricated.
"""

from ._record import _new, named_fields


def rr_curve(deg: int, g: int) -> int:
    """h^0 of a degree-deg line bundle on a genus-g curve, nonspecial range.

    Valid only for deg > 2g - 2, where Riemann-Roch gives deg - g + 1 on the
    nose; the special range is refused rather than bounded.
    """
    if g < 0:
        raise ValueError(f"genus must be nonnegative, got {g}")
    if deg <= 2 * g - 2:
        raise ValueError(
            f"degree {deg} is in the special range for genus {g}; "
            "Riemann-Roch alone does not determine h^0"
        )
    return deg - g + 1


def general_bundle_h0(deg: int, g: int) -> int:
    """h^0 of a general line bundle of degree deg on a genus-g curve.

    max(0, deg - g + 1): in the special range it is the generality of the
    bundle, not the degree, that kills the other cohomology group.  Use
    rr_curve when the degree alone decides.
    """
    if g < 0:
        raise ValueError(f"genus must be nonnegative, got {g}")
    return max(0, deg - g + 1)


def form_space_dim(ambient: str, degree: int | tuple[int, int]) -> int:
    """Dimension of the space of forms of the given degree on the ambient.

    ``plane``: (m+1)(m+2)/2; ``space``: C(m+3, 3); ``quadric_surface``:
    (a+1)(b+1) for a bidegree (a, b).
    """
    if ambient == "plane":
        m = int(degree)
        return (m + 1) * (m + 2) // 2
    if ambient == "space":
        m = int(degree)
        if m < -3:
            raise ValueError(f"degree must be >= -3, got {m}")
        return (m + 1) * (m + 2) * (m + 3) // 6
    if ambient == "quadric_surface":
        a, b = degree
        return (a + 1) * (b + 1)
    raise ValueError(f"unknown ambient {ambient!r}")


@named_fields
class ConditionCount(tuple):
    """n points against an h0-dimensional system; slack = h0 - n.

    ``comparison`` records the sense of the failure: ``cut_out_by`` means the
    points are the full intersection of members of the system (needs
    n <= h0), ``lies_on`` means the points all lie on one member that a
    general collection of that size would miss (needs n >= h0).
    """

    __slots__ = ()

    def __new__(cls, points: int, h0: int, comparison: str, system: str) -> "ConditionCount":
        return _new(cls, (points, h0, comparison, system))

    @property
    def slack(self) -> int:
        return self.h0 - self.points


@named_fields
class DimensionDeficit(tuple):
    """A labeled family-dimension tally, (label, dimension) pairs, falling
    short of the ambient."""

    __slots__ = ()

    def __new__(
        cls, components: tuple[tuple[str, int], ...], ambient_dim: int
    ) -> "DimensionDeficit":
        return _new(cls, (components, ambient_dim))

    @property
    def total(self) -> int:
        return sum(v for _, v in self.components)


@named_fields
class ExternalFact(tuple):
    """A cited fact used as-is; no local arithmetic reproduces it."""

    __slots__ = ()

    def __new__(cls, citation: str) -> "ExternalFact":
        return _new(cls, (citation,))


Case = tuple[int, int, int, int]


@named_fields
class ExceptionalCase(tuple):
    """The exceptional intersection of ``points`` = d * n points of ``case``:
    what it is, and the evidence (a ``ConditionCount``, ``DimensionDeficit``
    or ``ExternalFact``) that it is not a general collection."""

    __slots__ = ()

    def __new__(
        cls,
        case: Case,
        points: int,
        description: str,
        evidence: ConditionCount | DimensionDeficit | ExternalFact,
        note: str | None = None,
    ) -> "ExceptionalCase":
        return _new(cls, (case, points, description, evidence, note))


def _count(comparison: str, system: str, ambient: str, degree: int | tuple[int, int]):
    """Evidence that the points lie on, or are cut out by, members of a
    system, as a function of the number of points."""
    h0 = form_space_dim(ambient, degree)
    return lambda points: ConditionCount(points, h0, comparison, system)


def _two_nodal_genus_two(points: int) -> DimensionDeficit:
    # The source curve is a two-nodal image of a genus-2 curve; its
    # moduli tally is assembled from individually citable summands.
    genus = 2
    # Each ruling pulls back to a degree-3 pencil; its 2-dimensional
    # section space taken up to scaling contributes 2*2 - 1 = 3.
    bases = 2 * rr_curve(3, genus) - 1
    return DimensionDeficit(
        components=(
            ("moduli of genus-2 curves", 3 * genus - 3),
            ("degree-3 line bundle, first ruling", genus),
            ("degree-3 line bundle, second ruling", genus),
            ("basis up to scaling, first map", bases),
            ("basis up to scaling, second map", bases),
            ("points moving in the fixed linear system", rr_curve(points, genus) - 1),
        ),
        ambient_dim=2 * points,
    )


def _genus_four_residual(points: int) -> DimensionDeficit:
    # the points lie on a curve of bidegree (3, 3), which has genus 4
    return DimensionDeficit(
        components=(
            ("curves of bidegree (3, 3)", form_space_dim("quadric_surface", (3, 3)) - 1),
            ("effective divisors of degree 2", 2),
            ("points moving in the twisted series", rr_curve(points, 4) - 1),
        ),
        ambient_dim=2 * points,
    )


def _row(case: Case, description: str, evidence, note: str | None = None) -> ExceptionalCase:
    """One row of the table; ``evidence`` maps the number of points to the
    evidence that they are not general."""
    r, n, d, _ = case
    points = d * n
    return ExceptionalCase(case, points, description, evidence(points), note)


#: The ten exceptional cases of the theorem.  The engine reads its exceptional
#: cases and verdict descriptors from this table.  All h0 values are
#: recomputed from form_space_dim or rr_curve; the only literals are the case
#: data themselves (bidegrees, genus tallies).
EXCEPTIONAL: dict[Case, ExceptionalCase] = {
    case: _row(case, *rest)
    for case, *rest in (
        (
            (3, 2, 4, 1),
            "the intersection of two general curves of bidegree (2, 2)",
            _count("cut_out_by", "curves of bidegree (2, 2)", "quadric_surface", (2, 2)),
        ),
        (
            (3, 2, 5, 2),
            "a general collection of 10 points on a curve of bidegree (2, 2)",
            _count("lies_on", "curves of bidegree (2, 2)", "quadric_surface", (2, 2)),
        ),
        (
            (3, 2, 6, 2),
            "a general collection of 12 points on a two-nodal curve of bidegree (3, 3), "
            "linearly equivalent to the (2, 2) class on the normalization",
            _two_nodal_genus_two,
        ),
        (
            (3, 2, 6, 4),
            "the intersection of two general curves of bidegrees (2, 2) and (3, 3)",
            _count("lies_on", "curves of bidegree (2, 2)", "quadric_surface", (2, 2)),
        ),
        (
            (3, 2, 7, 5),
            "14 points on a curve of bidegree (3, 3) whose sum, minus the (2, 2) class, "
            "is effective",
            _genus_four_residual,
        ),
        (
            (3, 2, 8, 6),
            "a general collection of 16 points on a curve of bidegree (3, 3)",
            _count("lies_on", "curves of bidegree (3, 3)", "quadric_surface", (3, 3)),
        ),
        (
            (3, 1, 6, 4),
            "a general collection of 6 points on a conic",
            _count("lies_on", "plane conics", "plane", 2),
        ),
        (
            (4, 1, 8, 5),
            "the intersection of three general quadrics",
            _count("cut_out_by", "quadric surfaces", "space", 2),
        ),
        (
            (4, 1, 9, 6),
            "a general collection of 9 points on an elliptic normal curve of degree 4",
            lambda _: ExternalFact(
                "there does not exist an elliptic normal curve in P^3 "
                "passing through 9 general points"
            ),
        ),
        (
            (4, 1, 10, 7),
            "a general collection of 10 points on a quadric",
            _count("lies_on", "quadric surfaces", "space", 2),
            "the 10-points-on-a-quadric description accompanies the label (8, 5) in "
            "the theorem statement; it is assigned to (10, 7) here, matching the "
            "theorem's exceptional list and the 10-point count",
        ),
    )
}

def run_audit(case: Case) -> ExceptionalCase:
    """The exceptional case, with the evidence that it is not general."""
    try:
        return EXCEPTIONAL[case]
    except (KeyError, TypeError):  # TypeError: an unhashable case, such as a list
        raise ValueError(f"unknown audit case {case}") from None


def audit_evidence_problems(report: ExceptionalCase) -> list[str]:
    """Internal consistency of one report (slack sense, ambient dimension)."""
    problems = []
    ev = report.evidence
    if isinstance(ev, ConditionCount):
        if ev.comparison == "cut_out_by" and not ev.points <= ev.h0:
            problems.append(f"{report.case}: cut_out_by needs n <= h0")
        if ev.comparison == "lies_on" and not ev.points >= ev.h0:
            problems.append(f"{report.case}: lies_on needs n >= h0")
    elif isinstance(ev, DimensionDeficit):
        if not ev.total < ev.ambient_dim:
            problems.append(f"{report.case}: family dimension does not fall short")
        if ev.ambient_dim != 2 * report.points:
            problems.append(f"{report.case}: ambient is not Sym^n of a surface")
    return problems
