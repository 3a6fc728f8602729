"""Exact divisor-class arithmetic on polarized surface lattices.

The surfaces that carry the case analysis: blowups of the plane at k <= 6
general points (anticanonically embedded del Pezzo surfaces), the smooth
quadric P^1 x P^1, the cubic scroll (blowup of the plane at one point), and
a rank-2 sextic K3 lattice.  Each is modelled by its integer Gram matrix, a
canonical class vector and named basis elements; divisor classes are integer
coefficient vectors.  Intersection numbers, adjunction, line enumeration,
positivity grades, vanishing certificates and section counts are all exact.

The pairing reads a form worked out once per Gram matrix: the diagonal,
where every entry off it is zero (the del Pezzo and scroll lattices), so a
pairing costs O(rank) steps, else the rows.  The line search skips every
branch that Cauchy-Schwarz shows has no solution below it.  Nothing is
computed at import: the memos fill on first use and are bounded.
"""

from __future__ import annotations

from functools import cache, lru_cache
from math import isqrt
from operator import add, mul, neg, sub

from ._record import _new, named_fields


class LatticeError(ValueError):
    """Malformed class or unsupported surface for the requested operation."""


class CertificateError(LatticeError):
    """A section count was requested for a class with no positivity certificate."""


@named_fields
class DivisorClass(tuple):
    """Integer coefficient vector in the basis of a surface lattice, built
    from any iterable of integers."""

    __slots__ = ()

    def __new__(cls, coeffs) -> DivisorClass:
        return _new(cls, (tuple(map(int, coeffs)),))

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        if not isinstance(other, DivisorClass):
            return NotImplemented  # not the tuple's concatenation
        if len(self.coeffs) != len(other.coeffs):
            raise LatticeError("cannot add classes of different rank")
        return DivisorClass(map(add, self.coeffs, other.coeffs))

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        if not isinstance(other, DivisorClass):
            return NotImplemented
        if len(self.coeffs) != len(other.coeffs):
            raise LatticeError("cannot subtract classes of different rank")
        return DivisorClass(map(sub, self.coeffs, other.coeffs))

    def __neg__(self) -> "DivisorClass":
        return DivisorClass(map(neg, self.coeffs))

    def __rmul__(self, m: int) -> "DivisorClass":
        return DivisorClass(m * a for a in self.coeffs)

    def __mul__(self, other):  # not the tuple's repetition
        return NotImplemented

    def __radd__(self, other):  # NotImplemented would let a tuple concatenate
        raise TypeError(f"cannot add {type(other).__name__} and DivisorClass")


@named_fields
class SurfaceModel(tuple):
    """A polarized integer lattice: Gram matrix, canonical vector, basis names.

    ``kind`` is one of ``del_pezzo`` (blowup of the plane at k points,
    2 <= k <= 6), ``quadric`` (P^1 x P^1), ``scroll`` (blowup at one point,
    embedded by twice a line minus the exceptional curve) or ``polarized``
    (explicit Gram data).  ``kind_tag`` separates rational surfaces from K3s,
    which changes which Riemann-Roch conventions apply.
    """

    __slots__ = ()

    def __new__(
        cls,
        kind: str,
        gram: tuple[tuple[int, ...], ...],
        canonical: tuple[int, ...],
        basis_names: tuple[str, ...],
        kind_tag: str = "rational",
    ) -> SurfaceModel:
        n = len(gram)
        if any(len(row) != n for row in gram):
            raise LatticeError("Gram matrix must be square")
        if len(canonical) != n or len(basis_names) != n:
            raise LatticeError("canonical vector and basis must match the Gram rank")
        for i in range(n):
            for j in range(n):
                if gram[i][j] != gram[j][i]:
                    raise LatticeError("Gram matrix must be symmetric")
        if kind_tag not in ("rational", "k3"):
            raise LatticeError(f"unknown kind tag {kind_tag!r}")
        if kind_tag == "k3" and any(c != 0 for c in canonical):
            raise LatticeError("a K3 lattice has trivial canonical class")
        return _new(cls, (kind, gram, canonical, basis_names, kind_tag))

    @property
    def rank(self) -> int:
        return len(self.gram)

    @classmethod
    @cache
    def del_pezzo(cls, k: int) -> "SurfaceModel":
        """Blowup of the plane at k general points, 2 <= k <= 6.

        Basis L, E1..Ek with Gram diag(1, -1, ..., -1) and canonical class
        -3L + E1 + ... + Ek.  Anticanonically embedded these are the del
        Pezzo surfaces of degree 9 - k.  The model is built once per k.
        """
        if not 2 <= k <= 6:
            raise LatticeError(f"del Pezzo blowup needs 2 <= k <= 6, got {k}")
        n = k + 1
        gram = tuple(
            tuple((1 if i == 0 else -1) if i == j else 0 for j in range(n))
            for i in range(n)
        )
        canonical = (-3,) + (1,) * k
        names = ("L",) + tuple(f"E{i}" for i in range(1, k + 1))
        return cls("del_pezzo", gram, canonical, names)

    @classmethod
    def quadric(cls) -> "SurfaceModel":
        """P^1 x P^1 with the two rulings A, B; classes are bidegrees (a, b)."""
        return cls("quadric", ((0, 1), (1, 0)), (-2, -2), ("A", "B"))

    @classmethod
    def scroll(cls) -> "SurfaceModel":
        """The cubic scroll lattice: blowup of the plane at one point.

        Basis (L, E) with Gram diag(1, -1); the embedding class 2L - E is
        data on this lattice, not part of the model.
        """
        return cls("scroll", ((1, 0), (0, -1)), (-3, 1), ("L", "E"))

    @classmethod
    def polarized(
        cls,
        gram,
        canonical,
        basis_names,
        kind_tag: str = "rational",
    ) -> "SurfaceModel":
        """A general polarized lattice from explicit Gram data: the rows of
        integers, the canonical class's coefficients and the basis names, each
        any iterable."""
        g = tuple(tuple(int(x) for x in row) for row in gram)
        return cls("polarized", g, tuple(int(c) for c in canonical), tuple(basis_names), kind_tag)

    def cls_(self, *coeffs: int) -> DivisorClass:
        """Build a class on this surface, checking the rank."""
        if len(coeffs) != self.rank:
            raise LatticeError(
                f"expected {self.rank} coefficients, got {len(coeffs)}"
            )
        return DivisorClass(tuple(coeffs))

    def canonical_class(self) -> DivisorClass:
        return DivisorClass(self.canonical)


@named_fields
class Positivity(tuple):
    """Numeric positivity grades of a divisor class."""

    __slots__ = ()

    def __new__(cls, nef: bool, big: bool, ample: bool) -> Positivity:
        return _new(cls, (nef, big, ample))


@named_fields
class K3Stats(tuple):
    """Genus, polarized degree and section count of a curve class on a K3."""

    __slots__ = ()

    def __new__(cls, genus: int, degree: int, h0: int) -> K3Stats:
        return _new(cls, (genus, degree, h0))


def _check_class(S: SurfaceModel, c: DivisorClass) -> None:
    if len(c.coeffs) != S.rank:
        raise LatticeError(
            f"class of rank {len(c.coeffs)} on a lattice of rank {S.rank}"
        )


def intersect(S: SurfaceModel, a: DivisorClass, b: DivisorClass) -> int:
    """Gram-bilinear intersection pairing a . b = sum_ij a_i G_ij b_j.

    O(rank) on a diagonal Gram matrix, as every stock lattice but the
    quadric and the K3 has: sum_i a_i G_ii b_i.  Otherwise a . (G b).
    """
    _check_class(S, a)
    _check_class(S, b)
    diagonal = _diagonal(S.gram)
    if diagonal is None:
        return _dot(a.coeffs, [_dot(row, b.coeffs) for row in S.gram])
    return _dot(map(mul, a.coeffs, diagonal), b.coeffs)


@lru_cache(maxsize=32)
def _diagonal(gram: tuple[tuple[int, ...], ...]) -> tuple[int, ...] | None:
    # The pairing form of a Gram matrix, worked out once per matrix: its
    # diagonal if every entry off it is zero, else None (pair with the rows).
    # Bounded, so that many distinct lattices cannot grow it.
    if any(x for i, row in enumerate(gram) for j, x in enumerate(row) if i != j):
        return None
    return tuple(row[i] for i, row in enumerate(gram))


def _dot(u, v) -> int:
    return sum(map(mul, u, v))


def adjunction_genus(S: SurfaceModel, C: DivisorClass) -> int:
    """Arithmetic genus 1 + (C^2 + C.K)/2 of a curve class."""
    _check_class(S, C)
    k = S.canonical_class()
    total = intersect(S, C, C) + intersect(S, C, k)
    if total % 2 != 0:
        raise LatticeError(f"malformed class: C^2 + C.K = {total} is odd")
    return 1 + total // 2


def anticanonical_degree(S: SurfaceModel, C: DivisorClass) -> int:
    """Degree -K.C of the class in the anticanonical embedding."""
    if S.kind_tag != "rational":
        raise LatticeError("anticanonical degree is for rational surfaces; use the polarization on a K3")
    _check_class(S, C)
    return -intersect(S, C, S.canonical_class())


@lru_cache(maxsize=8)
def _lines_for_blowup(k: int) -> frozenset[DivisorClass]:
    # Exhaustive search for c with c^2 = -1 and c.K = -1 on the blowup at k
    # points, c = a L + sum b_i E_i.  The constraints read
    # sum b_i^2 = a^2 + 1 and 3a + sum b_i = 1.  Cauchy-Schwarz gives
    # (1 - 3a)^2 <= k (a^2 + 1), which for k <= 6 forces 0 <= a <= 3.  Both
    # constraints are symmetric in the b_i, so every solution is a
    # permutation of its sorted form b_1 >= ... >= b_k, and a search over
    # sorted tuples that adds the distinct permutations of each one it finds
    # misses nothing.  The search chooses b_1 .. b_{k-1} one at a time, each
    # at most the one before and within what is left of the norm budget
    # a^2 + 1, and solves b_k from the linear constraint.  The m entries
    # still to choose (b_k among them) must have squares summing to the
    # budget left and must sum to need = 1 - 3a - (sum so far), so by
    # Cauchy-Schwarz every completion has need^2 <= m * budget: a branch
    # where that fails has no solution below it and is skipped.  At m = 1
    # the bound is b_k^2 <= budget, and b_k is kept iff it uses up the
    # budget exactly and is at most b_{k-1}.
    found = set()

    def extend(a: int, prefix: tuple[int, ...], budget: int, total: int) -> None:
        need, left = 1 - 3 * a - total, k - len(prefix)
        if need * need > left * budget:
            return
        if left == 1:
            if need * need == budget and need <= prefix[-1]:
                found.update((a, *b) for b in _distinct_permutations(prefix + (need,)))
            return
        bound = isqrt(budget)
        top = min(bound, prefix[-1]) if prefix else bound
        for b in range(-bound, top + 1):
            extend(a, prefix + (b,), budget - b * b, total + b)

    for a in range(0, 4):
        extend(a, (), a * a + 1, 0)
    return frozenset(DivisorClass(v) for v in found)


def _distinct_permutations(values: tuple[int, ...]):
    # Each distinct ordering of a multiset once.  itertools.permutations
    # yields all k! orderings with repeats: 720 for each sorted line at
    # k = 6, where 6, 15 or 6 are distinct.
    if not values:
        yield ()
        return
    for v in set(values):
        i = values.index(v)
        for rest in _distinct_permutations(values[:i] + values[i + 1 :]):
            yield (v, *rest)


def enumerate_lines(S: SurfaceModel) -> frozenset[DivisorClass]:
    """All line classes c (c^2 = -1, c.K = -1) on a del Pezzo blowup.

    Cardinalities are 3, 6, 10, 16, 27 for k = 2..6; classically these are
    the E_i, the L - E_i - E_j, and for k >= 5 the conics 2L through five
    of the points.  The set is built once per k.
    """
    if S.kind != "del_pezzo":
        raise LatticeError("line enumeration is defined on del Pezzo blowups only")
    return _lines_for_blowup(S.rank - 1)


@lru_cache(maxsize=8)
def _line_images(S: SurfaceModel) -> tuple[tuple[DivisorClass, tuple[int, ...]], ...]:
    # Each line with its Gram image G l, sorted by coefficients: C . l is
    # then one dot product with C.  Built once per surface, from its Gram.
    return tuple(
        (line, tuple(_dot(row, line.coeffs) for row in S.gram))
        for line in sorted(enumerate_lines(S), key=lambda l: l.coeffs)
    )


def positivity(S: SurfaceModel, C: DivisorClass) -> Positivity:
    """Nef / big / ample grades of C.

    On a del Pezzo blowup with 2 <= k <= 6 the effective cone is generated
    by the lines, so nef means nonnegative against every line and ample
    means positive against every line with C^2 > 0.  On the quadric the
    grades read off the bidegree.  Other kinds are rejected rather than
    guessed (the scroll's cone involves the square-zero fiber class).
    """
    _check_class(S, C)
    if S.kind == "del_pezzo":
        products = [_dot(C.coeffs, image) for _, image in _line_images(S)]
        nef = all(p >= 0 for p in products)
        square = intersect(S, C, C)
        return Positivity(
            nef=nef,
            big=nef and square > 0,
            ample=all(p > 0 for p in products) and square > 0,
        )
    if S.kind == "quadric":
        a, b = C.coeffs
        nef = a >= 0 and b >= 0
        return Positivity(nef=nef, big=nef and a > 0 and b > 0, ample=a > 0 and b > 0)
    raise LatticeError(f"positivity is not supported on kind {S.kind!r}")


def kv_vanishing_certificate(S: SurfaceModel, B: DivisorClass) -> bool:
    """Higher-cohomology vanishing certificate for B: is B - K nef and big?

    This is the Kawamata-Viehweg criterion; the Kodaira (ample) case is
    subsumed, so sites that only need Kodaira still certify.
    """
    shifted = B - S.canonical_class()
    pos = positivity(S, shifted)
    return pos.nef and pos.big


def riemann_roch_chi(S: SurfaceModel, C: DivisorClass) -> int:
    """chi(O_S(C)) = 1 + (C^2 - C.K)/2 on a rational surface lattice."""
    if S.kind_tag != "rational":
        raise LatticeError("this Riemann-Roch form assumes a rational surface")
    _check_class(S, C)
    k = S.canonical_class()
    total = intersect(S, C, C) - intersect(S, C, k)
    if total % 2 != 0:
        raise LatticeError(f"malformed class: C^2 - C.K = {total} is odd")
    return 1 + total // 2


def _peel_fixed_lines(S: SurfaceModel, C: DivisorClass) -> DivisorClass | None:
    # Strip distinct pairwise-disjoint lines that meet the class negatively:
    # such a line is in the base locus, and removing it does not change h^0.
    # Only the conservative pattern the case analysis needs is accepted: the
    # peeled lines must be mutually disjoint and end up orthogonal to the
    # remaining nef part, which is returned: they contribute no sections.
    lines = _line_images(S)
    peeled: list[tuple[DivisorClass, tuple[int, ...]]] = []
    current = C
    while True:
        negative = [
            (l, image)
            for l, image in lines
            if (l, image) not in peeled and _dot(current.coeffs, image) < 0
        ]
        if not negative:
            break
        line, image = negative[0]
        if any(_dot(line.coeffs, other) != 0 for _, other in peeled):
            return None
        current = current - line
        peeled.append((line, image))
    if not peeled:
        return None
    if not positivity(S, current).nef:
        return None
    if any(_dot(current.coeffs, image) != 0 for _, image in peeled):
        return None
    return current


def h0_rational(S: SurfaceModel, C: DivisorClass) -> int:
    """Section count of O_S(C), computed only under a certificate.

    For a nef class on a del Pezzo blowup or the quadric the higher
    cohomology vanishes and h^0 = chi = 1 + (C^2 - C.K)/2.  A class that is
    a nef class plus disjoint fixed lines counts the nef part only.  Any
    class outside those certificates is refused, never estimated.
    """
    _check_class(S, C)
    if S.kind == "quadric":
        a, b = C.coeffs
        if a >= 0 and b >= 0:
            return (a + 1) * (b + 1)
        raise CertificateError(f"no certificate for bidegree ({a}, {b})")
    if S.kind == "del_pezzo":
        if positivity(S, C).nef:
            return riemann_roch_chi(S, C)
        nef_part = _peel_fixed_lines(S, C)
        if nef_part is not None:
            return riemann_roch_chi(S, nef_part)
        raise CertificateError(
            f"no positivity certificate for class {C.coeffs} on this blowup"
        )
    raise LatticeError(f"h0 is not supported on kind {S.kind!r}")


def k3_stats(S: SurfaceModel, C: DivisorClass, H: DivisorClass) -> K3Stats:
    """Genus, degree and section count of an irreducible curve class on a K3.

    genus = 1 + C^2/2, degree = C.H against the polarization, and
    h^0(O_S(C)) = 1 + genus; irreducibility of C is the caller's assertion.
    """
    if S.kind_tag != "k3":
        raise LatticeError("k3_stats needs a K3 lattice")
    _check_class(S, C)
    _check_class(S, H)
    square = intersect(S, C, C)
    if square % 2 != 0:
        raise LatticeError(f"malformed class: C^2 = {square} is odd on an even lattice")
    genus = 1 + square // 2
    return K3Stats(genus=genus, degree=intersect(S, C, H), h0=1 + genus)


def format_class(S: SurfaceModel, C: DivisorClass) -> str:
    """Render a class in its basis, e.g. ``5L - 2E1 - E2``."""
    _check_class(S, C)
    parts: list[str] = []
    for coeff, name in zip(C.coeffs, S.basis_names):
        if coeff == 0:
            continue
        magnitude = abs(coeff)
        term = name if magnitude == 1 else f"{magnitude}{name}"
        if not parts:
            parts.append(term if coeff > 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if coeff > 0 else f"- {term}")
    return " ".join(parts) if parts else "0"
