"""Closed-form numerology for curves in projective space.

Everything a map f : C -> P^r of degree d from a genus-g curve carries with
it numerically: the Brill-Noether number, the dimension of the space of such
maps, Euler characteristics of twisted normal bundles, and the inequality
gates that decide when a twisted normal bundle interpolates.  All arithmetic
is over Python integers; nothing here is approximate.
"""

from __future__ import annotations

from dataclasses import dataclass

#: (d, g, r) triples whose normal bundle fails interpolation even though the
#: curve is nonspecial.  Each is a degree r+2, genus 2 curve; the vanishing
#: statements they feed still hold, via a separate scroll argument, which is
#: why the classification ledger tags them GenusTwo rather than Interpolation.
INTERPOLATION_EXCEPTIONS = frozenset({(5, 2, 3), (6, 2, 4), (7, 2, 5)})


@dataclass(frozen=True)
class BNIndex:
    """The triple (r, d, g): a degree-d, genus-g curve mapped to P^r."""

    r: int
    d: int
    g: int

    def __post_init__(self) -> None:
        if self.r < 2:
            raise ValueError(f"ambient dimension r must be >= 2, got {self.r}")
        if self.d < 1:
            raise ValueError(f"degree d must be >= 1, got {self.d}")
        if self.g < 0:
            raise ValueError(f"genus g must be >= 0, got {self.g}")


@dataclass(frozen=True)
class TwistSpec:
    """A normal-bundle twist k together with the hypersurface degree n.

    The intersection of a curve with a degree-n hypersurface is controlled by
    the twist k = n, but the two play distinct roles in the inequality gates,
    so they are carried separately.
    """

    k: int
    n: int

    def __post_init__(self) -> None:
        if self.k < 0:
            raise ValueError(f"twist k must be >= 0, got {self.k}")
        if self.n < 1:
            raise ValueError(f"hypersurface degree n must be >= 1, got {self.n}")

    @classmethod
    def for_hypersurface(cls, n: int) -> "TwistSpec":
        """The twist matching a degree-n hypersurface section."""
        return cls(k=n, n=n)


def rho(ix: BNIndex) -> int:
    """Brill-Noether number (r+1)d - rg - r(r+1).

    Nonnegativity is exactly the existence condition for a curve of these
    invariants moving in a family dominating the moduli of curves.
    """
    r, d, g = ix.r, ix.d, ix.g
    return (r + 1) * d - r * g - r * (r + 1)


def domain_floor(r: int, g: int) -> int:
    """The least d with rho(d, g, r) >= 0, for r >= 2 and g >= 0."""
    return -(-r * (g + r + 1) // (r + 1))


def in_domain(r: int, d: int, g: int) -> bool:
    """r >= 2, d >= 1, g >= 0 and rho(d, g, r) >= 0: a general such curve exists.

    Closed form, so it is total where BNIndex raises; the floor is at least
    r, so d >= 1 needs no separate test.
    """
    return r >= 2 and g >= 0 and d >= domain_floor(r, g)


def moduli_dim(ix: BNIndex) -> int:
    """Dimension (r+1)d - (r-3)(g-1) of the space of such maps.

    For r = 3 this collapses to 4d, independent of the genus.
    """
    r, d, g = ix.r, ix.d, ix.g
    return (r + 1) * d - (r - 3) * (g - 1)


def chi_twisted_normal(ix: BNIndex, k: int) -> int:
    """Euler characteristic of the normal bundle twisted down k times.

    For an unramified f : C -> P^r the normal bundle has rank r - 1 and
    determinant K_C + (r+1)H, so deg N_f(-k) = (r+1)d + 2g - 2 - k(r-1)d and
    Riemann-Roch gives chi = deg + (r-1)(1-g).  At k = 1, 2 this reproduces
    the anchor values 2d (r = 3), 0 (r = 3) and 2d - g + 1 (r = 4).
    """
    if k < 0:
        raise ValueError(f"twist k must be >= 0, got {k}")
    r, d, g = ix.r, ix.d, ix.g
    degree = (r + 1) * d + 2 * (g - 1) - k * (r - 1) * d
    return degree + (r - 1) * (1 - g)


def max_general_hypersurface_degree(r: int) -> int:
    """Largest hypersurface degree n for which generality is possible.

    For r >= 3 this is floor((3r+3)/(r^2-r)); the value 0 means no degree
    qualifies.  The plane case r = 2 is special (the hypersurface itself must
    be rational) and returns the fixed value 2.
    """
    if r < 2:
        raise ValueError(f"ambient dimension r must be >= 2, got {r}")
    if r == 2:
        return 2
    return (3 * r + 3) // (r * r - r)


def is_nonspecial_range(ix: BNIndex) -> bool:
    """d >= g + r: the hyperplane series of a general such curve is nonspecial."""
    return ix.d >= ix.g + ix.r


def is_interpolation_exception(ix: BNIndex) -> bool:
    """Whether (d, g, r) is one of the three known interpolation failures."""
    return (ix.d, ix.g, ix.r) in INTERPOLATION_EXCEPTIONS


def twist_chi_bound_holds(ix: BNIndex, k: int) -> bool:
    """chi(N_f(-k)) >= (rank N_f) * g, the sufficient bound for twisting.

    A bundle satisfying interpolation keeps satisfying it after a twist that
    leaves this much Euler characteristic; in particular its H^1 vanishes.
    """
    return chi_twisted_normal(ix, k) >= (ix.r - 1) * ix.g


def interpolation_gates(ix: BNIndex, k: int) -> bool:
    """The combined numeric gate for H^1(N_f(-k)) = 0 via interpolation.

    True iff the curve is in the nonspecial range, is not one of the three
    interpolation exceptions, and the twist bound leaves enough sections.
    The three sub-conditions are exposed individually for trace reporting.
    """
    if k not in (0, 1, 2):
        raise ValueError(f"gate twist k must be 0, 1 or 2, got {k}")
    return (
        is_nonspecial_range(ix)
        and not is_interpolation_exception(ix)
        and twist_chi_bound_holds(ix, k)
    )


def rho_canonical_reduction_delta(ix: BNIndex) -> int:
    """rho(d - r, g - r - 1, r) - rho(d, g, r); identically zero.

    Peeling a rational normal curve off a curve of genus g > r leaves these
    invariants, and the Brill-Noether number is unchanged.  The difference is
    returned (rather than asserted) so sweeps can check the identity.
    """
    r, d, g = ix.r, ix.d, ix.g
    if d <= r or g <= r:
        raise ValueError(f"reduction needs d > r and g > r, got (r={r}, d={d}, g={g})")
    return rho(BNIndex(r, d - r, g - r - 1)) - rho(ix)
