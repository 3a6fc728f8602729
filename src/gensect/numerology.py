"""Closed-form numerology for curves in projective space.

Everything a map f : C -> P^r of degree d from a genus-g curve carries with
it numerically: the Brill-Noether number, the dimension of the space of such
maps, Euler characteristics of twisted normal bundles, and the inequality
gates that decide when a twisted normal bundle interpolates.  All arithmetic
is over Python integers; nothing here is approximate.

Each formula is written once, in a core named ``<name>_at`` that takes plain
values and does no validation; ``rho`` alone also takes a validated
``BNIndex`` and calls its core.  A core uses only +, - and *, so it
evaluates on polynomials too, which is how the verify battery proves the
identities between them for all integers.
"""

from ._record import _new, named_fields

#: (d, g, r) triples whose normal bundle fails interpolation even though the
#: curve is nonspecial.  Each is a degree r+2, genus 2 curve; the vanishing
#: statements they feed still hold, via a separate scroll argument, which is
#: why the classification ledger tags them GenusTwo rather than Interpolation.
INTERPOLATION_EXCEPTIONS = frozenset({(5, 2, 3), (6, 2, 4), (7, 2, 5)})


@named_fields
class BNIndex(tuple):
    """The triple (r, d, g): a degree-d, genus-g curve mapped to P^r."""

    __slots__ = ()

    def __new__(cls, r: int, d: int, g: int) -> "BNIndex":
        if r < 2:
            raise ValueError(f"ambient dimension r must be >= 2, got {r}")
        if d < 1:
            raise ValueError(f"degree d must be >= 1, got {d}")
        if g < 0:
            raise ValueError(f"genus g must be >= 0, got {g}")
        return _new(cls, (r, d, g))


def rho(ix: BNIndex) -> int:
    """Brill-Noether number (r+1)d - rg - r(r+1).

    Nonnegativity is exactly the existence condition for a curve of these
    invariants moving in a family dominating the moduli of curves.
    """
    return rho_at(ix.r, ix.d, ix.g)


def rho_at(r, d, g):
    """``rho`` on plain values, unchecked."""
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


def moduli_dim_at(r, d, g):
    """Dimension (r+1)d - (r-3)(g-1) of the space of such maps; 4d if r = 3."""
    return (r + 1) * d - (r - 3) * (g - 1)


def chi_twisted_normal_at(r, d, g, k):
    """Euler characteristic of the normal bundle twisted down k >= 0 times.

    For an unramified f : C -> P^r the normal bundle has rank r - 1 and
    determinant K_C + (r+1)H, so Riemann-Roch gives chi = (r+1)d + 2g - 2 -
    k(r-1)d + (r-1)(1-g): the anchors 2d and 0 at r = 3, k = 1, 2, and
    2d - g + 1 at r = 4, k = 1.
    """
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


def interpolation_gates(ix: BNIndex, k: int) -> bool:
    """The combined numeric gate for H^1(N_f(-k)) = 0 via interpolation.

    True iff d >= g + r (a general such curve is nonspecial), (d, g, r) is
    not in ``INTERPOLATION_EXCEPTIONS``, and chi_twisted_normal_at(r, d, g, k)
    >= (r - 1) * g: an interpolating bundle twisted with that much Euler
    characteristic left, rank times genus, keeps H^1 = 0.
    """
    if k not in (0, 1, 2):
        raise ValueError(f"gate twist k must be 0, 1 or 2, got {k}")
    r, d, g = ix
    return (
        d >= g + r
        and (d, g, r) not in INTERPOLATION_EXCEPTIONS
        and chi_twisted_normal_at(r, d, g, k) >= (r - 1) * g
    )


def rho_canonical_reduction_delta_at(r, d, g):
    """rho(d - r, g - r - 1, r) - rho(d, g, r), identically zero: peeling a
    rational normal curve off a curve of genus g > r leaves rho unchanged."""
    return rho_at(r, d - r, g - r - 1) - rho_at(r, d, g)
