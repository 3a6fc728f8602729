"""Cohomology of the Grassmannian of lines G(1, n) on two-row partitions.

Classes sigma_{a,b} with n-1 >= a >= b >= 0 span the Chow ring of G(1, n);
multiplication is generated by the special classes sigma_p through the
horizontal-strip Pieri rule, with general products reduced to Pieri steps by
the two-row determinantal identity sigma_{a,b} = sigma_a sigma_b -
sigma_{a+1} sigma_{b-1}.  This is just enough calculus to evaluate the
incidence counts the classification needs, and the module is its own oracle:
no multiplication table is hard-coded.
"""

from __future__ import annotations

from ._record import _new, named_fields


class SchubertError(ValueError):
    """Invalid partition, twist or ambient mismatch."""


def _check_partition(n: int, a: int, b: int) -> None:
    if not (n - 1 >= a >= b >= 0):
        raise SchubertError(f"({a}, {b}) is not a two-row partition for G(1, {n})")


@named_fields
class SchubertCycle(tuple):
    """An integer combination of two-row Schubert classes in G(1, n).

    Built from any iterable of (partition, coefficient) pairs, such as a
    dict's items; ``terms`` holds the sorted pairs of nonzero coefficients,
    with repeated partitions summed and zero coefficients dropped.
    """

    __slots__ = ()

    def __new__(cls, ambient_n: int, terms) -> SchubertCycle:
        if ambient_n < 2:
            raise SchubertError(f"ambient n must be >= 2, got {ambient_n}")
        cleaned = {}
        for (a, b), coeff in terms:
            _check_partition(ambient_n, a, b)
            if coeff:
                cleaned[(a, b)] = cleaned.get((a, b), 0) + coeff
        normalized = tuple(
            sorted(((part, coeff) for part, coeff in cleaned.items() if coeff))
        )
        return _new(cls, (ambient_n, normalized))

    @classmethod
    def identity(cls, n: int) -> "SchubertCycle":
        return cls(n, {(0, 0): 1}.items())

    def __add__(self, other):  # not the tuple's concatenation or repetition
        return NotImplemented

    __mul__ = __rmul__ = __add__

    def __radd__(self, other):  # NotImplemented would let a tuple concatenate
        raise TypeError(f"cannot add {type(other).__name__} and SchubertCycle")


def sigma(n: int, a: int, b: int = 0) -> SchubertCycle:
    """The Schubert class sigma_{a,b} in G(1, n)."""
    _check_partition(n, a, b)
    return SchubertCycle(n, {(a, b): 1}.items())


def _pieri(n: int, p: int, terms: dict[tuple[int, int], int]) -> dict[tuple[int, int], int]:
    # Horizontal strips of size p on each (a, b): the partitions (a2, b2) with
    # a2 + b2 = a + b + p, a2 >= a >= b2 >= b and a2 <= n - 1, one per b2 in
    # the closed range below.  It is empty once p > n - 1 (sigma_p = 0) and
    # p = 0 is the identity.  Zero coefficients are left for the caller.
    out: dict[tuple[int, int], int] = {}
    for (a, b), coeff in terms.items():
        size = a + b + p
        for b2 in range(max(b, size - n + 1), min(a, b + p) + 1):
            part = (size - b2, b2)
            out[part] = out.get(part, 0) + coeff
    return out


def multiply(c1: SchubertCycle, c2: SchubertCycle) -> SchubertCycle:
    """Bilinear product of cycles; associative and commutative.

    Each sigma_{a,b} factor is expanded as sigma_a sigma_b -
    sigma_{a+1} sigma_{b-1} and evaluated through Pieri steps into one dict.
    """
    if c1.ambient_n != c2.ambient_n:
        raise SchubertError("ambient mismatch")
    n = c1.ambient_n
    left = dict(c1.terms)
    total: dict[tuple[int, int], int] = {}
    for (a, b), coeff in c2.terms:
        expansion = [(coeff, _pieri(n, b, _pieri(n, a, left)))]
        if b:
            expansion.append((-coeff, _pieri(n, b - 1, _pieri(n, a + 1, left))))
        for sign, terms in expansion:
            for part, k in terms.items():
                total[part] = total.get(part, 0) + sign * k
    return SchubertCycle(n, total.items())


def top_degree(c: SchubertCycle) -> int:
    """Coefficient of the point class sigma_{n-1,n-1}."""
    n = c.ambient_n
    return dict(c.terms).get((n - 1, n - 1), 0)


def format_cycle(c: SchubertCycle) -> str:
    """Render a cycle as ``s[3,1] + s[2,2]``; the zero cycle prints ``0``."""
    if not c.terms:
        return "0"
    parts = []
    for (a, b), coeff in sorted(c.terms, reverse=True):
        if (a, b) == (0, 0):
            name = "1"
        elif b == 0:
            name = f"s[{a}]"
        else:
            name = f"s[{a},{b}]"
        if coeff == 1 and name != "1":
            body = name
        elif name == "1":
            body = str(abs(coeff)) if abs(coeff) != 1 else "1"
        else:
            body = f"{abs(coeff)} {name}"
        if not parts:
            parts.append(body if coeff > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(parts)
