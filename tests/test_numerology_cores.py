"""Property test: each public numerology function is its validation plus its
plain-argument core."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from gensect import numerology  # noqa: E402
from gensect.numerology import BNIndex  # noqa: E402

indices = st.builds(
    BNIndex,
    r=st.integers(2, 40),
    d=st.integers(1, 10**6),
    g=st.integers(0, 10**6),
)


@given(indices, st.integers(0, 50))
def test_public_functions_equal_their_cores(ix, k):
    r, d, g = ix.r, ix.d, ix.g
    assert numerology.rho(ix) == numerology.rho_at(r, d, g)
    assert numerology.moduli_dim(ix) == numerology.moduli_dim_at(r, d, g)
    assert numerology.chi_twisted_normal(ix, k) == numerology.chi_twisted_normal_at(r, d, g, k)
    if d > r and g > r:
        assert numerology.rho_canonical_reduction_delta(ix) == (
            numerology.rho_canonical_reduction_delta_at(r, d, g)
        )
    else:
        with pytest.raises(ValueError):
            numerology.rho_canonical_reduction_delta(ix)
