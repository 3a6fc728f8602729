import pytest
from hypothesis import given, strategies as st

from gensect import numerology
from gensect.numerology import BNIndex, interpolation_gates, max_general_hypersurface_degree, rho


def test_rho_values():
    # rational normal curve boundary and direct evaluations
    assert rho(BNIndex(3, 3, 0)) == 0
    assert rho(BNIndex(3, 6, 4)) == 0
    assert rho(BNIndex(4, 8, 5)) == 0
    assert rho(BNIndex(3, 5, 1)) == 5


@given(st.integers(2, 40), st.integers(1, 10**6), st.integers(0, 10**6))
def test_rho_is_its_core(r, d, g):
    assert rho(BNIndex(r, d, g)) == numerology.rho_at(r, d, g)


def test_moduli_dim_values():
    assert numerology.moduli_dim_at(3, 5, 2) == 20
    assert numerology.moduli_dim_at(4, 10, 7) == 44
    # lines in space form a 4-dimensional family
    assert numerology.moduli_dim_at(3, 1, 0) == 4


def test_chi_twisted_normal_anchors():
    assert numerology.chi_twisted_normal_at(3, 7, 2, 1) == 14
    assert numerology.chi_twisted_normal_at(3, 9, 6, 2) == 0
    assert numerology.chi_twisted_normal_at(4, 8, 5, 1) == 12


def test_chi_identities_over_box():
    for d in range(1, 101):
        for g in range(0, 101):
            assert numerology.chi_twisted_normal_at(3, d, g, 1) == 2 * d
            assert numerology.chi_twisted_normal_at(3, d, g, 2) == 0
            assert numerology.chi_twisted_normal_at(4, d, g, 1) == 2 * d - g + 1


def test_chi_untwisted_matches_moduli_shift():
    for r in range(3, 7):
        for d in range(1, 61):
            for g in range(0, 61):
                chi = numerology.chi_twisted_normal_at(r, d, g, 0)
                assert chi == (r + 1) * d + (r - 3) * (1 - g)


def test_moduli_dim_plane_collapse():
    for d in range(1, 101):
        for g in range(0, 101):
            assert numerology.moduli_dim_at(3, d, g) == 4 * d


def test_max_general_hypersurface_degree():
    assert max_general_hypersurface_degree(3) == 2
    assert max_general_hypersurface_degree(4) == 1
    assert max_general_hypersurface_degree(5) == 0
    assert max_general_hypersurface_degree(9) == 0
    # the plane case is fixed by fiat
    assert max_general_hypersurface_degree(2) == 2
    with pytest.raises(ValueError):
        max_general_hypersurface_degree(1)


def test_interpolation_gates():
    assert interpolation_gates(BNIndex(3, 7, 4), 1) is True
    assert interpolation_gates(BNIndex(3, 5, 2), 1) is False
    assert interpolation_gates(BNIndex(4, 6, 2), 1) is False
    for k in (-1, 3):
        with pytest.raises(ValueError):
            interpolation_gates(BNIndex(3, 7, 4), k)


@pytest.mark.parametrize(
    "r, d, g, k, closing",
    [
        (3, 5, 3, 1, 0),  # d = 5 < g + r = 6
        (3, 5, 2, 1, 1),  # an interpolation exception
        (3, 7, 4, 2, 2),  # chi = 0 < (r - 1) g = 8; at k = 1 the gate is open
    ],
)
def test_each_gate_condition_alone_closes_the_gate(r, d, g, k, closing):
    conditions = [
        d >= g + r,
        (d, g, r) not in numerology.INTERPOLATION_EXCEPTIONS,
        numerology.chi_twisted_normal_at(r, d, g, k) >= (r - 1) * g,
    ]
    assert conditions == [index != closing for index in range(3)]
    assert interpolation_gates(BNIndex(r, d, g), k) is False


def test_rho_reduction_examples():
    assert numerology.rho_canonical_reduction_delta_at(3, 9, 8) == 0
    assert numerology.rho_canonical_reduction_delta_at(4, 12, 10) == 0
    assert numerology.rho_canonical_reduction_delta_at(3, 4, 4) == 0


def test_rho_reduction_exhaustive():
    for r in range(3, 7):
        for d in range(r + 1, 61):
            for g in range(r + 1, 61):
                assert numerology.rho_canonical_reduction_delta_at(r, d, g) == 0


def test_low_genus_forces_nonspecial():
    # rho >= 0 and g <= r together force d >= g + r
    for r in range(2, 7):
        for g in range(0, r + 1):
            for d in range(1, 61):
                if rho(BNIndex(r, d, g)) >= 0:
                    assert d >= g + r


def test_index_validation():
    with pytest.raises(ValueError):
        BNIndex(1, 3, 0)
    with pytest.raises(ValueError):
        BNIndex(3, 0, 0)
    with pytest.raises(ValueError):
        BNIndex(3, 3, -1)
