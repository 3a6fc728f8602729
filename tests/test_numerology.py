import pytest

from gensect.numerology import (
    BNIndex,
    chi_twisted_normal,
    interpolation_gates,
    is_interpolation_exception,
    is_nonspecial_range,
    max_general_hypersurface_degree,
    moduli_dim,
    rho,
    rho_canonical_reduction_delta,
    twist_chi_bound_holds,
)


def test_rho_values():
    # rational normal curve boundary and direct evaluations
    assert rho(BNIndex(3, 3, 0)) == 0
    assert rho(BNIndex(3, 6, 4)) == 0
    assert rho(BNIndex(4, 8, 5)) == 0
    assert rho(BNIndex(3, 5, 1)) == 5


def test_moduli_dim_values():
    assert moduli_dim(BNIndex(3, 5, 2)) == 20
    assert moduli_dim(BNIndex(4, 10, 7)) == 44
    # lines in space form a 4-dimensional family
    assert moduli_dim(BNIndex(3, 1, 0)) == 4


def test_chi_twisted_normal_anchors():
    assert chi_twisted_normal(BNIndex(3, 7, 2), 1) == 14
    assert chi_twisted_normal(BNIndex(3, 9, 6), 2) == 0
    assert chi_twisted_normal(BNIndex(4, 8, 5), 1) == 12


def test_chi_identities_over_box():
    for d in range(1, 101):
        for g in range(0, 101):
            ix = BNIndex(3, d, g)
            assert chi_twisted_normal(ix, 1) == 2 * d
            assert chi_twisted_normal(ix, 2) == 0
            assert chi_twisted_normal(BNIndex(4, d, g), 1) == 2 * d - g + 1


def test_chi_untwisted_matches_moduli_shift():
    for r in range(3, 7):
        for d in range(1, 61):
            for g in range(0, 61):
                ix = BNIndex(r, d, g)
                assert chi_twisted_normal(ix, 0) == (r + 1) * d + (r - 3) * (1 - g)


def test_moduli_dim_plane_collapse():
    for d in range(1, 101):
        for g in range(0, 101):
            assert moduli_dim(BNIndex(3, d, g)) == 4 * d


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
    with pytest.raises(ValueError):
        interpolation_gates(BNIndex(3, 7, 4), 3)


def test_gate_subconditions_exposed():
    special = BNIndex(3, 5, 3)
    assert not is_nonspecial_range(special)
    assert is_nonspecial_range(BNIndex(3, 7, 4))
    assert is_interpolation_exception(BNIndex(3, 5, 2))
    assert not is_interpolation_exception(BNIndex(3, 6, 2))
    assert twist_chi_bound_holds(BNIndex(3, 7, 4), 1)  # 14 >= 8
    assert not twist_chi_bound_holds(BNIndex(3, 7, 8), 2)  # 0 < 16


def test_rho_reduction_examples():
    assert rho_canonical_reduction_delta(BNIndex(3, 9, 8)) == 0
    assert rho_canonical_reduction_delta(BNIndex(4, 12, 10)) == 0
    assert rho_canonical_reduction_delta(BNIndex(3, 4, 4)) == 0
    with pytest.raises(ValueError):
        rho_canonical_reduction_delta(BNIndex(3, 3, 5))
    with pytest.raises(ValueError):
        rho_canonical_reduction_delta(BNIndex(3, 5, 3))


def test_rho_reduction_exhaustive():
    for r in range(3, 7):
        for d in range(r + 1, 61):
            for g in range(r + 1, 61):
                assert rho_canonical_reduction_delta(BNIndex(r, d, g)) == 0


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
    with pytest.raises(ValueError):
        chi_twisted_normal(BNIndex(3, 3, 0), -1)
