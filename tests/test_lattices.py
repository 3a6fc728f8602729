import itertools
import random

import pytest
from hypothesis import example, given, strategies as st

from gensect.lattices import (
    CertificateError,
    DivisorClass,
    LatticeError,
    SurfaceModel,
    adjunction_genus,
    anticanonical_degree,
    enumerate_lines,
    format_class,
    h0_rational,
    intersect,
    k3_stats,
    kv_vanishing_certificate,
    positivity,
    riemann_roch_chi,
)

DP6 = SurfaceModel.del_pezzo(6)
DP5 = SurfaceModel.del_pezzo(5)
QUADRIC = SurfaceModel.quadric()
SCROLL = SurfaceModel.scroll()
K3 = SurfaceModel.polarized(((6, 4), (4, -2)), (0, 0), ("H", "R"), kind_tag="k3")


def classical_line_set(k):
    # Independent oracle: the classical line classes, built combinatorially.
    lines = set()
    for i in range(k):
        coeffs = [0] * (k + 1)
        coeffs[1 + i] = 1
        lines.add(tuple(coeffs))
    for i, j in itertools.combinations(range(k), 2):
        coeffs = [1] + [0] * k
        coeffs[1 + i] = coeffs[1 + j] = -1
        lines.add(tuple(coeffs))
    if k >= 5:
        for combo in itertools.combinations(range(k), 5):
            coeffs = [2] + [0] * k
            for i in combo:
                coeffs[1 + i] = -1
            lines.add(tuple(coeffs))
    return lines


# -- pairing and adjunction ----------------------------------------------------


def test_intersection_examples():
    L = DP6.cls_(1, 0, 0, 0, 0, 0, 0)
    assert intersect(DP6, L, L) == 1
    quintic = DP6.cls_(5, -2, -2, -1, -1, -1, -1)
    assert intersect(DP6, quintic, -DP6.canonical_class()) == 7
    hyperplane = SCROLL.cls_(2, -1)
    assert intersect(SCROLL, hyperplane, hyperplane) == 3


def test_intersection_symmetry_randomized():
    rng = random.Random(7)
    for S in (DP6, DP5, QUADRIC, SCROLL, K3):
        for _ in range(25):
            a = S.cls_(*[rng.randint(-4, 4) for _ in range(S.rank)])
            b = S.cls_(*[rng.randint(-4, 4) for _ in range(S.rank)])
            assert intersect(S, a, b) == intersect(S, b, a)


def test_intersection_rank_mismatch():
    with pytest.raises(LatticeError):
        intersect(DP6, DP6.cls_(1, 0, 0, 0, 0, 0, 0), DivisorClass((1, 0)))


SMALL = st.integers(-6, 6)


def classes(rank):
    return st.lists(SMALL, min_size=rank, max_size=rank).map(DivisorClass)


@st.composite
def symmetric_lattices(draw):
    # diagonal half the time: intersect pairs a diagonal Gram matrix by its
    # diagonal alone, and a random one is almost never diagonal
    rank = draw(st.integers(1, 7))
    diagonal = draw(st.booleans())
    upper = {
        (i, j): draw(SMALL) if i == j or not diagonal else 0
        for i in range(rank)
        for j in range(i, rank)
    }
    gram = [[upper[min(i, j), max(i, j)] for j in range(rank)] for i in range(rank)]
    return SurfaceModel.polarized(gram, [0] * rank, [f"e{i}" for i in range(rank)])


@given(symmetric_lattices().flatmap(lambda S: st.tuples(
    st.just(S), classes(S.rank), classes(S.rank), classes(S.rank), SMALL
)))
def test_intersect_is_the_symmetric_bilinear_gram_form(drawn):
    S, a, b, c, m = drawn
    explicit = sum(
        a.coeffs[i] * S.gram[i][j] * b.coeffs[j] for i in range(S.rank) for j in range(S.rank)
    )
    assert intersect(S, a, b) == explicit == intersect(S, b, a)
    assert intersect(S, a + c, b) == intersect(S, a, b) + intersect(S, c, b)
    assert intersect(S, m * a, b) == m * intersect(S, a, b)


@given(symmetric_lattices(), st.integers(1, 8), st.data())
def test_intersect_rejects_a_class_of_another_rank(S, other_rank, data):
    if other_rank == S.rank:
        other_rank += 1
    good, bad = data.draw(classes(S.rank)), data.draw(classes(other_rank))
    for a, b in ((good, bad), (bad, good), (bad, bad)):
        with pytest.raises(LatticeError):
            intersect(S, a, b)


def test_adjunction_genus_examples():
    assert adjunction_genus(DP6, DP6.cls_(5, -2, -2, -1, -1, -1, -1)) == 4
    assert adjunction_genus(QUADRIC, QUADRIC.cls_(3, 3)) == 4
    assert adjunction_genus(QUADRIC, QUADRIC.cls_(1, 0)) == 0
    assert adjunction_genus(DP5, DP5.cls_(6, -1, -2, -2, -2, -2)) == 6


def test_adjunction_parity_rejected():
    odd = SurfaceModel.polarized(((1,),), (0,), ("H",), kind_tag="rational")
    with pytest.raises(LatticeError):
        adjunction_genus(odd, odd.cls_(1))


def test_anticanonical_degree_examples():
    assert anticanonical_degree(DP6, DP6.cls_(5, -2, -1, -1, -1, -1, -1)) == 8
    assert anticanonical_degree(DP5, DP5.cls_(5, -2, -1, -1, -1, -1)) == 9
    assert anticanonical_degree(DP6, -DP6.canonical_class()) == 3
    with pytest.raises(LatticeError):
        anticanonical_degree(K3, K3.cls_(1, 0))


# -- lines ---------------------------------------------------------------------


def test_line_enumeration_matches_classical_oracle():
    for k in range(2, 7):
        S = SurfaceModel.del_pezzo(k)
        found = {c.coeffs for c in enumerate_lines(S)}
        assert found == classical_line_set(k)


def brute_force_line_set(k):
    # Independent oracle, with no sorting and no pruning: every a in 0..3 and
    # b_1..b_{k-1} in -3..3, b_k solved from 3a + sum b = 1, kept if c^2 = -1.
    lines = set()
    for a in range(0, 4):
        for head in itertools.product(range(-3, 4), repeat=k - 1):
            b = (*head, 1 - 3 * a - sum(head))
            if a * a - sum(x * x for x in b) == -1:
                lines.add((a, *b))
    return lines


@pytest.mark.parametrize("k", range(2, 7))
def test_line_enumeration_matches_brute_force(k):
    S = SurfaceModel.del_pezzo(k)
    assert {c.coeffs for c in enumerate_lines(S)} == brute_force_line_set(k)


def test_line_counts():
    expected = {2: 3, 3: 6, 4: 10, 5: 16, 6: 27}
    for k, count in expected.items():
        assert len(enumerate_lines(SurfaceModel.del_pezzo(k))) == count


def test_k2_lines_by_hand():
    S = SurfaceModel.del_pezzo(2)
    assert {c.coeffs for c in enumerate_lines(S)} == {
        (0, 1, 0),
        (0, 0, 1),
        (1, -1, -1),
    }


def test_every_line_is_a_line():
    for k in range(2, 7):
        S = SurfaceModel.del_pezzo(k)
        for line in enumerate_lines(S):
            assert adjunction_genus(S, line) == 0
            assert anticanonical_degree(S, line) == 1


def test_line_set_closed_under_point_permutations():
    for k in (3, 5, 6):
        S = SurfaceModel.del_pezzo(k)
        lines = {c.coeffs for c in enumerate_lines(S)}
        rng = random.Random(k)
        for _ in range(5):
            perm = list(range(k))
            rng.shuffle(perm)
            permuted = {
                (c[0],) + tuple(c[1 + perm[i]] for i in range(k)) for c in lines
            }
            assert permuted == lines


# -- positivity and vanishing --------------------------------------------------


def test_positivity_anticanonical_is_ample():
    pos = positivity(DP6, -DP6.canonical_class())
    assert pos.nef and pos.big and pos.ample


def test_positivity_nef_not_ample():
    # meets the line L - E1 - E2 in zero and squares to 2
    C = DP6.cls_(6, -3, -3, -2, -2, -2, -2)
    assert intersect(DP6, C, C) == 2
    pos = positivity(DP6, C)
    assert pos.nef and pos.big and not pos.ample


def test_positivity_quadric():
    assert not positivity(QUADRIC, QUADRIC.cls_(0, -1)).nef
    pos = positivity(QUADRIC, QUADRIC.cls_(2, 1))
    assert pos.nef and pos.big and pos.ample
    ruling = positivity(QUADRIC, QUADRIC.cls_(1, 0))
    assert ruling.nef and not ruling.big


@given(st.integers(2, 6).flatmap(lambda k: st.tuples(
    st.just(k), st.integers(0, 9), st.lists(st.integers(-3, 1), min_size=k, max_size=k)
)))
@example((6, 3, [-1] * 6))  # the anticanonical class: ample
@example((6, 6, [-3, -3, -2, -2, -2, -2]))  # nef and big, not ample
def test_positivity_is_its_definition_against_every_line(drawn):
    k, a, b = drawn
    S = SurfaceModel.del_pezzo(k)
    C = S.cls_(a, *b)
    products = [intersect(S, C, line) for line in enumerate_lines(S)]
    square = intersect(S, C, C)
    nef = all(p >= 0 for p in products)
    assert positivity(S, C) == (
        nef, nef and square > 0, all(p > 0 for p in products) and square > 0
    )


def test_positivity_rejects_scroll_and_k3():
    with pytest.raises(LatticeError):
        positivity(SCROLL, SCROLL.cls_(2, -1))
    with pytest.raises(LatticeError):
        positivity(K3, K3.cls_(1, 0))


KV_BUNDLES = [
    (DP6, (3, -2, -2, -1, -1, -1, -1)),
    (DP6, (6, -3, -2, -2, -2, -2, -2)),
    (DP6, (3, -2, -1, -1, -1, -1, -1)),
    (DP5, (2, -1, 0, -1, -1, -1)),
    (DP5, (3, -2, -1, -1, -1, -1)),
    (QUADRIC, (0, -1)),
]


def test_kv_certificates_for_cited_bundles():
    for S, coeffs in KV_BUNDLES:
        assert kv_vanishing_certificate(S, DivisorClass(coeffs))


def test_kv_shifted_class_details():
    # the first cited bundle shifts to a nef class of square 2
    B = DP6.cls_(3, -2, -2, -1, -1, -1, -1)
    shifted = B - DP6.canonical_class()
    assert shifted.coeffs == (6, -3, -3, -2, -2, -2, -2)
    assert intersect(DP6, shifted, shifted) == 2


def test_kv_stable_under_nef_addition():
    rng = random.Random(11)
    nef_classes = []
    while len(nef_classes) < 8:
        C = DP6.cls_(*[rng.randint(0, 3)] + [rng.randint(-2, 0) for _ in range(6)])
        if positivity(DP6, C).nef:
            nef_classes.append(C)
    for S, coeffs in KV_BUNDLES:
        if S is not DP6:
            continue
        B = DivisorClass(coeffs)
        for N in nef_classes:
            assert kv_vanishing_certificate(S, B + N)


# -- section counts ------------------------------------------------------------


def test_h0_table():
    anticanonical = -DP6.canonical_class()
    assert h0_rational(DP6, 2 * anticanonical) == 10
    assert h0_rational(DP6, anticanonical) == 4
    assert h0_rational(DP6, DP6.cls_(6, -1, -2, -2, -2, -2, -2)) == 12
    assert h0_rational(DP6, DP6.cls_(6, -1, -1, -2, -2, -2, -2)) == 14
    assert h0_rational(DP5, DP5.cls_(6, -1, -2, -2, -2, -2)) == 15
    assert h0_rational(DP5, DP5.cls_(3, 0, -1, -1, -1, -1)) == 6
    assert h0_rational(QUADRIC, QUADRIC.cls_(3, 2)) == 12
    assert h0_rational(QUADRIC, QUADRIC.cls_(3, 3)) == 16
    assert h0_rational(QUADRIC, QUADRIC.cls_(1, 0)) == 2


def test_h0_anticanonical_embedding_dimension():
    # the cubic surface lives in P^3
    assert h0_rational(DP6, -DP6.canonical_class()) - 1 == 3


def test_h0_fixed_part_cases():
    e1 = DP6.cls_(0, 1, 0, 0, 0, 0, 0)
    e2 = DP6.cls_(0, 0, 1, 0, 0, 0, 0)
    assert h0_rational(DP6, e1) == 1
    assert h0_rational(DP6, e1 + e2) == 1


def test_h0_refuses_uncertified():
    with pytest.raises(CertificateError):
        h0_rational(DP6, -DP6.cls_(0, 1, 0, 0, 0, 0, 0))
    with pytest.raises(CertificateError):
        h0_rational(QUADRIC, QUADRIC.cls_(-1, 2))
    with pytest.raises(LatticeError):
        h0_rational(SCROLL, SCROLL.cls_(2, -1))


def test_riemann_roch_chi_scroll_hyperplane():
    assert riemann_roch_chi(SCROLL, SCROLL.cls_(2, -1)) == 5


# -- K3 and scroll -------------------------------------------------------------


def test_k3_stats():
    H, R = K3.cls_(1, 0), K3.cls_(0, 1)
    hr = k3_stats(K3, H + R, H)
    assert (hr.genus, hr.degree, hr.h0) == (7, 10, 8)
    r_only = k3_stats(K3, R, H)
    assert (r_only.genus, r_only.h0) == (0, 1)
    h_only = k3_stats(K3, H, H)
    assert (h_only.genus, h_only.degree, h_only.h0) == (4, 6, 5)
    with pytest.raises(LatticeError):
        k3_stats(DP6, DP6.cls_(1, 0, 0, 0, 0, 0, 0), DP6.cls_(1, 0, 0, 0, 0, 0, 0))


def test_scroll_class_additivity_with_point_bookkeeping():
    first, first_shift = SCROLL.cls_(3, -1), +2
    second, second_shift = SCROLL.cls_(5, -3), -2
    assert (first + second).coeffs == (8, -4)
    assert first_shift + second_shift == 0


# -- model validation and formatting ---------------------------------------


def test_surface_model_validation():
    with pytest.raises(LatticeError):
        SurfaceModel.del_pezzo(1)
    with pytest.raises(LatticeError):
        SurfaceModel.del_pezzo(7)
    with pytest.raises(LatticeError):
        SurfaceModel.polarized(((0, 1), (2, 0)), (0, 0), ("A", "B"))
    with pytest.raises(LatticeError):
        SurfaceModel.polarized(((2,),), (1,), ("H",), kind_tag="k3")


def test_format_class():
    assert format_class(DP6, DP6.cls_(5, -2, -2, -1, -1, -1, -1)) == (
        "5L - 2E1 - 2E2 - E3 - E4 - E5 - E6"
    )
    assert format_class(SCROLL, SCROLL.cls_(2, -1)) == "2L - E"
    assert format_class(QUADRIC, QUADRIC.cls_(0, 0)) == "0"
