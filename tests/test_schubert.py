import random
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from gensect.schubert import (
    SchubertCycle,
    SchubertError,
    format_cycle,
    multiply,
    sigma,
    top_degree,
)


def all_partitions(n):
    return [(a, b) for a in range(n) for b in range(a + 1)]


def test_pieri_basic():
    # sigma_1^2 in G(1,3): two ways to add one box
    got = multiply(sigma(3, 1), sigma(3, 1))
    assert dict(got.terms) == {(2, 0): 1, (1, 1): 1}


def test_pieri_column_obstruction():
    # both added boxes would share a column with the full second row
    assert not multiply(sigma(4, 2, 2), sigma(4, 2)).terms


def test_pieri_unique_strip():
    assert dict(multiply(sigma(4, 3, 1), sigma(4, 2)).terms) == {(3, 3): 1}


def test_multiply_examples():
    got = multiply(sigma(4, 2), sigma(4, 2))
    assert dict(got.terms) == {(3, 1): 1, (2, 2): 1}
    # identity acts trivially
    c = multiply(sigma(4, 2), sigma(4, 1, 1))
    assert dict(multiply(SchubertCycle.identity(4), c).terms) == dict(c.terms)
    # lines in the planes of a pencil
    assert dict(multiply(sigma(3, 1, 1), sigma(3, 1, 1)).terms) == {(2, 2): 1}


def test_multiply_ambient_mismatch():
    with pytest.raises(SchubertError):
        multiply(sigma(3, 1), sigma(4, 1))


def test_top_degree_examples():
    s2 = sigma(4, 2)
    cube = multiply(multiply(s2, s2), s2)
    assert dict(cube.terms) == {(3, 3): 1}
    assert top_degree(cube) == 1
    s1 = sigma(3, 1)
    fourth = multiply(multiply(multiply(s1, s1), s1), s1)
    assert top_degree(fourth) == 2
    assert top_degree(s1) == 0


def test_grading():
    rng = random.Random(3)
    for n in range(3, 7):
        parts = all_partitions(n)
        for _ in range(20):
            (a1, b1), (a2, b2) = rng.choice(parts), rng.choice(parts)
            product = multiply(sigma(n, a1, b1), sigma(n, a2, b2))
            degree = a1 + b1 + a2 + b2
            for (a, b), coeff in product.terms:
                assert a + b == degree
                assert coeff > 0


def test_commutativity_and_associativity():
    rng = random.Random(5)
    for n in range(3, 7):
        parts = all_partitions(n)
        for _ in range(12):
            x = sigma(n, *rng.choice(parts))
            y = sigma(n, *rng.choice(parts))
            z = sigma(n, *rng.choice(parts))
            assert dict(multiply(x, y).terms) == dict(multiply(y, x).terms)
            left = multiply(multiply(x, y), z)
            right = multiply(x, multiply(y, z))
            assert dict(left.terms) == dict(right.terms)


@st.composite
def cycles(draw):
    """An ambient n and three integer combinations of its classes."""
    n = draw(st.integers(min_value=2, max_value=8))
    terms = st.dictionaries(
        st.sampled_from(all_partitions(n)), st.integers(min_value=-3, max_value=3), max_size=3
    )
    x, y, z = (SchubertCycle(n, draw(terms).items()) for _ in range(3))
    return n, x, y, z


@settings(max_examples=80, deadline=None, database=None)
@given(cycles())
def test_ring_axioms(case):
    n, x, y, z = case
    one = SchubertCycle.identity(n)
    assert multiply(x, y) == multiply(y, x)
    assert multiply(multiply(x, y), z) == multiply(x, multiply(y, z))
    assert multiply(one, x) == x == multiply(x, one)
    for (a1, b1), (a2, b2) in zip(dict(x.terms), dict(y.terms)):
        product = multiply(sigma(n, a1, b1), sigma(n, a2, b2))
        assert all(a + b == a1 + b1 + a2 + b2 for a, b in dict(product.terms))


def test_lines_meeting_general_codimension_two_planes_count_catalan():
    for n in range(2, 13):
        s1, power = sigma(n, 1), SchubertCycle.identity(n)
        for _ in range(2 * (n - 1)):
            power = multiply(power, s1)
        assert top_degree(power) == comb(2 * n - 2, n - 1) // n


def test_duality_pairing():
    for n in range(2, 7):
        for a, b in all_partitions(n):
            dual = sigma(n, n - 1 - b, n - 1 - a)
            assert top_degree(multiply(sigma(n, a, b), dual)) == 1


def test_partition_validation():
    with pytest.raises(SchubertError):
        sigma(4, 4)
    with pytest.raises(SchubertError):
        sigma(4, 1, 2)
    with pytest.raises(SchubertError):
        sigma(4, 1, -1)


def test_a_cycle_sums_repeated_partitions_and_drops_zeros():
    c = SchubertCycle(3, [((1, 0), 2), ((2, 1), 0), ((1, 1), 1), ((1, 0), -1)])
    assert c.terms == (((1, 0), 1), ((1, 1), 1))
    assert SchubertCycle(3, {(1, 0): 2}.items()) == SchubertCycle(3, [((1, 0), 1)] * 2)
    assert not SchubertCycle(3, [((1, 0), 1), ((1, 0), -1)]).terms


def test_format_cycle():
    assert format_cycle(multiply(sigma(4, 2), sigma(4, 2))) == "s[3,1] + s[2,2]"
    assert format_cycle(SchubertCycle(4, ())) == "0"
    assert format_cycle(SchubertCycle.identity(4)) == "1"
    s1 = sigma(3, 1)
    assert format_cycle(multiply(multiply(s1, s1), s1)) == "2 s[2,1]"
