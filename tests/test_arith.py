import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qrstats import arith
from qrstats.arith import is_perfect_square, jacobi, jacobi_many, legendre_euler
from qrstats.errors import InvalidModulusError

from oracles import jacobi_by_factorization, legendre_by_squares

odd_moduli = st.integers(min_value=1, max_value=1999).map(lambda n: 2 * n - 1)


def test_jacobi_known_values():
    assert jacobi(2, 15) == 1
    assert jacobi(7, 15) == -1
    assert jacobi(3, 15) == 0
    assert jacobi(2, 7) == 1
    assert jacobi(3, 7) == -1
    assert jacobi(1001, 9907) == -1
    assert jacobi(0, 3) == 0
    assert jacobi(0, 1) == 1
    assert jacobi(12345, 1) == 1


def test_jacobi_rejects_bad_arguments():
    with pytest.raises(InvalidModulusError):
        jacobi(3, 10)
    with pytest.raises(InvalidModulusError):
        jacobi(3, 0)
    with pytest.raises(InvalidModulusError):
        jacobi(3, -7)
    with pytest.raises(ValueError):
        jacobi(-1, 7)


@given(st.integers(min_value=0, max_value=10**6), odd_moduli)
def test_jacobi_matches_factored_oracle(m, q):
    assert jacobi(m, q) == jacobi_by_factorization(m, q)


@given(st.integers(min_value=0, max_value=10**4), st.integers(min_value=0, max_value=10**4), odd_moduli)
def test_jacobi_multiplicative_in_numerator(a, b, q):
    assert jacobi(a * b, q) == jacobi(a, q) * jacobi(b, q)


@given(st.integers(min_value=0, max_value=10**4), odd_moduli)
def test_jacobi_periodic_in_numerator(m, q):
    assert jacobi(m, q) == jacobi(m + q, q)


@given(st.integers(min_value=0, max_value=10**4), odd_moduli)
def test_jacobi_zero_iff_common_factor(m, q):
    import math

    assert (jacobi(m, q) == 0) == (math.gcd(m, q) > 1)


# --- jacobi_many against the scalar reference -----------------------------

kernel_lanes = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2**63 - 1),
        st.integers(min_value=0, max_value=2**61 - 1).map(lambda k: 2 * k + 1),
    ),
    min_size=1,
    max_size=50,
)


@given(kernel_lanes)
def test_jacobi_many_matches_jacobi(lanes):
    m, q = (np.array(col, dtype=np.int64) for col in zip(*lanes))
    got = jacobi_many(m, q)
    assert got.dtype == np.int8
    assert got.tolist() == [jacobi(a, b) for a, b in lanes]


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=10**6), odd_moduli), min_size=1, max_size=30))
def test_jacobi_many_matches_factored_oracle(lanes):
    m, q = zip(*lanes)
    assert jacobi_many(np.array(m), np.array(q)).tolist() == [jacobi_by_factorization(a, b) for a, b in lanes]


def test_jacobi_many_edge_lanes():
    top = 2**62 - 1
    lanes = [
        (0, 1), (12345, 1), (2**63 - 1, 1),  # q = 1: the empty product
        (0, 3), (0, 15), (0, top),  # m = 0
        (7, 7), (45, 15), (2 * top, top),  # m a multiple of q
        (10, 7), (2**63 - 1, 9907), (2**63 - 1, top), (top + 2, top),  # m >= q
        (2, top), (3, top), (top - 1, top), (2, top - 2), (2**61 + 1, top - 2),  # q near 2**62 - 1
    ]
    m, q = (np.array(col, dtype=np.int64) for col in zip(*lanes))
    assert jacobi_many(m, q).tolist() == [jacobi(a, b) for a, b in lanes]


def test_jacobi_many_broadcasts_both_ways():
    qs = np.arange(1, 400, 2)
    ms = np.arange(0, 400)
    assert jacobi_many(1001, qs).tolist() == [jacobi(1001, int(q)) for q in qs]
    assert jacobi_many(ms, 9907).tolist() == [jacobi(int(m), 9907) for m in ms]
    grid = jacobi_many(ms[:, None], qs[None, :])
    assert grid.shape == (ms.size, qs.size)
    assert all(grid[i, j] == jacobi(int(ms[i]), int(qs[j])) for i in range(0, 400, 37) for j in range(qs.size))
    assert jacobi_many(2, 7).shape == ()


def test_jacobi_many_falls_back_to_scalar_past_its_domain():
    qs = [2**62 + 1, 2**62 + 3, 2**63 - 1, 2**64 + 1, 3**60]
    assert jacobi_many(1001, qs).tolist() == [jacobi(1001, q) for q in qs]
    assert jacobi_many(1001, np.array(qs[:3], dtype=np.int64)).tolist() == [jacobi(1001, q) for q in qs[:3]]
    big_m = 2**80 + 3
    small = np.array([1, 3, 7, 9907, 2**61 - 1])
    assert jacobi_many(big_m, small).tolist() == [jacobi(big_m, int(q)) for q in small]
    mixed = np.array([9907, 2**62 + 1, 15], dtype=np.int64)
    assert jacobi_many(2**40 + 1, mixed).tolist() == [jacobi(2**40 + 1, int(q)) for q in mixed]


def test_jacobi_many_covers_many_chunks():
    qs = np.arange(1, 2**18, 2)
    m = 2**40 + 12345
    assert np.array_equal(jacobi_many(m, qs), [jacobi(m, int(q)) for q in qs])


def test_jacobi_many_rejects_like_jacobi():
    with pytest.raises(InvalidModulusError):
        jacobi_many(3, np.array([7, 10]))
    with pytest.raises(InvalidModulusError):
        jacobi_many(3, 0)
    with pytest.raises(InvalidModulusError):
        jacobi_many(np.array([3]), -7)
    with pytest.raises(ValueError):
        jacobi_many(np.array([1, -1]), 7)
    with pytest.raises(TypeError):
        jacobi_many(np.array([1.0]), 7)


def _outcome(m, q):
    """jacobi_many(m, q) as its shape, dtype and values, or the type and
    message of its error."""
    try:
        out = jacobi_many(m, q)
    except ValueError as exc:
        return type(exc), str(exc)
    return out.shape, out.dtype, out.tolist()


def _scalar_outcome(m, q):
    """The same outcome lane by lane through the scalar jacobi."""
    m, q = np.broadcast_arrays(np.asarray(m, dtype=object), np.asarray(q, dtype=object))
    try:
        values = np.array([jacobi(int(a), int(b)) for a, b in zip(m.flat, q.flat)], dtype=np.int8)
    except ValueError as exc:
        return type(exc), str(exc)
    return m.shape, np.dtype(np.int8), values.reshape(m.shape).tolist()


@pytest.mark.parametrize("size", [0, 1, 64, 65])
def test_jacobi_many_scalar_route_matches_jacobi(monkeypatch, size):
    # up to _SCALAR_LANES lanes go to the scalar jacobi, one more to the
    # Euclid loop; both give jacobi's values, shape, dtype and errors
    assert arith._SCALAR_LANES == 64
    rng = random.Random(size)
    m = np.array([rng.randrange(2**63) for _ in range(size)], dtype=np.int64)
    q = np.array([rng.randrange(1, 2**62, 2) for _ in range(size)], dtype=np.int64)
    rows = {0: 0, 1: 1, 64: 8, 65: 5}[size]
    huge = [2**63 + rng.randrange(2**70) for _ in range(size)]
    cases = [
        (m, q),
        # broadcast: a scalar against lanes, and a column against a row
        (12345, q),
        (m, 9907),
        (m[:rows].reshape(-1, 1), q[: size // rows if rows else 3]),
        # lanes at or past 2**63, as Python ints and uint64
        (huge, [b | 1 for b in huge]),
        (np.array(huge, dtype=object) % 2**64, 2**63 + 1),
        (np.array([2**63] * size, dtype=np.uint64), q),
    ]
    if size:
        even, negative = q.copy(), m.copy()
        even[-1], negative[0] = 10, -1
        cases += [(m, even), (negative, q), (3, 0), (np.array([-1]), np.full(size, 7))]
    chunks, euclid = [], arith._jacobi_chunk

    def spy(a, b):
        chunks.append(a.size)
        return euclid(a, b)

    for a, b in cases:
        want = _scalar_outcome(a, b)
        del chunks[:]
        with monkeypatch.context() as mp:
            mp.setattr(arith, "_jacobi_chunk", spy)
            assert _outcome(a, b) == want, (a, b)
        assert bool(chunks) == (np.broadcast(np.asarray(a, dtype=object), np.asarray(b, dtype=object)).size > 64)
        with monkeypatch.context() as mp:
            mp.setattr(arith, "_SCALAR_LANES", 0)
            assert _outcome(a, b) == want, (a, b)


@settings(deadline=None)
@given(kernel_lanes)
def test_jacobi_many_euclid_loop_matches_jacobi_on_few_lanes(lanes):
    # the lane counts the scalar route takes, through the Euclid loop
    m, q = (np.array(col, dtype=np.int64) for col in zip(*lanes))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(arith, "_SCALAR_LANES", 0)
        got = jacobi_many(m, q)
    assert got.dtype == np.int8
    assert got.tolist() == [jacobi(a, b) for a, b in lanes]


def test_legendre_euler_known_values():
    assert legendre_euler(2, 7) == 1
    assert legendre_euler(3, 7) == -1
    assert legendre_euler(14, 7) == 0
    assert legendre_euler(5, 5) == 0


def test_legendre_euler_matches_squares_oracle(odd_primes_300):
    for p in odd_primes_300:
        for m in range(p):
            assert legendre_euler(m, p) == legendre_by_squares(m, p)


def test_legendre_euler_rejects_even_modulus():
    with pytest.raises(InvalidModulusError):
        legendre_euler(3, 8)


def test_is_perfect_square_near_float_precision():
    # (2**26 + 1)**2 and its neighbor, where sqrt in binary64 ties out
    assert is_perfect_square(4503599761588225)
    assert not is_perfect_square(4503599761588224)
    assert is_perfect_square((10**18 + 9) ** 2)
    assert not is_perfect_square((10**18 + 9) ** 2 - 1)


@given(st.integers(min_value=0, max_value=10**9))
def test_is_perfect_square_on_squares(k):
    assert is_perfect_square(k * k)
    if k >= 2:
        assert not is_perfect_square(k * k - 1)
        assert not is_perfect_square(k * k + 1)


def test_is_perfect_square_rejects_negative():
    with pytest.raises(ValueError):
        is_perfect_square(-4)
