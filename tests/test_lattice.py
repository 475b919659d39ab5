from fractions import Fraction

import pytest

from nuds.lattice import (
    Branch,
    LambdaIndex,
    SpectralParams,
    branch_of,
    index_label,
    position,
    power_of,
    successor,
    window,
)

from oracles import index_value


def test_params_validation():
    SpectralParams(N=2, r=1)
    SpectralParams(N=2, r=3)
    SpectralParams(N=1, r=1)
    with pytest.raises(ValueError, match="odd"):
        SpectralParams(N=3, r=2)
    with pytest.raises(ValueError, match="coprime"):
        SpectralParams(N=3, r=3)
    with pytest.raises(ValueError, match="2N - 1"):
        SpectralParams(N=2, r=5)
    with pytest.raises(ValueError):
        SpectralParams(N=0, r=1)
    with pytest.raises(ValueError):
        SpectralParams(N=2, r=-1)


def test_lambda_index_validation():
    LambdaIndex(0, 0)
    LambdaIndex(-3, 1)
    with pytest.raises(ValueError):
        LambdaIndex(0, 2)
    with pytest.raises(ValueError):
        LambdaIndex(0.5, 0)


@pytest.mark.parametrize(
    "m,eps,r,N,expected",
    [
        (0, 0, 1, 2, Fraction(0)),
        (0, 0, 3, 4, Fraction(0)),
        (0, 1, 1, 2, Fraction(1, 2)),
        (-1, 1, 3, 2, Fraction(-1, 2)),
        (2, 1, 3, 4, Fraction(19, 4)),
    ],
)
def test_index_value(m, eps, r, N, expected):
    assert index_value(LambdaIndex(m, eps), SpectralParams(N=N, r=r)) == expected


def test_index_label():
    params = SpectralParams(N=2, r=3)
    assert index_label(LambdaIndex(2, 0), params) == "4"
    assert index_label(LambdaIndex(-1, 1), params) == "-2+3/2"
    assert index_label(LambdaIndex(0, 1), params) == "0+3/2"


def test_window_k1():
    assert window(1) == [
        LambdaIndex(-1, 0),
        LambdaIndex(-1, 1),
        LambdaIndex(0, 0),
        LambdaIndex(0, 1),
    ]


def test_window_k2_endpoints():
    win = window(2)
    assert len(win) == 8
    assert win[0] == LambdaIndex(-2, 0)
    assert win[-1] == LambdaIndex(1, 1)


@pytest.mark.parametrize("K", [1, 2, 3, 5, 8])
def test_window_ordering_and_nesting(K):
    params = SpectralParams(N=2, r=1)
    win = window(K)
    assert len(win) == 4 * K
    values = [index_value(idx, params) for idx in win]
    assert values == sorted(values)
    assert len(set(values)) == len(values)
    # dataclass ordering agrees with numeric ordering
    assert win == sorted(win)
    assert set(win) < set(window(K + 1))


def test_window_rejects_bad_k():
    with pytest.raises(ValueError):
        window(0)
    with pytest.raises(ValueError):
        window(-1)


def test_successor_examples():
    assert successor(LambdaIndex(0, 0)) == LambdaIndex(0, 1)
    assert successor(LambdaIndex(0, 1)) == LambdaIndex(1, 0)
    assert successor(LambdaIndex(-1, 1)) == LambdaIndex(-2, 0)
    assert successor(LambdaIndex(-1, 0)) == LambdaIndex(-1, 1)
    assert successor(LambdaIndex(3, 1)) == LambdaIndex(4, 0)


def test_branch_classification():
    assert branch_of(LambdaIndex(0, 0)) is Branch.EVEN_ANY
    assert branch_of(LambdaIndex(-5, 0)) is Branch.EVEN_ANY
    assert branch_of(LambdaIndex(0, 1)) is Branch.POS_OFFSET
    assert branch_of(LambdaIndex(-1, 1)) is Branch.NEG_OFFSET


@pytest.mark.parametrize(
    "idx,expected",
    [
        (LambdaIndex(0, 0), 0),
        (LambdaIndex(0, 1), 1),
        (LambdaIndex(-2, 0), 2),
        (LambdaIndex(-1, 1), 1),
        (LambdaIndex(-1, 0), 0),
        (LambdaIndex(3, 1), 7),
        (LambdaIndex(-3, 1), 5),
    ],
)
def test_power_of(idx, expected):
    assert power_of(idx) == expected


@pytest.mark.parametrize("K", [1, 2, 4, 7])
def test_orbits_cover_window_once(K):
    # Walk both orbits; together they must hit every window point exactly once.
    win = set(window(K))
    seen = []
    for start in (LambdaIndex(0, 0), LambdaIndex(-1, 0)):
        idx = start
        while idx in win:
            seen.append(idx)
            idx = successor(idx)
    assert len(seen) == len(win)
    assert set(seen) == win


def test_successor_injective_on_window():
    win = window(6)
    images = [successor(idx) for idx in win]
    assert len(set(images)) == len(images)


def test_power_increments_along_orbit():
    idx = LambdaIndex(0, 0)
    for _ in range(20):
        nxt = successor(idx)
        assert power_of(nxt) == power_of(idx) + 1
        idx = nxt
    idx = LambdaIndex(-1, 0)
    for _ in range(20):
        nxt = successor(idx)
        assert power_of(nxt) == power_of(idx) + 1
        idx = nxt


def test_index_map_window_layout():
    win = window(1)
    assert win == [LambdaIndex(-1, 0), LambdaIndex(-1, 1), LambdaIndex(0, 0), LambdaIndex(0, 1)]
    assert [position(idx, 1) for idx in win] == [0, 1, 2, 3]
    assert position(LambdaIndex(0, 0), 2) == 4


@pytest.mark.parametrize("dim", [4, 8, 12, 32])
def test_index_map_round_trip(dim):
    K = dim // 4
    win = window(K)
    assert len(win) == dim
    for p in range(dim):
        assert position(win[p], K) == p
        assert win.index(win[p]) == p


def test_index_map_rejects_incompatible_dim():
    with pytest.raises(ValueError):
        window(0)
    for K in range(1, 7):
        for m in (K, -K - 1):
            for eps in (0, 1):
                with pytest.raises(ValueError, match="window has no row"):
                    position(LambdaIndex(m, eps), K)
