"""Layer constructions, the zero-coordinate set, and matching-based widths."""

import math
import re

import pytest

from antichains import (
    BudgetExceededError,
    GridPoset,
    Order,
    PointSet,
    best_construction,
    classify,
    layer_construct,
    layer_size,
    max_antichain,
    middle_layer_index,
    wn_construct,
)


def test_layer_size_examples():
    assert layer_size(1, 5, 3) == 1
    assert layer_size(2, 2, 1) == 2  # the middle binomial C(2,1)
    assert layer_size(2, 3, 2) == 3


def _oracle_layer_size(n: int, m: int, ell: int) -> int:
    """The degree-ell coefficient of (1 + t + ... + t^(m-1))^n by convolution, as layer_size was."""
    if ell < 0 or ell > n * (m - 1):
        return 0
    coeffs = [1]
    for _ in range(n):
        nxt = [0] * (len(coeffs) + m - 1)
        for j, c in enumerate(coeffs):
            for t in range(m):
                nxt[j + t] += c
        coeffs = nxt
    return coeffs[ell]


def test_layer_size_matches_convolution_oracle():
    for n in range(1, 7):
        for m in range(1, 9):
            for ell in range(-1, n * (m - 1) + 2):
                assert layer_size(n, m, ell) == _oracle_layer_size(n, m, ell), (n, m, ell)
    # far past the oracle's sweep, the layers still add up to the grid
    assert sum(layer_size(12, 64, ell) for ell in range(12 * 63 + 1)) == 64**12
    assert layer_size(12, 64, 378) == _oracle_layer_size(12, 64, 378)


def test_layer_size_out_of_range_is_zero():
    assert layer_size(2, 3, -1) == 0
    assert layer_size(2, 3, 5) == 0


def test_layer_size_symmetry_and_total():
    for n, m in [(2, 3), (3, 3), (4, 2), (2, 5)]:
        top = n * (m - 1)
        assert sum(layer_size(n, m, ell) for ell in range(top + 1)) == m**n
        for ell in range(top + 1):
            assert layer_size(n, m, ell) == layer_size(n, m, top - ell)


def test_layer_size_matches_binomials_at_m2():
    for n in range(1, 13):
        for ell in range(n + 1):
            assert layer_size(n, 2, ell) == math.comb(n, ell)


def test_layer_construct_examples():
    assert layer_construct(2, 3, 2) == PointSet(2, [(0, 2), (1, 1), (2, 0)])
    assert layer_construct(2, 2, 1) == PointSet(2, [(0, 1), (1, 0)])
    assert layer_construct(3, 2, 1) == PointSet(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])


def test_layer_construct_is_antichain_of_right_size():
    for n, m in [(2, 4), (3, 3), (4, 2)]:
        ell = middle_layer_index(n, m)
        layer = layer_construct(n, m, ell)
        assert len(layer) == layer_size(n, m, ell)
        assert classify(layer).is_antichain


def test_wn_examples():
    w = wn_construct(2, 3)
    assert w == PointSet(2, [(0, 0), (0, 1), (0, 2), (1, 0), (2, 0)])
    assert len(w) == 3**2 - 2**2
    assert wn_construct(1, 4) == PointSet(1, [(0,)])
    assert len(wn_construct(2, 2)) == 3


def test_wn_is_weak_antichain_of_right_size():
    for n, m in [(2, 5), (3, 3), (4, 2)]:
        w = wn_construct(n, m)
        assert len(w) == m**n - (m - 1) ** n
        assert classify(w).is_weak_antichain


def test_max_antichain_examples():
    assert max_antichain(GridPoset(2, 2)).width == 2
    assert max_antichain(GridPoset(2, 3)).width == 3
    assert max_antichain(GridPoset(2, 3, Order.STRONG)).width == 5


def test_max_antichain_witness_is_valid():
    for n, m, order in [(2, 4, Order.STRICT), (3, 3, Order.STRICT), (2, 4, Order.STRONG)]:
        res = max_antichain(GridPoset(n, m, order))
        assert len(res.witness) == res.width
        assert res.method == "matching"
        cls = classify(res.witness)
        if order is Order.STRICT:
            assert cls.is_antichain
        else:
            assert cls.is_weak_antichain


def test_widths_reproduce_closed_forms_up_to_256_points():
    grids = [
        (n, m)
        for n in range(1, 9)
        for m in range(2, 17)
        if m**n <= 256
    ]
    assert (4, 4) in grids and (8, 2) in grids
    for n, m in grids:
        strict = max_antichain(GridPoset(n, m, Order.STRICT))
        best_layer = max(layer_size(n, m, ell) for ell in range(n * (m - 1) + 1))
        assert strict.width == best_layer, (n, m)
        weak = max_antichain(GridPoset(n, m, Order.STRONG))
        assert weak.width == m**n - (m - 1) ** n, (n, m)


def test_construction_matches_matching_width():
    for n, m in [(2, 3), (3, 2), (2, 5)]:
        for order in (Order.STRICT, Order.STRONG):
            poset = GridPoset(n, m, order)
            built = best_construction(poset)
            assert built.method == "construction"
            assert built.width == max_antichain(poset).width


def test_middle_layer_ratio_decreases_at_m2():
    # C(n, n//2) / (2^n - 1) falls monotonically over the computable range
    ratios = [
        layer_size(n, 2, middle_layer_index(n, 2)) / len(wn_construct(n, 2))
        for n in range(2, 13)
    ]
    assert all(a > b for a, b in zip(ratios, ratios[1:]))


def test_budget_guard():
    with pytest.raises(BudgetExceededError):
        max_antichain(GridPoset(4, 10), budget=4096)
    with pytest.raises(ValueError, match="^budget must be >= 0$"):
        max_antichain(GridPoset(1, 1), budget=-1)


@pytest.mark.parametrize("bad", [math.nan, math.inf, 4096.0, True])
def test_non_int_budget_is_rejected(bad):
    # every comparison with NaN is False, so a NaN budget used to bound nothing
    with pytest.raises(ValueError, match=f"^budget must be an int, got {re.escape(repr(bad))}$"):
        max_antichain(GridPoset(2, 3), budget=bad)


@pytest.mark.parametrize("n, m", [(0, 3), (2, 0), (-1, 3)])
def test_middle_layer_index_rejects_empty_grids(n, m):
    # middle_layer_index(2, 0) used to return -1
    with pytest.raises(ValueError, match="^need n >= 1 and m >= 1$"):
        middle_layer_index(n, m)


def test_grid_poset_validation():
    with pytest.raises(ValueError):
        GridPoset(0, 3)
    with pytest.raises(ValueError):
        GridPoset(2, 3, Order.LEQ)


@pytest.mark.parametrize("bad", [2.5, 2.0, True, False])
def test_non_int_grid_arguments_are_rejected(bad):
    # GridPoset(2, 2.5) used to build with size 6.25 and GridPoset(True, 3)
    # to pass for n = 1; a bool is not an int
    def message(name):
        return f"^{name} must be an int, got {re.escape(repr(bad))}$"

    for name, call in (
        ("n", lambda: GridPoset(bad, 3)),
        ("m", lambda: GridPoset(2, bad)),
        ("n", lambda: layer_size(bad, 3, 1)),
        ("m", lambda: layer_size(2, bad, 1)),
        ("ell", lambda: layer_size(2, 3, bad)),
        ("n", lambda: layer_construct(bad, 3, 1)),
        ("m", lambda: layer_construct(2, bad, 1)),
        ("ell", lambda: layer_construct(2, 3, bad)),
        ("n", lambda: wn_construct(bad, 3)),
        ("m", lambda: wn_construct(2, bad)),
        ("n", lambda: middle_layer_index(bad, 3)),
        ("m", lambda: middle_layer_index(2, bad)),
    ):
        with pytest.raises(ValueError, match=message(name)):
            call()
    # the type is checked before the range
    with pytest.raises(ValueError, match=message("n")):
        GridPoset(bad, 0)
