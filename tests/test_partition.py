"""Greedy partition certificates, gap reports, and box scans."""

import math
import random
import re
from itertools import combinations, product

import pytest

from antichains import (
    BudgetExceededError,
    GapScanResult,
    NotWeakAntichainError,
    PartitionCertificate,
    PointSet,
    TargetUnreachableError,
    box_points,
    classify,
    exhaustive_gap_scan,
    greedy_partition,
    projection_gap,
    projection_size,
    random_gap_scan,
    random_weak_antichain,
)
from antichains import estimate, partition


def test_greedy_partition_singleton():
    cert = greedy_partition(PointSet(2, [(5, 7)]))
    assert cert.parts[0] == PointSet(2, [(5, 7)])
    assert len(cert.parts[1]) == 0
    cert.validate()


def test_greedy_partition_hand_examples():
    cert = greedy_partition(PointSet(2, [(0, 0), (0, 1), (1, 0)]))
    assert cert.parts[0] == PointSet(2, [(0, 0), (0, 1)])
    assert cert.parts[1] == PointSet(2, [(1, 0)])
    cert.validate()

    cert = greedy_partition(PointSet(2, [(0, 2), (1, 1), (2, 0)]))
    assert cert.parts[0] == PointSet(2, [(0, 2), (1, 1), (2, 0)])
    assert len(cert.parts[1]) == 0
    cert.validate()


def test_greedy_partition_rejects_strong_pair():
    with pytest.raises(NotWeakAntichainError) as err:
        greedy_partition(PointSet(2, [(0, 0), (1, 1)]))
    assert err.value.lower == (0, 0)
    assert err.value.upper == (1, 1)


def test_greedy_partition_leftover_diagnostic():
    # the full 2x2 box defeats every round even without the up-front check:
    # (1,1) is never a fiber minimum, and the leftover names a strong pair
    full = PointSet(2, product(range(2), repeat=2))
    with pytest.raises(NotWeakAntichainError) as err:
        greedy_partition(full, check=False)
    assert err.value.lower == (0, 0)
    assert err.value.upper == (1, 1)


def test_greedy_partition_deterministic_under_input_order():
    pts = [(0, 3), (1, 1), (2, 0), (3, 0), (0, 2)]
    a = greedy_partition(PointSet(2, pts))
    b = greedy_partition(PointSet(2, list(reversed(pts))))
    assert a.parts == b.parts


def test_greedy_partition_soundness_random():
    for seed in range(40):
        n = 2 + seed % 3
        capacity = 5**n - 4**n
        A = random_weak_antichain(n, 5, min(1 + seed % 12, capacity), seed=seed)
        cert = greedy_partition(A)
        cert.validate()
        report = projection_gap(A)
        assert len(A) == sum(len(p) for p in cert.parts)
        assert len(A) <= sum(report.projection_sizes)


def test_greedy_partition_exhaustive_box():
    box = list(product(range(3), repeat=2))
    weak = 0
    for mask in range(1 << 9):
        s = PointSet(2, (box[i] for i in range(9) if mask >> i & 1))
        if not classify(s).is_weak_antichain:
            continue
        weak += 1
        cert = greedy_partition(s)
        cert.validate()
    assert weak > 0



# tampered certificates: one per validate message, each naming the same
# first offending point as the per-point check

_SOURCE = PointSet(2, [(0, 1), (0, 2), (1, 0), (2, 0)])
_PART1 = [(0, 1), (0, 2), (1, 0)]


def _tampered(parts, sizes):
    return PartitionCertificate(_SOURCE, tuple(PointSet(2, p) for p in parts), tuple(sizes))


def test_tampered_certificate_baseline_is_valid():
    cert = greedy_partition(_SOURCE)
    assert cert == _tampered([_PART1, [(2, 0)]], (3, 1))
    cert.validate()


@pytest.mark.parametrize(
    "parts,sizes,message",
    [
        ([_PART1], (3,), "certificate must carry one part per coordinate"),
        ([_PART1, [(2, 0)]], (3,), "certificate must carry one part per coordinate"),
        ([_PART1, [(2, 0)], []], (3, 1, 0), "certificate must carry one part per coordinate"),
        (
            [[*_PART1, (9, 9), (5, 5)], [(2, 0)]],
            (3, 1),
            "part 1 contains (5, 5) not in the source",
        ),
        ([_PART1, [(-1, 5), (0, 1)]], (3, 1), "part 2 contains (-1, 5) not in the source"),
        ([_PART1, [(0, 1), (9, 9)]], (3, 1), "point (0, 1) appears in two parts"),
        ([_PART1, [(2, 0), (1, 0)]], (3, 2), "point (1, 0) appears in two parts"),
        (
            [[*_PART1, (2, 0)], []],
            (4, 0),
            "deleting coordinate 1 is not injective on part 1",
        ),
        (
            [[*_PART1, (2, 0)], [(7, 7)]],
            (4, 1),
            "deleting coordinate 1 is not injective on part 1",
        ),
        (
            [[(1, 0)], [(0, 1), (0, 2), (2, 0)]],
            (1, 3),
            "deleting coordinate 2 is not injective on part 2",
        ),
        ([_PART1, [(2, 0)]], (3, 2), "recorded projection sizes disagree with the parts"),
        ([_PART1, [(2, 0)]], (2, 1), "recorded projection sizes disagree with the parts"),
        ([_PART1, []], (3, 0), "parts do not cover the source set"),
        ([[(0, 1)], [(2, 0)]], (1, 1), "parts do not cover the source set"),
    ],
)
def test_tampered_certificate_messages(parts, sizes, message):
    with pytest.raises(ValueError) as err:
        _tampered(parts, sizes).validate()
    assert type(err.value) is ValueError
    assert str(err.value) == message

@pytest.mark.parametrize(
    "parts,message",
    [
        # empty parts of a higher dimension would otherwise pass
        ((PointSet(4), PointSet(4)), "part 2 has dimension 4, expected 3"),
        # a lower one would otherwise fail projecting a missing axis
        ((PointSet(3), PointSet(2)), "part 3 has dimension 2, expected 3"),
        ((PointSet(2, [(0, 1)]), PointSet(3)), "part 2 has dimension 2, expected 3"),
    ],
)
def test_certificate_rejects_parts_of_another_dimension(parts, message):
    A = PointSet(3, [(0, 1, 2)])
    cert = PartitionCertificate(A, (A, *parts), (1, 0, 0))
    with pytest.raises(ValueError) as err:
        cert.validate()
    assert type(err.value) is ValueError
    assert str(err.value) == message


def test_projection_gap_examples():
    r = projection_gap(PointSet(2, [(0, 1), (1, 0)]))
    assert (r.set_size, r.projection_sizes, r.gap) == (2, (2, 2), 2)
    r = projection_gap(PointSet(2, [(0, 0), (1, 0)]))
    assert (r.set_size, r.projection_sizes, r.gap) == (2, (1, 2), 1)
    r = projection_gap(PointSet(2))
    assert (r.set_size, r.gap) == (0, 0)


def test_projection_gap_dimension_one():
    assert projection_gap(PointSet(1, [(3,)])).gap == 0
    assert projection_size(PointSet(1, [(3,)]), 1) == 1
    assert projection_size(PointSet(1), 1) == 0


def test_gap_nonnegative_for_weak_antichains():
    rng = random.Random(23)
    for trial in range(200):
        n = rng.randint(1, 4)
        capacity = 4**n - 3**n
        A = random_weak_antichain(n, 4, rng.randint(0, min(6, capacity)), seed=trial)
        r = projection_gap(A)
        assert r.gap >= 0
        if len(A) > 0:
            assert r.gap >= n - 1


# independent oracle used to freeze the scan expectations below


def _oracle_min_gap(n, k, size):
    def is_weak(sub):
        return not any(
            all(a < b for a, b in zip(x, y)) or all(b < a for a, b in zip(x, y))
            for x, y in combinations(sub, 2)
        )

    def gap(sub):
        return sum(len({p[:i] + p[i + 1 :] for p in sub}) for i in range(n)) - len(sub)

    box = sorted(product(range(k), repeat=n))
    gaps = [gap(s) for s in combinations(box, size) if is_weak(s)]
    return min(gaps) if gaps else None


def test_exhaustive_gap_scan_singletons():
    res = exhaustive_gap_scan(2, 3, 1)
    assert res.min_gap == 1  # = n - 1
    assert res.witness == PointSet(2, [(0, 0)])
    assert res.min_gap == _oracle_min_gap(2, 3, 1)


def test_exhaustive_gap_scan_pairs():
    res = exhaustive_gap_scan(2, 3, 2)
    assert res.min_gap == 1 == _oracle_min_gap(2, 3, 2)
    # lexicographically least among the minimum-gap witnesses
    assert res.witness == PointSet(2, [(0, 0), (0, 1)])
    assert projection_gap(res.witness).gap == 1


def test_exhaustive_gap_scan_three_dims():
    # two distinct points cannot collapse two different projections, so the
    # minimum pair gap in {0,1}^3 is 3, strictly above the n-1 = 2 floor
    res = exhaustive_gap_scan(3, 2, 2)
    assert res.min_gap == 3 == _oracle_min_gap(3, 2, 2)
    assert res.min_gap >= 3 - 1


def test_exhaustive_gap_scan_empty_size():
    res = exhaustive_gap_scan(2, 2, 0)
    assert res.min_gap == 0
    assert len(res.witness) == 0


def test_exhaustive_gap_scan_budget():
    with pytest.raises(BudgetExceededError):
        exhaustive_gap_scan(3, 4, 10, budget=100)


@pytest.mark.parametrize("bad", [math.nan, math.inf, 100.0, 2.5, True])
def test_non_int_budget_and_max_tries_are_rejected(bad):
    # a NaN budget used to run the scan unbounded, since every comparison
    # with NaN is False, and max_tries=2.5 raised a raw TypeError from range
    def message(name):
        return f"^{name} must be an int, got {re.escape(repr(bad))}$"

    with pytest.raises(ValueError, match=message("budget")):
        exhaustive_gap_scan(2, 3, 2, budget=bad)
    for size in (0, 2):
        with pytest.raises(ValueError, match=message("max_tries")):
            random_weak_antichain(2, 3, size, max_tries=bad)


@pytest.mark.parametrize("bad", [None, "a", 1.5, True, [1]])
def test_non_int_seeds_are_rejected(bad):
    # seed=None used to seed from OS entropy, so two calls drew different
    # sets; "a", 1.5 and True were accepted, and [1] raised a raw TypeError
    message = f"^seed must be an int, got {re.escape(repr(bad))}$"
    for size in (0, 2):
        with pytest.raises(ValueError, match=message):
            random_weak_antichain(2, 3, size, seed=bad)
    with pytest.raises(ValueError, match=message):
        random_gap_scan(2, 3, 2, 1, seed=bad)


def test_any_int_seed_is_deterministic():
    for seed in (-7, 0, 2**70):
        assert random_weak_antichain(4, 8, 6, seed) == random_weak_antichain(4, 8, 6, seed)


def test_exhaustive_gap_scan_above_capacity_builds_nothing(monkeypatch):
    # no weak antichain exceeds k^n - (k-1)^n cells, so no mask is tabled;
    # at k = 500 the single-axis masks alone took about 80 MB
    def no_table(n, k):
        raise AssertionError(f"mask table built for n={n}, k={k}")

    monkeypatch.setattr(partition, "_mask_table", no_table)
    assert exhaustive_gap_scan(2, 500, 249_999) == GapScanResult(2, 500, 249_999, None, None, 0)


@pytest.mark.parametrize("bad", [2.5, 2.0, True, False])
def test_non_int_box_arguments_are_rejected(bad):
    # random_weak_antichain(2, 3.0, 2) used to raise AttributeError,
    # exhaustive_gap_scan(True, 2, 1) to return n=True and
    # projection_size(s, True) to count axis 1; a bool is not an int
    def message(name):
        return f"^{name} must be an int, got {re.escape(repr(bad))}$"

    for name, call in (
        ("n", lambda: box_points(bad, 3)),
        ("k", lambda: box_points(2, bad)),
        ("n", lambda: exhaustive_gap_scan(bad, 2, 1)),
        ("k", lambda: exhaustive_gap_scan(2, bad, 1)),
        ("size", lambda: exhaustive_gap_scan(2, 2, bad)),
        ("n", lambda: random_weak_antichain(bad, 3, 2)),
        ("k", lambda: random_weak_antichain(2, bad, 2)),
        ("size", lambda: random_weak_antichain(2, 3, bad)),
        ("samples", lambda: random_gap_scan(2, 3, 2, bad)),
        ("n", lambda: random_gap_scan(bad, 3, 2, 1)),
        ("axis", lambda: projection_size(PointSet(3, [(0, 1, 2)]), bad)),
    ):
        with pytest.raises(ValueError, match=message(name)):
            call()
    # the type is checked before the range
    with pytest.raises(ValueError, match=message("n")):
        random_weak_antichain(bad, 0, 2)


def test_random_weak_antichain_basics():
    A = random_weak_antichain(2, 2, 3, seed=5)
    assert len(A) == 3
    assert classify(A).is_weak_antichain
    assert random_weak_antichain(3, 4, 0, seed=1) == PointSet(3)
    single = random_weak_antichain(1, 5, 1, seed=9)
    assert len(single) == 1 and classify(single).is_weak_antichain


def test_random_weak_antichain_deterministic():
    a = random_weak_antichain(3, 5, 10, seed=42)
    b = random_weak_antichain(3, 5, 10, seed=42)
    assert a == b
    c = random_weak_antichain(3, 5, 10, seed=43)
    assert classify(c).is_weak_antichain


def test_random_weak_antichain_capacity_precondition():
    # the box maximum is k^n - (k-1)^n
    with pytest.raises(ValueError):
        random_weak_antichain(2, 2, 4)
    with pytest.raises(ValueError):
        random_weak_antichain(1, 5, 2)


def test_random_weak_antichain_retry_budget():
    with pytest.raises(TargetUnreachableError):
        random_weak_antichain(2, 3, 5, seed=0, max_tries=4)
    for size in (0, 1):
        with pytest.raises(ValueError, match="^max_tries must be >= 0$"):
            random_weak_antichain(2, 3, size, max_tries=-5)


def test_budget_error_is_defined_once():
    # the cover and width searches raise the class estimate defines, and
    # partition re-exports the same object
    assert partition.BudgetExceededError is estimate.BudgetExceededError


def test_random_gap_scan_needs_a_sample():
    with pytest.raises(ValueError, match="^samples must be >= 1$"):
        random_gap_scan(2, 3, 1, 0)


def test_random_gap_scan_respects_floor():
    res = random_gap_scan(3, 4, 5, samples=25, seed=3)
    assert res.min_gap is not None and res.min_gap >= 2
    assert res.witness is not None and len(res.witness) == 5
