"""Dominance orders, classification, projections, and the point-set format.

``classify`` runs the shared comparability screen; the per-pair loop it
replaced is kept below as its oracle.  A point set stores one sorted tuple;
its ``==``, ``hash``, ``in``, iteration and ``len`` are checked against a
frozenset of its points, the store it replaced.  Run as a script,
``python tests/test_lattice.py SETS`` runs both comparisons on SETS random
collections and SETS random point sets (100,000 in CI) outside tier-1.
"""

import math
import random
import sys
from decimal import Decimal
from fractions import Fraction
from itertools import combinations, product

import pytest

from antichains import (
    GridPoset,
    NonFiniteError,
    Order,
    PointSet,
    classify,
    dominates,
    exhaustive_gap_scan,
    format_point_set,
    greedy_partition,
    load_point_set,
    max_antichain,
    parse_point_set,
    project,
    random_weak_antichain,
    save_point_set,
    skew_project,
    skew_split,
    skew_split_disjoint,
)
from antichains.lattice import Classification


def test_dominates_examples():
    assert dominates((0, 0), (1, 1), Order.STRONG)
    assert not dominates((0, 1), (1, 0), Order.LEQ)
    assert dominates((0, 0), (0, 1), Order.STRICT)
    assert not dominates((0, 0), (0, 1), Order.STRONG)


def test_dominates_dimension_mismatch():
    with pytest.raises(ValueError):
        dominates((0, 0), (0, 0, 0), Order.LEQ)


def test_order_implication_chain():
    rng = random.Random(7)
    for _ in range(500):
        n = rng.randint(1, 4)
        x = tuple(rng.randint(-5, 5) for _ in range(n))
        y = tuple(rng.randint(-5, 5) for _ in range(n))
        if dominates(x, y, Order.STRONG):
            assert dominates(x, y, Order.STRICT)
        if dominates(x, y, Order.STRICT):
            assert dominates(x, y, Order.LEQ)


def test_classify_examples():
    assert classify(PointSet(2, [(0, 1), (1, 0)])) == (True, True)
    assert classify(PointSet(2, [(0, 0), (0, 1)])) == (False, True)
    assert classify(PointSet(2, [(0, 0), (1, 1)])) == (False, False)


def test_classify_accepts_real_tuples():
    assert classify([(0.5, 0.5), (0.25, 0.75)]).is_antichain
    assert not classify([(0.1, 0.1), (0.9, 0.9)]).is_weak_antichain


def test_every_antichain_is_weak():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(1, 3)
        pts = {tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(0, 6))}
        cls = classify(PointSet(n, pts))
        if cls.is_antichain:
            assert cls.is_weak_antichain


# ---------------------------------------------------------------------------
# classify against the per-pair loop it replaced


def _oracle_classify(points):
    if isinstance(points, PointSet):
        pts = points.points
    else:
        pts = sorted({tuple(p) for p in points})
        if pts and any(len(p) != len(pts[0]) for p in pts):
            raise ValueError("points of mixed dimension")
    anti = True
    for x, y in combinations(pts, 2):
        le_xy = le_yx = True
        lt_xy = lt_yx = True
        for a, b in zip(x, y):
            if a < b:
                le_yx = lt_yx = False
            elif a > b:
                le_xy = lt_xy = False
            else:
                lt_xy = lt_yx = False
        if lt_xy or lt_yx:
            return Classification(False, False)
        if le_xy or le_yx:
            anti = False
    return Classification(anti, True)


def _random_collection(rng):
    """A random point collection: ints or floats, negatives, ties and repeats.

    Integer collections come as a list with repeated points or as a
    PointSet; float ones mix a few shared values (ties, including an int
    equal to a float) with uniform draws.
    """
    n = rng.randint(1, 4)
    if rng.random() < 0.5:
        lo = rng.randint(-4, 0)
        pts = [tuple(rng.randint(lo, lo + 3) for _ in range(n)) for _ in range(rng.randint(0, 8))]
        if pts and rng.random() < 0.5:
            pts += rng.choices(pts, k=rng.randint(1, 3))
            rng.shuffle(pts)
            return pts
        return PointSet(n, set(pts))
    grid = (-1.5, -0.25, 0, 0.0, 0.5, 1, 2.0)

    def coord():
        return rng.choice(grid) if rng.random() < 0.7 else rng.uniform(-2.0, 2.0)

    pts = [tuple(coord() for _ in range(n)) for _ in range(rng.randint(0, 8))]
    return pts + rng.choices(pts, k=rng.randint(0, 2)) if pts else pts


def _classify_sweep(sets: int, seed: int = 0) -> dict:
    """Compare ``classify`` with the oracle on ``sets`` random collections; counts outcomes."""
    rng = random.Random(seed)
    outcomes: dict = {}
    for _ in range(sets):
        pts = _random_collection(rng)
        expected = _oracle_classify(pts)
        assert classify(pts) == expected, pts
        outcomes[expected] = outcomes.get(expected, 0) + 1
    return outcomes


def test_classify_matches_oracle():
    outcomes = _classify_sweep(3000, seed=5)
    # every outcome is exercised often: antichains, weak-only sets, and neither
    assert set(outcomes) == {(True, True), (False, True), (False, False)}
    assert min(outcomes.values()) >= 300, outcomes


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_classify_rejects_non_finite_coordinates(bad):
    # the old loop read NaN as equal to everything, so these came out as antichains
    for pts in ([(0.5, bad)], [(0.0, 1.0), (bad, 0.5)], [(1.0, 0.0), (0.0, 1.0), (bad, bad)]):
        with pytest.raises(NonFiniteError):
            classify(pts)


def test_classify_accepts_integers_beyond_float_range():
    assert classify([(10**400, 0), (0, 1)]) == (True, True)
    assert classify([(-(10**400), 0), (0, 1)]) == (False, False)


def test_project_examples():
    s = PointSet(2, [(0, 2), (1, 1), (2, 0)])
    assert project(s, 1) == PointSet(1, [(2,), (1,), (0,)])
    assert len(project(s, 1)) == 3
    assert project(PointSet(2, [(0, 0), (1, 0)]), 1) == PointSet(1, [(0,)])
    assert project(PointSet(2, [(0, 1), (1, 0)]), 2) == PointSet(1, [(0,), (1,)])


def test_project_errors():
    with pytest.raises(ValueError):
        project(PointSet(2, [(0, 0)]), 3)
    with pytest.raises(ValueError):
        project(PointSet(1, [(0,)]), 1)


@pytest.mark.parametrize("bad", [1.5, 1.0, True])
def test_non_int_axis_is_rejected(bad):
    # project(s, True) used to delete axis 1 and project(s, 1.5) to raise a
    # raw TypeError from slicing; skew_project did the same
    for call in (project, skew_project):
        with pytest.raises(ValueError, match=f"^axis must be an int, got {bad!r}$"):
            call(PointSet(2, [(0, 1)]), bad)


def test_projection_injective_on_antichains():
    rng = random.Random(13)
    found = 0
    while found < 40:
        pts = {tuple(rng.randint(0, 3) for _ in range(3)) for _ in range(rng.randint(1, 8))}
        s = PointSet(3, pts)
        if not classify(s).is_antichain:
            continue
        found += 1
        for axis in (1, 2, 3):
            assert len(project(s, axis)) == len(s)


def test_skew_split_examples():
    p1, p2 = skew_split(PointSet(2, [(0, 2), (2, 0)]))
    assert p1 == PointSet(2, [(0, 2)])
    assert p2 == PointSet(2, [(2, 0)])

    p1, p2 = skew_split(PointSet(2, [(1, 1)]))
    assert p1 == p2 == PointSet(2, [(1, 1)])

    p1, p2 = skew_split(PointSet(2, [(0, 1), (1, 0), (2, 2)]))
    assert p1 == PointSet(2, [(0, 1), (2, 2)])
    assert p2 == PointSet(2, [(1, 0), (2, 2)])


def test_skew_split_disjoint_ties_take_lowest_axis():
    p1, p2 = skew_split_disjoint(PointSet(2, [(1, 1), (0, 2), (2, 0)]))
    assert p1 == PointSet(2, [(1, 1), (0, 2)])
    assert p2 == PointSet(2, [(2, 0)])


def test_skew_split_covers_source():
    rng = random.Random(17)
    for _ in range(100):
        n = rng.randint(1, 4)
        pts = {tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(rng.randint(0, 8))}
        s = PointSet(n, pts)
        union = set()
        for part in skew_split(s):
            union.update(part)
        assert union == set(s)
        union = set()
        total = 0
        for part in skew_split_disjoint(s):
            union.update(part)
            total += len(part)
        assert union == set(s)
        assert total == len(s)


def test_skew_project_examples():
    assert skew_project(PointSet(2, [(0, 2)]), 1) == PointSet(1, [(2,)])
    assert skew_project(PointSet(2, [(1, 0)]), 2) == PointSet(1, [(1,)])
    assert skew_project(PointSet(2, [(0, 1), (1, 3)]), 1) == PointSet(1, [(1,), (2,)])


def test_skew_project_requires_minimal_axis():
    with pytest.raises(ValueError):
        skew_project(PointSet(2, [(2, 1)]), 1)


def test_skew_projection_injective_on_weak_antichains_exhaustive():
    # every weak antichain inside {0,1,2}^2, checked part by part
    box = list(product(range(3), repeat=2))
    for mask in range(1 << 9):
        subset = [box[i] for i in range(9) if mask >> i & 1]
        s = PointSet(2, subset)
        if not classify(s).is_weak_antichain:
            continue
        for axis, part in enumerate(skew_split(s), start=1):
            assert len(skew_project(part, axis)) == len(part)


class TestPointSet:
    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            PointSet(2, [(0, 0), (0, 0)])

    def test_rejects_dim_mismatch(self):
        with pytest.raises(ValueError):
            PointSet(2, [(0, 0, 0)])

    def test_rejects_non_integer(self):
        with pytest.raises(ValueError):
            PointSet(2, [(0.5, 1)])

    def test_rejects_bool_coordinates(self):
        # bools are ints to Python, but "True,0" would not parse back
        for p in [(True, 0), (0, False)]:
            with pytest.raises(ValueError, match="non-integer"):
                PointSet(2, [p])
        assert format_point_set(PointSet(2, [(1, 0)])) == "dim=2\n1,0\n"

    def test_rejects_bad_dim(self):
        with pytest.raises(ValueError, match="^dim must be >= 1$"):
            PointSet(0)

    @pytest.mark.parametrize("bad", [1.5, 2.0, True])
    def test_rejects_non_int_dim_and_side(self, bad):
        # PointSet(1.5, []) and PointSet.in_box(2, 2.5, [(2, 0)]) used to build
        message = f"must be an int, got {bad!r}$"
        with pytest.raises(ValueError, match="^dim " + message):
            PointSet(bad, [])
        with pytest.raises(ValueError, match="^dim " + message):
            PointSet.in_box(bad, 3)
        with pytest.raises(ValueError, match="^k " + message):
            PointSet.in_box(2, bad, [(2, 0)])

    def test_canonical_order(self):
        s = PointSet(2, [(2, 0), (0, 2), (1, 1)])
        assert s.points == ((0, 2), (1, 1), (2, 0))

    def test_set_semantics(self):
        s = PointSet(2, [(0, 1)])
        assert (0, 1) in s
        assert [0, 1] in s
        assert (1, 0) not in s

    def test_in_box_constructor(self):
        s = PointSet.in_box(2, 3, [(0, 2), (2, 0)])
        assert len(s) == 2
        with pytest.raises(ValueError):
            PointSet.in_box(2, 3, [(0, 3)])
        with pytest.raises(ValueError):
            PointSet.in_box(2, 3, [(-1, 0)])


def test_point_set_round_trip(tmp_path):
    s = PointSet(3, [(5, -2, 0), (0, 0, 0), (-1, 4, 2)])
    text = format_point_set(s)
    assert parse_point_set(text) == s
    # round trip is the identity on the canonical form
    assert format_point_set(parse_point_set(text)) == text

    path = tmp_path / "points.txt"
    save_point_set(s, path)
    assert load_point_set(path) == s


def test_point_set_repr_hash_and_equality():
    s = PointSet(2, [(3, 0), (0, 3), (1, 2)])
    assert repr(s) == "PointSet(dim=2, [(0, 3), (1, 2), (3, 0)])"
    long = PointSet(2, [(i, -i) for i in range(8)])
    assert repr(long) == (
        "PointSet(dim=2, [(0, 0), (1, -1), (2, -2), (3, -3), (4, -4), (5, -5), ... 2 more])"
    )
    twin = PointSet(2, [(1, 2), (3, 0), (0, 3)])
    assert twin == s and hash(twin) == hash(s)
    assert s.__eq__(s.points) is NotImplemented
    assert s != s.points and s != "PointSet"


def test_parse_point_set_errors():
    with pytest.raises(ValueError):
        parse_point_set("0,1\n1,0\n")
    with pytest.raises(ValueError):
        parse_point_set("dim=x\n")
    with pytest.raises(ValueError):
        parse_point_set("dim=2\n0,a\n")


def test_parse_skips_blanks_and_comments():
    s = parse_point_set("# a comment\ndim=2\n\n0,1\n# another\n1,0\n")
    assert s == PointSet(2, [(0, 1), (1, 0)])


# ---------------------------------------------------------------------------
# PointSet against a frozenset of its points


def _built_point_sets(rng):
    """Point sets from every way the library builds one, with the points each should hold.

    The constructor, ``in_box`` and the file format check their input; the
    sampler, greedy parts, ``project``, scan and width witnesses are built
    by ``PointSet._trusted``, which relies on its callers to pass distinct
    points, so their expected points are recomputed where that is cheap and
    otherwise are the set's own (whose length then checks distinctness).
    """
    n = rng.randint(1, 4)
    k = rng.randint(1, 4)
    raw = [tuple(rng.randint(-2, k) for _ in range(n)) for _ in range(rng.randint(0, 8))]
    raw = list(dict.fromkeys(raw))
    built = [(PointSet(n, raw), frozenset(raw))]
    boxed = [p for p in raw if all(0 <= c < k for c in p)]
    built.append((PointSet.in_box(n, k, boxed), frozenset(boxed)))
    built.append((parse_point_set(format_point_set(built[0][0])), frozenset(raw)))
    capacity = k**n - (k - 1) ** n
    # a 2-D box of side 2048 is past the sampler's table cap: the pairwise path
    side, dim = (2048, 2) if rng.random() < 0.1 else (k, n)
    cap = side**dim - (side - 1) ** dim
    A = random_weak_antichain(dim, side, rng.randint(0, min(cap, 6)), seed=rng.randrange(1 << 30))
    built.append((A, frozenset(A.points)))
    # a sampled set skips the screen, its checked copy does not, and a small
    # set often splits over several rounds
    for source in (A, PointSet(A.dim, A.points), built[0][0]):
        if classify(source).is_weak_antichain:
            for part in greedy_partition(source).parts:
                built.append((part, frozenset(part.points)))
    for S, _ in built[:4]:
        if S.dim >= 2:
            axis = rng.randint(1, S.dim)
            image = frozenset(p[: axis - 1] + p[axis:] for p in S.points)
            built.append((project(S, axis), image))
    if k**n <= 27:
        size = rng.randint(0, min(capacity, 3))
        witness = exhaustive_gap_scan(n, k, size).witness
        if witness is not None:
            built.append((witness, frozenset(witness.points)))
    order = rng.choice((Order.STRICT, Order.STRONG))
    witness = max_antichain(GridPoset(n, k, order)).witness
    built.append((witness, frozenset(witness.points)))
    return built


def _probes(rng, S):
    """Probes of ``S``: its points and near misses, as ints, floats, bools and worse."""
    n = S.dim
    pts = list(S.points) or [(0,) * n]
    for p in rng.sample(pts, min(len(pts), 3)) + [tuple(rng.randint(-1, 4) for _ in range(n))]:
        i = rng.randrange(n)
        yield p
        yield list(p)
        yield tuple(map(float, p))
        yield tuple(c == 1 if c in (0, 1) else c for c in p)
        yield p[:-1]
        yield p + (0,)
        for odd in (math.nan, p[i] + 0.5, math.inf, "0", None, Fraction(p[i]), Decimal(p[i])):
            yield p[:i] + (odd,) + p[i + 1 :]
        yield p[:i] + (complex(p[i]),) + p[i + 1 :]
    yield ()


def _point_set_sweep(sets: int, seed: int = 0) -> dict:
    """Check ``==``, ``hash``, ``in``, iteration and ``len`` of built sets against frozensets.

    Counts the probes that were in and out of their set.
    """
    rng = random.Random(seed)
    counts = {True: 0, False: 0}
    done = 0
    while done < sets:
        built = _built_point_sets(rng)
        for S, expected in built:
            assert len(S) == len(expected), S
            assert list(S) == sorted(expected), S
            assert S == PointSet(S.dim, reversed(S.points)) and not S != S
            assert hash(S) == hash(PointSet._trusted(S.dim, list(expected)))
            for probe in _probes(rng, S):
                got = probe in S
                assert got == (tuple(probe) in expected), (S, probe)
                counts[got] += 1
        for (S, a), (T, b) in combinations(built, 2):
            assert (S == T) == ((S.dim, a) == (T.dim, b)), (S, T)
            assert (S != T) == (not S == T)
            if S == T:
                assert hash(S) == hash(T)
        done += len(built)
    return counts


def test_point_set_matches_frozenset_oracle():
    counts = _point_set_sweep(3000, seed=3)
    assert min(counts.values()) >= 1000, counts


def test_point_set_membership_of_odd_probes():
    s = PointSet(2, [(0, 1), (1, 0), (2, -3)])
    for probe in [(0, 1), [1, 0], (0.0, 1.0), (False, True), (Fraction(2), -3), (2, complex(-3))]:
        assert probe in s, probe
    for probe in [
        (0, "1"),
        ("a", 0),
        (None, 1),
        (0, None),
        (math.nan, 1),
        (1, math.nan),
        (0.5, 1),
        (0,),
        (0, 1, 0),
        (),
        (Decimal("NaN"), 0),
        (complex(0, 1), 1),
    ]:
        assert probe not in s, probe
    assert (0, 1) not in PointSet(2) and () not in PointSet(1)
    # a probe that is not hashable is still an error, as it was for the frozenset
    with pytest.raises(TypeError):
        ([0], 1) in s


def test_point_set_stores_one_sorted_tuple():
    s = PointSet(2, [(1, 0), (0, 1)])
    assert PointSet.__slots__ == ("dim", "points", "_weak", "_sizes")
    assert s.points == ((0, 1), (1, 0))
    assert s == PointSet._trusted(2, [(1, 0), (0, 1)])
    assert s != PointSet(3, [(1, 0, 0), (0, 1, 0)]) and PointSet(1) != PointSet(2)
    assert hash(PointSet(1)) != hash(PointSet(2))


if __name__ == "__main__":
    sets = int(sys.argv[1])
    outcomes = {tuple(k): v for k, v in _classify_sweep(sets).items()}
    print(f"{sets} collections: classify agrees with the per-pair loop {outcomes}")
    counts = _point_set_sweep(sets)
    print(f"{sets} point sets: ==, hash, in, iteration and len agree with frozensets {counts}")
