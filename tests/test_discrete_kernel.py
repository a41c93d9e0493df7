"""Differential tests: the discrete kernel against the code it replaced.

The oracles below are the earlier implementations of the sampler, the
strong-pair check and its per-axis mask, the exhaustive gap scan (over
``combinations``, the depth-first search that tests each completion's
images one by one, and the bit-sliced scan before its two cuts), the greedy
partition, the certificate check and the projection sizes, kept verbatim
apart from their names.  The kernel must reproduce their results exactly: the same sampled
sets for the same seeds, the same retry failures, the same minimum gap,
witness and weak count for every scanned box, the same certificates and
gap reports, and the same errors with the same messages.

Run as a script, ``python tests/test_discrete_kernel.py TRIALS`` compares
the first TRIALS certificates of the criterion-2 stream (100,000 in the
acceptance suite) against the oracles, then every gap scan of
``_scan_sweep_cases`` against the per-completion loop oracle and the
previous bit-sliced scan, once with the scan's per-cell tables and once with
the table cap at 0.
"""

import math
import pickle
import random
import sys
import time
import tracemalloc
from itertools import combinations, product
from operator import lt

import pytest

from antichains import (
    BudgetExceededError,
    GapReport,
    GridPoset,
    NotWeakAntichainError,
    Order,
    PartitionCertificate,
    PointSet,
    TargetUnreachableError,
    exhaustive_gap_scan,
    greedy_partition,
    max_antichain,
    projection_gap,
    projection_size,
    random_weak_antichain,
)
from antichains import partition
from antichains.cli import main
from antichains.estimate import require_int
from antichains.lattice import Point, _comparable_pair, project
from antichains.partition import GapScanResult, _axis_masks, _deleters, box_points

# ---------------------------------------------------------------------------
# oracles


def _oracle_find_strong_pair(pts):
    for x, y in combinations(pts, 2):
        if all(a < b for a, b in zip(x, y)):
            return x, y
        if all(b < a for a, b in zip(x, y)):
            return y, x
    return None


def _oracle_random_weak_antichain(n, k, size, seed=0, max_tries=None):
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    capacity = k**n - (k - 1) ** n
    if not 0 <= size <= capacity:
        raise ValueError(f"size {size} outside 0..{capacity} for this box")
    if max_tries is None:
        max_tries = 400 * (size + 1)
    rng = random.Random(seed)
    chosen = []
    have = set()
    tries = 0
    while len(chosen) < size:
        if tries >= max_tries:
            raise TargetUnreachableError(
                f"size {size} not reached within {max_tries} samples (seed {seed})"
            )
        tries += 1
        cand = tuple(rng.randrange(k) for _ in range(n))
        if cand in have:
            continue
        ok = True
        for p in chosen:
            if all(a < b for a, b in zip(p, cand)) or all(b < a for a, b in zip(p, cand)):
                ok = False
                break
        if ok:
            chosen.append(cand)
            have.add(cand)
    return PointSet(n, chosen)


def _oracle_gap_of(subset, n):
    if n == 1:
        return (1 if subset else 0) - len(subset)
    total = 0
    for i in range(n):
        total += len({p[:i] + p[i + 1 :] for p in subset})
    return total - len(subset)


def _oracle_exhaustive_gap_scan(n, k, size):
    pool = tuple(product(range(k), repeat=n))
    best_gap = None
    best_witness = None
    weak_count = 0
    for subset in combinations(pool, size):
        if _oracle_find_strong_pair(subset) is not None:
            continue
        weak_count += 1
        g = _oracle_gap_of(subset, n)
        if best_gap is None or g < best_gap:
            best_gap = g
            best_witness = subset
    witness = PointSet(n, best_witness) if best_witness is not None else None
    return best_gap, witness, weak_count


def _oracle_strong_mask(p: Point, axes) -> int:
    """Cells strictly below or strictly above ``p`` in every coordinate."""
    below = above = -1
    for c, (lo, hi) in zip(p, axes):
        below &= lo[c]
        above &= hi[c]
    return below | above


def _oracle_weak_subsets(pool, n: int, k: int, size: int):
    axes = _axis_masks(n, k) if size > 1 else None
    head: list[int] = []
    frees = [(1 << len(pool)) - 1]
    while frees:
        free = frees[-1]
        need = size - len(head)
        if free.bit_count() < need:
            frees.pop()
            if head:
                head.pop()
            continue
        if need == 1:
            yield tuple(head), free
            frees[-1] = 0
            continue
        low = free & -free
        free ^= low
        frees[-1] = free
        idx = low.bit_length() - 1
        head.append(idx)
        frees.append(free & ~_oracle_strong_mask(pool[idx], axes))


def _oracle_loop_gap_scan(n: int, k: int, size: int, budget: int = 2_000_000) -> GapScanResult:
    """The depth-first scan that tests each completion's images one by one."""
    if size < 0:
        raise ValueError("size must be >= 0")
    pool = box_points(n, k)
    total = math.comb(len(pool), size)
    if total > budget:
        raise BudgetExceededError(
            f"{total} subsets of size {size} exceed budget {budget}; "
            "use random_gap_scan instead"
        )
    if size == 0:
        return GapScanResult(n, k, 0, 0, PointSet._trusted(n, ()), 1)
    keys = _deleters(n)
    best_gap: int | None = None
    best_witness = None
    weak_count = 0
    for head, last in _oracle_weak_subsets(pool, n, k, size):
        weak_count += last.bit_count()
        points = [pool[j] for j in head]
        seen = [set(map(key, points)) for key in keys]
        # gap of head + (q,) is base minus the axes where q's image is not new
        base = sum(map(len, seen)) + n - size
        while last:
            low = last & -last
            last ^= low
            q = pool[low.bit_length() - 1]
            g = base - sum(key(q) in s for key, s in zip(keys, seen))
            if best_gap is None or g < best_gap:
                best_gap = g
                best_witness = (*points, q)
    witness = PointSet._trusted(n, best_witness) if best_witness is not None else None
    return GapScanResult(n, k, size, best_gap, witness, weak_count)


def _previous_gap_scan(n: int, k: int, size: int, budget: int = 2_000_000) -> GapScanResult:
    """The bit-sliced scan that scored every pair its head's image count did not rule out.

    It reads the module's table cap, tables and helpers, so a monkeypatched
    cap or table reaches it as it reaches the scan.
    """
    require_int("size", size, 0)
    partition._check_box(n, k)
    require_int("budget", budget, 0)
    cells = k**n
    total = math.comb(cells, size)
    if total > budget:
        raise BudgetExceededError(
            f"{total} subsets of size {size} exceed budget {budget}; "
            "use random_gap_scan instead"
        )
    if size > cells - (k - 1) ** n:
        # above the box's capacity: no weak antichain, so nothing to table
        return GapScanResult(n, k, size, None, None, 0)
    if size == 0:
        return GapScanResult(n, k, 0, 0, PointSet._trusted(n, ()), 1)
    if size == 1:
        return GapScanResult(n, k, 1, n - 1, PointSet._trusted(n, [(0,) * n]), cells)
    tabled = (n + 1) * cells * cells <= partition._TABLE_CAP
    values = partition._scan_table(n, k).__getitem__ if tabled else partition._cell_values(n, k)
    fields = range(0, n * cells, cells)
    best_gap: int | None = None
    best_cells = None
    weak_count = 0
    head: list[int] = []
    frees = [(1 << cells) - 1]
    seens = [0]
    while frees:
        free = frees[-1]
        need = size - len(head)
        if free.bit_count() < need:
            frees.pop()
            seens.pop()
            if head:
                head.pop()
            continue
        if need > 2:
            low = free & -free
            frees[-1] = free = free ^ low
            idx = low.bit_length() - 1
            strong, lines = values(idx)
            head.append(idx)
            frees.append(free & ~strong)
            seens.append(seens[-1] | lines)
            continue
        # the head's last cell: score each choice that leaves a completion
        frees[-1] = 0
        head_seen = seens[-1]
        while free:
            low = free & -free
            free ^= low
            idx = low.bit_length() - 1
            strong, lines = values(idx)
            last = free & ~strong
            if not last:
                continue
            weak_count += last.bit_count()
            seen = head_seen | lines
            # gap of head + (idx, q) is base minus the fields holding q, at most n
            base = seen.bit_count() // k + n - size
            if best_gap is not None and base - n >= best_gap:
                continue
            # at_least[c]: the completions held by at least c of the fields
            at_least = [last]
            for field in fields:
                s = seen >> field & last
                at_least.append(at_least[-1] & s)
                for c in range(len(at_least) - 2, 0, -1):
                    at_least[c] |= at_least[c - 1] & s
            c = n
            while not at_least[c]:
                c -= 1
            if best_gap is None or base - c < best_gap:
                best_gap = base - c
                # the lowest such completion is the first minimiser of this head
                first = at_least[c] & -at_least[c]
                best_cells = (*head, idx, first.bit_length() - 1)
    witness = None
    if best_cells is not None:
        witness = PointSet._trusted(n, [partition._cell(j, n, k) for j in best_cells])
    return GapScanResult(n, k, size, best_gap, witness, weak_count)


def _oracle_projection_size(points: PointSet, axis: int) -> int:
    if points.dim == 1:
        if axis != 1:
            raise ValueError(f"axis {axis} out of range 1..1")
        return 1 if len(points) else 0
    return len(project(points, axis))


def _oracle_validate(self) -> None:
    if not isinstance(self.source, PointSet):
        raise ValueError(f"certificate source is not a PointSet: {self.source!r}")
    n = self.source.dim
    if len(self.parts) != n or len(self.per_part_projection_sizes) != n:
        raise ValueError("certificate must carry one part per coordinate")
    for i, part in enumerate(self.parts, start=1):
        if not isinstance(part, PointSet):
            raise ValueError(f"part {i} is not a PointSet: {part!r}")
    for size in self.per_part_projection_sizes:
        if type(size) is not int:
            raise ValueError(f"recorded projection size {size!r} is not an int")
    seen: set[Point] = set()
    total = 0
    for i, part in enumerate(self.parts, start=1):
        total += len(part)
        for p in part:
            if p not in self.source:
                raise ValueError(f"part {i} contains {p} not in the source")
            if p in seen:
                raise ValueError(f"point {p} appears in two parts")
            seen.add(p)
        if _oracle_projection_size(part, i) != len(part):
            raise ValueError(f"deleting coordinate {i} is not injective on part {i}")
        if self.per_part_projection_sizes[i - 1] != len(part):
            raise ValueError("recorded projection sizes disagree with the parts")
    if total != len(self.source):
        raise ValueError("parts do not cover the source set")


def _oracle_greedy_partition(A: PointSet, check: bool = True) -> PartitionCertificate:
    if check:
        bad = _oracle_find_strong_pair(A.points)
        if bad is not None:
            raise NotWeakAntichainError(*bad)
    n = A.dim
    remaining = set(A.points)
    raw_parts: list[set[Point]] = []
    for i in range(n):
        fiber_min: dict[tuple, Point] = {}
        for p in remaining:
            fiber = p[:i] + p[i + 1 :]
            best = fiber_min.get(fiber)
            if best is None or p[i] < best[i]:
                fiber_min[fiber] = p
        chosen = set(fiber_min.values())
        raw_parts.append(chosen)
        remaining -= chosen
    if remaining:
        bad = _oracle_find_strong_pair(A.points)
        if bad is None:
            raise RuntimeError("leftover points without a strongly ordered pair")
        raise NotWeakAntichainError(*bad)
    parts = tuple(PointSet._trusted(n, part) for part in raw_parts)
    sizes = tuple(_oracle_projection_size(part, i + 1) for i, part in enumerate(parts))
    return PartitionCertificate(source=A, parts=parts, per_part_projection_sizes=sizes)


def _oracle_projection_gap(A: PointSet) -> GapReport:
    sizes = tuple(_oracle_projection_size(A, i) for i in range(1, A.dim + 1))
    return GapReport(len(A), sizes, sum(sizes) - len(A))


def _outcome(fn, *args):
    """A sampler's result, or the type and message of the error it raised."""
    try:
        return fn(*args)
    except (TargetUnreachableError, ValueError) as exc:
        return type(exc), str(exc)


BOXES = [(n, k) for n in range(1, 5) for k in range(1, 9)]

# ---------------------------------------------------------------------------
# sampler


def _sampler_sizes(n, k):
    """Every feasible size in small boxes; the criterion-2 range 0..16 in large ones."""
    capacity = k**n - (k - 1) ** n
    return range(min(capacity, 16) + 1)


@pytest.mark.parametrize("n,k", BOXES)
def test_sampler_matches_oracle(n, k):
    for size in _sampler_sizes(n, k):
        for seed in range(200):
            expected = _outcome(_oracle_random_weak_antichain, n, k, size, seed)
            assert _outcome(random_weak_antichain, n, k, size, seed) == expected, (size, seed)


@pytest.mark.parametrize(
    "n,k", sorted({(1, 6), (2, 3), (3, 5)} | set(product(range(1, 5), (1, 2, 3, 5, 8))))
)
def test_sampler_matches_oracle_on_both_sides_of_the_table_cap(n, k, monkeypatch):
    # the bitset path runs under any cap its mask table fits, the pairwise
    # path under any cap below that, 0 included; all draw n randrange(k) per
    # candidate, coordinate by coordinate
    fits = 2 * n * k ** (n + 1)
    assert fits <= partition._TABLE_CAP
    caps = (partition._TABLE_CAP, fits, fits - 1, 0)
    expected = {
        (size, seed): _outcome(_oracle_random_weak_antichain, n, k, size, seed)
        for size in _sampler_sizes(n, k)
        for seed in range(50)
    }

    def check(cap):
        monkeypatch.setattr(partition, "_TABLE_CAP", cap)
        for (size, seed), want in expected.items():
            assert _outcome(random_weak_antichain, n, k, size, seed) == want, (size, seed, cap)

    # the per-cell memo depends on the box alone: one filled fresh at the
    # smallest cap the table fits serves every cap, and is kept across them
    assert k ** (2 * n) <= partition._MEMO_CAP
    partition._blocked_memo.cache_clear()
    check(fits)
    memo = partition._blocked_memo(n, k)
    assert any(mask is not None for mask in memo)
    for cap in caps:
        check(cap)
    assert partition._blocked_memo(n, k) is memo
    table = partition._mask_table(n, k)
    for j, mask in enumerate(memo):
        assert mask in (None, partition._strong_cells(j, table) | 1 << j), j


def test_sampler_above_the_table_cap_uses_no_masks():
    partition._mask_table.cache_clear()
    partition._blocked_memo.cache_clear()
    n, k = 2, 1_000_000
    assert 2 * n * k ** (n + 1) > partition._TABLE_CAP
    for seed in range(20):
        assert random_weak_antichain(n, k, 12, seed) == _oracle_random_weak_antichain(
            n, k, 12, seed
        )
    assert partition._mask_table.cache_info().currsize == 0
    assert partition._blocked_memo.cache_info().currsize == 0


def test_sampler_above_the_memo_cap_keeps_masks_without_a_memo(monkeypatch):
    # [0,9)^4 is on the bitset path, but its memo would take 9**8 bits
    n, k = 4, 9
    assert 2 * n * k ** (n + 1) <= partition._TABLE_CAP
    assert k ** (2 * n) > partition._MEMO_CAP
    strong_cells = partition._strong_cells
    calls = []

    def counted(j, groups):
        calls.append(j)
        return strong_cells(j, groups)

    monkeypatch.setattr(partition, "_strong_cells", counted)
    partition._blocked_memo.cache_clear()
    for size in _sampler_sizes(n, k):
        for seed in range(20):
            expected = _outcome(_oracle_random_weak_antichain, n, k, size, seed)
            assert _outcome(random_weak_antichain, n, k, size, seed) == expected, (size, seed)
    assert partition._blocked_memo.cache_info().currsize == 0
    # every accepted cell's mask is computed afresh: 20 samples of each size
    assert len(calls) == 20 * sum(_sampler_sizes(n, k))


def test_sampler_memo_stays_within_its_bound():
    # drawing every cell of [0,8)^4 fills its memo: 4096 masks of at most
    # 4096 bits, _MEMO_CAP bits in all, plus each int's header and digit
    # padding (about 2.0 MB on CPython 3.11); sampling another box drops it,
    # so one memo is live at a time
    n, k = 4, 8
    assert k ** (2 * n) == partition._MEMO_CAP
    random_weak_antichain(n, k, 1)  # mask tables and cells, outside the trace
    random_weak_antichain(3, 16, 1)
    tracemalloc.start()
    try:
        memo = partition._blocked_memo(n, k)
        seed = 0
        # a sample of one point accepts its first draw
        while None in memo and seed < 1 << 17:
            for _ in range(4096):
                random_weak_antichain(n, k, 1, seed)
                seed += 1
        assert None not in memo, seed
        _, peak = tracemalloc.get_traced_memory()
        del memo
        random_weak_antichain(3, 16, 1)
        current, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= partition._MEMO_CAP // 8 * 5 // 4, peak
    assert current <= partition._MEMO_CAP // 8 // 16, current


@pytest.mark.parametrize("n,k", [(1, 3), (2, 2), (2, 3), (3, 3), (4, 8)])
def test_sampler_retry_failures_match_oracle(n, k):
    capacity = k**n - (k - 1) ** n
    for size in range(min(capacity, 12) + 1):
        for max_tries in (0, 1, size, size + 2, 2 * size + 1):
            for seed in range(60):
                args = (n, k, size, seed, max_tries)
                expected = _outcome(_oracle_random_weak_antichain, *args)
                assert _outcome(random_weak_antichain, *args) == expected, args


def test_sampler_rejects_bad_boxes_like_oracle():
    for args in [(0, 3, 0), (2, 0, 0), (2, 2, 4), (1, 5, 2), (2, 3, -1)]:
        assert _outcome(random_weak_antichain, *args) == _outcome(
            _oracle_random_weak_antichain, *args
        )


# ---------------------------------------------------------------------------
# bitset primitive and strong-pair check


@pytest.mark.parametrize("n,k", [(1, 1), (1, 5), (2, 1), (2, 4), (3, 3), (4, 2), (3, 5)])
def test_strong_mask_matches_definition(n, k):
    pool = partition.box_points(n, k)
    table = partition._mask_table(n, k)
    runs = [k ** (n - 1 - i) for i in range(n)]
    assert [(run, radix) for run, radix, _, _ in table] == [(run, k) for run in runs]
    for j, p in enumerate(pool):
        # the table's run and radix fields decode cell j's coordinates
        assert tuple(j // run % radix for run, radix, _, _ in table) == p
        expected = sum(
            1 << i
            for i, q in enumerate(pool)
            if all(a < b for a, b in zip(p, q)) or all(b < a for a, b in zip(p, q))
        )
        assert partition._strong_cells(j, table) == expected, p


def test_inlined_draw_is_randrange():
    # the sampler draws randrange(k) as getrandbits(k.bit_length()) until
    # below k, as CPython's Random does; a change there must fail here
    for k in [*range(1, 21), 10**6, 2**31]:
        bits = k.bit_length()
        for seed in range(10):
            getrandbits = random.Random(seed).getrandbits
            inlined = []
            for _ in range(1000):
                r = getrandbits(bits)
                while r >= k:
                    r = getrandbits(bits)
                inlined.append(r)
            randrange = random.Random(seed).randrange
            assert inlined == [randrange(k) for _ in range(1000)], (k, seed)


def test_find_strong_pair_matches_oracle_on_sorted_input():
    rng = random.Random(7)
    for _ in range(2000):
        n = rng.randint(1, 4)
        pts = sorted({tuple(rng.randrange(4) for _ in range(n)) for _ in range(rng.randint(0, 7))})
        assert _comparable_pair(pts, lt) == _oracle_find_strong_pair(pts), pts


def test_greedy_partition_still_screens_its_input():
    # the screen runs on every set the sampler did not build, since it is a
    # correctness check
    A = random_weak_antichain(3, 4, 6, seed=3)
    bad = PointSet(3, [*A, (9, 9, 9)])
    with pytest.raises(partition.NotWeakAntichainError) as err:
        greedy_partition(bad)
    assert (err.value.lower, err.value.upper) == _oracle_find_strong_pair(bad.points)


# the sampler's bitset path in every box of BOXES, its pairwise path in one
# box per dimension past the table cap
PROOF_BOXES = [*BOXES, (1, 2000), (2, 2000), (3, 30), (4, 14)]


def test_sampled_sets_carry_a_proof_that_holds():
    paths = set()
    for n, k in PROOF_BOXES:
        paths.add(2 * n * k ** (n + 1) <= partition._TABLE_CAP)
        for size in _sampler_sizes(n, k):
            for seed in range(30):
                A = random_weak_antichain(n, k, size, seed)
                assert A._weak and _oracle_find_strong_pair(A.points) is None, (n, k, size, seed)
                rebuilt = PointSet(A.dim, A.points)
                assert not rebuilt._weak
                cert = greedy_partition(rebuilt)
                assert greedy_partition(A) == cert, (n, k, size, seed)
                assert not any(part._weak for part in cert.parts)
    assert paths == {True, False}


def test_greedy_partition_skips_the_screen_only_on_sampled_sets(monkeypatch):
    screened = []

    def screen(pts, rel):
        screened.append(pts)
        return _comparable_pair(pts, rel)

    monkeypatch.setattr(partition, "_comparable_pair", screen)
    A = random_weak_antichain(4, 8, 12, seed=5)
    greedy_partition(A)
    assert screened == []
    greedy_partition(PointSet(4, A.points))
    assert screened == [A.points]


def test_only_the_sampler_marks_a_set_proved():
    A = random_weak_antichain(3, 4, 6, seed=3)
    B = PointSet(3, A.points)
    derived = [
        B,
        PointSet.in_box(3, 4, A.points),
        PointSet._trusted(3, A.points),
        project(A, 1),
        *greedy_partition(B).parts,
        *(exhaustive_gap_scan(2, 3, size).witness for size in range(4)),
        max_antichain(GridPoset(2, 3, Order.STRONG)).witness,
        max_antichain(GridPoset(3, 3)).witness,
    ]
    assert not any(S._weak for S in derived)


# ---------------------------------------------------------------------------
# greedy partition, certificate check and projection sizes


def _random_point_sets(seed: int, count: int):
    """Seeded sets in n = 1..4, shifted to negative coordinates: two in three
    are weak antichains, the rest arbitrary subsets of a small box."""
    rng = random.Random(seed)
    for t in range(count):
        n = 1 + t % 4
        k = rng.randint(1, 6)
        lo = rng.randint(-4, 1)
        if t % 3:
            capacity = k**n - (k - 1) ** n
            A = random_weak_antichain(n, k, rng.randint(0, min(capacity, 16)), seed=t)
            pts = [tuple(c + lo for c in p) for p in A]
        else:
            cells = rng.randint(0, 10)
            pts = {tuple(rng.randrange(lo, lo + k) for _ in range(n)) for _ in range(cells)}
        yield PointSet(n, pts)


def _partition_outcome(fn, A, check):
    try:
        return fn(A, check)
    except NotWeakAntichainError as exc:
        return type(exc), str(exc), exc.lower, exc.upper


def _validate_outcome(validate, cert):
    try:
        validate(cert)
    except ValueError as exc:
        return type(exc), str(exc)
    return None


def _tamper(cert: PartitionCertificate, rng: random.Random) -> PartitionCertificate:
    """``cert`` with up to three random defects: moved, copied, foreign or
    dropped points, wrong recorded sizes, or a missing or extra part."""
    n = cert.source.dim
    parts = [set(part) for part in cert.parts]
    sizes = list(cert.per_part_projection_sizes)
    for _ in range(rng.randint(0, 3)):
        kind = rng.randrange(6)
        pts = sorted(p for part in parts for p in part)
        j = rng.randrange(len(parts)) if parts else None
        if kind == 0 and pts and j is not None:
            p = rng.choice(pts)
            for part in parts:
                part.discard(p)
            parts[j].add(p)
        elif kind == 1 and pts and j is not None:
            parts[j].add(rng.choice(pts))
        elif kind == 2 and j is not None:
            for _ in range(rng.randint(1, 3)):
                q = tuple(rng.randint(-6, 6) for _ in range(n))
                if q not in cert.source:
                    parts[j].add(q)
        elif kind == 3 and pts:
            p = rng.choice(pts)
            for part in parts:
                part.discard(p)
        elif kind == 4 and sizes:
            sizes[rng.randrange(len(sizes))] += rng.choice((-1, 1))
        elif kind == 5:
            if rng.random() < 0.5:
                parts.append(set())
                sizes.append(0)
            elif rng.random() < 0.5 and parts:
                parts.pop()
            elif sizes:
                sizes.pop()
    return PartitionCertificate(cert.source, tuple(PointSet(n, p) for p in parts), tuple(sizes))


def _tamper_one_part(A: PointSet, rng: random.Random) -> PartitionCertificate:
    """The one-part certificate ``(A, empty, ..., empty)`` of sizes
    ``(len(A), 0, ..., 0)``, with part 1 kept as ``A`` itself, and up to two
    defects: a wrong size, a point in a later part, a size that is a float or
    a bool of the right value, or a part or source that is a list."""
    n = A.dim
    source: object = A
    parts: list[object] = [A, *[PointSet._trusted(n, ())] * (n - 1)]
    sizes: list[object] = [len(A), *[0] * (n - 1)]
    for _ in range(rng.randint(0, 2)):
        kind = rng.randrange(5)
        j = rng.randrange(n)
        if kind == 0:
            sizes[j] += rng.choice((-1, 1))
        elif kind == 1 and n > 1:
            j = rng.randrange(1, n)
            pool = [*A, tuple(rng.randint(-6, 6) for _ in range(n))]
            parts[j] = PointSet(n, {*parts[j], rng.choice(pool)})
        elif kind == 2:
            sizes[j] = float(sizes[j])
        elif kind == 3 and sizes[j] in (0, 1):
            sizes[j] = bool(sizes[j])
        elif kind == 4 and rng.random() < 0.2:
            if rng.random() < 0.5:
                source = list(A)
            else:
                parts[j] = list(parts[j])
    return PartitionCertificate(source, tuple(parts), tuple(sizes))


def test_greedy_partition_matches_oracle():
    seen = set()
    for A in _random_point_sets(11, 4000):
        for check in (True, False):
            expected = _partition_outcome(_oracle_greedy_partition, A, check)
            assert _partition_outcome(greedy_partition, A, check) == expected, (A.points, check)
            seen.add((check, isinstance(expected, PartitionCertificate)))
    # both screens fail on some sets, and some non-antichains still split
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_validate_matches_oracle_on_tampered_certificates():
    rng = random.Random(5)
    messages = set()
    for A in _random_point_sets(12, 4000):
        if isinstance(_partition_outcome(_oracle_greedy_partition, A, False), tuple):
            continue
        cert = _tamper(_oracle_greedy_partition(A, False), rng)
        expected = _validate_outcome(_oracle_validate, cert)
        assert _validate_outcome(PartitionCertificate.validate, cert) == expected, cert
        if expected is not None:
            messages.add(expected[1].split()[0])
    # every message: "certificate", "part", "point", "deleting", "recorded", "parts"
    assert len(messages) == 6, messages


def test_one_part_shortcut_matches_oracle():
    # certificates whose part 1 is the source object take validate's
    # shortcut when every later part and size is empty; the shortcut must
    # raise what the general loop raises, message for message
    rng = random.Random(6)
    messages = set()
    taken = 0
    for A in _random_point_sets(14, 4000):
        cert = _tamper_one_part(A, rng)
        expected = _validate_outcome(_oracle_validate, cert)
        assert _validate_outcome(PartitionCertificate.validate, cert) == expected, cert
        if expected is not None:
            messages.add(expected[1])
        if cert.parts[0] is cert.source and not any(map(len, cert.parts[1:])):
            taken += 1
    assert taken > 1000
    # the shortcut's own message, the type rules, and the general loop's
    # messages for the certificates that leave the shortcut
    for want in [
        "deleting coordinate 1 is not injective on part 1",
        "certificate source is not a PointSet: ",
        "part 2 is not a PointSet: ",
        "recorded projection size 1.0 is not an int",
        "recorded projection size False is not an int",
        "recorded projection sizes disagree with the parts",
        "appears in two parts",
        "not in the source",
    ]:
        assert any(want in m for m in messages), want


def test_validate_refuses_malformed_certificates():
    A = PointSet(2, [(0, 1), (1, 0)])
    one = PointSet(2, [(0, 1)])
    cases = [
        # sizes equal to the right ones but not ints, on both paths
        (A, (A, PointSet(2)), (2.0, 0), "recorded projection size 2.0 is not an int"),
        (one, (one, PointSet(2)), (True, False), "recorded projection size True is not an int"),
        (A, (PointSet(2, A), PointSet(2)), (2, 0.0), "recorded projection size 0.0 is not an int"),
        # a source or a part that is not a PointSet
        ([(0, 1), (1, 0)], (A, PointSet(2)), (2, 0), "certificate source is not a PointSet"),
        (A, (A, [(0, 1)]), (2, 0), "part 2 is not a PointSet"),
        # the shortcut: a source that is not injective along axis 1
        (
            PointSet(2, [(0, 0), (1, 0)]),
            None,
            (2, 0),
            "deleting coordinate 1 is not injective on part 1",
        ),
    ]
    for source, parts, sizes, message in cases:
        if parts is None:
            parts = (source, PointSet(2))
        cert = PartitionCertificate(source, parts, sizes)
        with pytest.raises(ValueError) as err:
            cert.validate()
        assert str(err.value).startswith(message), (str(err.value), message)
        assert _validate_outcome(_oracle_validate, cert) == (ValueError, str(err.value))
    # the well-formed one-part and two-part certificates still hold
    PartitionCertificate(A, (A, PointSet(2)), (2, 0)).validate()
    greedy_partition(PointSet(2, [(0, 0), (0, 1), (1, 0)])).validate()


def test_image_size_cache_is_a_recount():
    # every way a set is built starts with an empty cache, and the cache,
    # once filled, holds each axis's recount and is what later calls read
    A = random_weak_antichain(3, 4, 6, seed=3)
    built = [
        A,
        random_weak_antichain(4, 8, 12, seed=9),
        random_weak_antichain(3, 30, 10, seed=2),  # the sampler's pairwise path
        random_weak_antichain(2, 5, 0, seed=1),
        PointSet(3, A.points),
        PointSet(1, [(4,), (7,)]),
        PointSet._trusted(3, A.points),
        PointSet.in_box(3, 4, A.points),
        project(A, 1),
        project(A, 3),
        # parts that greedy_partition builds, none of them the source
        *greedy_partition(PointSet(2, [(0, 0), (0, 1), (1, 0)])).parts,
    ]
    for S in built:
        assert S._sizes is None, S
        want = tuple(_oracle_projection_size(S, i) for i in range(1, S.dim + 1))
        sizes = partition._image_sizes(S)
        assert sizes == want and S._sizes is sizes, S
        assert partition._image_sizes(S) is sizes
        assert projection_gap(S) == _oracle_projection_gap(S)
        assert [projection_size(S, i) for i in range(1, S.dim + 1)] == list(want)


def test_image_size_cache_is_invisible():
    for A in _random_point_sets(15, 200):
        cold = PointSet(A.dim, A.points)
        projection_gap(A)
        assert A._sizes is not None and cold._sizes is None
        assert A == cold and cold == A and hash(A) == hash(cold)
        assert repr(A) == repr(cold)
        for S in (A, cold):
            back = pickle.loads(pickle.dumps(S))
            assert back == A and hash(back) == hash(A) and repr(back) == repr(A)
            assert back._sizes in (None, A._sizes)
            assert projection_gap(back) == projection_gap(A)


def _load_state(slots: dict) -> PointSet:
    """Unpickle a set pickled with the slots-only state ``(None, slots)``, as older
    versions wrote it."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(PointSet, "__getstate__", lambda self: (None, slots))
        data = pickle.dumps(PointSet._trusted(slots["dim"], ()))
    return pickle.loads(data)


def test_pickles_from_before_the_private_slots_load_and_certify():
    base = {"dim": 2, "points": ((0, 1), (1, 0))}
    for extra in [{}, {"_weak": False}, {"_weak": True}, {"_weak": False, "_sizes": (2, 2)}]:
        A = _load_state({**base, **extra})
        assert A == PointSet(2, [(0, 1), (1, 0)]) and (A._weak, A._sizes) == (False, None)
        cert = greedy_partition(A)
        cert.validate()
        assert cert.per_part_projection_sizes == (2, 0)
        assert projection_gap(A) == GapReport(2, (2, 2), 2)


def test_pickled_states_are_not_trusted():
    # forged image sizes would be printed as the gap, and a forged proof would
    # let a strongly ordered pair past the partition's screen
    forged = _load_state({"dim": 2, "points": ((0, 0), (1, 1)), "_weak": True, "_sizes": (0, 0)})
    assert projection_gap(forged) == GapReport(2, (2, 2), 2)
    with pytest.raises(NotWeakAntichainError):
        greedy_partition(forged)
    # the points are checked and sorted like any outside input
    shuffled = _load_state({"dim": 2, "points": ((1, 0), (0, 1))})
    assert shuffled.points == ((0, 1), (1, 0)) and (1, 0) in shuffled
    for points in [((0, 1), (0, 1)), ((0, 1, 2),), ((0, 1.5),)]:
        with pytest.raises(ValueError):
            _load_state({"dim": 2, "points": points})


def test_sampled_sets_round_trip_without_their_proof():
    for size in range(6):
        A = random_weak_antichain(3, 4, size, seed=size)
        projection_gap(A)
        assert A._weak and A._sizes is not None
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(A, protocol))
            assert back == A and (back._weak, back._sizes) == (False, None), (size, protocol)


def test_projection_sizes_match_oracle():
    for A in _random_point_sets(13, 2000):
        assert projection_gap(A) == _oracle_projection_gap(A), A.points
        for axis in range(-1, A.dim + 3):
            expected = _outcome(_oracle_projection_size, A, axis)
            assert _outcome(projection_size, A, axis) == expected, (A.points, axis)


def _criterion2_sweep(trials: int) -> None:
    """The first ``trials`` sets of the criterion-2 stream against the oracles."""
    rng = random.Random(2024)
    for t in range(trials):
        size = rng.randint(0, 16)
        A = random_weak_antichain(4, 8, size, seed=t)
        assert A == _oracle_random_weak_antichain(4, 8, size, seed=t), t
        # greedy_partition trusts the sampler's proof, so check it pairwise
        assert _oracle_find_strong_pair(A.points) is None, t
        cert = greedy_partition(A)
        assert cert == _oracle_greedy_partition(A), t
        cert.validate()
        _oracle_validate(cert)
        assert projection_gap(A) == _oracle_projection_gap(A), t


def test_criterion2_prefix_matches_oracles():
    _criterion2_sweep(1000)


# ---------------------------------------------------------------------------
# exhaustive gap scan


def _scan_cases(oracle: bool):
    # every scan within 50k subsets; the oracle runs up to one past the
    # capacity k^n - (k-1)^n, above which no weak antichain exists and its
    # answer is (None, None, 0) at the price of C(k^n, size) strong-pair checks
    for n in range(1, 5):
        for k in range(1, 6):
            cells = k**n
            capacity = cells - (k - 1) ** n
            for size in range(cells + 2):
                if math.comb(cells, size) <= 50_000 and (size <= capacity + 1) == oracle:
                    yield n, k, size


@pytest.mark.parametrize("n,k,size", list(_scan_cases(oracle=True)))
def test_gap_scan_matches_oracle(n, k, size):
    res = exhaustive_gap_scan(n, k, size)
    assert (res.n, res.k, res.size) == (n, k, size)
    assert (res.min_gap, res.witness, res.weak_count) == _oracle_exhaustive_gap_scan(n, k, size)


def test_gap_scan_above_capacity_finds_nothing():
    cases = list(_scan_cases(oracle=False))
    assert len(cases) > 10
    for n, k, size in cases:
        res = exhaustive_gap_scan(n, k, size)
        assert (res.min_gap, res.witness, res.weak_count) == (None, None, 0), (n, k, size)


def test_gap_scan_edge_cases():
    empty = exhaustive_gap_scan(3, 4, 0)
    assert (empty.min_gap, empty.witness, empty.weak_count) == (0, PointSet(3), 1)
    over = exhaustive_gap_scan(2, 2, 5)
    assert (over.min_gap, over.witness, over.weak_count) == (None, None, 0)
    line = exhaustive_gap_scan(1, 7, 2)
    assert (line.min_gap, line.witness, line.weak_count) == (None, None, 0)
    point = exhaustive_gap_scan(4, 1, 1)
    assert (point.min_gap, point.witness, point.weak_count) == (3, PointSet(4, [(0,) * 4]), 1)


def test_gap_scan_budget_still_counts_all_subsets():
    # C(27, 4) = 17550: one under the count fails, the count itself passes
    with pytest.raises(BudgetExceededError, match="17550 subsets of size 4 exceed budget 17549"):
        exhaustive_gap_scan(3, 3, 4, budget=17549)
    assert exhaustive_gap_scan(3, 3, 4, budget=17550).weak_count == 11660


@pytest.mark.parametrize("n,k,size", [(3, 3, 5), (3, 3, 6), (4, 3, 3), (2, 6, 4), (2, 5, 5)])
def test_gap_scan_matches_loop_oracle_above_the_combinations_cap(n, k, size):
    assert math.comb(k**n, size) > 50_000
    expected = _oracle_loop_gap_scan(n, k, size)
    assert expected.min_gap is not None
    assert exhaustive_gap_scan(n, k, size) == expected


def test_gap_scan_of_singletons_is_linear_in_the_box():
    # a head-less scan used to rewrite the million-bit completion set once per cell
    start = time.perf_counter()
    res = exhaustive_gap_scan(2, 1000, 1)
    elapsed = time.perf_counter() - start
    assert (res.min_gap, res.witness, res.weak_count) == (1, PointSet(2, [(0, 0)]), 10**6)
    assert elapsed < 5.0, elapsed


@pytest.fixture
def no_box(monkeypatch):
    def refuse(n, k):
        raise AssertionError(f"box_points({n}, {k}) built")

    monkeypatch.setattr(partition, "box_points", refuse)


def test_gap_scan_checks_budget_before_building_the_box(no_box, capsys):
    message = "810000 subsets of size 1 exceed budget 10; use random_gap_scan instead"
    with pytest.raises(BudgetExceededError) as err:
        exhaustive_gap_scan(4, 30, 1, budget=10)
    assert str(err.value) == message
    assert main(["gap-scan", "--n", "4", "--k", "30", "--size", "1", "--budget", "10"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("n,k", [(1, 1), (1, 7), (2, 5), (3, 4), (2, 1000)])
def test_gap_scan_of_singletons_builds_no_box(n, k, no_box):
    # the oracle builds its box through this module's own box_points
    res = exhaustive_gap_scan(n, k, 1)
    assert (res.min_gap, res.witness, res.weak_count) == (n - 1, PointSet(n, [(0,) * n]), k**n)
    if k**n <= 100:
        assert res == _oracle_loop_gap_scan(n, k, 1)


def _table_bits(n: int, k: int) -> int:
    """Size of the scan's per-cell tables for the box [0,k)^n."""
    return (n + 1) * k ** (2 * n)


@pytest.fixture
def no_table(monkeypatch):
    def refuse(n, k):
        raise AssertionError(f"_scan_table({n}, {k}) built")

    monkeypatch.setattr(partition, "_scan_table", refuse)


@pytest.mark.parametrize("tabled", [False, True], ids=["on-demand", "tabled"])
def test_gap_scan_value_sources_match_oracles(tabled, monkeypatch):
    # cap 0 computes every cell's values when it is taken; a cap of exactly
    # the tables' size builds them
    scans = 0
    for n, k, size in _scan_cases(oracle=True):
        if size < 2 or math.comb(k**n, size) > 5_000:
            continue
        monkeypatch.setattr(partition, "_TABLE_CAP", _table_bits(n, k) if tabled else 0)
        partition._scan_table.cache_clear()
        res = exhaustive_gap_scan(n, k, size)
        # a scan above the box's capacity returns before it tables anything
        built = tabled and size <= k**n - (k - 1) ** n
        assert partition._scan_table.cache_info().currsize == built, (n, k, size)
        expected = _oracle_exhaustive_gap_scan(n, k, size)
        assert (res.min_gap, res.witness, res.weak_count) == expected, (n, k, size)
        assert res == _oracle_loop_gap_scan(n, k, size), (n, k, size)
        scans += 1
    assert scans > 40


@pytest.mark.parametrize("tabled", [False, True], ids=["on-demand", "tabled"])
def test_gap_scan_matches_previous_scan(tabled, monkeypatch):
    # the two cuts skip only pairs that cannot strictly improve, so the
    # minimum, the witness and the weak count are the previous scan's
    if not tabled:
        monkeypatch.setattr(partition, "_TABLE_CAP", 0)
    scans = 0
    for n, k, size in _scan_sweep_cases(max_subsets=200_000):
        res = exhaustive_gap_scan(n, k, size)
        assert res == _previous_gap_scan(n, k, size), (n, k, size)
        scans += res.min_gap is not None
    assert scans > 80


def test_gap_scan_keeps_an_improvement_one_below_the_bound():
    # the one box found where the best gap improves at a head whose bound,
    # its image count plus n - size minus the fields holding a completion,
    # is exactly one below the best gap (7, then 6), so a cut one too eager
    # reports 7; the loop oracle and the previous scan give these values, and
    # the script sweep checks them again
    res = exhaustive_gap_scan(3, 3, 10, budget=math.comb(27, 10))
    block = [p for p in product(range(2), range(2), range(3)) if p[:2] != (1, 1)]
    witness = PointSet(3, [*block, (1, 1, 0)])
    assert (res.min_gap, res.witness, res.weak_count) == (6, witness, 723008)


@pytest.mark.parametrize("n,k,size", [(3, 3, 5), (4, 3, 3), (2, 6, 4)])
def test_gap_scan_without_tables_matches_loop_oracle_above_the_combinations_cap(
    n, k, size, monkeypatch
):
    # test_gap_scan_matches_loop_oracle_above_the_combinations_cap runs them tabled
    monkeypatch.setattr(partition, "_TABLE_CAP", 0)
    assert exhaustive_gap_scan(n, k, size) == _oracle_loop_gap_scan(n, k, size)


def test_gap_scan_one_bit_under_the_table_size_builds_no_table(monkeypatch, no_table):
    for n, k, size in [(3, 3, 4), (2, 5, 4), (4, 2, 5), (1, 4, 2)]:
        monkeypatch.setattr(partition, "_TABLE_CAP", _table_bits(n, k) - 1)
        assert exhaustive_gap_scan(n, k, size) == _oracle_loop_gap_scan(n, k, size)


@pytest.mark.parametrize("n,k", [(1, 1500), (2, 35), (3, 11), (4, 6), (5, 4)])
def test_gap_scan_above_the_table_cap_builds_no_table(n, k, no_table):
    assert _table_bits(n, k) > partition._TABLE_CAP
    # two cells on one line share one image, so the least gap is 2n - 3 at
    # the first two cells; the pairs strongly comparable along every axis
    # are the C(k, 2)^n ways to pick a lower and an upper value per axis
    res = exhaustive_gap_scan(n, k, 2)
    if n == 1:
        assert (res.min_gap, res.witness, res.weak_count) == (None, None, 0)
    else:
        witness = PointSet(n, [(0,) * n, (0,) * (n - 1) + (1,)])
        weak = math.comb(k**n, 2) - math.comb(k, 2) ** n
        assert (res.min_gap, res.witness, res.weak_count) == (2 * n - 3, witness, weak)


def test_gap_scan_rejects_a_negative_budget(no_box, capsys):
    # after the size and box checks, before the subsets are counted
    for args in [(2, 3, 0), (2, 3, 1), (2, 3, 2), (4, 30, 3)]:
        with pytest.raises(ValueError) as err:
            exhaustive_gap_scan(*args, budget=-1)
        assert type(err.value) is ValueError and str(err.value) == "budget must be >= 0", args
    with pytest.raises(ValueError, match="^size must be >= 0$"):
        exhaustive_gap_scan(2, 3, -1, budget=-1)
    with pytest.raises(ValueError, match="^box needs n >= 1 and k >= 1$"):
        exhaustive_gap_scan(2, 0, 1, budget=-1)
    assert exhaustive_gap_scan(2, 3, 0, budget=1).weak_count == 1
    argv = ["gap-scan", "--n", "2", "--k", "3", "--size", "0", "--budget", "-1"]
    assert main(argv) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: budget must be >= 0\nusage: antichains gap-scan")


def test_cell_decodes_the_box_numbering():
    for n, k in [(1, 1), (1, 6), (2, 3), (3, 4), (4, 2), (2, 7)]:
        assert [partition._cell(j, n, k) for j in range(k**n)] == list(box_points(n, k))


def test_gap_scan_of_size_zero_builds_no_box(no_box):
    res = exhaustive_gap_scan(3, 4, 0)
    assert (res.min_gap, res.witness, res.weak_count) == (0, PointSet(3), 1)


def test_gap_scan_rejects_bad_boxes_before_building_them(no_box):
    for args, message in [
        ((0, 3, 1), "box needs n >= 1 and k >= 1"),
        ((2, 0, 0), "box needs n >= 1 and k >= 1"),
        ((0, 3, -1), "size must be >= 0"),
    ]:
        with pytest.raises(ValueError) as err:
            exhaustive_gap_scan(*args)
        assert type(err.value) is ValueError and str(err.value) == message, args


def _scan_sweep_cases(max_subsets: int = 2_000_000):
    # every scan within the default budget of a box of at most 300 cells in
    # n = 1..5, k = 1..10, up to one past the capacity
    for n in range(1, 6):
        for k in range(1, 11):
            cells = k**n
            if cells > 300:
                continue
            capacity = cells - (k - 1) ** n
            for size in range(1, capacity + 2):
                if math.comb(cells, size) <= max_subsets:
                    yield n, k, size


def _scan_sweep() -> int:
    """Every case of ``_scan_sweep_cases``, and the scan that improves at a
    head one below its bound, against the loop oracle and the previous scan."""
    count = 0
    cases = [(n, k, size, 2_000_000) for n, k, size in _scan_sweep_cases()]
    for n, k, size, budget in cases + [(3, 3, 10, math.comb(27, 10))]:
        res = exhaustive_gap_scan(n, k, size, budget)
        assert res == _oracle_loop_gap_scan(n, k, size, budget), (n, k, size)
        assert res == _previous_gap_scan(n, k, size, budget), (n, k, size)
        count += 1
    return count


if __name__ == "__main__":
    trials = int(sys.argv[1])
    _criterion2_sweep(trials)
    print(f"{trials} criterion-2 certificates: sets, parts, checks and gaps agree")
    scans = _scan_sweep()
    print(
        f"{scans} gap scans: minimum gaps, witnesses and weak counts agree with the loop"
        " and the previous scan"
    )
    # the same scans again with every cell's values computed when it is taken
    partition._TABLE_CAP = 0
    scans = _scan_sweep()
    print(f"{scans} gap scans without per-cell tables agree with the loop and the previous scan")
