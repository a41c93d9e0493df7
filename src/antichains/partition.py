"""Greedy partition certificates and projection-gap statistics.

A weak antichain splits into n parts such that deleting coordinate i is
injective on part i; summing the parts bounds the set size by the total of
its n projection sizes.  This module builds that partition constructively,
reports projection gaps, and searches boxes for minimum-gap witnesses.
"""

import math
import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from operator import itemgetter, lt

from .estimate import BudgetExceededError, require_axis, require_int
# ``project`` is unused here, but bench/tracing.py rebinds partition.project
from .lattice import Point, PointSet, _comparable_pair, project  # noqa: F401

__all__ = [
    "NotWeakAntichainError",
    "BudgetExceededError",
    "TargetUnreachableError",
    "PartitionCertificate",
    "GapReport",
    "GapScanResult",
    "projection_size",
    "greedy_partition",
    "projection_gap",
    "box_points",
    "exhaustive_gap_scan",
    "random_weak_antichain",
    "random_gap_scan",
]


class NotWeakAntichainError(ValueError):
    """The input contains a pair ordered strictly in every coordinate."""

    def __init__(self, lower: Point, upper: Point):
        super().__init__(f"not a weak antichain: {lower} strongly below {upper}")
        self.lower = lower
        self.upper = upper


class TargetUnreachableError(RuntimeError):
    """Rejection sampling did not reach the target size within its retry budget."""


@lru_cache(maxsize=16)
def _deleters(n: int) -> tuple:
    """Per axis, a key mapping an n-tuple to its image with that coordinate deleted.

    Two points share a key exactly when they share the image, which is all
    that counting images and grouping fibers need: in dimension 2 the key is
    the remaining coordinate itself, and in dimension 1 it is ``()``.
    """
    if n == 1:
        return (lambda p: (),)
    return tuple(itemgetter(*(j for j in range(n) if j != i)) for i in range(n))


def projection_size(points: PointSet, axis: int) -> int:
    """Size of the image after deleting coordinate ``axis``.

    In dimension 1 the deleted-coordinate image is a single abstract point,
    so the size is 1 for non-empty sets and 0 otherwise.
    """
    require_axis(axis, points.dim)
    return _image_sizes(points)[axis - 1]


def _image_sizes(A: PointSet) -> tuple[int, ...]:
    """Per axis, the size of ``A``'s image with that coordinate deleted.

    Computed on the first call and kept in the set's ``_sizes`` slot, so the
    partition, its check and the gap report of one set build each image once.
    """
    sizes = A._sizes
    if sizes is None:
        pts = A.points
        sizes = A._sizes = tuple([len(set(map(key, pts))) for key in _deleters(A.dim)])
    return sizes


@lru_cache(maxsize=16)
def _empty_parts(n: int) -> tuple[PointSet, ...]:
    """The n - 1 empty parts after a one-part certificate's first, one shared set."""
    return (PointSet._trusted(n, ()),) * (n - 1)


# Bitset kernel.  Cell j of the box [0,k)^n is box_points(n, k)[j], the
# mixed-radix (row-major) numbering, and a set of cells is an int with bit j
# set for cell j.  Along axis i a coordinate step moves the index by
# run = k**(n-1-i), so the cells with coordinate < v form, in every period of
# k*run bits, a block of v*run bits: (R << v*run) - R, where R has one bit at
# the start of each period, R = (2**(k**n) - 1) // (2**(k*run) - 1).  The
# cells strongly comparable to cell j are the AND over the axes of these
# masks, or of their upper counterparts, tabled k per side and axis and
# indexed by j's coordinate on the axis, j // run % k.  The cells that share
# p's image along axis i, the line through p, are a comb of k bits spaced
# run apart, (2**(k*run) - 1) // (2**run - 1), shifted to the line's first
# cell j - p[i]*run.  The gap scan tables both per cell where they fit
# _TABLE_CAP.

#: largest table, in bits, that the sampler or the gap scan builds; in bigger
#: boxes the sampler tests candidates pairwise, in memory that does not grow
#: with the box, and the scan computes each cell's values when it takes it
_TABLE_CAP = 1 << 22

#: largest per-cell memo, in bits, that the sampler keeps: k**n blocked masks
#: of k**n bits each, so [0,8)^4 fits (2 MB when full); one box's memo is live
#: at a time, and bigger boxes compute each accepted cell's mask afresh
_MEMO_CAP = 1 << 24


def _axis_masks(n: int, k: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """Per axis, the cells with coordinate < v and those with coordinate > v, v in range(k)."""
    full = (1 << k**n) - 1
    axes = []
    for i in range(n):
        run = k ** (n - 1 - i)
        period = k * run
        r = full // ((1 << period) - 1)
        top = r << period
        below = tuple((r << v * run) - r for v in range(k))
        above = tuple(top - (r << (v + 1) * run) for v in range(k))
        axes.append((below, above))
    return tuple(axes)


@lru_cache(maxsize=8)
def _mask_table(n: int, k: int) -> tuple[tuple[int, int, tuple, tuple], ...]:
    """Per axis, ``(run, k, below, above)``: cell j's coordinate on the axis is
    ``v = j // run % k``, and ``below[v]`` (``above[v]``) holds the cells with
    a smaller (larger) coordinate there, from :func:`_axis_masks`.

    The table holds 2*n*k masks of k**n bits.
    """
    return tuple((k ** (n - 1 - i), k, lo, hi) for i, (lo, hi) in enumerate(_axis_masks(n, k)))


def _strong_cells(j: int, table) -> int:
    """Cells strictly below or strictly above cell ``j`` in every coordinate.

    Starts from the first axis's masks and ANDs in the rest, so a box with a
    single axis takes no AND at all.
    """
    rest = iter(table)
    run, k, lo, hi = next(rest)
    v = j // run % k
    below, above = lo[v], hi[v]
    for run, k, lo, hi in rest:
        v = j // run % k
        below &= lo[v]
        above &= hi[v]
    return below | above


def _cell_values(n: int, k: int):
    """``values(j)``: cell j's strongly comparable cells, and the lines through
    it packed into one int, axis i's comb in the k**n-bit field at i*k**n."""
    table = _mask_table(n, k)
    combs = [
        (run, ((1 << k * run) - 1) // ((1 << run) - 1) << i * k**n)
        for i, (run, _, _, _) in enumerate(table)
    ]

    def values(j: int) -> tuple[int, int]:
        lines = 0
        for run, comb in combs:
            lines |= comb << j - j // run % k * run
        return _strong_cells(j, table), lines

    return values


@lru_cache(maxsize=1)
def _blocked_memo(n: int, k: int) -> list:
    """The sampler's per-cell memo for the box [0,k)^n, filled as cells are accepted.

    Entry j, once set, is ``_strong_cells(j, _mask_table(n, k)) | 1 << j``,
    the cells that accepting cell j rules out.  Only the last box's memo is
    kept, within ``_MEMO_CAP`` bits.
    """
    return [None] * k**n


@lru_cache(maxsize=8)
def _scan_table(n: int, k: int) -> tuple[tuple[int, int], ...]:
    """:func:`_cell_values` of every cell of the box [0,k)^n, in (n+1)*k**(2n) bits."""
    return tuple(map(_cell_values(n, k), range(k**n)))


@dataclass(frozen=True)
class PartitionCertificate:
    """An n-part split witnessing the size bound by projection sizes."""

    source: PointSet
    parts: tuple[PointSet, ...]
    per_part_projection_sizes: tuple[int, ...]

    def validate(self) -> None:
        """Re-check all certificate invariants; raises ValueError on failure.

        The source and the parts must be PointSets and the recorded sizes of
        type int, so neither ``2.0`` nor ``True`` passes as a size.  A
        certificate whose first part is the source itself, whose other parts
        are empty and whose sizes are ``(len(source), 0, ..., 0)``, as
        :func:`greedy_partition` returns for a set injective along axis 1,
        holds exactly when the source is injective along axis 1, so the
        source's cached image size decides it.
        """
        source, parts, sizes = self.source, self.parts, self.per_part_projection_sizes
        if not isinstance(source, PointSet):
            raise ValueError(f"certificate source is not a PointSet: {source!r}")
        n = source.dim
        if len(parts) != n or len(sizes) != n:
            raise ValueError("certificate must carry one part per coordinate")
        for i, part in enumerate(parts, start=1):
            if not isinstance(part, PointSet):
                raise ValueError(f"part {i} is not a PointSet: {part!r}")
            if part.dim != n:
                raise ValueError(f"part {i} has dimension {part.dim}, expected {n}")
        for size in sizes:
            if type(size) is not int:
                raise ValueError(f"recorded projection size {size!r} is not an int")
        m = len(source.points)
        if parts[0] is source and sizes == (m,) + (0,) * (n - 1) and parts[1:] == _empty_parts(n):
            if _image_sizes(source)[0] != m:
                raise ValueError("deleting coordinate 1 is not injective on part 1")
            return
        points = set(source.points)
        seen: set[Point] = set()
        total = 0
        for i, (part, key) in enumerate(zip(parts, _deleters(n)), start=1):
            pts = part.points
            # an empty part is a subset, disjoint and injective: only its size is checked
            if pts:
                total += len(pts)
                if not (points.issuperset(pts) and seen.isdisjoint(pts)):
                    # name the first offending point
                    for p in pts:
                        if p not in points:
                            raise ValueError(f"part {i} contains {p} not in the source")
                        if p in seen:
                            raise ValueError(f"point {p} appears in two parts")
                seen.update(pts)
                if len(set(map(key, pts))) != len(pts):
                    raise ValueError(f"deleting coordinate {i} is not injective on part {i}")
            if sizes[i - 1] != len(pts):
                raise ValueError("recorded projection sizes disagree with the parts")
        if total != m:
            raise ValueError("parts do not cover the source set")


def greedy_partition(A: PointSet, check: bool = True) -> PartitionCertificate:
    """Partition a weak antichain so projection i is injective on part i.

    Round i collects, among the points not yet assigned, those minimal in
    coordinate i within their fiber (the points agreeing with them in every
    other coordinate).  For a weak antichain nothing remains after n rounds;
    leftovers prove the input was not one and the offending strongly ordered
    pair is reported.  With ``check`` the input is screened up front for a
    strongly ordered pair, unless it came from :func:`random_weak_antichain`,
    whose sampler tested every accepted point against all earlier ones and
    so already proved it a weak antichain; every other set, the library's
    own included, is screened.
    """
    if check and not A._weak:
        bad = _comparable_pair(A.points, lt)
        if bad is not None:
            raise NotWeakAntichainError(*bad)
    n = A.dim
    remaining = A.points
    m = len(remaining)
    # round 0 reads axis 1's image size from the set's cache, which
    # validate and projection_gap read too; later rounds count what remains
    if _image_sizes(A)[0] == m:
        # every fiber holds one point, so round 0 takes them all
        return PartitionCertificate(A, (A, *_empty_parts(n)), (m,) + (0,) * (n - 1))
    parts: list[PointSet] = []
    for i, key in enumerate(_deleters(n)):
        # round 0 was counted above and is not injective
        if i and len(set(map(key, remaining))) == len(remaining):
            # every fiber holds one point, so the round takes them all
            parts.append(PointSet._trusted(n, remaining))
            remaining = ()
            break
        fiber_min: dict[object, Point] = {}
        for p in remaining:
            fiber = key(p)
            best = fiber_min.get(fiber)
            if best is None or p[i] < best[i]:
                fiber_min[fiber] = p
        chosen = set(fiber_min.values())
        parts.append(PointSet._trusted(n, chosen))
        remaining = set(remaining) - chosen
    if remaining:
        bad = _comparable_pair(A.points, lt)
        if bad is None:
            raise RuntimeError("leftover points without a strongly ordered pair")
        raise NotWeakAntichainError(*bad)
    parts += _empty_parts(n)[: n - len(parts)]
    # part i holds one point per fiber along axis i, so deleting coordinate
    # i is injective on it and its image has one element per point
    sizes = tuple(map(len, parts))
    return PartitionCertificate(source=A, parts=tuple(parts), per_part_projection_sizes=sizes)


@dataclass(frozen=True)
class GapReport:
    """Set size, per-axis projection sizes, and their difference."""

    set_size: int
    projection_sizes: tuple[int, ...]
    gap: int


def projection_gap(A: PointSet) -> GapReport:
    sizes = _image_sizes(A)
    m = len(A.points)
    return GapReport(m, sizes, sum(sizes) - m)


def _check_box(n: int, k: int) -> None:
    require_int("n", n)
    require_int("k", k)
    if n < 1 or k < 1:
        raise ValueError("box needs n >= 1 and k >= 1")


def box_points(n: int, k: int) -> tuple[Point, ...]:
    """All points of the box [0,k)^n in lexicographic order."""
    _check_box(n, k)
    return tuple(product(range(k), repeat=n))


#: the sampler's cells, for boxes within its mask table, cached like the masks
_box_cells = lru_cache(maxsize=8)(box_points)


def _cell(j: int, n: int, k: int) -> Point:
    """Cell ``j`` of the box [0,k)^n, ``box_points(n, k)[j]``, decoded by mixed radix."""
    return tuple(j // k ** (n - 1 - i) % k for i in range(n))


@dataclass(frozen=True)
class GapScanResult:
    """The outcome of a gap scan over weak antichains of ``size`` points in [0,k)^n.

    From :func:`exhaustive_gap_scan`, ``min_gap`` is the least projection
    gap of any such set, ``witness`` the lexicographically least set that
    attains it, and ``weak_count`` the number of such sets; ``min_gap`` and
    ``witness`` are None when there is none.  From :func:`random_gap_scan`,
    ``min_gap`` is the least gap among the sampled sets, ``witness`` one
    set with it, and ``weak_count`` the number of samples.
    """

    n: int
    k: int
    size: int
    min_gap: int | None
    witness: PointSet | None
    weak_count: int


def exhaustive_gap_scan(n: int, k: int, size: int, budget: int = 2_000_000) -> GapScanResult:
    """Minimum projection gap over every weak antichain of ``size`` points in [0,k)^n.

    Weak antichains are enumerated lexicographically and only strict
    improvements are kept, so the reported witness is the lexicographically
    least one.  ``budget`` bounds the number of subsets, C(k^n, size),
    although the search skips every subset that is not a weak antichain; it
    must be >= 0 and is checked before anything grows with the box.  Scans
    of size 0 or 1 build nothing, since every single cell has gap n - 1; nor
    does a scan above the box's capacity k^n - (k-1)^n, which finds no set.

    The search is depth-first over increasing cell indices, extends a head
    (the first size-1 cells of a set) only by cells not strongly comparable
    with those taken, and backtracks once too few free cells remain.  Each
    level keeps one packed ``seen``, the OR of the lines through the head's
    cells (:func:`_cell_values`); every line holds k cells, so the head has
    ``seen.bit_count() // k`` images.  A completion's gap is that count plus
    n - size minus the number of axis fields holding it, so bit-sliced
    counters over the completions give the best one.  Two cuts skip a head
    that cannot strictly beat the best gap so far before the counters run:
    one popcount against ``cut = k*(best_gap + size)``, reached exactly when
    the count plus n - size minus n is at least the best gap, and then the
    same bound with n replaced by the number of fields that hold any
    completion at all, the only fields the counters then read.  The cells'
    values are tabled per box where their (n+1)*k^(2n) bits fit
    ``_TABLE_CAP`` and computed when a cell is taken otherwise.
    """
    require_int("size", size, 0)
    _check_box(n, k)
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
    tabled = (n + 1) * cells * cells <= _TABLE_CAP
    values = _scan_table(n, k).__getitem__ if tabled else _cell_values(n, k)
    fields = range(0, n * cells, cells)
    best_gap = cut = math.inf
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
            # gap of head + (idx, q) is base minus the fields holding q, at
            # most n, so at the cut (base - n >= best_gap) none can improve
            count = seen.bit_count()
            if count >= cut:
                continue
            # nor below it when no completion can be held by enough fields:
            # only the fields that hold some completion can hold any
            held = []
            for field in fields:
                s = seen >> field & last
                if s:
                    held.append(s)
            base = count // k + n - size
            c = len(held)
            if base - c >= best_gap:
                continue
            # at_least[c]: the completions held by at least c of those fields
            at_least = [last]
            for s in held:
                at_least.append(at_least[-1] & s)
                for i in range(len(at_least) - 2, 0, -1):
                    at_least[i] |= at_least[i - 1] & s
            while not at_least[c]:
                c -= 1
            if base - c < best_gap:
                best_gap = base - c
                cut = k * (best_gap + size)
                # the lowest such completion is the first minimiser of this head
                first = at_least[c] & -at_least[c]
                best_cells = (*head, idx, first.bit_length() - 1)
    if best_cells is None:
        return GapScanResult(n, k, size, None, None, weak_count)
    witness = PointSet._trusted(n, [_cell(j, n, k) for j in best_cells])
    return GapScanResult(n, k, size, best_gap, witness, weak_count)


def random_weak_antichain(
    n: int, k: int, size: int, seed: int = 0, max_tries: int | None = None
) -> PointSet:
    """Rejection-sample a weak antichain of exactly ``size`` points in [0,k)^n.

    Candidates are drawn uniformly from the box and kept whenever they are
    not strongly comparable with any accepted point.  Deterministic for a
    given seed.  The size cannot exceed k^n - (k-1)^n, the box's maximum
    weak antichain size.  Each coordinate is ``Random(seed).randrange(k)``,
    drawn inline as ``getrandbits(k.bit_length())`` until below k, which is
    how CPython's ``randrange`` draws it, so the stream is the same.  Unless
    the box is too large for its mask table (``_TABLE_CAP``), the cells ruled
    out so far are kept as a bitset, so a candidate costs one bit test, and
    an accepted cell's strongly comparable cells come from masks tabled per
    axis.  Where the box's k**n masks of k**n bits fit ``_MEMO_CAP``, each
    cell's mask, with the cell itself, is memoised on its first acceptance,
    for the box sampled last, so later samples of the box OR it in with no
    AND.
    ``seed`` must be an int.  Every accepted point has been tested against
    all earlier ones, so the result is proved a weak antichain and carries
    ``_weak``, which lets :func:`greedy_partition` skip its screen.
    """
    require_int("n", n)
    require_int("k", k)
    require_int("size", size)
    require_int("seed", seed)
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    capacity = k**n - (k - 1) ** n
    if not 0 <= size <= capacity:
        raise ValueError(f"size {size} outside 0..{capacity} for this box")
    if max_tries is None:
        max_tries = 400 * (size + 1)
    require_int("max_tries", max_tries, 0)
    if size == 0:
        A = PointSet._trusted(n, ())
        A._weak = True
        return A
    # randrange(k) on CPython 3.10-3.13, inlined: draw bits until one is below k
    getrandbits = random.Random(seed).getrandbits
    bits = k.bit_length()
    # the bitset path's table holds 2*n*k masks of k**n bits
    table = _mask_table(n, k) if 2 * n * k ** (n + 1) <= _TABLE_CAP else None
    cells = memo = None
    if table is not None:
        cells = _box_cells(n, k)
        if k ** (2 * n) <= _MEMO_CAP:
            memo = _blocked_memo(n, k)
    blocked = 0  # bitset path: cells taken or strongly comparable to one
    have: set[Point] = set()  # pairwise path
    chosen: list[Point] = []
    for _ in range(max_tries):
        # the draws, coordinate by coordinate, are the digits of the cell index
        idx = 0
        for _ in range(n):
            r = getrandbits(bits)
            while r >= k:
                r = getrandbits(bits)
            idx = idx * k + r
        if table is not None:
            if blocked >> idx & 1:
                continue
            if memo is None:
                blocked |= _strong_cells(idx, table) | 1 << idx
            else:
                mask = memo[idx]
                if mask is None:
                    mask = memo[idx] = _strong_cells(idx, table) | 1 << idx
                blocked |= mask
            cand = cells[idx]
        else:
            cand = _cell(idx, n, k)
            if cand in have or any(
                all(map(lt, p, cand)) or all(map(lt, cand, p)) for p in chosen
            ):
                continue
            have.add(cand)
        chosen.append(cand)
        if len(chosen) == size:
            break
    else:
        raise TargetUnreachableError(
            f"size {size} not reached within {max_tries} samples (seed {seed})"
        )
    A = PointSet._trusted(n, chosen)
    A._weak = True
    return A


def random_gap_scan(n: int, k: int, size: int, samples: int, seed: int = 0) -> GapScanResult:
    """Minimum observed gap over sampled weak antichains (no optimality claim).

    Sample t uses seed ``seed + t``; ``seed`` must be an int.
    """
    require_int("seed", seed)
    require_int("samples", samples, 1)
    best_gap: int | None = None
    best_witness: PointSet | None = None
    for t in range(samples):
        A = random_weak_antichain(n, k, size, seed=seed + t)
        g = projection_gap(A).gap
        if best_gap is None or g < best_gap:
            best_gap = g
            best_witness = A
    return GapScanResult(n, k, size, best_gap, best_witness, samples)
