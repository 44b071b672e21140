"""Iterated preimages of the discontinuity set and monotone piece counting.

The n-step discontinuity set is computed backwards, one preimage level at a
time, never by forward composition: inverting a monotone branch is
well-conditioned, and each point carries its provenance: the first orbit
step that hits the base set (for a level point, the level's index) and
which base point.  Delta^n merges Delta^{n-1} and level n - 1 by one stable
sort and one dedupe.  The points of Delta^{n-1} lie more than ``tol`` apart
(dedupe output, or the cut points, which ``build_map`` keeps that far apart),
so a merged group holds at most one of them, and its hit, below n - 1, is
the group's earliest: the group takes that point's provenance.

Whether a cut point is a removable junction of the n-th iterate depends
only on its base point and the m steps left after the hit, so a table
rem[root, m] grows one column per m from the one-sided limit orbits of the
base points, and ``count_pieces`` decides every cut point with one lookup.
Piece counts then follow from component counting plus that merge rule.

Tables are cached per map in ``_TABLES`` and grow in place as deeper levels
are asked for, up to a point cap.  A level the cap refuses is not kept, and
mostly not even built: the refusal rests on a lower bound of its size, taken
one branch at a time, and the message states that bound.  Neither the cache
nor a ``DeltaTable`` takes a lock: use them from one thread at a time.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResourceCapExceeded
from .estimators import EntropySeries, SeriesRecord, count_series
from .intervals import PointSet, dedupe_sorted
from .maps import LEFT, RIGHT, PcMap, branch_preimages, limit_step

DEFAULT_DELTA_CAP = 2_000_000


class DeltaTable:
    """Levels f^{-(k-1)}(Delta) with provenance, merged cumulatively per n."""

    def __init__(self, pcmap: PcMap):
        self.map = pcmap
        nd = len(pcmap.delta)
        base, root = pcmap.delta.points, np.arange(nd)
        # index k holds f^{-k}(Delta) as (xs, root); every point of it first
        # hits the base set after k steps, so the hit step is the index itself
        self.levels = [(base, root)]
        empty = np.empty(0, np.int64)
        # index n holds merged Delta^n as (xs, hit, root)
        self.cumulative = [(np.empty(0), empty, empty), (base, np.zeros(nd, dtype=np.int64), root)]
        # one-sided limit orbit heads (value, side, direction product), left then
        # right per base point, and the verdict columns they gave (``_removable``)
        self._heads = [(x, side, 1) for x in base.tolist() for side in (LEFT, RIGHT)]
        self._rem = np.ones((nd, 1), dtype=bool)
        # (k, lower bound on its size) of the last level the cap refused
        self._refused = (0, 0)

    # -- construction -------------------------------------------------------

    def _next_level(self, budget: int) -> tuple[tuple[np.ndarray, np.ndarray] | None, int]:
        """f^{-k}(Delta) from level k - 1 as ``((xs, root), size)``, or
        ``(None, bound)`` once a lower bound on its size passes ``budget``.

        A target has at most one preimage per branch.  When that many points
        fit the budget, the level is built in one pass.  Otherwise each
        branch's part is sorted and deduped alone first, and the level is
        refused as soon as ``_merged_size_bound`` of the parts so far passes
        the budget; only a level that gets through is merged and counted.
        """
        ys, root = self.levels[-1]
        tol = self.map.tol
        careful = len(ys) * len(self.map.branches) > budget
        xs_all, root_all, counts = [], [], []
        for b in self.map.branches:
            xs = branch_preimages(b, ys)
            ok = ~np.isnan(xs)
            if not ok.any():
                continue
            xs, r = xs[ok], root[ok]
            if careful:
                # a stable sort of each part keeps the merged order below the
                # same as from the unsorted parts
                order = np.argsort(xs, kind="stable")
                xs, r = xs[order], r[order]
                counts.append(int(np.count_nonzero(dedupe_sorted(xs, tol))))
                bound = _merged_size_bound(counts)
                if bound > budget:
                    return None, bound
            xs_all.append(xs)
            root_all.append(r)
        if not xs_all:
            return (np.empty(0), np.empty(0, np.int64)), 0
        xs = np.concatenate(xs_all)
        order = np.argsort(xs, kind="stable")
        xs = xs[order]
        keep = dedupe_sorted(xs, tol)
        # gather provenance for the kept points only
        order = order[keep]
        xs = xs[keep]
        return (xs, np.concatenate(root_all)[order]), len(xs)

    def _merge_cumulative(self, n: int):
        """Delta^n; a dropped Delta^{n-1} point hands its provenance to the
        kept head of its group (see the module docstring)."""
        cx, ch, cr = self.cumulative[n - 1]
        lx, lr = self.levels[n - 1]
        xs = np.concatenate([cx, lx])
        order = np.argsort(xs, kind="stable")
        xs = xs[order]
        hit = np.concatenate([ch, np.full(len(lx), n - 1, dtype=np.int64)])[order]
        root = np.concatenate([cr, lr])[order]
        keep = dedupe_sorted(xs, self.map.tol)
        dropped = np.flatnonzero(~keep)
        dropped = dropped[order[dropped] < len(cx)]
        if len(dropped):
            kept = np.flatnonzero(keep)
            head = kept[np.searchsorted(kept, dropped) - 1]
            hit[head], root[head] = hit[dropped], root[dropped]
        self.cumulative.append((xs[keep], hit[keep], root[keep]))

    def ensure(self, n: int, cap: int | None = None):
        """Build Delta^1 .. Delta^n, or raise ``ResourceCapExceeded`` with
        ``completed = k - 1`` at the first k whose size passes the point cap.

        The size of a new Delta^k is |Delta^{k-1}| plus its new level's point
        count, before the two are merged; a merged Delta^k counts its own
        points, so a cached deeper table still respects a smaller cap.  A
        level is refused on a lower bound of that size, mostly before it is
        built in full, and the message states the bound.  A refused level is
        never stored: asking again under the same cap refuses at once, and a
        larger cap builds it as a fresh table would."""
        cap = DEFAULT_DELTA_CAP if cap is None else cap
        for k in range(1, n + 1):
            if k < len(self.cumulative):
                size = len(self.cumulative[k][0])
            elif self._refused[0] == k and self._refused[1] > cap:
                size = self._refused[1]
            else:
                held = len(self.cumulative[k - 1][0])
                level, size = self._next_level(cap - held)
                size += held
                if size <= cap:
                    self.levels.append(level)
                    self._merge_cumulative(k)
                else:
                    self._refused = (k, size)
            if size > cap:
                raise ResourceCapExceeded(
                    f"Delta^{k} holds at least {size} points (cap {cap})",
                    completed=k - 1,
                )

    # -- queries -------------------------------------------------------------

    def delta_points(self, n: int) -> np.ndarray:
        return self.cumulative[n][0]

    def _removable(self, n: int) -> np.ndarray:
        """rem[root, m] for m <= n: the one-sided limits of f^m at base point
        ``root`` agree in value and in monotone direction, so a cut point whose
        orbit first hits ``root`` after n - m steps is a removable junction of
        the n-th iterate.  The test is symmetric in the two sides.  Column m
        does not depend on n: it is built once, by one more step of each head."""
        pcmap, tol = self.map, self.map.tol
        while self._rem.shape[1] <= n:
            steps = [limit_step(pcmap, v, s) for v, s, _ in self._heads]
            self._heads = [
                (v, s, d * pcmap.branches[bi].direction) for (v, s, bi), (_, _, d) in zip(steps, self._heads)
            ]
            h = np.array(self._heads, dtype=float).reshape(-1, 2, 3)  # [root, side, field]
            col = (np.abs(h[:, 0, 0] - h[:, 1, 0]) <= tol) & (h[:, 0, 2] == h[:, 1, 2])
            self._rem = np.column_stack([self._rem, col])
        return self._rem

    def count_pieces(self, n: int, merge_removable: bool = True) -> int:
        if n < 1:
            raise ValueError("n must be >= 1")
        xs, hit, root = self.cumulative[n]
        dom, tol = self.map.domain, self.map.tol
        interior = (xs > dom.lo + tol) & (xs < dom.hi - tol)
        count = int(interior.sum()) + 1
        if not merge_removable or not interior.any():
            return count
        merged = self._removable(n)[root, n - hit] & interior
        return count - int(np.count_nonzero(merged))


def _merged_size_bound(counts: list[int]) -> int:
    """Lower bound on the dedupe count of the union of sorted parts, from
    the dedupe count of each nonempty part; each part lies in the closure of
    its own piece, and the pieces do not overlap.

    The greedy count is the fewest ``tol``-wide windows that cover the
    points, and the union's greedy windows are disjoint.  Each part needs
    its own count of them, and a window shared by m parts holds m - 1 piece
    ends, one between each two neighbouring parts, which no other window
    holds.  So the union needs at least ``sum(counts) - (len(counts) - 1)``.
    """
    return sum(counts) - len(counts) + 1


_TABLES: "weakref.WeakKeyDictionary[PcMap, DeltaTable]" = weakref.WeakKeyDictionary()


def delta_table(pcmap: PcMap) -> DeltaTable:
    table = _TABLES.get(pcmap)
    if table is None:
        table = DeltaTable(pcmap)
        _TABLES[pcmap] = table
    return table


def preimage_set(pcmap: PcMap, targets: PointSet) -> PointSet:
    """All x whose branch-closure limit maps onto a target; merged by tolerance."""
    dom = pcmap.domain
    for t in targets:
        if t < dom.lo - pcmap.tol or t > dom.hi + pcmap.tol:
            raise DomainError(f"target {t!r} outside domain {dom!r}")
    xs = np.concatenate([branch_preimages(b, targets.points) for b in pcmap.branches])
    return PointSet.of(xs[~np.isnan(xs)], tol=pcmap.tol)


def delta_n(pcmap: PcMap, n: int, cap: int | None = None) -> PointSet:
    """The n-step discontinuity set (empty at n=0 by convention)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    table = delta_table(pcmap)
    table.ensure(n, cap)
    return PointSet(table.delta_points(n), pcmap.tol)


def count_pieces(pcmap: PcMap, n: int, merge_removable: bool = True, cap: int | None = None) -> int:
    """Smallest number of intervals on which the n-th iterate is monotone and
    essentially continuous.

    Components of the domain minus the n-step discontinuity set, minus the
    cut points where both one-sided limits of the iterate agree and the
    monotone direction matches (removable junctions).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    table = delta_table(pcmap)
    table.ensure(n, cap)
    return table.count_pieces(n, merge_removable)


def ms_entropy(
    pcmap: PcMap,
    n_max: int,
    estimator: str = "slope-fit",
    cap: int | None = None,
) -> EntropySeries:
    """Piece-count growth series and its entropy estimate."""
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    table = delta_table(pcmap)
    records = []
    truncated = False
    for n in range(1, n_max + 1):
        try:
            table.ensure(n, cap)
        except ResourceCapExceeded:
            truncated = True
            break
        records.append(SeriesRecord(n, table.count_pieces(n)))
    if not records:
        raise ResourceCapExceeded("no level fits under the resource cap", completed=0)
    return count_series("misiurewicz-szlenk", records, estimator, truncated)


@dataclass(frozen=True)
class FullBranchReport:
    surjective: bool
    no_connection: bool
    checked_to: int
    rows: tuple[tuple[int, int, int, int], ...]  # (n, #Delta^n, expected, c_n)
    counts_ok: bool
    messages: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return self.surjective and self.no_connection and self.counts_ok


def full_branch_check(pcmap: PcMap, n_max: int, cap: int | None = None) -> FullBranchReport:
    """Verify the log-N regime: every branch onto the domain, no preimage of the
    cut set falling back on the cut set, #Delta^n = N^n - 1 and |c_n - N^n| <= 1."""
    dom = pcmap.domain
    messages = []
    surjective = True
    for b in pcmap.branches:
        vmin, vmax = b.image
        if abs(vmin - dom.lo) > 1e-9 or abs(vmax - dom.hi) > 1e-9:
            surjective = False
            messages.append(f"branch on {b.piece!r} has image [{vmin:.17g}, {vmax:.17g}], not the domain")
    table = delta_table(pcmap)
    truncated_at = None
    try:
        table.ensure(n_max, cap)
    except ResourceCapExceeded as exc:
        truncated_at = exc.completed
        messages.append(str(exc))
    checked_to = n_max if truncated_at is None else truncated_at

    no_connection = True
    for k in range(2, checked_to + 1):
        if pcmap.delta.contains_many(table.levels[k - 1][0]).any():
            no_connection = False
            messages.append(f"f^-{k - 1}(Delta) meets Delta: connection at depth {k - 1}")
            break

    n_branches = pcmap.n_pieces
    rows = []
    counts_ok = True
    for n in range(1, checked_to + 1):
        d_count = len(table.delta_points(n))
        expected = n_branches**n - 1
        c_n = table.count_pieces(n, merge_removable=False)
        rows.append((n, d_count, expected, c_n))
        if surjective and no_connection:
            if d_count != expected or abs(c_n - n_branches**n) > 1:
                counts_ok = False
                messages.append(
                    f"n={n}: #Delta^n={d_count} (expected {expected}), c_n={c_n}"
                )
    return FullBranchReport(
        surjective=surjective,
        no_connection=no_connection,
        checked_to=checked_to,
        rows=tuple(rows),
        counts_ok=counts_ok and surjective and no_connection,
        messages=tuple(messages),
    )
