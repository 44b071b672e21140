"""Iterated preimages of the discontinuity set and monotone piece counting.

The n-step discontinuity set is computed backwards, one preimage level at a
time, never by forward composition: inverting a monotone branch is
well-conditioned, and each point carries its provenance: the first orbit
step that hits the base set (for a level point, the level's index) and
which base point.  Whether a cut point is a removable junction of the n-th
iterate depends only on its base point and the steps left after the hit, so
``DeltaTable.count_pieces`` tabulates that verdict once per n from the
one-sided limit orbits of the base points and decides every cut point with
one array lookup.  Piece counts then follow from component counting plus
the removable-junction merge rule.

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

from .errors import DomainError, ResourceCapExceeded, SubadditivityError
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
        # one-sided limit orbits from each base point: [(value, direction product), ...]
        self._memo: dict[tuple[int, int], list[tuple[float, int]]] = {}
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
        cx, ch, cr = self.cumulative[n - 1]
        lx, lr = self.levels[n - 1]
        xs = np.concatenate([cx, lx])
        hit = np.concatenate([ch, np.full(len(lx), n - 1, dtype=np.int64)])
        order = np.lexsort((hit, xs))
        xs, hit = xs[order], hit[order]
        root = np.concatenate([cr, lr])[order]
        keep, dst, src = dedupe_sorted(xs, self.map.tol, rank=hit)
        for a in (hit, root):
            a[dst] = a[src]  # the earliest hit of a merged group is its provenance
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

    def level_points(self, k: int) -> np.ndarray:
        """f^{-(k-1)}(Delta) for k >= 1."""
        return self.levels[k - 1][0]

    def _limit_seq(self, root: int, side: int, m: int) -> list[tuple[float, int]]:
        """One-sided limit orbit of base point ``root`` from ``side`` as
        (value, direction product) pairs, built through at least step m."""
        seq = self._memo.setdefault((root, side), [(float(self.map.delta.points[root]), 1)])
        if len(seq) <= m:
            v, d = seq[-1]
            # recover the current side by replaying the stored prefix direction
            s = side if d > 0 else 1 - side
            for _ in range(len(seq), m + 1):
                v, s, bi = limit_step(self.map, v, s)
                d *= self.map.branches[bi].direction
                seq.append((v, d))
        return seq

    def _removable(self, n: int) -> np.ndarray:
        """rem[root, m]: the two one-sided limits of f^m at base point ``root``
        agree in value and in monotone direction.  A cut point whose orbit
        first hits ``root`` after n - m steps is then a removable junction of
        the n-th iterate.  The test is symmetric in the two sides, so which
        of them the cut point's own left side maps to does not matter."""
        tol = self.map.tol
        rem = np.zeros((len(self.map.delta), n + 1), dtype=bool)
        for r in range(len(rem)):
            left, right = self._limit_seq(r, LEFT, n), self._limit_seq(r, RIGHT, n)
            rem[r] = [
                abs(v_l - v_r) <= tol and d_l == d_r
                for (v_l, d_l), (v_r, d_r) in zip(left[: n + 1], right[: n + 1])
            ]
        return rem

    def count_pieces(self, n: int, merge_removable: bool = True) -> int:
        if n < 1:
            raise ValueError("n must be >= 1")
        xs, hit, root = self.cumulative[n]
        dom = self.map.domain
        tol = self.map.tol
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


def submultiplicative_witness(counts: dict[int, int]) -> tuple[int, int] | None:
    """The first pair (n, m) with c_{n+m} > c_n * c_m, or None."""
    for n in counts:
        for m in counts:
            if n + m in counts and counts[n + m] > counts[n] * counts[m]:
                return n, m
    return None


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
    counts = {r.n: int(r.value) for r in records}
    bad = submultiplicative_witness(counts)
    if bad is not None:
        n, m = bad
        raise SubadditivityError(
            f"piece counts are not submultiplicative: c_{n + m}={counts[n + m]} "
            f"> c_{n}*c_{m}={counts[n] * counts[m]} "
            "(likely a tolerance undercount upstream)",
            witness=bad,
        )
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
        if pcmap.delta.contains_many(table.level_points(k)).any():
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
