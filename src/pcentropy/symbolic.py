"""Monotone piece counts from lap images, and the n-step discontinuity set.

A lap of f^n is a component of the domain minus Delta^n, and f^n maps it
homeomorphically onto an open interval J.  Cutting J at the cut points more
than ``tol`` inside it gives the laps of f^(n+1) in that lap, and each of
them maps by one branch onto the open interval between the one-sided limits
at its ends (``limit_step`` from the right at its left end, from the left at
its right end).  So the laps are carried as a multiset of image intervals
with Python-int multiplicities (Milnor & Thurston, LNM 1342), and each cut
point r inside an image is a new interior point of Delta^(n+1) whose orbit
first hits the cut set at r after n steps.

Whether such a point is a removable junction of the m-th iterate depends
only on r and the m - n steps left after the hit, so a table rem[r, m] grows
one column per m from the one-sided limit orbits of the cut points, and the
merged count is the lap count minus new[k][r] * rem[r, m - k] summed over
the levels k and cut points r.  |Delta^n| is exact as well: its interior
points, plus each domain end whose one-sided limit orbit meets a cut point
within n - 1 steps (a monotone branch reaches a domain end only at an end of
its piece, so no other point of Delta^n lies off the laps' cuts).  The point
cap is held against that size before any point is built.

Delta^n as a point set is built only where it is read, backwards, one
preimage level at a time and never by forward composition, because
inverting a monotone branch is well-conditioned.  Delta^n merges
Delta^{n-1} and level n - 1 by one sort and one dedupe.

Tables are cached per map in ``_TABLES`` and grow in place as deeper counts
are asked for.  Neither the cache nor a ``DeltaTable`` takes a lock: use them
from one thread at a time.
"""

from __future__ import annotations

import bisect
import weakref
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResourceCapExceeded
from .estimators import EntropySeries, SeriesRecord, count_series
from .intervals import PointSet, dedupe_sorted
from .maps import LEFT, RIGHT, PcMap, branch_preimages, limit_step

DEFAULT_DELTA_CAP = 2_000_000


class _BuiltOnRead(Sequence):
    """Entries ``(points,)`` for k = 0 .. ``length() - 1``, each built by
    ``build(k)`` on its first read; ``build`` may read the entries below k."""

    def __init__(self, build, length):
        self._build, self._length, self._items = build, length, []

    def __len__(self) -> int:
        return self._length()

    def __getitem__(self, k: int) -> tuple[np.ndarray]:
        k = range(len(self))[k]
        while len(self._items) <= k:
            self._items.append((self._build(len(self._items)),))
        return self._items[k]


class DeltaTable:
    """Lap counts of f^1, f^2, ..., and the point sets f^{-k}(Delta) and
    Delta^n built on first read up to the depth ``ensure`` has reached."""

    def __init__(self, pcmap: PcMap):
        self.map = pcmap
        dom = pcmap.domain
        base = pcmap.delta.points
        # Delta^1 .. Delta^depth fit under the cap of some ``ensure`` call
        self.depth = 1
        # index k holds f^{-k}(Delta), index n holds Delta^n
        self.levels = _BuiltOnRead(self._level, lambda: self.depth)
        self.cumulative = _BuiltOnRead(self._cumulative, lambda: self.depth + 1)
        # laps of f^k as {(lo, hi) of the image: multiplicity}, k = len(self._new)
        self._laps = {(dom.lo, dom.hi): 1}
        # _new[k][r]: new interior points of level k whose orbit hits cut r first
        self._new: list[list[int]] = []
        self._interior = [0]  # interior points of Delta^k, k = 0 .. len(self._new)
        # one-sided limit orbit heads of the domain ends, and the step at
        # which each first meets a cut point (None while it has not)
        self._ends = [(dom.lo, RIGHT), (dom.hi, LEFT)]
        self._end_hits: list[int | None] = [None, None]
        # one-sided limit orbit heads (value, side, direction product), left then
        # right per cut point, and the verdict columns they gave (``_removable``)
        self._heads = [(x, side, 1) for x in base.tolist() for side in (LEFT, RIGHT)]
        self._rem = np.ones((len(base), 1), dtype=bool)

    # -- lap counting --------------------------------------------------------

    def _step(self):
        """Cut the lap images of f^k, k = len(self._new): the cut points
        inside them are the new points of level k, and the pieces are the lap
        images of f^(k+1)."""
        pcmap, tol = self.map, self.map.tol
        cuts = pcmap.delta.points.tolist()
        new = [0] * len(cuts)
        laps: dict[tuple[float, float], int] = {}
        for (u, v), mult in self._laps.items():
            first, stop = bisect.bisect_right(cuts, u + tol), bisect.bisect_left(cuts, v - tol)
            for r in range(first, stop):
                new[r] += mult
            ends = [u, *cuts[first:stop], v]
            for p, q in zip(ends, ends[1:]):
                a, b = limit_step(pcmap, p, RIGHT)[0], limit_step(pcmap, q, LEFT)[0]
                image = (a, b) if a <= b else (b, a)
                laps[image] = laps.get(image, 0) + mult
        k = len(self._new)
        for i, (x, side) in enumerate(self._ends):
            if self._end_hits[i] is None:
                if pcmap.delta.index_near(x) is not None:
                    self._end_hits[i] = k
                else:
                    self._ends[i] = limit_step(pcmap, x, side)[:2]
        self._laps = laps
        self._new.append(new)
        self._interior.append(self._interior[-1] + sum(new))

    def delta_size(self, n: int) -> int:
        """|Delta^n|: its interior points plus the domain ends it holds."""
        while len(self._new) < n:
            self._step()
        return self._interior[n] + sum(h is not None and h < n for h in self._end_hits)

    def ensure(self, n: int, cap: int | None = None):
        """Count the laps of f^1 .. f^n, or raise ``ResourceCapExceeded`` with
        ``completed = k - 1`` at the first k whose exact |Delta^k| passes the
        point cap.  No point is built here; a deeper table still respects a
        smaller cap, because every k is held against it."""
        cap = DEFAULT_DELTA_CAP if cap is None else cap
        for k in range(1, n + 1):
            size = self.delta_size(k)
            if size > cap:
                raise ResourceCapExceeded(f"Delta^{k} holds {size} points (cap {cap})", completed=k - 1)
            self.depth = max(self.depth, k)

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
        if n > self.depth:
            raise ValueError(f"n = {n} is past the depth {self.depth} that ensure has reached")
        new = self._new[:n]
        count = 1 + self._interior[n]
        if merge_removable:
            rem = self._removable(n)
            for k, row in enumerate(new):
                count -= sum(c for c, merged in zip(row, rem[:, n - k].tolist()) if merged)
        return count

    # -- point sets ------------------------------------------------------------

    def _level(self, k: int) -> np.ndarray:
        """f^{-k}(Delta): every branch inverts level k - 1 at once."""
        if k == 0:
            return self.map.delta.points
        ys = self.levels[k - 1][0]
        xs = np.concatenate([branch_preimages(b, ys) for b in self.map.branches])
        return _sorted_dedupe(xs[~np.isnan(xs)], self.map.tol)

    def _cumulative(self, n: int) -> np.ndarray:
        if n == 0:
            return np.empty(0)
        if n == 1:
            return self.levels[0][0]
        return _sorted_dedupe(np.concatenate([self.cumulative[n - 1][0], self.levels[n - 1][0]]), self.map.tol)

    def delta_points(self, n: int) -> np.ndarray:
        return self.cumulative[n][0]


def _sorted_dedupe(xs: np.ndarray, tol: float) -> np.ndarray:
    xs = np.sort(xs, kind="stable")
    return xs[dedupe_sorted(xs, tol)]


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
