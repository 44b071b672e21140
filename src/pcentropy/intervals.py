"""Intervals, finite interval unions, and sorted point sets.

Intervals carry open/closed flags on both ends so that a union can be open in
the subspace topology of a compact domain: a continuity piece such as
``[lo, d)`` is open in ``[lo, hi]`` even though it contains the domain
endpoint.  Everything here is immutable; operations return new objects in
canonical form.  A point set is one sorted, read-only float64 array, which
the routes that compute it (Delta^n, samples) hand over without a copy.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from functools import cached_property

import numpy as np

DEFAULT_POINT_TOL = 1e-12


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float
    lo_open: bool = True
    hi_open: bool = True

    def __post_init__(self):
        if self.lo != self.lo or self.hi != self.hi:  # NaN
            raise ValueError(f"interval end is NaN: lo={self.lo!r}, hi={self.hi!r}")
        if not self.lo <= self.hi:
            raise ValueError(f"empty interval: lo={self.lo!r} > hi={self.hi!r}")
        if self.lo == self.hi and (self.lo_open or self.hi_open):
            # degenerate intervals are only allowed as explicit point markers
            raise ValueError(f"degenerate open interval at {self.lo!r}")

    @staticmethod
    def open(lo: float, hi: float) -> "Interval":
        return Interval(lo, hi, True, True)

    @staticmethod
    def closed(lo: float, hi: float) -> "Interval":
        return Interval(lo, hi, False, False)

    @staticmethod
    def point(x: float) -> "Interval":
        return Interval(x, x, False, False)

    @property
    def diameter(self) -> float:
        return self.hi - self.lo

    def is_point(self) -> bool:
        return self.lo == self.hi

    def contains(self, x: float) -> bool:
        if x < self.lo or x > self.hi:
            return False
        if x == self.lo and self.lo_open:
            return False
        if x == self.hi and self.hi_open:
            return False
        return True

    def intersect(self, other: "Interval") -> "Interval | None":
        if self.lo > other.lo or (self.lo == other.lo and self.lo_open):
            lo, lo_open = self.lo, self.lo_open
        else:
            lo, lo_open = other.lo, other.lo_open
        if self.lo == other.lo:
            lo_open = self.lo_open or other.lo_open
        if self.hi < other.hi or (self.hi == other.hi and self.hi_open):
            hi, hi_open = self.hi, self.hi_open
        else:
            hi, hi_open = other.hi, other.hi_open
        if self.hi == other.hi:
            hi_open = self.hi_open or other.hi_open
        if lo > hi or (lo == hi and (lo_open or hi_open)):
            return None
        return Interval(lo, hi, lo_open, hi_open)

    def __repr__(self):
        left = "(" if self.lo_open else "["
        right = ")" if self.hi_open else "]"
        return f"{left}{self.lo:g}, {self.hi:g}{right}"


def _merge_sorted_parts(parts: list[Interval]) -> tuple[Interval, ...]:
    """Merge overlapping or point-sharing intervals; keep genuinely disjoint ones.

    Two parts meeting at a shared endpoint merge only when at least one of
    them contains the junction point; ``(0, .5)`` and ``(.5, 1)`` stay
    separate because their union genuinely omits ``.5``.
    """
    merged: list[Interval] = []
    for p in parts:
        if not merged:
            merged.append(p)
            continue
        cur = merged[-1]
        joinable = p.lo < cur.hi or (p.lo == cur.hi and not (p.lo_open and cur.hi_open))
        if not joinable:
            merged.append(p)
            continue
        if p.hi > cur.hi:
            hi, hi_open = p.hi, p.hi_open
        elif p.hi == cur.hi:
            hi, hi_open = cur.hi, cur.hi_open and p.hi_open
        else:
            hi, hi_open = cur.hi, cur.hi_open
        lo_open = cur.lo_open and not (p.lo == cur.lo and not p.lo_open)
        merged[-1] = Interval(cur.lo, hi, lo_open, hi_open)
    return tuple(merged)


@dataclass(frozen=True)
class OpenSet:
    """Canonical finite union of intervals, relatively open in the ambient domain.

    Parts are pairwise disjoint and sorted; overlapping inputs are merged.
    Parts may share an endpoint when the point itself is not in the set.
    """

    parts: tuple[Interval, ...] = ()

    def __post_init__(self):
        parts = sorted(self.parts, key=lambda p: (p.lo, p.lo_open, p.hi))
        object.__setattr__(self, "parts", _merge_sorted_parts(parts))

    @staticmethod
    def of(*bounds: tuple[float, float]) -> "OpenSet":
        return OpenSet(tuple(Interval.open(a, b) for a, b in bounds))

    def is_empty(self) -> bool:
        return not self.parts

    @property
    def diameter(self) -> float:
        # set diameter: sup of pairwise distances, so it spans the gaps
        if not self.parts:
            return 0.0
        return self.parts[-1].hi - self.parts[0].lo

    @cached_property
    def _his(self) -> tuple[float, ...]:
        # parts are disjoint and sorted, so the hi endpoints are sorted too
        return tuple(p.hi for p in self.parts)

    def contains(self, x: float) -> bool:
        i = bisect.bisect_left(self._his, x)
        for j in (i, i + 1):
            if 0 <= j < len(self.parts) and self.parts[j].contains(x):
                return True
        return False

    def contains_many(self, xs: np.ndarray) -> np.ndarray:
        out = np.zeros(len(xs), dtype=bool)
        for p in self.parts:
            inside = (xs > p.lo) & (xs < p.hi)
            if not p.lo_open:
                inside |= xs == p.lo
            if not p.hi_open:
                inside |= xs == p.hi
            out |= inside
        return out

    def intersect(self, other: "OpenSet") -> "OpenSet":
        """Each part of the shorter set is bisected into the longer one."""
        small, big = (self, other) if len(self.parts) <= len(other.parts) else (other, self)
        b, his = big.parts, big._his
        out = []
        for p in small.parts:
            j = bisect.bisect_left(his, p.lo)
            while j < len(b) and b[j].lo <= p.hi:
                w = p.intersect(b[j])
                if w is not None:
                    out.append(w)
                j += 1
        return OpenSet(tuple(out))

    def subtract_points(self, points) -> "OpenSet":
        """Remove finitely many points, splitting parts at interior hits."""
        parts = list(self.parts)
        for x in points:
            nxt = []
            for p in parts:
                if not p.contains(x):
                    nxt.append(p)
                elif p.is_point():
                    continue
                elif x == p.lo:
                    nxt.append(Interval(p.lo, p.hi, True, p.hi_open))
                elif x == p.hi:
                    nxt.append(Interval(p.lo, p.hi, p.lo_open, True))
                else:
                    nxt.append(Interval(p.lo, x, p.lo_open, True))
                    nxt.append(Interval(x, p.hi, True, p.hi_open))
            parts = nxt
        return OpenSet(tuple(parts))

    def __repr__(self):
        if not self.parts:
            return "OpenSet()"
        return " u ".join(repr(p) for p in self.parts)


def dedupe_sorted(xs: np.ndarray, tol: float) -> np.ndarray:
    """Greedy left-to-right merge of sorted points: a point within ``tol`` of
    the last kept point is dropped into that point's group.

    Returns the boolean keep mask.  The kept points lie more than ``tol``
    apart, and a dropped point belongs to the group of the last kept point
    before it.
    """
    keep = np.ones(len(xs), dtype=bool)
    if len(xs) > 1:
        small = np.diff(xs) <= tol  # small[i]: x[i+1] is within tol of x[i]
        np.logical_not(small, out=keep[1:])
        # Without two adjacent small gaps, the last kept point before x[i+1]
        # is x[i] itself.  In a chain of them it may lie further back, so the
        # points of each chain are decided one by one from its first point,
        # which a large gap precedes and so is kept.
        chain_starts = np.flatnonzero(small[:-1] & small[1:])
        end = -1
        for s in chain_starts.tolist():
            if s <= end:
                continue  # inside the chain decided last
            end = s + 1
            while end + 1 < len(small) and small[end + 1]:
                end += 1
            last = xs[s]
            for i in range(s + 1, end + 2):
                keep[i] = xs[i] - last > tol
                if keep[i]:
                    last = xs[i]
    return keep


@dataclass(frozen=True, eq=False)
class PointSet:
    """Sorted finite set of reals; points closer than ``tol`` are one point.

    ``points`` is a read-only view of a sorted float64 array (the constructor
    also takes a sorted tuple or list).  Iteration yields Python floats, and
    equality and hashing are by value."""

    points: np.ndarray = ()
    tol: float = DEFAULT_POINT_TOL

    def __post_init__(self):
        object.__setattr__(self, "points", np.asarray(self.points, dtype=float).view())
        self.points.flags.writeable = False  # shared by every caller

    @staticmethod
    def of(values, tol: float = DEFAULT_POINT_TOL) -> "PointSet":
        # stable, so -0.0 and 0.0 keep their input order; rebinding ``values``
        # frees a temporary input array before the dedupe
        values = np.sort(np.asarray(values, dtype=float), kind="stable")
        return PointSet(values[dedupe_sorted(values, tol)], tol)

    @staticmethod
    def empty(tol: float = DEFAULT_POINT_TOL) -> "PointSet":
        return PointSet((), tol)

    def __eq__(self, other):
        return isinstance(other, PointSet) and self.tol == other.tol and np.array_equal(self.points, other.points)

    def __hash__(self):
        # adding 0.0 turns -0.0 into 0.0, which compares equal to it
        return hash((self.tol, (self.points + 0.0).tobytes()))

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points.tolist())

    def index_near(self, x: float) -> int | None:
        """Index of a point within ``tol`` of x, or None.  The neighbours i-1
        and i of the left insertion point are checked in that order, so of two
        such points the left one wins."""
        i = bisect.bisect_left(self.points, x)
        for j in (i - 1, i):
            if 0 <= j < len(self.points) and abs(self.points[j] - x) <= self.tol:
                return j
        return None

    def contains(self, x: float) -> bool:
        return self.index_near(x) is not None

    def contains_many(self, xs: np.ndarray) -> np.ndarray:
        """``contains`` for every entry of ``xs``: the neighbours i-1 and i of
        each left insertion point are checked; all False for an empty set."""
        pts = self.points
        if not len(pts):
            return np.zeros(len(xs), dtype=bool)
        i = np.searchsorted(pts, xs)
        # clipping only repeats the other neighbour at either end
        near = np.abs(pts[np.maximum(i - 1, 0)] - xs) <= self.tol
        near |= np.abs(pts[np.minimum(i, len(pts) - 1)] - xs) <= self.tol
        return near

    def __repr__(self):
        inner = ", ".join(f"{x:g}" for x in self.points[:8])
        if len(self.points) > 8:
            inner += f", ... ({len(self.points)} points)"
        return "{" + inner + "}"


@dataclass(frozen=True)
class RegionSet:
    """Sorted union of disjoint closed intervals (invariant-region carrier)."""

    parts: tuple[Interval, ...] = ()

    def __post_init__(self):
        parts = [Interval(p.lo, p.hi, False, False) for p in self.parts]
        parts.sort(key=lambda p: p.lo)
        object.__setattr__(self, "parts", _merge_sorted_parts(parts))

    @staticmethod
    def of(*bounds: tuple[float, float]) -> "RegionSet":
        return RegionSet(tuple(Interval.closed(a, b) for a, b in bounds))

    def is_empty(self) -> bool:
        return not self.parts

    def contains(self, x: float, tol: float = 0.0) -> bool:
        return any(p.lo - tol <= x <= p.hi + tol for p in self.parts)

    def contains_many(self, xs: np.ndarray, tol: float = 0.0) -> np.ndarray:
        out = np.zeros(len(xs), dtype=bool)
        for p in self.parts:
            out |= (xs >= p.lo - tol) & (xs <= p.hi + tol)
        return out

    def total_length(self) -> float:
        return sum(p.diameter for p in self.parts)

    def __repr__(self):
        return " u ".join(repr(p) for p in self.parts) if self.parts else "RegionSet()"


def components_of_complement(domain: Interval, cuts: PointSet) -> list[Interval]:
    """Open connected components of ``domain`` minus the cut points.

    Cuts at the domain boundary do not create components, so the count is
    always (number of interior cuts) + 1.  The returned intervals are open at
    every cut and keep the domain's own end flags elsewhere.
    """
    xs, tol = cuts.points, cuts.tol
    outside = xs[(xs < domain.lo - tol) | (xs > domain.hi + tol)].tolist()
    if outside:
        raise ValueError(f"cut point {outside[0]!r} outside domain {domain!r}")
    out = []
    lo, lo_open = domain.lo, domain.lo_open or bool(np.any(np.abs(xs - domain.lo) <= tol))
    for c in xs[(xs > domain.lo + tol) & (xs < domain.hi - tol)].tolist():
        out.append(Interval(lo, c, lo_open, True))
        lo, lo_open = c, True
    out.append(Interval(lo, domain.hi, lo_open, domain.hi_open or bool(np.any(np.abs(xs - domain.hi) <= tol))))
    return out
