"""Open covers, their products and pullbacks, and exact minimal subcovers.

Cover elements are finite interval unions, relatively open in the map's
domain.  Refinement intersects the cover with preimages of itself step by
step; every element of the n-step refinement automatically avoids the n-step
discontinuity set.  Minimal subcover cardinalities are exact: a greedy sweep
(optimal) when every element is a single interval, branch-and-bound seeded by
the greedy value otherwise.
"""

from __future__ import annotations

import bisect as _bisect
import math
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .errors import NotACoverError, ResourceCapExceeded
from .estimators import EntropySeries, SeriesRecord, estimate_table
from .intervals import Interval, OpenSet, PointSet, RegionSet, dedupe_sorted
from .maps import Branch, PcMap, branch_inverse
from .symbolic import delta_n

DEFAULT_PART_CAP = 1_000_000
DEFAULT_NODE_CAP = 1_000_000


@dataclass(frozen=True)
class Cover:
    elements: tuple[OpenSet, ...]
    label: str = ""

    def __post_init__(self):
        if any(el.is_empty() for el in self.elements):
            raise ValueError("covers must not contain the empty set")

    def __len__(self):
        return len(self.elements)

    @property
    def diameter(self) -> float:
        return max((el.diameter for el in self.elements), default=0.0)

    def total_parts(self) -> int:
        return sum(len(el.parts) for el in self.elements)


def natural_cover(pcmap: PcMap) -> Cover:
    """One element per continuity piece (relatively open in the domain)."""
    return Cover(tuple(OpenSet((b.piece,)) for b in pcmap.branches), label="natural")


def domainify_cover(cover: Cover, domain: Interval) -> Cover:
    """Interpret cover elements as relatively open subsets of the domain.

    Parts are clipped to the domain; a part reaching a domain endpoint closes
    there, the way a piece such as [lo, d) is open in [lo, hi].
    """
    elements = []
    for el in cover.elements:
        parts = []
        for p in el.parts:
            lo = max(p.lo, domain.lo)
            hi = min(p.hi, domain.hi)
            if lo > hi:
                continue
            lo_open = p.lo_open and lo != domain.lo
            hi_open = p.hi_open and hi != domain.hi
            if lo == hi and (lo_open or hi_open):
                continue
            parts.append(Interval(lo, hi, lo_open, hi_open))
        cut = OpenSet(tuple(parts))
        if not cut.is_empty():
            elements.append(cut)
    return Cover(_dedupe(elements), label=cover.label)


def _dedupe(elements) -> tuple[OpenSet, ...]:
    return tuple(dict.fromkeys(elements))


def vee(covers: list[Cover]) -> Cover:
    """All non-empty intersections picking one element from each cover."""
    if not covers:
        raise ValueError("need at least one cover")
    elems = _dedupe(covers[0].elements)
    for c in covers[1:]:
        nxt = {}
        for a in elems:
            for b in c.elements:
                w = a.intersect(b)
                if not w.is_empty():
                    nxt[w] = None
        elems = tuple(nxt)
    label = " v ".join(c.label or "?" for c in covers)
    return Cover(elems, label=label)


def _branch_image(branch: Branch, domain: Interval) -> Interval:
    vmin, vmax = (min(max(v, domain.lo), domain.hi) for v in branch.image)
    if branch.increasing:
        return Interval(vmin, vmax, branch.piece.lo_open, branch.piece.hi_open)
    return Interval(vmin, vmax, branch.piece.hi_open, branch.piece.lo_open)


def openset_preimage(pcmap: PcMap, oset: OpenSet) -> OpenSet:
    """One-step preimage as a set relatively open in the domain.

    Points of the discontinuity set are never included, matching the
    convention-independent refinement semantics.
    """
    parts = []
    for b in pcmap.branches:
        img = _branch_image(b, pcmap.domain)
        for w0 in oset.parts:
            w = w0.intersect(img)
            if w is None:
                continue
            if b.increasing:
                xlo = b.piece.lo if w.lo == img.lo else branch_inverse(b, w.lo, 1e-15)
                xhi = b.piece.hi if w.hi == img.hi else branch_inverse(b, w.hi, 1e-15)
                lo_open, hi_open = w.lo_open, w.hi_open
            else:
                xlo = b.piece.lo if w.hi == img.hi else branch_inverse(b, w.hi, 1e-15)
                xhi = b.piece.hi if w.lo == img.lo else branch_inverse(b, w.lo, 1e-15)
                lo_open, hi_open = w.hi_open, w.lo_open
            if xlo is None or xhi is None or xlo > xhi:
                continue
            if xlo == xhi and (lo_open or hi_open):
                continue
            parts.append(Interval(xlo, xhi, lo_open, hi_open))
    return OpenSet(tuple(parts))


def pullback_cover(pcmap: PcMap, cover: Cover, j: int, part_cap: int = DEFAULT_PART_CAP) -> Cover:
    """Elementwise j-step preimage, empty preimages dropped."""
    if j < 0:
        raise ValueError("j must be >= 0")
    elems = list(cover.elements)
    for step in range(j):
        elems = [openset_preimage(pcmap, el) for el in elems]
        elems = [el for el in elems if not el.is_empty()]
        if sum(len(el.parts) for el in elems) > part_cap:
            raise ResourceCapExceeded(f"pullback exceeded {part_cap} interval parts", completed=step)
    return Cover(_dedupe(elems), label=f"f^-{j}({cover.label or '?'})")


def refinement_steps(pcmap: PcMap, cover: Cover, n_max: int, part_cap: int = DEFAULT_PART_CAP):
    """Yield the n-step refinements for n = 1..n_max, reusing previous factors."""
    base = []
    for el in cover.elements:
        cut = el.subtract_points(pcmap.delta)
        if not cut.is_empty():
            base.append(cut)
    acc = Cover(_dedupe(base), label=f"{cover.label or '?'}^1")
    yield acc
    cur = base
    for n in range(2, n_max + 1):
        cur = [openset_preimage(pcmap, el) for el in cur]
        cur = [el for el in cur if not el.is_empty()]
        nxt = {}
        for a in acc.elements:
            for b in cur:
                w = a.intersect(b)
                if not w.is_empty():
                    nxt[w] = None
        acc = Cover(tuple(nxt), label=f"{cover.label or '?'}^{n}")
        if acc.total_parts() > part_cap:
            raise ResourceCapExceeded(f"refinement exceeded {part_cap} interval parts", completed=n - 1)
        yield acc


def refine_n(pcmap: PcMap, cover: Cover, n: int, part_cap: int = DEFAULT_PART_CAP) -> Cover:
    """The n-step refinement: product of preimages of the cover minus the cut set."""
    if n < 1:
        raise ValueError("n must be >= 1")
    out = None
    for out in refinement_steps(pcmap, cover, n, part_cap):
        pass
    return out


# ---------------------------------------------------------------------------
# minimal subcovers


@dataclass(frozen=True)
class SubcoverResult:
    count: int
    indices: tuple[int, ...]
    exact: bool


def _snap(reps: PointSet, x: float) -> int:
    j = reps.index_near(x)
    if j is None:
        raise AssertionError("coordinate missing from snap table")
    return j


def minimal_subcover(
    cover: Cover,
    target: RegionSet,
    exclude: PointSet = PointSet.empty(),
    node_cap: int = DEFAULT_NODE_CAP,
) -> SubcoverResult:
    """Exact minimal subcover of ``target`` minus ``exclude`` points.

    The target decomposes into atoms (the endpoint coordinates and the open
    gaps between consecutive ones); an element covers a contiguous block of
    atoms, which makes the greedy sweep optimal for single-interval elements.
    """
    tol = max(exclude.tol, 1e-12)
    coords = set()
    for p in target.parts:
        coords.add(p.lo)
        coords.add(p.hi)
    for el in cover.elements:
        for p in el.parts:
            coords.add(p.lo)
            coords.add(p.hi)
    coords.update(exclude.points)
    if not coords or target.is_empty():
        return SubcoverResult(0, (), True)
    ordered = sorted(coords)
    keep = dedupe_sorted(np.asarray(ordered, dtype=float), tol)
    snap_table = PointSet(tuple(compress(ordered, keep)), tol)
    reps = snap_table.points
    excluded_idx = {_snap(snap_table, e) for e in exclude.points}

    # atom codes: 2i = the point reps[i], 2i+1 = the open gap (reps[i], reps[i+1])
    atoms: list[int] = []
    for i, r in enumerate(reps):
        if i > 0:
            mid = 0.5 * (reps[i - 1] + r)
            if target.contains(mid):
                atoms.append(2 * i - 1)
        if i not in excluded_idx and target.contains(r, tol=tol):
            atoms.append(2 * i)

    def atom_coord(code: int) -> float:
        if code % 2 == 0:
            return reps[code // 2]
        return 0.5 * (reps[code // 2] + reps[code // 2 + 1])

    if not atoms:
        return SubcoverResult(0, (), True)

    def part_code_range(p: Interval) -> tuple[int, int]:
        a = _snap(snap_table, p.lo)
        b = _snap(snap_table, p.hi)
        lo_code = 2 * a if not p.lo_open else 2 * a + 1
        hi_code = 2 * b if not p.hi_open else 2 * b - 1
        return lo_code, hi_code

    def atom_range(lo_code: int, hi_code: int) -> tuple[int, int]:
        lo_i = _bisect.bisect_left(atoms, lo_code)
        hi_i = _bisect.bisect_right(atoms, hi_code) - 1
        return lo_i, hi_i

    single = all(len(el.parts) == 1 for el in cover.elements)
    if single:
        ranges = []
        for idx, el in enumerate(cover.elements):
            lo_code, hi_code = part_code_range(el.parts[0])
            lo_i, hi_i = atom_range(lo_code, hi_code)
            if lo_i <= hi_i:
                ranges.append((lo_i, hi_i, idx))
        ranges.sort()
        picks = []
        frontier = 0
        i = 0
        best_hi, best_idx = -1, -1
        while frontier < len(atoms):
            while i < len(ranges) and ranges[i][0] <= frontier:
                if ranges[i][1] > best_hi:
                    best_hi, best_idx = ranges[i][1], ranges[i][2]
                i += 1
            if best_hi < frontier:
                raise NotACoverError(
                    f"target point {atom_coord(atoms[frontier]):.17g} is uncovered",
                    witness=atom_coord(atoms[frontier]),
                )
            picks.append(best_idx)
            frontier = best_hi + 1
        return SubcoverResult(len(picks), tuple(picks), True)

    # general case: bitmask set cover over atoms
    full = (1 << len(atoms)) - 1
    masks = []
    for idx, el in enumerate(cover.elements):
        m = 0
        for p in el.parts:
            lo_i, hi_i = atom_range(*part_code_range(p))
            if lo_i <= hi_i:
                m |= ((1 << (hi_i - lo_i + 1)) - 1) << lo_i
        masks.append(m)
    union = 0
    for m in masks:
        union |= m
    if union != full:
        missing = (full & ~union).bit_length() - 1
        raise NotACoverError(
            f"target point {atom_coord(atoms[missing]):.17g} is uncovered",
            witness=atom_coord(atoms[missing]),
        )

    def greedy() -> list[int]:
        uncovered = full
        picks = []
        while uncovered:
            best_i, best_gain = -1, -1
            for idx, m in enumerate(masks):
                gain = (m & uncovered).bit_count()
                if gain > best_gain:
                    best_i, best_gain = idx, gain
            picks.append(best_i)
            uncovered &= ~masks[best_i]
        return picks

    greedy_picks = greedy()
    best = {"count": len(greedy_picks), "picks": tuple(greedy_picks), "exact": True}
    max_gain = max(m.bit_count() for m in masks)

    by_atom: list[list[int]] = [[] for _ in atoms]
    for idx, m in enumerate(masks):
        mm = m
        while mm:
            b = mm & -mm
            by_atom[b.bit_length() - 1].append(idx)
            mm ^= b

    def dfs() -> bool:
        """Depth-first branch and bound with an explicit stack: each frame is
        a node's uncovered mask and the iterator over its candidates, and
        ``picks[d]`` is the candidate taken at depth d.  False if the search
        hit ``node_cap``."""
        nodes = 0
        picks: list[int] = []
        stack: list[tuple[int, Iterator[int]]] = []
        uncovered = full
        while True:
            nodes += 1
            if nodes > node_cap:
                return False
            depth = len(picks)
            if not uncovered:
                if depth < best["count"]:
                    best["count"], best["picks"] = depth, tuple(picks)
            elif depth + math.ceil(uncovered.bit_count() / max_gain) < best["count"]:
                pivot = (uncovered & -uncovered).bit_length() - 1
                cands = sorted(by_atom[pivot], key=lambda i: -(masks[i] & uncovered).bit_count())
                stack.append((uncovered, iter(cands)))
            # next node: the next candidate of the deepest frame that has one
            while stack:
                parent, cands = stack[-1]
                del picks[len(stack) - 1:]
                idx = next(cands, None)
                if idx is not None:
                    picks.append(idx)
                    uncovered = parent & ~masks[idx]
                    break
                stack.pop()
            else:
                return True

    complete = dfs()
    return SubcoverResult(best["count"], best["picks"], complete)


def minimal_subcover_cardinality(
    cover: Cover,
    target: RegionSet,
    exclude: PointSet = PointSet.empty(),
    node_cap: int = DEFAULT_NODE_CAP,
) -> int:
    return minimal_subcover(cover, target, exclude, node_cap).count


# ---------------------------------------------------------------------------
# entropy along a cover


def cover_entropy(
    pcmap: PcMap,
    cover: Cover,
    n_max: int,
    region: RegionSet | None = None,
    estimator: str = "fekete-min",
    part_cap: int = DEFAULT_PART_CAP,
    node_cap: int = DEFAULT_NODE_CAP,
) -> EntropySeries:
    """Minimal-subcover growth of the n-step refinements over the region minus
    the n-step discontinuity set."""
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    if region is None:
        region = RegionSet.of((pcmap.domain.lo, pcmap.domain.hi))
    records = []
    truncated = False
    cover = domainify_cover(cover, pcmap.domain)
    steps = refinement_steps(pcmap, cover, n_max, part_cap)
    n = 0
    while n < n_max:
        n += 1
        try:
            refined = next(steps)
            exclude = delta_n(pcmap, n)
        except ResourceCapExceeded:
            truncated = True
            break
        res = minimal_subcover(refined, region, exclude, node_cap)
        records.append(SeriesRecord(n, res.count, flag=None if res.exact else "inexact"))
    if not records:
        raise ResourceCapExceeded("no refinement fits under the cap", completed=0)
    pairs = [(r.n, math.log(r.value)) for r in records]
    estimate, method, estimates = estimate_table(pairs, estimator, fallback=truncated)
    return EntropySeries(
        method="cover",
        records=tuple(records),
        estimate=estimate,
        estimate_method=method,
        estimates=estimates,
        truncated=truncated,
    )


def boundary_of_refined_natural_cover(pcmap: PcMap, n: int) -> PointSet:
    """Interior endpoints of the n-step refinement of the natural cover.

    Equals the interior points of the n-step discontinuity set: Delta^n can
    also hold a domain endpoint, which this set leaves out by construction.
    The acceptance suite checks the two agree on tent, which has none.
    """
    refined = refine_n(pcmap, natural_cover(pcmap), n)
    dom = pcmap.domain
    pts = []
    for el in refined.elements:
        for p in el.parts:
            for x in (p.lo, p.hi):
                if dom.lo + pcmap.tol < x < dom.hi - pcmap.tol:
                    pts.append(x)
    return PointSet.of(pts, tol=pcmap.tol)


def lebesgue_number(cover: Cover, region: RegionSet, grid: int = 1000) -> float:
    """Conservative Lebesgue number: min over grid points of the best one-sided
    slack of an element containing the point (domain-clipped sides count as
    unbounded)."""
    delta = math.inf
    for part in region.parts:
        xs = np.linspace(part.lo, part.hi, max(2, int(grid * part.diameter / region.total_length())))
        for x in xs:
            best = 0.0
            for el in cover.elements:
                for p in el.parts:
                    if p.contains(x):
                        left = math.inf if p.lo <= region.parts[0].lo else x - p.lo
                        right = math.inf if p.hi >= region.parts[-1].hi else p.hi - x
                        best = max(best, min(left, right))
            if best <= 0.0:
                raise NotACoverError(f"grid point {x:.17g} is uncovered", witness=float(x))
            delta = min(delta, best)
    return delta
