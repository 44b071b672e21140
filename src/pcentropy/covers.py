"""Open covers, their products and pullbacks, and exact minimal subcovers.

Cover elements are finite interval unions, relatively open in the map's
domain.  Refinement intersects the cover with preimages of itself step by
step, pulling the whole cover back through ``maps.branch_preimages``, the
branch inverse of the MS levels; every element of the n-step refinement
automatically avoids the n-step discontinuity set.  Minimal subcover
cardinalities are exact: a greedy sweep (optimal) when every element is a
single interval, otherwise a branch and bound whose first dive is a greedy
cover.  The part and node caps are the constants ``DEFAULT_PART_CAP`` and
``DEFAULT_NODE_CAP``.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import NotACoverError, ResourceCapExceeded
from .estimators import EntropySeries, SeriesRecord, count_series
from .intervals import Interval, OpenSet, PointSet, RegionSet, dedupe_sorted
from .maps import PcMap, branch_preimages
from .symbolic import delta_n

DEFAULT_PART_CAP = 1_000_000
DEFAULT_NODE_CAP = 1_000_000


@dataclass(frozen=True)
class Cover:
    elements: tuple[OpenSet, ...]

    def __post_init__(self):
        if any(el.is_empty() for el in self.elements):
            raise ValueError("covers must not contain the empty set")

    def __len__(self):
        return len(self.elements)

    def total_parts(self) -> int:
        return sum(len(el.parts) for el in self.elements)


def natural_cover(pcmap: PcMap) -> Cover:
    """One element per continuity piece (relatively open in the domain)."""
    return Cover(tuple(OpenSet((b.piece,)) for b in pcmap.branches))


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
    return Cover(_dedupe(elements))


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
    return Cover(elems)


def _pullback(pcmap: PcMap, elements) -> list[OpenSet]:
    """One-step preimages of the elements, relatively open in the domain;
    empty preimages are dropped.

    Each branch intersects every part with its image and inverts all the
    part ends with one ``branch_preimages`` call.  An end on an image end
    maps to the piece end exactly, so points of the discontinuity set are
    never included, matching the convention-independent refinement semantics.
    """
    rows = [(i, p.lo, p.hi, p.lo_open, p.hi_open) for i, el in enumerate(elements) for p in el.parts]
    if not rows:
        return []
    owner, lo, hi, lo_open, hi_open = (np.array(col) for col in zip(*rows))
    parts: list[list[Interval]] = [[] for _ in elements]
    for b in pcmap.branches:
        vmin, vmax = (min(max(v, pcmap.domain.lo), pcmap.domain.hi) for v in b.image)
        img_lo_open, img_hi_open = (b.piece.lo_open, b.piece.hi_open)[:: b.direction]
        # Interval.intersect with the image: at an equal end, open if either side is;
        # row 0 holds the lower ends, row 1 the upper ones
        ends = np.stack([np.maximum(lo, vmin), np.minimum(hi, vmax)])
        opens = np.stack([
            np.where(lo > vmin, lo_open, img_lo_open) | ((lo == vmin) & lo_open),
            np.where(hi < vmax, hi_open, img_hi_open) | ((hi == vmax) & hi_open),
        ])
        keep = np.flatnonzero((ends[0] < ends[1]) | ((ends[0] == ends[1]) & ~opens.any(axis=0)))
        if not len(keep):
            continue
        ends = ends[:, keep]
        xs = branch_preimages(b, ends.ravel()).reshape(ends.shape)
        # image ends go to piece ends exactly; a decreasing branch swaps the rows
        piece_ends = np.array([[b.piece.lo], [b.piece.hi]])[:: b.direction]
        xs = np.where(ends == [[vmin], [vmax]], piece_ends, xs)[:: b.direction]
        opens = opens[:, keep][:: b.direction]
        # NaN ends fail both comparisons
        ok = (xs[0] < xs[1]) | ((xs[0] == xs[1]) & ~opens.any(axis=0))
        kept = zip(owner[keep][ok].tolist(), xs[:, ok].T.tolist(), opens[:, ok].T.tolist())
        for i, (x0, x1), (o0, o1) in kept:
            parts[i].append(Interval(x0, x1, o0, o1))
    out = (OpenSet(tuple(ps)) for ps in parts)
    return [el for el in out if not el.is_empty()]


def pullback_cover(pcmap: PcMap, cover: Cover, j: int) -> Cover:
    """Elementwise j-step preimage, empty preimages dropped."""
    if j < 0:
        raise ValueError("j must be >= 0")
    elems = list(cover.elements)
    for step in range(j):
        elems = _pullback(pcmap, elems)
        if sum(len(el.parts) for el in elems) > DEFAULT_PART_CAP:
            raise ResourceCapExceeded(f"pullback exceeded {DEFAULT_PART_CAP} interval parts", completed=step)
    return Cover(_dedupe(elems))


def refinement_steps(pcmap: PcMap, cover: Cover, n_max: int):
    """Yield the n-step refinements for n = 1..n_max, reusing previous factors."""
    base = []
    for el in cover.elements:
        cut = el.subtract_points(pcmap.delta)
        if not cut.is_empty():
            base.append(cut)
    acc = Cover(_dedupe(base))
    yield acc
    cur = base
    for n in range(2, n_max + 1):
        cur = _pullback(pcmap, cur)
        acc = vee([acc, Cover(tuple(cur))])
        if acc.total_parts() > DEFAULT_PART_CAP:
            raise ResourceCapExceeded(f"refinement exceeded {DEFAULT_PART_CAP} interval parts", completed=n - 1)
        yield acc


def refine_n(pcmap: PcMap, cover: Cover, n: int) -> Cover:
    """The n-step refinement: product of preimages of the cover minus the cut set."""
    if n < 1:
        raise ValueError("n must be >= 1")
    out = None
    for out in refinement_steps(pcmap, cover, n):
        pass
    return out


# ---------------------------------------------------------------------------
# minimal subcovers


@dataclass(frozen=True)
class SubcoverResult:
    count: int
    indices: tuple[int, ...]
    exact: bool


def _uncovered(reps: np.ndarray, code: int) -> NotACoverError:
    i = code // 2
    x = float(reps[i] if code % 2 == 0 else 0.5 * (reps[i] + reps[i + 1]))
    return NotACoverError(f"target point {x:.17g} is uncovered", witness=x)


def minimal_subcover(cover: Cover, target: RegionSet, exclude: PointSet = PointSet.empty()) -> SubcoverResult:
    """Exact minimal subcover of ``target`` minus ``exclude`` points.

    The target decomposes into atoms (the endpoint coordinates and the open
    gaps between consecutive ones); an element covers a contiguous block of
    atoms, which makes the greedy sweep optimal for single-interval elements.
    Union elements go to a branch and bound that stops after
    ``DEFAULT_NODE_CAP`` nodes once it holds a cover, and then reports that
    cover with ``exact`` false.
    """
    if target.is_empty():
        return SubcoverResult(0, (), True)
    tol = max(exclude.tol, 1e-12)
    owner = [idx for idx, el in enumerate(cover.elements) for _ in el.parts]
    ends = np.array(
        [(p.lo, p.hi, p.lo_open, p.hi_open) for el in cover.elements for p in el.parts], dtype=float
    ).reshape(-1, 4)
    target_ends = [x for p in target.parts for x in (p.lo, p.hi)]
    # np.unique drops the exact repeats (adjacent elements share ends), which
    # dedupe_sorted would otherwise walk one by one as sub-tol chains
    coords = np.unique(np.concatenate([target_ends, ends[:, 0], ends[:, 1], exclude.array]))
    reps = coords[dedupe_sorted(coords, tol)]

    def snap(xs: np.ndarray) -> np.ndarray:
        # reps are more than tol apart and every coordinate lies within tol
        # above its representative
        return np.searchsorted(reps, xs, side="right") - 1

    # atom codes: 2i = the point reps[i], 2i+1 = the open gap (reps[i], reps[i+1])
    inside = np.empty(2 * len(reps) - 1, dtype=bool)
    inside[0::2] = target.contains_many(reps, tol)
    inside[1::2] = target.contains_many(0.5 * (reps[:-1] + reps[1:]))
    inside[2 * snap(exclude.array)] = False
    atoms = np.flatnonzero(inside)
    if not len(atoms):
        return SubcoverResult(0, (), True)
    # each part covers the atoms first..last, none if first > last
    first = np.searchsorted(atoms, 2 * snap(ends[:, 0]) + ends[:, 2], side="left").tolist()
    last = (np.searchsorted(atoms, 2 * snap(ends[:, 1]) - ends[:, 3], side="right") - 1).tolist()

    if len(owner) == len(cover.elements):  # every element is a single interval
        ranges = sorted((a, b, idx) for a, b, idx in zip(first, last, owner) if a <= b)
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
                raise _uncovered(reps, atoms[frontier])
            picks.append(best_idx)
            frontier = best_hi + 1
        return SubcoverResult(len(picks), tuple(picks), True)

    # general case: bitmask set cover over atoms; parts come in element order,
    # so each by_atom list holds its elements in index order
    full = (1 << len(atoms)) - 1
    masks = [0] * len(cover.elements)
    by_atom: list[list[int]] = [[] for _ in atoms]
    for a, b, idx in zip(first, last, owner):
        if a <= b:
            masks[idx] |= ((1 << (b - a + 1)) - 1) << a
            for atom in range(a, b + 1):
                by_atom[atom].append(idx)
    union = 0
    for m in masks:
        union |= m
    if union != full:
        raise _uncovered(reps, atoms[(full & ~union).bit_length() - 1])
    max_gain = max(m.bit_count() for m in masks)

    # Depth-first branch and bound with an explicit stack: each frame is a
    # node's uncovered mask and the iterator over its candidates, and
    # picks[d] is the candidate taken at depth d.  Candidates cover the
    # lowest uncovered atom, largest gain first, so the first dive is a
    # greedy cover of at most len(atoms) picks; the node cap applies only
    # once a cover is held.
    best_count, best_picks = math.inf, ()
    exact = True
    nodes = 0
    picks: list[int] = []
    stack: list[tuple[int, Iterator[int]]] = []
    uncovered = full
    while True:
        nodes += 1
        if nodes > DEFAULT_NODE_CAP and best_picks:
            exact = False
            break
        depth = len(picks)
        if not uncovered:
            if depth < best_count:
                best_count, best_picks = depth, tuple(picks)
        elif depth + math.ceil(uncovered.bit_count() / max_gain) < best_count:
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
            break
    return SubcoverResult(best_count, best_picks, exact)


def minimal_subcover_cardinality(cover: Cover, target: RegionSet, exclude: PointSet = PointSet.empty()) -> int:
    return minimal_subcover(cover, target, exclude).count


# ---------------------------------------------------------------------------
# entropy along a cover


def cover_entropy(
    pcmap: PcMap,
    cover: Cover,
    n_max: int,
    region: RegionSet | None = None,
    estimator: str = "fekete-min",
    cap: int | None = None,
) -> EntropySeries:
    """Minimal-subcover growth of the n-step refinements over the region minus
    the n-step discontinuity set; ``cap`` bounds that set's size as in
    ``ms_entropy``, and hitting it truncates the series."""
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    if region is None:
        region = RegionSet.of((pcmap.domain.lo, pcmap.domain.hi))
    records = []
    truncated = False
    cover = domainify_cover(cover, pcmap.domain)
    steps = refinement_steps(pcmap, cover, n_max)
    n = 0
    while n < n_max:
        n += 1
        try:
            refined = next(steps)
            exclude = delta_n(pcmap, n, cap)
        except ResourceCapExceeded:
            truncated = True
            break
        res = minimal_subcover(refined, region, exclude)
        records.append(SeriesRecord(n, res.count, flag=None if res.exact else "inexact"))
    if not records:
        raise ResourceCapExceeded("no refinement fits under the cap", completed=0)
    return count_series("cover", records, estimator, truncated)


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


def lebesgue_number(cover: Cover, region: RegionSet) -> float:
    """Conservative Lebesgue number: min over a 1000-point grid of the best
    one-sided slack of an element containing the point (domain-clipped sides
    count as unbounded)."""
    delta = math.inf
    for part in region.parts:
        xs = np.linspace(part.lo, part.hi, max(2, int(1000 * part.diameter / region.total_length())))
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
