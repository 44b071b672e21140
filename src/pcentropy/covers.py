"""Open covers, their products and pullbacks, and exact minimal subcovers.

Cover elements are finite interval unions, relatively open in the map's
domain.  A ``Cover`` holds only the parts of all its elements, as flat arrays
(owner element, ``lo``, ``hi``, ``lo_open``, ``hi_open``), sorted by element
and then by ``lo``, each element in ``OpenSet``'s canonical form; every
routine here reads those, and ``Cover.elements`` builds ``OpenSet``s for callers.
Refinement takes one step rule for every n, Cⁿ = C ∨ f⁻¹(Cⁿ⁻¹) from the
one-element cover C⁰ = {X} of the whole domain.  The pullback clips the parts
of Cⁿ⁻¹ to each branch's image and inverts them through
``maps.branch_preimages``, the branch inverse of the MS levels (a closed form
on affine branches, safeguarded secant rounds from a per-branch bracket table
on smooth ones); the join intersects C with the result, every two parts that
may meet by one row rule, ``_meet`` (``Interval.intersect`` on arrays).  A
branch's preimages lie in its piece, which is open at the cuts, so f⁻¹{X} is
the element of every continuity piece and no step reads the cut set.  The
rows stay in order throughout: intersections of canonical elements in
(a, b, p, q) order (element of each cover, then part of each) are canonical
already and need no merge, and a pullback keeps each element's parts in
order by reversing a decreasing branch's rows, so ``_canonical`` only merges
neighbours where rounding closed a gap.  Each step builds every row-wide
column once and drops it once read: the join gathers for each part pair
only the ends and flags ``_meet`` reads and keys only the pairs it keeps,
and the pullback inverts a branch's ends from one array and sets image ends
to piece ends in place; the docstrings of ``_join`` and ``_pullback`` list
what each holds at its peak.  Every element of the n-step refinement avoids
the n-step discontinuity set Δⁿ, and when C¹ covers the domain minus the
cut set, Cⁿ covers the domain minus Δⁿ; so over the whole domain the target
points under no part of Cⁿ are Δⁿ, and ``cover_entropy`` drops them once
their number equals the lap walk's |Δⁿ|, building no point of Δⁿ from
n = 2.  Minimal subcover cardinalities are exact.  The
target splits into atoms by one stable sort of every coordinate, and each
part covers a block of atoms.  A data reduction comes first and is the one
coverage check: difference arrays count the parts over each atom, an atom
under none is uncovered, an element owning the only part over some atom is
forced into every subcover, and only the atoms that the forced elements
leave, each under some other part, go to the one search: a branch and bound
whose first dive is a greedy cover, reading each atom's candidates from the
(element, atom) pairs grouped by atom, which ends as soon as it holds a cover
as small as a greedy packing of atoms with disjoint candidate sets.  The
part and node caps are the constants ``DEFAULT_PART_CAP`` and
``DEFAULT_NODE_CAP``.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import NotACoverError, ResourceCapExceeded
from .estimators import EntropySeries, SeriesRecord, count_series
from .intervals import Interval, OpenSet, PointSet, RegionSet, dedupe_sorted
from .maps import Branch, PcMap, branch_preimages
from .symbolic import delta_n, delta_table
from .transforms import restrict_map

DEFAULT_PART_CAP = 1_000_000
DEFAULT_NODE_CAP = 1_000_000


class Parts(NamedTuple):
    """One row per part: the index of its element, its ends and their flags."""

    owner: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    lo_open: np.ndarray
    hi_open: np.ndarray

    def take(self, idx) -> "Parts":
        return Parts(*(col[idx] for col in self))


class Cover:
    """A finite sequence of non-empty open sets, held as flat part arrays.

    ``parts`` lists the parts of every element, sorted by element and then by
    ``lo``; each element's parts, at least one, are in ``OpenSet``'s canonical
    form, so the owners run 0..n-1.  ``Cover(elements)`` takes ``OpenSet``s,
    and ``elements`` makes them from the part arrays on first read.
    """

    def __init__(self, elements=()):
        elements = tuple(elements)
        if any(el.is_empty() for el in elements):
            raise ValueError("covers must not contain the empty set")
        rows = [(i, p.lo, p.hi, p.lo_open, p.hi_open) for i, el in enumerate(elements) for p in el.parts]
        cols = zip(*rows) if rows else ((),) * 5
        dtypes = (np.intp, float, float, bool, bool)
        self._init(Parts(*(np.array(c, dtype=t) for c, t in zip(cols, dtypes))))
        self.__dict__["elements"] = elements

    @classmethod
    def _of(cls, parts: Parts) -> "Cover":
        """The cover of canonical part rows whose owners run 0..n-1 in order."""
        cover = cls.__new__(cls)
        cover._init(parts)
        return cover

    def _init(self, parts: Parts):
        for col in parts:
            col.flags.writeable = False  # covers share part arrays
        self.parts = parts

    @cached_property
    def elements(self) -> tuple[OpenSet, ...]:
        owner, lo, hi, lo_open, hi_open = self.parts
        bounds = np.searchsorted(owner, np.arange(len(self) + 1)).tolist()
        rows = [Interval(*r) for r in zip(lo.tolist(), hi.tolist(), lo_open.tolist(), hi_open.tolist())]
        return tuple(OpenSet(tuple(rows[a:b])) for a, b in zip(bounds[:-1], bounds[1:]))

    def __len__(self):
        return int(self.parts.owner[-1]) + 1 if self.total_parts() else 0

    def total_parts(self) -> int:
        return len(self.parts.lo)


def _ranges(start: np.ndarray, stop: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (i, j) with start[i] <= j < stop[i], grouped by i."""
    counts = stop - start
    row = np.repeat(np.arange(len(start)), counts)
    return row, np.repeat(start - np.cumsum(counts) + counts, counts) + np.arange(len(row))


def _canonical(key: np.ndarray, lo, hi, lo_open, hi_open) -> Cover:
    """The cover whose i-th element is the union of the parts with the i-th
    smallest key, in ``OpenSet``'s canonical form; empty intervals are dropped.

    Parts are merged by ``_merge_sorted_parts``'s rules: a part joins its
    group when it starts below the furthest end so far, or at that end with
    the junction point in either part.  Rows already in (key, ``lo``) order,
    each starting at or after its predecessor's end within a key, merge with
    their neighbours only, at a junction with a closed side.  Other rows are
    sorted by key, ``lo`` and closed before open first, and the furthest end,
    the closed one at equal ends, is a running maximum of end ranks, offset
    per key so that it restarts.
    """
    keep = (lo < hi) | ((lo == hi) & ~(lo_open | hi_open))
    if not keep.all():
        key, lo, hi, lo_open, hi_open = (col[keep] for col in (key, lo, hi, lo_open, hi_open))
    n = len(lo)
    if not n:
        return Cover()
    start = np.ones(n, dtype=bool)
    np.not_equal(key[1:], key[:-1], out=start[1:])
    if not np.all(np.where(start[1:], key[1:] > key[:-1], lo[1:] >= hi[:-1])):
        order = np.lexsort((lo_open, lo, key))
        key, lo, hi, lo_open, hi_open = (col[order] for col in (key, lo, hi, lo_open, hi_open))
        np.not_equal(key[1:], key[:-1], out=start[1:])
        by_end = np.lexsort((~hi_open, hi))
        rank = np.empty(n, dtype=np.int64)
        rank[by_end] = np.arange(n)
        offset = (np.cumsum(start) - 1).astype(np.int64) * n
        furthest = by_end[np.maximum.accumulate(offset + rank) - offset]
        hi, hi_open = hi[furthest], hi_open[furthest]  # the furthest end so far
    owner = np.cumsum(start, dtype=np.intp) - 1
    start[1:] |= (lo[1:] > hi[:-1]) | ((lo[1:] == hi[:-1]) & lo_open[1:] & hi_open[:-1])
    if start.all():
        return Cover._of(Parts(owner, lo, hi, lo_open, hi_open))
    first = np.flatnonzero(start)
    last = np.append(first[1:], n) - 1
    parts = Parts(owner[first], lo[first], hi[last], lo_open[first], hi_open[last])
    return Cover._of(parts)


def _sorted_rows(cols) -> tuple[np.ndarray, np.ndarray]:
    """The stable order that sorts the rows of the columns ``cols``, and a
    mask over that order marking the first of each run of equal rows."""
    order = np.lexsort(cols[::-1])
    first = np.zeros(len(order), dtype=bool)
    first[:1] = True
    for col in cols:
        col = col[order]
        first[1:] |= col[1:] != col[:-1]
    return order, first


def _dedupe(cover: Cover) -> Cover:
    """The cover without repeated elements, first occurrences kept in order.

    Equal part rows share an id, and elements with the same number of parts
    are compared as rows of part ids.
    """
    if len(cover) < 2:
        return cover
    owner = cover.parts.owner
    order, first = _sorted_rows(cover.parts[1:])
    kept = np.zeros(len(cover), dtype=bool)
    if len(owner) == len(cover):  # one part per element: part rows are elements
        kept[order[first]] = True
    else:
        row_id = np.empty(len(owner), dtype=np.intp)
        row_id[order] = np.cumsum(first)
        counts = np.bincount(owner, minlength=len(cover))
        starts = np.cumsum(counts) - counts
        for k in set(counts.tolist()):
            els = np.flatnonzero(counts == k)
            order, first = _sorted_rows(tuple(row_id[starts[els, None] + np.arange(k)].T))
            kept[els[order[first]]] = True
    if kept.all():
        return cover
    parts = cover.parts.take(kept[owner])
    return Cover._of(parts._replace(owner=(np.cumsum(kept) - 1)[parts.owner]))


def natural_cover(pcmap: PcMap) -> Cover:
    """One element per continuity piece (relatively open in the domain)."""
    return Cover(tuple(OpenSet((b.piece,)) for b in pcmap.branches))


def domainify_cover(cover: Cover, domain: Interval) -> Cover:
    """Interpret cover elements as relatively open subsets of the domain.

    Parts are clipped to the domain; a part reaching a domain endpoint closes
    there, the way a piece such as [lo, d) is open in [lo, hi].
    """
    owner, lo, hi, lo_open, hi_open = cover.parts
    lo, hi = np.maximum(lo, domain.lo), np.minimum(hi, domain.hi)
    return _dedupe(_canonical(owner, lo, hi, lo_open & (lo != domain.lo), hi_open & (hi != domain.hi)))


def _meet(p, q):
    """``Interval.intersect`` on rows: parts ``p`` meet parts ``q`` (or one
    interval broadcast over ``p``), at an equal end open if either side is;
    returns the meets, with ``p``'s owners, and the mask of non-empty ones."""
    lo, hi = np.maximum(p.lo, q.lo), np.minimum(p.hi, q.hi)
    lo_open = np.where(p.lo == q.lo, p.lo_open | q.lo_open, np.where(p.lo > q.lo, p.lo_open, q.lo_open))
    hi_open = np.where(p.hi == q.hi, p.hi_open | q.hi_open, np.where(p.hi < q.hi, p.hi_open, q.hi_open))
    return Parts(p.owner, lo, hi, lo_open, hi_open), (lo < hi) | ((lo == hi) & ~(lo_open | hi_open))


def _pairs(pa: Parts, pb: Parts) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (i, j) of parts pa[i] and pb[j] that may meet: pb[j].lo in
    [pa[i].lo, pa[i].hi] or pa[i].lo in (pb[j].lo, pb[j].hi], an upper end
    counting only when closed.  One range expansion each over
    the other side's parts sorted by ``lo``, the first grouped by i in i
    order, then the second grouped by j; where no pa[i].lo lies in a pb[j],
    the second costs its two searches and nothing more.  Which of two equal
    ``lo`` sorts first changes neither expansion's pair set."""
    sa, sb = np.argsort(pa.lo), np.argsort(pb.lo)
    # x < hi is x <= the float below hi
    a_hi, b_hi = (np.nextafter(p.hi, -np.inf, out=p.hi.copy(), where=p.hi_open) for p in (pa, pb))
    b_lo = pb.lo[sb]
    i, j = _ranges(np.searchsorted(b_lo, pa.lo, "left"), np.searchsorted(b_lo, a_hi, "right"))
    a_lo = pa.lo[sa]
    start, stop = np.searchsorted(a_lo, pb.lo, "right"), np.searchsorted(a_lo, b_hi, "right")
    if not (stop > start).any():
        return i, sb[j]
    jb, ia = _ranges(start, stop)
    return np.concatenate([i, sa[ia]]), np.concatenate([sb[j], jb])


def _join(a: Cover, b: Cover) -> Cover:
    """The non-empty intersections of an element of ``a`` with one of ``b``,
    in (a, b) order; the callers drop repeats with ``_dedupe`` once this
    frame and its transients are gone.

    ``_meet`` intersects the pairs of ``_pairs`` from the ends and flags
    gathered for them, and the pairs left empty (a closed end on an open
    one, a point on an open end) are dropped.  Live at the peak, per pair:
    the two indices, the eight gathered columns, which go when ``_meet``
    returns, and the meet's four.  Only the kept pairs get keys: one stable
    sort by (a-element, q) orders them, and the (a, b) key marks where each
    element starts.

    That is (a-element, b-element, p, q) order, and it needs no merge.  b's
    parts are listed by element, so q's index runs in b-element order.  The
    parts of each element are sorted and disjoint, so within one (a, b) the
    kept pairs in p order are in q order too, and the pairs of one q and
    one a-element come in p order, those of the first expansion before
    those of the second.  So the intersections of one (a, b) are sorted and
    disjoint, and two of them touch at an included point only if two parts
    of a's element or of b's element do, which ``OpenSet``'s canonical form
    rules out; so each element is already in that form.
    """
    pa, pb = a.parts, b.parts
    i, j = _pairs(pa, pb)
    meet, keep = _meet(Parts(None, *(col[i] for col in pa[1:])), Parts(None, *(col[j] for col in pb[1:])))
    kept = None
    if not keep.all():
        kept = np.flatnonzero(keep)
        i, j = i[kept], j[kept]
    a_owner = pa.owner[i]
    order = np.argsort(a_owner * len(pb.lo) + j, kind="stable")
    key = (a_owner * len(b) + pb.owner[j])[order]
    del i, j, a_owner
    if kept is not None:
        order = kept[order]
    new = np.ones(len(key), dtype=bool)
    np.not_equal(key[1:], key[:-1], out=new[1:])
    owner = np.cumsum(new) - 1
    return Cover._of(Parts(owner, *(col[order] for col in meet[1:])))


def vee(covers: list[Cover]) -> Cover:
    """All non-empty intersections picking one element from each cover."""
    if not covers:
        raise ValueError("need at least one cover")
    out = _dedupe(covers[0])
    for c in covers[1:]:
        out = _dedupe(_join(out, c))
    return out


def _branch_rows(pcmap: PcMap, b: Branch, parts: Parts) -> tuple[np.ndarray, ...]:
    """The part rows of ``_pullback`` through the branch ``b``: owner, ends
    and flags, each element's parts in ``lo`` order."""
    d = b.direction
    vmin, vmax = (min(max(v, pcmap.domain.lo), pcmap.domain.hi) for v in b.image)
    # the image's flags are the piece's, swapped by a decreasing branch
    meet, keep = _meet(parts, Parts(None, vmin, vmax, *(b.piece.lo_open, b.piece.hi_open)[::d]))
    if not keep.all():
        meet = meet.take(keep)
    # row 0 holds the lower ends, row 1 the upper ones
    ends = np.concatenate([meet.lo, meet.hi]).reshape(2, -1)
    xs = branch_preimages(b, ends.ravel()).reshape(ends.shape)
    # image ends go to piece ends exactly; a decreasing branch swaps the
    # rows, and reversing its columns puts each element's parts back in lo
    # order (the owners then descend)
    np.copyto(xs, [[b.piece.lo], [b.piece.hi]][::d], where=ends == [[vmin], [vmax]])
    x_lo, x_hi = xs[::d]
    lo_open, hi_open = (meet.lo_open, meet.hi_open)[::d]
    # NaN ends fail both of _canonical's emptiness comparisons
    return tuple(col[::d] for col in (meet.owner, x_lo, x_hi, lo_open, hi_open))


def _pullback(pcmap: PcMap, cover: Cover) -> Cover:
    """One-step preimages of the elements, relatively open in the domain;
    empty preimages are dropped.

    Each branch clips every part to its domain-clipped image by ``_meet``,
    the join's rule, keeps the rows that meet it (all of them, uncopied, on
    a full branch), and inverts their lower and upper ends, written into one
    array, with one ``branch_preimages`` call.  An end on an image end is
    set to the piece end exactly, in place, so points of the discontinuity
    set are never included, matching the convention-independent refinement
    semantics.  A branch's meet, ends and preimages go before the next
    branch runs, each column is concatenated once, and its copy reordered
    by the one stable owner sort replaces it; live at the peak, per row, are
    every branch's rows and their concatenation.
    """
    # branches come in piece order, so one stable sort by owner leaves each
    # element's parts in lo order; _canonical sorts only where a rounded
    # inverse crossed two parts
    cols = [np.concatenate(col) for col in zip(*[_branch_rows(pcmap, b, cover.parts) for b in pcmap.branches])]
    order = np.argsort(cols[0], kind="stable")
    for k in range(len(cols)):
        cols[k] = cols[k][order]
    del order
    return _canonical(*cols)


def pullback_cover(pcmap: PcMap, cover: Cover, j: int) -> Cover:
    """Elementwise j-step preimage, empty preimages dropped."""
    if j < 0:
        raise ValueError("j must be >= 0")
    for step in range(j):
        cover = _pullback(pcmap, cover)
        if cover.total_parts() > DEFAULT_PART_CAP:
            raise ResourceCapExceeded(f"pullback exceeded {DEFAULT_PART_CAP} interval parts", completed=step)
    return _dedupe(cover)


def refinement_steps(pcmap: PcMap, cover: Cover, n_max: int):
    """Yield the n-step refinements Cⁿ = C ∨ f⁻¹(Cⁿ⁻¹) for n = 1..n_max from
    C⁰ = {X}; f⁻¹{X} is the element of every piece, so C¹ is C minus the cuts."""
    acc = Cover((OpenSet((pcmap.domain,)),))
    for n in range(1, n_max + 1):
        acc = _dedupe(_join(cover, _pullback(pcmap, acc)))
        if acc.total_parts() > DEFAULT_PART_CAP:
            raise ResourceCapExceeded(f"refinement exceeded {DEFAULT_PART_CAP} interval parts", completed=n - 1)
        yield acc


def refine_n(pcmap: PcMap, cover: Cover, n: int) -> Cover:
    """The n-step refinement Cⁿ = C ∨ f⁻¹(Cⁿ⁻¹) of ``refinement_steps``."""
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


def _atomize(cover: Cover, target: RegionSet, exclude: PointSet):
    """The atoms of ``target`` minus ``exclude`` and the block of them that
    each part of ``cover`` covers; the mirror is
    ``tests/reference.py::subcover_atoms_reference``.

    Returns ``(reps, atoms, first, last)``: ``reps`` are the coordinates
    (target ends, part ends, excluded points) merged within ``tol`` by
    ``dedupe_sorted``; atom code 2i is the point reps[i] and 2i+1 the open
    gap (reps[i], reps[i+1]); ``atoms`` are the codes of the atoms in the
    target and not excluded; part i covers atoms[first[i]..last[i]], none if
    first[i] > last[i].  One stable argsort orders every coordinate, and each
    one's representative is the group of its exact value.
    """
    tol = max(exclude.tol, 1e-12)
    _, lo, hi, lo_open, hi_open = cover.parts
    ends = [x for p in target.parts for x in (p.lo, p.hi)]
    xs = np.concatenate([ends, lo, hi, exclude.points])
    order = np.argsort(xs, kind="stable")
    xs = xs[order]
    # exact repeats (adjacent elements share ends) go first: dedupe_sorted walks them one by one
    new = np.empty(len(xs), dtype=bool)
    new[0] = True
    np.not_equal(xs[1:], xs[:-1], out=new[1:])
    xs = xs[new]
    keep = dedupe_sorted(xs, tol)
    reps = xs[keep]
    # code[k]: twice the representative index of the k-th coordinate
    code = np.empty(len(order), dtype=np.intp)
    group = 2 * np.cumsum(keep) - 2
    code[order] = group[np.cumsum(new) - 1]
    del order, new, group
    inside = np.empty(2 * len(reps) - 1, dtype=bool)
    inside[0::2] = target.contains_many(reps, tol)
    inside[1::2] = target.contains_many(0.5 * (reps[:-1] + reps[1:]))
    n_ends, n_parts = len(ends), len(lo)
    inside[code[n_ends + 2 * n_parts :]] = False
    atoms = np.flatnonzero(inside)
    # prefix[c]: the number of atoms with codes below c
    prefix = np.zeros(len(inside) + 1, dtype=np.intp)
    np.cumsum(inside, out=prefix[1:])
    first = prefix[code[n_ends : n_ends + n_parts] + lo_open]
    last = prefix[code[n_ends + n_parts : n_ends + 2 * n_parts] - hi_open + 1]
    last -= 1
    return reps, atoms, first, last


def _reduce(first, last, owner, n_atoms):
    """The data reduction ahead of the subcover search: part i covers atoms
    first[i]..last[i] of ``n_atoms`` (none if first[i] > last[i]) for element
    owner[i]; the scalar reference is
    ``tests/reference.py::subcover_reduction_reference``.

    Returns ``(cands, forced, leftover)``: the number of parts over each atom,
    the elements in index order that own the only part over some atom, and
    the atoms that no part of a forced element covers.  Both counts are
    difference arrays over the ranges, so no (part, atom) pair is built.  An
    atom under two parts of one element (ends merged within ``tol``) forces
    nothing; it stays for the search unless a forced element covers it.
    """
    ok = first <= last
    first, last, owner = first[ok], last[ok], owner[ok]

    def depth(a, b):
        ends = np.bincount(a, minlength=n_atoms + 1) - np.bincount(b + 1, minlength=n_atoms + 1)
        return np.cumsum(ends[:-1])

    cands = depth(first, last)
    # once[k]: the number of atoms below k that lie under exactly one part
    once = np.zeros(n_atoms + 1, dtype=np.intp)
    np.cumsum(cands == 1, out=once[1:])
    is_forced = np.zeros(int(owner.max(initial=-1)) + 1, dtype=bool)
    is_forced[owner[once[last + 1] > once[first]]] = True
    taken = is_forced[owner]
    leftover = np.flatnonzero(depth(first[taken], last[taken]) == 0)
    return cands, np.flatnonzero(is_forced), leftover


def _branch_and_bound(first, last, owner, n_elements, n_atoms) -> SubcoverResult:
    """Exact set cover of atoms 0..n_atoms-1, each under at least one part,
    by depth-first branch and bound over elements as bitmasks of atoms.

    Each atom's candidate elements are a slice of the (part, atom) pairs
    grouped stably by atom; parts come in element order, so each slice is in
    index order.  A greedy packing bounds the count from below, computed once:
    pack the lowest free atom, clear every atom that one of its candidates
    covers, and repeat until no atom is free; the packed atoms share no
    candidate, so each needs a pick of its own.  The search ends as soon as
    it holds a cover of the bound's size.  When every element is a single
    interval, the first dive takes the candidate of furthest reach at each
    lowest uncovered atom, the optimal greedy sweep, and the packing packs
    one atom per pick of it, so that dive ends the search.  Otherwise the
    search stops after ``DEFAULT_NODE_CAP`` nodes once it holds a cover, and
    then reports that cover with ``exact`` false.
    """
    full = (1 << n_atoms) - 1
    masks = [0] * n_elements
    for a, b, idx in zip(first.tolist(), last.tolist(), owner.tolist()):
        masks[idx] |= ((1 << (b - a + 1)) - 1) << a
    max_gain = max(m.bit_count() for m in masks)
    row, atom = _ranges(first, last + 1)
    by_atom = np.argsort(atom, kind="stable")
    cands_of = owner[row[by_atom]].tolist()
    start = np.zeros(n_atoms + 1, dtype=np.intp)
    np.cumsum(np.bincount(atom, minlength=n_atoms), out=start[1:])
    start = start.tolist()
    del row, atom, by_atom
    bound, free = 0, full
    while free:
        pivot = (free & -free).bit_length() - 1
        bound += 1
        for idx in cands_of[start[pivot] : start[pivot + 1]]:
            free &= ~masks[idx]

    # An explicit stack: each frame is a node's uncovered mask and the
    # iterator over its candidates, and picks[d] is the candidate taken at
    # depth d.  Candidates cover the lowest uncovered atom, largest gain
    # first, so the first dive is a greedy cover of at most n_atoms picks;
    # the node cap applies only once a cover is held.
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
            if best_count == bound:
                break
        elif depth + math.ceil(uncovered.bit_count() / max_gain) < best_count:
            pivot = (uncovered & -uncovered).bit_length() - 1
            cands = cands_of[start[pivot] : start[pivot + 1]]
            cands.sort(key=lambda i: -(masks[i] & uncovered).bit_count())
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


def minimal_subcover(
    cover: Cover, target: RegionSet, exclude: PointSet = PointSet.empty(), bare: int | None = None
) -> SubcoverResult:
    """Exact minimal subcover of ``target`` minus ``exclude`` points, and
    minus the ``bare`` target points that no part covers, if given.

    The target decomposes into atoms (the endpoint coordinates and the open
    gaps between consecutive ones, from one sort in ``_atomize``), and each
    part covers a contiguous block of them.  ``_reduce`` counts the parts
    over each atom, the one coverage check: an atom under none is uncovered,
    and the lowest such one is the error's witness.  With ``bare`` given,
    only an uncovered gap is an error, with the lowest such one the witness;
    the uncovered point atoms are dropped from the target, and a number of
    them other than ``bare`` raises ``ResourceCapExceeded`` naming both
    counts; ``cover_entropy`` passes |Δⁿ| there, since the bare points of
    Cⁿ over the whole domain are Δⁿ.  An element owning the only part over
    some atom is forced, since every subcover holds it.
    The forced elements are taken first, and only the atoms they leave,
    renumbered 0..m-1 (a block stays a block), each under a part of another
    element, go to ``_branch_and_bound`` over the other elements on m-bit
    masks, which a packing lower bound ends once its cover is proven
    minimal.  ``indices`` are the forced elements in index order, then the
    search's picks.  The reduction counts no node against
    ``DEFAULT_NODE_CAP``; a search stopped at the cap reports its best cover
    with ``exact`` false.
    """
    if target.is_empty():
        return SubcoverResult(0, (), True)
    reps, atoms, first, last = _atomize(cover, target, exclude)
    owner = cover.parts.owner
    cands, forced, leftover = _reduce(first, last, owner, len(atoms))
    missed = np.flatnonzero(cands == 0)
    holes = missed if bare is None else missed[atoms[missed] % 2 == 1]
    if len(holes):
        raise _uncovered(reps, atoms[holes[0]])
    if bare is not None and len(missed) != bare:
        raise ResourceCapExceeded(f"expected {bare} target points under no part, found {len(missed)}")
    # bare points lie in no part's block, so dropping them renumbers nothing else
    leftover = leftover[cands[leftover] > 0]
    picks = tuple(forced.tolist())
    if not len(leftover):
        return SubcoverResult(len(picks), picks, True)
    # below[k]: the number of leftover atoms below atom k
    below = np.zeros(len(atoms) + 1, dtype=np.intp)
    below[leftover + 1] = 1
    np.cumsum(below, out=below)
    first, last = below[first], below[last + 1] - 1
    keep = (first <= last) & ~np.isin(owner, forced)
    first, last, owner = first[keep], last[keep], owner[keep]
    found = _branch_and_bound(first, last, owner, len(cover), len(leftover))
    return SubcoverResult(len(picks) + found.count, picks + found.indices, found.exact)


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
    ``ms_entropy``, and hitting it, or the part cap of the refinement, ends
    the series there, as ``count_series`` says.

    Over the whole domain and from n = 2, Δⁿ is read from the refinement and
    no point of it is built: Cⁿ covers X minus Δⁿ when C¹ covers X minus Δ,
    which the n = 1 record checks against Δ itself, the map's cut set.  So
    ``minimal_subcover`` drops the points of X under no part of Cⁿ, after
    checking that they number |Δⁿ| from the lap walk; ``tol`` merging two of
    them ends the series at the n where building Δⁿ would refuse it.  A
    region narrower than the domain must pass ``restrict_map``'s invariance
    check first, and it excludes ``delta_n``'s points at every n: the walk
    has no count of Δⁿ in the region, and Cⁿ may leave points of the region
    outside Δⁿ bare by design.
    """
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    whole = RegionSet.of((pcmap.domain.lo, pcmap.domain.hi))
    region = whole if region is None else region
    if region != whole:
        restrict_map(pcmap, region)
    cover = domainify_cover(cover, pcmap.domain)
    table, no_points = delta_table(pcmap), PointSet.empty(pcmap.tol)

    def records():
        for n, refined in enumerate(refinement_steps(pcmap, cover, n_max), start=1):
            if n == 1 or region != whole:
                res = minimal_subcover(refined, region, delta_n(pcmap, n, cap))
            else:
                table.ensure(n, cap)
                try:
                    res = minimal_subcover(refined, region, no_points, table.delta_size(n))
                except ResourceCapExceeded as exc:
                    raise ResourceCapExceeded(f"Delta^{n}: {exc}", completed=n - 1) from None
            yield SeriesRecord(n, res.count, flag=None if res.exact else "inexact")

    return count_series("cover", records(), estimator)


def boundary_of_refined_natural_cover(pcmap: PcMap, n: int) -> PointSet:
    """Interior endpoints of the n-step refinement of the natural cover.

    Equals the interior points of the n-step discontinuity set: Delta^n can
    also hold a domain endpoint, which this set leaves out by construction.
    The acceptance suite checks the two agree on tent, which has none.
    """
    parts = refine_n(pcmap, natural_cover(pcmap), n).parts
    dom = pcmap.domain
    xs = np.concatenate([parts.lo, parts.hi])
    return PointSet.of(xs[(xs > dom.lo + pcmap.tol) & (xs < dom.hi - pcmap.tol)], tol=pcmap.tol)


def lebesgue_number(cover: Cover, region: RegionSet) -> float:
    """Conservative Lebesgue number: min over a 1000-point grid of the best
    one-sided slack of a part containing the point (a side at the region's
    outer end counts as unbounded); see ``tests/reference.py::lebesgue_number_reference``."""
    if region.is_empty():
        return math.inf
    total = max(region.total_length(), 1e-300)
    xs = np.concatenate([np.linspace(p.lo, p.hi, max(2, int(1000 * p.diameter / total))) for p in region.parts])
    _, lo, hi, lo_open, hi_open = cover.parts
    # a part's grid points are one run; an open end moves one float inward
    start = np.searchsorted(xs, np.where(lo_open, np.nextafter(lo, np.inf), lo), "left")
    stop = np.searchsorted(xs, np.where(hi_open, np.nextafter(hi, -np.inf), hi), "right")
    part, at = _ranges(start, stop)
    left = np.where(lo[part] <= region.parts[0].lo, np.inf, xs[at] - lo[part])
    right = np.where(hi[part] >= region.parts[-1].hi, np.inf, hi[part] - xs[at])
    best = np.zeros(len(xs))
    np.maximum.at(best, at, np.minimum(left, right))
    bad = np.flatnonzero(best <= 0.0)
    if len(bad):
        raise NotACoverError(f"grid point {xs[bad[0]]:.17g} is uncovered", witness=float(xs[bad[0]]))
    return float(best.min())
