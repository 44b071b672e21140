"""Scalar references for the array kernels of ``pcentropy``.

Each function is the plain loop that a vectorized routine of the library
must agree with; the test modules compare the two.  None of them runs in
the library itself.
"""

import functools
import itertools

import numpy as np

from pcentropy.bowen import SampleSet, _avoid_mask
from pcentropy.covers import Cover, SubcoverResult, _uncovered
from pcentropy.errors import EmptySampleError, MonotonicityError
from pcentropy.intervals import Interval, OpenSet, PointSet, dedupe_sorted
from pcentropy.maps import (
    LEFT,
    RIGHT,
    Branch,
    PcMap,
    _check_in_domain,
    branch_preimages,
    evaluate,
    limit_step,
)


def limit_orbit(pcmap: PcMap, x: float, side: int, n: int) -> tuple[float, int, int]:
    """n-step one-sided limit orbit; returns (value, side, direction product)."""
    v, s, d = x, side, 1
    for _ in range(n):
        v, s, bi = limit_step(pcmap, v, s)
        d *= pcmap.branches[bi].direction
    return v, s, d


def orbit_avoids_delta(pcmap: PcMap, x: float, horizon: int) -> bool:
    """True iff the first ``horizon`` orbit points miss the discontinuity set."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    v = _check_in_domain(pcmap, x)
    for _ in range(horizon):
        if pcmap.delta.index_near(v) is not None:
            return False
        v = evaluate(pcmap, v)
    return True


def branch_inverse(branch: Branch, y: float, tol: float = 1e-12) -> float | None:
    """Solve branch(x) = y on the piece closure; None when y is out of range.

    Affine branches are solved in closed form; anything else falls back to
    bisection with bracket width at most ``tol``.  This is the scalar
    reference for ``branch_preimages``, which both preimage routes use; no
    runtime code calls it.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    lo, hi = branch.piece.lo, branch.piece.hi
    aff = branch.affine
    if aff is not None:
        a, b = aff
        x = (y - b) / a
        if x < lo - tol or x > hi + tol:
            return None
        return min(max(x, lo), hi)
    vmin, vmax = branch.image
    if y < vmin - tol or y > vmax + tol:
        return None
    y = min(max(y, vmin), vmax)
    f = branch.fn
    sgn = 1.0 if branch.increasing else -1.0
    flo, fhi = sgn * float(f(lo)), sgn * float(f(hi))
    ty = sgn * y
    if not flo <= fhi:
        raise MonotonicityError(
            f"branch values at piece ends contradict declared direction on {branch.piece!r}"
        )
    if ty <= flo:
        return lo
    if ty >= fhi:
        return hi
    a, b = lo, hi
    for _ in range(200):
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            break
        fm = sgn * float(f(mid))
        if fm < flo - tol or fm > fhi + tol:
            raise MonotonicityError(f"bracket violation at {mid!r} on {branch.piece!r}")
        if fm < ty:
            a = mid
        else:
            b = mid
        if b - a <= tol:
            break
    return 0.5 * (a + b)


def dedupe_reference(xs, tol, rank):
    """Scalar greedy merge: keep mask and, per kept point, its provenance."""
    keep = np.ones(len(xs), dtype=bool)
    prov = list(range(len(xs)))
    last = None
    for i, x in enumerate(xs):
        if last is not None and x - xs[last] <= tol:
            keep[i] = False
            if rank[i] < rank[prov[last]]:
                prov[last] = i
        else:
            last = i
    return keep, prov


def merge_cumulative_reference(cum, level, n: int, tol: float):
    """Delta^n as ``(xs, hit, root)`` from Delta^{n-1} (``cum``, the same
    triple) and the level f^{-(n-1)}(Delta) (``level``, ``(xs, root)``, hit
    n - 1): a lexsort by (x, hit), then the greedy dedupe in which each group
    takes the provenance of its first point of smallest hit."""
    cx, ch, cr = cum
    lx, lr = level
    xs = np.concatenate([cx, lx])
    hit = np.concatenate([ch, np.full(len(lx), n - 1, dtype=np.int64)])
    root = np.concatenate([cr, lr])
    order = np.lexsort((hit, xs))
    xs, hit, root = xs[order], hit[order], root[order]
    keep, prov = dedupe_reference(xs.tolist(), tol, hit.tolist())
    src = np.asarray(prov, dtype=np.int64)[keep]
    return xs[keep], hit[src], root[src]


def delta_reference(pcmap: PcMap):
    """Delta^1, Delta^2, ... as ``(xs, hit, root)``, with every level built
    in full: f^{-j}(Delta) as ``(xs, root)`` from level j - 1 by all branches
    at once, a stable sort and a dedupe that keeps each group's first point,
    merged into Delta^(j+1) by ``merge_cumulative_reference``."""
    tol = pcmap.tol
    level = (pcmap.delta.points, np.arange(len(pcmap.delta)))
    cum = (level[0], np.zeros(len(level[0]), np.int64), level[1])
    yield cum
    for n in itertools.count(2):
        ys, root = level
        xs = np.concatenate([branch_preimages(b, ys) for b in pcmap.branches])
        root = np.tile(root, pcmap.n_pieces)
        ok = ~np.isnan(xs)
        order = np.argsort(xs[ok], kind="stable")
        xs, root = xs[ok][order], root[ok][order]
        keep = dedupe_sorted(xs, tol)
        level = (xs[keep], root[keep])
        cum = merge_cumulative_reference(cum, level, n, tol)
        yield cum


def connection_depth_reference(pcmap: PcMap, table, checked_to: int) -> int | None:
    """The first depth d < ``checked_to`` at which the built level
    f^-d(Delta) of ``table`` meets Delta, or None."""
    for k in range(2, checked_to + 1):
        if pcmap.delta.contains_many(table.levels[k - 1][0]).any():
            return k - 1
    return None


def count_pieces_scalar(pcmap: PcMap, cum, n: int, merge_removable: bool) -> int:
    """Reference: one scalar limit-orbit test per interior point of Delta^n,
    given as ``(xs, hit, root)``."""
    xs, hit, root = cum
    dom, tol = pcmap.domain, pcmap.tol
    interior = (xs > dom.lo + tol) & (xs < dom.hi - tol)
    count = int(interior.sum()) + 1
    if not merge_removable:
        return count

    @functools.lru_cache(maxsize=None)
    def limit_seq(r: int, side: int, m: int) -> tuple[float, int]:
        v, _, d = limit_orbit(pcmap, pcmap.delta.points[r], side, m)
        return v, d

    for h_i, r_i in zip(hit[interior], root[interior]):
        m = int(n - h_i)
        # the verdict is symmetric in the two sides, so which one the cut
        # point's own left side maps to does not matter
        v_l, d_l = limit_seq(int(r_i), LEFT, m)
        v_r, d_r = limit_seq(int(r_i), RIGHT, m)
        if abs(v_l - v_r) <= tol and d_l == d_r:
            count -= 1
    return count


def sample_region_scalar(pcmap, region, grid, horizon):
    """``sample_region`` with one ``_avoid_mask`` call per nudged point: the
    reference for the batched nudging."""
    total = region.total_length()
    kept_parts = []
    density = 0.0
    for part in region.parts:
        npts = grid if len(region.parts) == 1 else max(2, round(grid * part.diameter / max(total, 1e-300)))
        xs = np.linspace(part.lo, part.hi, npts)
        h = xs[1] - xs[0] if npts > 1 else part.diameter
        ok = _avoid_mask(pcmap, xs, horizon)
        kept = list(xs[ok])
        for x in xs[~ok]:
            for off in (h / 2, -h / 2, h / 4, -h / 4, h / 8, -h / 8, h / 16, -h / 16):
                cand = x + off
                if part.lo <= cand <= part.hi and _avoid_mask(pcmap, np.asarray([cand]), horizon)[0]:
                    kept.append(cand)
                    break
        kept.sort()
        # the widest gap between neighbours, the part's own ends included
        ends = [part.lo, *kept, part.hi]
        for a, b in zip(ends, ends[1:]):
            density = max(density, float(b - a))
        if kept:
            kept_parts.append(np.asarray(kept))
    if not kept_parts:
        raise EmptySampleError("empty sample")
    points = PointSet(tuple(np.concatenate(kept_parts)), tol=0.0)
    return SampleSet(points=points, horizon=horizon, density=density)


def verify_separated_scalar(M, idx, eps):
    """The pairwise certificate as a scalar loop over sorted first coordinates."""
    xs = M[idx, 0]
    for a in range(len(idx)):
        b = a + 1
        while b < len(idx) and xs[b] - xs[a] < eps:
            if np.abs(M[idx[a]] - M[idx[b]]).max() < eps:
                return False
            b += 1
    return True


def greedy_spanning_reference(M, eps):
    """The leftmost-uncovered ball sweep over rows sorted by first coordinate:
    each row no earlier center covers becomes a center, and its open eps-ball
    in the max norm covers every row it holds.  Returns ``(centers, first)``,
    where ``first[i]`` is the first center whose ball holds row ``i``."""
    first = [None] * len(M)
    centers = []
    for i in range(len(M)):
        if first[i] is None:
            centers.append(i)
            for j in np.flatnonzero(np.abs(M - M[i]).max(axis=1) < eps):
                if first[j] is None:
                    first[j] = i
    return centers, first


def openset_preimage_scalar(pcmap, oset):
    """Scalar reference for ``covers._pullback``: one element, and one
    ``branch_inverse`` call per part end."""
    dom = pcmap.domain
    parts = []
    for b in pcmap.branches:
        vmin, vmax = (min(max(v, dom.lo), dom.hi) for v in b.image)
        if b.increasing:
            img = Interval(vmin, vmax, b.piece.lo_open, b.piece.hi_open)
        else:
            img = Interval(vmin, vmax, b.piece.hi_open, b.piece.lo_open)
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


def _dedupe(elements) -> tuple[OpenSet, ...]:
    return tuple(dict.fromkeys(elements))


def vee_reference(covers: list[Cover]) -> Cover:
    """Pairwise reference for ``covers.vee``: one ``OpenSet.intersect`` per
    element pair, first occurrences kept in (a, b) order."""
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


def refinement_reference(pcmap, cover, n_max):
    """Reference for ``refinement_steps`` built from ``vee_reference`` and
    ``openset_preimage_scalar``."""
    base = [cut for cut in (el.subtract_points(pcmap.delta) for el in cover.elements) if not cut.is_empty()]
    acc = Cover(_dedupe(base))
    yield acc
    cur = base
    for _ in range(2, n_max + 1):
        cur = [pre for pre in (openset_preimage_scalar(pcmap, el) for el in cur) if not pre.is_empty()]
        acc = vee_reference([acc, Cover(tuple(cur))])
        yield acc


def subcover_sweep_reference(first, last, owner, reps, atoms) -> SubcoverResult:
    """Tuple sweep reference for ``covers._sweep``: the parts sorted as
    ``(first, last, owner)`` tuples, and the best reach kept while the
    frontier advances."""
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
