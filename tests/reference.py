"""Scalar references for the array kernels of ``pcentropy``.

Each function is the plain loop that a vectorized routine of the library
must agree with; the test modules compare the two.  None of them runs in
the library itself.
"""

import functools
import itertools
import math

import numpy as np

from pcentropy.bowen import SampleSet, _avoid_mask
from pcentropy.covers import Cover, SubcoverResult, _uncovered
from pcentropy.errors import EmptySampleError, MonotonicityError, NotACoverError
from pcentropy.intervals import Interval, OpenSet, PointSet, dedupe_sorted
from pcentropy.maps import (
    _INVERSE_TOL,
    _SECANT_ROUNDS,
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
    bisection of the whole piece with bracket width at most ``tol``.  It is
    the independent oracle for ``branch_preimages``, which both preimage
    routes use: it shares no step with the kernel's secant rounds.
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


def branch_preimage_scalar(branch: Branch, y: float) -> float:
    """Scalar mirror of ``branch_preimages`` for one target, NaN where absent:
    the same closed form, bracket table and Illinois rounds, one float at a
    time, so the kernel must equal it bit for bit."""
    lo, hi = branch.piece.lo, branch.piece.hi
    aff = branch.affine
    if aff is not None:
        a, b = aff
        x = (y - b) / a
        pad = 1e-12 * max(1.0, abs(hi - lo))
        return min(max(x, lo), hi) if lo - pad <= x <= hi + pad else math.nan
    tol = _INVERSE_TOL
    vmin, vmax = branch.image
    if not vmin - tol <= y <= vmax + tol:
        return math.nan
    grid, table = branch.brackets
    flo, fhi = float(table[0]), float(table[-1])
    sgn = 1.0 if branch.increasing else -1.0
    ty = sgn * min(max(y, vmin), vmax)
    if ty <= flo:
        return lo
    if ty >= fhi:
        return hi
    j = int(np.searchsorted(table, ty))
    a, b = float(grid[j - 1]), float(grid[j])
    ga, gb = float(table[j - 1]) - ty, float(table[j]) - ty
    moved_a = False
    for rnd in range(200):
        mid = 0.5 * (a + b)
        if b - a <= tol or mid <= a or mid >= b:
            return mid
        x = mid
        if rnd < _SECANT_ROUNDS:
            x = min(max(a + ga / (ga - gb) * (b - a), a + 0.5 * tol), b - 0.5 * tol)
            if not a < x < b:
                x = mid
        fx = sgn * float(branch.fn(x))
        if fx < flo - tol or fx > fhi + tol:
            raise MonotonicityError(f"bracket violation at {x!r} on {branch.piece!r}")
        below = fx < ty
        if rnd and below == moved_a:
            if below:
                gb *= 0.5
            else:
                ga *= 0.5
        if below:
            a, ga = x, fx - ty
        else:
            b, gb = x, fx - ty
        moved_a = below
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
    ``branch_preimage_scalar`` call per part end."""
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
                xlo = b.piece.lo if w.lo == img.lo else branch_preimage_scalar(b, w.lo)
                xhi = b.piece.hi if w.hi == img.hi else branch_preimage_scalar(b, w.hi)
                lo_open, hi_open = w.lo_open, w.hi_open
            else:
                xlo = b.piece.lo if w.hi == img.hi else branch_preimage_scalar(b, w.hi)
                xhi = b.piece.hi if w.lo == img.lo else branch_preimage_scalar(b, w.lo)
                lo_open, hi_open = w.hi_open, w.lo_open
            if not xlo <= xhi:  # also when an end has no preimage (NaN)
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


def _preimages(pcmap, elements) -> Cover:
    return Cover(tuple(pre for pre in (openset_preimage_scalar(pcmap, el) for el in elements) if not pre.is_empty()))


def refinement_reference(pcmap, cover, n_max):
    """Reference for ``refinement_steps``: the same recurrence
    Cⁿ = C ∨ f⁻¹(Cⁿ⁻¹) from C⁰ = {X}, built from ``vee_reference`` and
    ``openset_preimage_scalar``."""
    acc = Cover((OpenSet((pcmap.domain,)),))
    for _ in range(n_max):
        acc = vee_reference([cover, _preimages(pcmap, acc.elements)])
        yield acc


def refinement_product_reference(pcmap, cover, n_max):
    """The product form (C minus the cut set) ∨ f⁻¹(…) ∨ … ∨ f⁻⁽ⁿ⁻¹⁾(…),
    an independent oracle for the counts of ``refinement_steps``: it rounds
    near-coincident part ends differently, so its element lists may differ."""
    base = [cut for cut in (el.subtract_points(pcmap.delta) for el in cover.elements) if not cut.is_empty()]
    acc, cur = Cover(_dedupe(base)), Cover(tuple(base))
    yield acc
    for _ in range(2, n_max + 1):
        cur = _preimages(pcmap, cur.elements)
        acc = vee_reference([acc, cur])
        yield acc


def subcover_sweep_reference(first, last, owner, n) -> SubcoverResult:
    """Tuple greedy sweep, the count oracle for ``covers._branch_and_bound``
    on single-interval parts: the parts sorted as ``(first, last, owner)``
    tuples, and the best reach kept while the frontier advances one pick at
    a time.  It takes what ``covers._reduce`` leaves: every part has
    first <= last, and each of the atoms 0..n-1 lies under some part."""
    ranges = sorted(zip(first, last, owner))
    picks = []
    frontier = 0
    i = 0
    best_hi, best_idx = -1, -1
    while frontier < n:
        while i < len(ranges) and ranges[i][0] <= frontier:
            if ranges[i][1] > best_hi:
                best_hi, best_idx = ranges[i][1], ranges[i][2]
            i += 1
        picks.append(best_idx)
        frontier = best_hi + 1
    return SubcoverResult(len(picks), tuple(picks), True)


def subcover_atoms_reference(cover, target, exclude):
    """Reference for ``covers._atomize``: the coordinates sorted once, repeats
    dropped, ``dedupe_sorted`` representatives, and every part end snapped to
    its representative and then to its atom block by ``searchsorted``."""
    tol = max(exclude.tol, 1e-12)
    _, lo, hi, lo_open, hi_open = cover.parts
    target_ends = [x for p in target.parts for x in (p.lo, p.hi)]
    coords = np.sort(np.concatenate([target_ends, lo, hi, exclude.points]))
    coords = coords[np.r_[True, coords[1:] != coords[:-1]]]
    reps = coords[dedupe_sorted(coords, tol)]

    def snap(xs):
        # reps are more than tol apart and every coordinate lies within tol
        # above its representative
        return np.searchsorted(reps, xs, side="right") - 1

    inside = np.empty(2 * len(reps) - 1, dtype=bool)
    inside[0::2] = target.contains_many(reps, tol)
    inside[1::2] = target.contains_many(0.5 * (reps[:-1] + reps[1:]))
    inside[2 * snap(exclude.points)] = False
    atoms = np.flatnonzero(inside)
    first = np.searchsorted(atoms, 2 * snap(lo) + lo_open, side="left")
    last = np.searchsorted(atoms, 2 * snap(hi) - hi_open, side="right") - 1
    return reps, atoms, first, last


def subcover_reduction_reference(first, last, owner, n_atoms):
    """Loop reference for ``covers._reduce``: the parts over each atom counted
    one range at a time, the elements that own the only part over some atom
    (in index order), and the atoms under no part of those elements."""
    ranges = [(a, b, idx) for a, b, idx in zip(first.tolist(), last.tolist(), owner.tolist())]
    cands = [0] * n_atoms
    for a, b, _ in ranges:
        for atom in range(a, b + 1):
            cands[atom] += 1
    forced = sorted({idx for a, b, idx in ranges if any(cands[atom] == 1 for atom in range(a, b + 1))})
    covered = [False] * n_atoms
    for a, b, idx in ranges:
        if idx in forced:
            for atom in range(a, b + 1):
                covered[atom] = True
    return cands, forced, [atom for atom in range(n_atoms) if not covered[atom]]


def lebesgue_number_reference(cover, region) -> float:
    """Loop reference for ``covers.lebesgue_number``: every grid point checked
    against every part of every element, one ``Interval.contains`` at a time."""
    delta = math.inf
    total = max(region.total_length(), 1e-300)
    for part in region.parts:
        xs = np.linspace(part.lo, part.hi, max(2, int(1000 * part.diameter / total)))
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
