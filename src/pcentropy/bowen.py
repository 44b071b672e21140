"""Separated/spanning-set entropy estimates on finite samples.

True extremal cardinalities over the full forward-invariant set are not
finitely computable, so both quantities are bracketed on a deterministic
sample: the greedy left-to-right separated set is a lower bound, and, being
maximal, its eps-balls cover the sample, which makes its size an upper bound
for the spanning count.  Every pair of sample points whose base-coordinate
distance already reaches epsilon is separated outright, so all pair checks
are confined to a sliding window in the first orbit coordinate.

One kernel, ``_cell``, builds every (n, eps) cell, and each cell is checked
by two certificates that raise before its count is reported
(``NotSeparatedError`` for two points closer than eps, ``NotACoverError`` for
a sample point outside every ball).  ``max_separated``, ``min_spanning``,
``bowen_entropy`` and the CLI all read their counts from it, so every
reported cell has passed both certificates.  One scan per sample builds the
cells of every eps and n a caller asks for at once (``bowen_entropy`` asks
for its whole schedule and n-range, ``verify`` passes its three eps and its
depths to ``max_separated`` and ``min_spanning``), and memoizes them.  The
Bowen distance only grows with n, so each eps sweeps all its depths at once:
each row admitted at any of them takes one vectorized claim step.  The
claims of every n live in one Python int per eps, the claim word, with one
slot of bits per sample row and one bit per n, so a step is a few bigint
operations; the steps' claims are decoded into each n's admitted rows and
witnesses after the scan, a bounded number of bytes at a time.  The eps that
step at the same row share that row's table of coordinate gaps.  The
separated-set certificate of an eps is one pass too: it prunes the close
pairs of the union of its sets column by column in the greedy's row order,
recomputing each distance from the orbits, and reads a depth's pairs after
its last column.

One recurrence, ``_orbits``, makes every orbit table, the sampling's and the
orbit matrix's; ``_ORBIT_CACHE`` holds each sample's matrix and certified
cells.  The cache takes no lock: use it from one thread at a time.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, replace

import numpy as np

from .errors import EmptySampleError, NotACoverError, NotSeparatedError
from .estimators import EntropySeries, SeriesRecord
from .intervals import PointSet, RegionSet
from .maps import PcMap, evaluate_many, evaluate_orbit

_ORBIT_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


@dataclass(frozen=True)
class SampleSet:
    """The kept sample points, the orbit depth they avoid the cuts to, and
    ``density``: the widest gap between neighbours of ``[lo, *kept, hi]`` in
    any part ``[lo, hi]`` of the region, so a stretch the nudging had to
    excise, or a part that kept nothing, widens it."""

    points: PointSet
    horizon: int
    density: float


def rho_n(pcmap: PcMap, x: float, y: float, n: int, metric=None) -> float:
    """Dynamical distance: max coordinate gap along the first n orbit points."""
    if n < 1:
        raise ValueError("n must be >= 1")
    ox = evaluate_orbit(pcmap, x, n)
    oy = evaluate_orbit(pcmap, y, n)
    if metric is not None:
        ox = [float(metric(v)) for v in ox]
        oy = [float(metric(v)) for v in oy]
    return max(abs(a - b) for a, b in zip(ox, oy))


def _orbits(pcmap: PcMap, xs: np.ndarray, horizon: int) -> np.ndarray:
    """Rows are the entries of ``xs``, columns their first ``horizon`` orbit
    points; each column is one contiguous ``evaluate_many`` step."""
    out = np.empty((horizon, len(xs)))
    out[0] = xs
    for j in range(1, horizon):
        out[j] = evaluate_many(pcmap, out[j - 1])
    return out.T


def _avoid_mask(pcmap: PcMap, xs: np.ndarray, horizon: int) -> np.ndarray:
    """True where no column of the ``_orbits`` row of an entry of ``xs`` lies in
    the cut set; the scalar reference is ``tests/reference.py::orbit_avoids_delta``."""
    return ~np.logical_or.reduce([pcmap.delta.contains_many(col) for col in _orbits(pcmap, xs, horizon).T])


def sample_region(pcmap: PcMap, region: RegionSet, grid: int, horizon: int) -> SampleSet:
    """Uniform grid over the region; points whose orbit touches the cut set are
    nudged by shrinking half-steps, then dropped."""
    if grid < 2:
        raise ValueError("grid must be >= 2")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    total = region.total_length()
    kept_parts: list[np.ndarray] = []
    density = 0.0
    for part in region.parts:
        npts = grid if len(region.parts) == 1 else max(2, round(grid * part.diameter / max(total, 1e-300)))
        xs = np.linspace(part.lo, part.hi, npts)
        h = xs[1] - xs[0] if npts > 1 else part.diameter
        ok = _avoid_mask(pcmap, xs, horizon)
        kept = [xs[ok]]
        pending = xs[~ok]  # each takes the first offset, in this order, that avoids the cuts
        for off in (h / 2, -h / 2, h / 4, -h / 4, h / 8, -h / 8, h / 16, -h / 16):
            if not len(pending):
                break
            cand = pending + off
            placed = (part.lo <= cand) & (cand <= part.hi)
            placed[placed] = _avoid_mask(pcmap, cand[placed], horizon)
            kept.append(cand[placed])
            pending = pending[~placed]
        kept_arr = np.sort(np.concatenate(kept))
        density = max(density, float(np.diff(np.concatenate(([part.lo], kept_arr, [part.hi]))).max()))
        if len(kept_arr):
            kept_parts.append(kept_arr)
    if not kept_parts:
        raise EmptySampleError(
            f"no point of {region!r} avoids the cut set to depth {horizon} at this grid"
        )
    return SampleSet(PointSet(np.concatenate(kept_parts), tol=0.0), horizon, density)


def orbit_matrix(pcmap: PcMap, sample: SampleSet) -> np.ndarray:
    """The ``_orbits`` table of the sample, cached: rows are sample points,
    columns the first ``horizon`` orbit coordinates."""
    cached = _ORBIT_CACHE.get(sample)
    if cached is not None and cached[0] == pcmap:
        return cached[1]
    out = _orbits(pcmap, sample.points.points, sample.horizon)
    _ORBIT_CACHE[sample] = (pcmap, out, {})  # the dict holds _cell's results
    return out


def _prepare(O: np.ndarray, n: int, metric) -> np.ndarray:
    M = O[:, :n]
    if metric is not None:
        M = np.asarray(metric(M), dtype=float)
    order = np.argsort(M[:, 0], kind="stable")
    return M[order]


_DECODE_BYTES = 1 << 14  # claim-word bytes each eps holds before the greedy decodes them


def _greedy_separated_indices(
    M: np.ndarray, wanted: dict[float, list[int]]
) -> dict[float, dict[int, tuple[np.ndarray, np.ndarray]]]:
    """Greedy left-to-right separated sets of the sorted rows of ``M[:, :n]``
    for every eps of ``wanted`` and every n of its increasing list of depths
    ``wanted[eps]``, in one scan: ``{eps: {n: (admitted, witness)}}``, two
    intp arrays per cell, in the order of ``wanted``.

    At each depth n the rows are scanned in order.  A row no admitted row has
    claimed is admitted, and it claims every later unclaimed row within eps
    of it in the max norm over the first n coordinates, so ``witness[i]`` is
    the first admitted row within eps of row ``i``, or ``i`` itself when row
    ``i`` is admitted.  The admitted rows are thus a maximal separated set,
    and the witnesses show that their eps-balls cover every row.

    The depths of one eps share its sweep, because the Bowen distance only
    grows with n.  A row admitted at any depth takes one vectorized step over
    its window: ``lead[j]``, the first coordinate in which window row ``j`` is
    not within eps of row ``i``, counts the leading coordinates in which it
    is, so row ``j`` is within eps at depth n exactly when ``lead[j] >= n``.
    The claims of every depth live in one Python int, the claim word: slot
    ``k`` of it, ``s = ceil(len(ns) / 8)`` bytes wide, holds one bit per depth
    for row ``i + k``.  ``table[lead]`` packs each window row's depths into
    its slot, so a step is a few bigint operations with no loop over depths:
    the depths ``a`` that admit row ``i`` keep the window's unclaimed bits,
    and the sweep jumps to the first slot that some depth has not claimed.
    Each step's claims, row ``i``'s own slot ``a`` included, are decoded into
    the witness arrays after the scan, a bounded number of bytes at a time, so
    the work space stays linear.

    The sweeps of all eps share one scan.  Each eps keeps its own claim word,
    slot width, next row and witnesses, and the scan steps to the smallest
    next row over all eps.  The eps whose next row that is take their steps
    there from one table of gaps ``|M[j] - M[i]|``, computed over the widest
    of their windows; each reads the prefix its own window covers.

    Row ``i`` claims from the rows ``i+1 .. stop[i]`` whose first coordinate
    is at most the double ``fl(x_i + eps)``.  That window is exact: a row past
    it lies at or above the next double, which exceeds ``x_i + eps`` in exact
    arithmetic, so its first-coordinate gap rounds to at least eps.
    """
    m = len(M)
    depth = max(ns[-1] for ns in wanted.values())
    # a last column of NaN, within eps of nothing, ends every row's lead
    M = np.concatenate((M[:, :depth], np.full((m, 1), np.nan)), axis=1)
    xs = M[:, 0]
    rows = np.arange(m)
    lanes = []  # one lane per eps, the widest windows first
    widest = 1
    for eps in sorted(wanted, reverse=True):
        ns = wanted[eps]
        s = (len(ns) + 7) // 8
        every = (1 << len(ns)) - 1
        # table[L]: the depths n <= L, bit t for ns[t], as one slot of s bytes
        table = np.packbits(np.asarray(ns)[None, :] <= np.arange(depth + 1)[:, None], axis=1, bitorder="little")
        stop = np.searchsorted(xs, xs + eps, side="right")
        width = int((stop - rows).max(initial=1))  # the widest window, row i included
        ones = int.from_bytes(bytes([1]).ljust(s, b"\0") * (width + 1), "little")  # 1 in every slot
        witness = np.full((len(ns), m), -1, dtype=np.intp)
        chunk = max(1, _DECODE_BYTES // (width * s))  # steps per decode, each at most width * s bytes
        # a lane starts with its next row and its claim word, whose slot k holds
        # the depths at which row next + k is claimed, and ends with its steps
        # not decoded yet
        lanes.append([0, 0, eps, s, witness, stop.tolist(), table, 8 * s, every, ones, every * ones, chunk, []])
        widest = max(widest, width)
    gap = np.empty((widest, depth + 1))
    near = np.empty((widest, depth + 1), dtype=bool)
    i = 0
    while i < m:
        fresh = False  # whether gap holds row i's table yet
        low = m  # the smallest next row of all lanes
        for lane in lanes:
            if lane[0] == i:
                _, word, eps, s, witness, stop, table, bits, every, ones, full, chunk, done = lane
                k = stop[i] - i - 1
                if not fresh:
                    # the first eps to step at row i has the widest window of them
                    np.subtract(M[i + 1 : i + 1 + k], M[i], out=gap[:k])
                    np.abs(gap[:k], out=gap[:k])
                    fresh = True
                lead = np.less(gap[:k], eps, out=near[:k]).argmin(axis=1)
                a = every & ~word  # the depths that admit row i
                new = (int.from_bytes(table.take(lead, axis=0).tobytes(), "little") << bits) & (a * ones) & ~word
                word |= new
                done.append((i, new | a))
                if len(done) == chunk:
                    _decode_claims(done, s, witness)
                    done.clear()
                free = (word | every) ^ full
                step = ((free & -free).bit_length() - 1) // bits  # the first row some depth left unclaimed
                lane[0] = i + step
                lane[1] = word >> (bits * step)
            if lane[0] < low:
                low = lane[0]
        i = low
    out = {}
    for _, _, eps, s, witness, *_, done in lanes:
        _decode_claims(done, s, witness)
        out[eps] = {n: (np.flatnonzero(witness[t] == rows), witness[t]) for t, n in enumerate(wanted[eps])}
    return {eps: out[eps] for eps in wanted}


def _decode_claims(steps: list[tuple[int, int]], s: int, witness: np.ndarray) -> None:
    """Write the claims of the greedy steps ``(i, word)`` into ``witness``:
    bit t of slot k of ``word`` sets ``witness[t, i + k] = i``."""
    if not steps:
        return
    blobs = [word.to_bytes((word.bit_length() + 7) // 8, "little") for _, word in steps]
    sizes = np.asarray([len(b) for b in blobs])
    starts = np.cumsum(sizes) - sizes  # every word holds row i's own slot, so no blob is empty
    buf = np.frombuffer(b"".join(blobs), dtype=np.uint8)
    pos = np.flatnonzero(buf)
    owner = np.searchsorted(starts, pos, side="right") - 1  # the step of each nonzero byte
    local = pos - starts[owner]
    byte, bit = np.nonzero(np.unpackbits(buf[pos][:, None], axis=1, bitorder="little"))
    i = np.fromiter((i for i, _ in steps), dtype=np.intp, count=len(steps))[owner[byte]]
    witness[8 * (local[byte] % s) + bit, i + local[byte] // s] = i


def _close_pairs(M: np.ndarray, sets: dict[int, np.ndarray], eps: float) -> dict[int, tuple[int, int] | None]:
    """For each depth n of ``sets``, a pair of ``sets[n]`` closer than eps in
    the max norm over the first n columns of ``M``, or None: one pass serves
    every depth.

    ``M`` comes sorted by first coordinate from ``_prepare``, so the union of
    the sets in row order has its pairs with a gap below eps there at offsets
    k = 1, 2, ... up to the first offset where no gap is.  Each offset's pairs
    are pruned column by column, dropping those eps apart in the current one,
    and after column n the survivors with both rows in ``sets[n]`` are the
    close pairs at depth n.  The first two columns prune a mask over the whole
    offset by contiguous slices, since on a slowly expanding map at a wide eps
    most pairs pass them; only the survivors of column 1 are gathered.  The
    distances come from ``M`` alone, and no list of pairs is kept: past one
    flag per row of ``M`` and depth, the work space stays linear in the union.
    """
    ns = sorted(sets)
    member = np.zeros((len(ns), len(M)), dtype=bool)
    for t, n in enumerate(ns):
        member[t, sets[n]] = True
    order = np.flatnonzero(member.any(axis=0))  # the union, in row order
    member = member[:, order]  # member[t, p]: row order[p] is in sets[ns[t]]
    cols = [M[order, j] for j in range(ns[-1])]
    depth_after = {n - 1: t for t, n in enumerate(ns)}  # the last column depth ns[t] reads
    found: dict[int, tuple[int, int] | None] = dict.fromkeys(ns)
    for k in range(1, len(order)):
        close = cols[0][k:] - cols[0][:-k] < eps
        if not close.any():
            break
        for j in range(ns[-1]):
            # columns 0 and 1 prune a mask by contiguous slices, and later
            # columns gather the survivors; column 0 yields survivors only
            # when it is the last column of depth 1
            if j >= 2:
                near = near[np.abs(cols[j][near + k] - cols[j][near]) < eps]
            elif j == 1:
                close &= np.abs(cols[1][k:] - cols[1][:-k]) < eps
                near = np.flatnonzero(close)
            elif 0 in depth_after:
                near = np.flatnonzero(close)
            else:
                continue
            if not len(near):
                break
            t = depth_after.get(j)
            if t is not None and found[ns[t]] is None:
                bad = near[member[t, near] & member[t, near + k]]
                if len(bad):
                    found[ns[t]] = int(order[bad[0]]), int(order[bad[0] + k])
    return found


def _check_eps(eps_list: list[float]) -> None:
    """Refuse an empty, repeated, non-positive or NaN eps, before any work."""
    if not eps_list:
        raise ValueError("eps must not be empty")
    if not all(eps > 0 for eps in eps_list):
        raise ValueError("eps must be positive")
    if len(set(eps_list)) != len(eps_list):
        raise ValueError("eps must not repeat")


def _cell(
    pcmap: PcMap, sample: SampleSet, ns: int | list[int], eps: float | list[float], metric=None
) -> int | list[int] | list[list[int]]:
    """The certified (n, eps) cells of the sample: the size ``s`` of the
    greedy separated set, which is also the size of a cover of the sample by
    open eps-balls.

    ``ns`` is one depth or a non-empty, strictly increasing list of depths,
    and ``eps`` one positive eps or a non-empty list of distinct positive eps;
    anything else raises ``ValueError`` before any work.  One depth and one
    eps give an int, a list on one axis gives one count per entry of that
    list, and lists on both give ``counts[e][t]``, the cell of ``eps[e]`` and
    ``ns[t]``.

    A maximal separated set spans (Bowen 1971), so one set gives both counts.
    Two certificates check it before ``s`` is reported: a pairwise check that
    raises ``NotSeparatedError`` with the offending pair of rows of the sorted
    orbit matrix, and a check that each row lies within eps of an admitted
    witness, which raises ``NotACoverError`` with the first row that does not.
    Cells are memoized in the sample's ``_ORBIT_CACHE`` entry under
    ``(n, eps, metric)``.  The cells not memoized yet are built by one greedy
    scan, in which each eps sweeps just its own missing depths, and one
    ``_close_pairs`` pass per eps checks the separated sets of all its depths.
    The cells are then certified in the caller's eps order and increasing n,
    and memoized, so a failure raises after the earlier cells are memoized.
    No call builds, certifies or memoizes a cell it did not ask for.
    """
    one_n, one_eps = np.ndim(ns) == 0, np.ndim(eps) == 0
    ns = [ns] if one_n else list(ns)
    eps_list = [eps] if one_eps else list(eps)
    if not ns:
        raise ValueError("depths must not be empty")
    if any(a >= b for a, b in zip(ns, ns[1:])):
        raise ValueError("depths must be increasing")
    if not all(1 <= n <= sample.horizon for n in ns):
        raise ValueError("n must satisfy 1 <= n <= sample.horizon")
    _check_eps(eps_list)
    O = orbit_matrix(pcmap, sample)
    cells = _ORBIT_CACHE[sample][2]
    todo = {e: [n for n in ns if (n, e, metric) not in cells] for e in eps_list}
    todo = {e: missing for e, missing in todo.items() if missing}
    if todo:
        M = _prepare(O, max(missing[-1] for missing in todo.values()), metric)
        for e, swept in _greedy_separated_indices(M, todo).items():
            close = _close_pairs(M, {n: sep for n, (sep, _) in swept.items()}, e)
            for n, (sep, witness) in swept.items():
                Mn = M[:, :n]
                pair = close[n]
                if pair is not None:
                    raise NotSeparatedError(
                        f"separated-set certificate failed at n={n}, eps={e:g}: "
                        f"orbit rows {pair[0]} and {pair[1]} are closer than eps",
                        witness=pair,
                    )
                is_center = np.zeros(len(Mn), dtype=bool)
                is_center[sep] = True
                covered = is_center[witness] & (np.abs(Mn - Mn[witness]).max(axis=1) < e)
                if not covered.all():
                    miss = int(np.flatnonzero(~covered)[0])
                    raise NotACoverError(
                        f"spanning certificate failed at n={n}, eps={e:g}: orbit row {miss} lies in no ball",
                        witness=miss,
                    )
                cells[(n, e, metric)] = len(sep)
    counts = [[cells[(n, e, metric)] for n in ns] for e in eps_list]
    if one_n:
        counts = [row[0] for row in counts]
    return counts[0] if one_eps else counts


def max_separated(
    pcmap: PcMap, sample: SampleSet, n: int | list[int], eps: float | list[float], metric=None
) -> int | list[int] | list[list[int]]:
    """Size of the certified greedy separated set: a lower bound for the true
    maximum over the sampled set.  ``n`` is one depth or an increasing list
    of depths, and ``eps`` one eps or a list of distinct eps; every cell of a
    call comes from one scan, and the counts take ``_cell``'s shape: an int,
    one count per entry of the one list, or ``counts[e][t]`` for ``eps[e]``
    and ``n[t]``.

    On the sample the count stays under a bound from the laps of the
    iterates (Misiurewicz & Szlenk 1980).  Let ``c_k`` be the number of laps
    of f^k before removable junctions merge, ``c_0 = 1``, and let J be a lap
    of f^(n-1): every f^k with k < n is continuous and monotone on J.  Two
    neighbours ``x < y`` of an (n, eps)-separated set in J are at least eps
    apart at some k < n, where ``|f^k(y) - f^k(x)|`` is the length of
    ``f^k([x, y])``; these images of the gaps do not overlap, so J holds at
    most ``1 + sum_k |f^k(J)| / eps`` of the points.  The laps of f^(n-1)
    refine those of f^k, and f^k maps the laps of f^(n-1) inside one lap of
    f^k to disjoint intervals of the domain I, so ``sum_J |f^k(J)| <= c_k |I|``.
    The points on no lap lie in Delta^(n-1), hence

        s(n, eps) <= c_(n-1) + |Delta^(n-1)| + (|I| / eps) * sum_(k<n) c_k.

    Under a ``metric`` phi the distances are read in phi(I), so ``|I|``
    becomes ``|phi(I)|``.
    """
    return _cell(pcmap, sample, n, eps, metric)


def min_spanning(
    pcmap: PcMap, sample: SampleSet, n: int | list[int], eps: float | list[float], metric=None
) -> int | list[int] | list[list[int]]:
    """Size of a certified ball cover of the sample, the greedy separated set's
    own: an upper bound for the true minimum over the sampled set, equal to
    ``max_separated`` on the sample.  ``n`` and ``eps`` take the forms of
    ``max_separated``, and the counts its shapes."""
    return _cell(pcmap, sample, n, eps, metric)


SATURATION_FRACTION = 0.2


def _lsq_slope(pairs: list[tuple[int, float]]) -> float:
    ns = np.asarray([n for n, _ in pairs], dtype=float)
    ys = np.asarray([v for _, v in pairs], dtype=float)
    if (ys == ys[0]).all():
        return 0.0  # polyfit leaves round-off on a constant series
    return float(np.polyfit(ns, ys, 1)[0])


def bowen_entropy(
    pcmap: PcMap,
    region: RegionSet,
    n_range: list[int],
    eps_schedule: list[float],
    grid: int,
    metric=None,
) -> tuple[EntropySeries, EntropySeries]:
    """Separated and spanning growth series over an epsilon schedule.

    Per epsilon, the slope of the log-count over the requested n-range; the
    headline estimates are the slopes at the smallest epsilon.  Two kinds of
    cells are flagged unreliable and the flagged-saturated ones are dropped
    from the slopes: ``coarse`` when the sample density exceeds eps/4, and
    ``saturated`` when the count exceeds a fixed fraction of the sample, past
    which grid quantization caps the packing and the growth stalls.

    Every reported cell comes from one ``_cell`` call over the whole schedule,
    so one scan builds them all, and each has passed both certificates; a
    failed one raises instead of being reported.  The schedule and the
    n-range are checked before the region is sampled.  The spanning series holds
    the same counts as the separated one, since each cell's separated set is
    its certified cover.  The cells are memoized in ``_ORBIT_CACHE`` under
    the same single-thread contract as the orbits.  The slopes use a plain
    least-squares fit rather than ``estimators.slope_fit``, which needs at
    least four records: a fit here can rest on two.
    """
    if not eps_schedule:
        raise ValueError("eps_schedule must not be empty")
    _check_eps(list(eps_schedule))
    if sorted(eps_schedule, reverse=True) != list(eps_schedule):
        raise ValueError("eps_schedule must be strictly decreasing")
    if not n_range:
        raise ValueError("n_range must not be empty")
    if len(n_range) < 2:
        raise ValueError("n_range needs at least two values to fit a slope")
    if sorted(n_range) != list(n_range) or len(set(n_range)) != len(n_range):
        raise ValueError("n_range must be increasing")
    if n_range[0] < 1:
        raise ValueError(f"n_range must start at n >= 1, got n = {n_range[0]}")
    sample = sample_region(pcmap, region, grid, horizon=max(n_range))
    m = len(sample.points)
    sat = max(8, int(SATURATION_FRACTION * m))
    records: list[SeriesRecord] = []
    slopes: dict[str, float] = {}
    for eps, counts in zip(eps_schedule, _cell(pcmap, sample, n_range, eps_schedule, metric)):
        base_flag = "coarse" if sample.density > eps / 4 else None
        pairs, all_pairs = [], []
        for n, s in zip(n_range, counts):
            flags = [base_flag] if base_flag else []
            if s > sat:
                flags.append("saturated")
            records.append(SeriesRecord(n, s, aux=eps, flag="+".join(flags) or None))
            all_pairs.append((n, math.log(s)))
            if s <= sat:
                pairs.append((n, math.log(s)))
        slope = _lsq_slope(pairs if len(pairs) >= 2 else all_pairs)
        slopes[f"slope(eps={eps:g})"] = slope
    sep = EntropySeries(
        method="bowen-separated",
        records=tuple(records),
        estimate=slope,
        estimate_method="slope-fit",
        estimates=slopes,
    )
    return sep, replace(sep, method="bowen-spanning", estimates=dict(slopes))
