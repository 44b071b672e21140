"""Piecewise continuous interval maps with user-declared monotone branches.

A map is a compact interval tiled by the closures of finitely many pieces,
one continuous strictly monotone branch per piece, checked on the table of
values that its inverse brackets from.  The boundaries between pieces form
the discontinuity set; values there follow a one-sided-limit convention
that, by construction, never influences piece counting or cover refinement.
"""

from __future__ import annotations

import bisect
import re
from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar

import numpy as np

from .errors import DomainError, ExprParseError, MapValidationError, MonotonicityError
from .expr import Expr, Var, as_affine, compile_expr, parse_constant, parse_expression
from .intervals import Interval, PointSet

DEFAULT_MAP_TOL = 1e-10
IMAGE_TOL = 1e-9
BRACKET_GRID = 1025


@dataclass(frozen=True)
class Branch:
    """A continuous strictly monotone branch, evaluated once: its direction, ``image``,
    ``build_map``'s validation and the inverse's ``brackets`` all read ``values``."""

    piece: Interval  # open at interior boundaries, closed at domain endpoints
    expr: Expr
    increasing: bool | None = None  # None: read from the values at the piece ends

    def __post_init__(self):
        if self.increasing is None:
            lo_val, hi_val = self.values[0], self.values[-1]
            if lo_val == hi_val:
                raise MapValidationError(f"branch on {self.piece!r} is not strictly monotone")
            object.__setattr__(self, "increasing", bool(hi_val > lo_val))

    @cached_property
    def fn(self):
        return compile_expr(self.expr)

    @cached_property
    def affine(self) -> tuple[float, float] | None:
        return as_affine(self.expr)

    @cached_property
    def values(self) -> np.ndarray:
        """The branch on ``BRACKET_GRID`` evenly spaced points of the piece, ends included,
        read-only; ``MapValidationError`` if it divides by zero or is not finite there."""
        xs = np.linspace(self.piece.lo, self.piece.hi, BRACKET_GRID)
        with np.errstate(all="ignore"):
            try:
                vals = np.broadcast_to(np.asarray(self.fn(xs), dtype=float), xs.shape)  # a constant broadcasts
            except ZeroDivisionError:
                raise MapValidationError(f"branch on {self.piece!r} divides by zero") from None
        if not np.isfinite(vals).all():
            raise MapValidationError(f"branch on {self.piece!r} is not evaluable everywhere")
        vals.flags.writeable = False
        return vals

    def at(self, x: float) -> float:
        """The branch at one point; where a Python float raises on a division
        by zero, a numpy float gives inf as ``values`` does."""
        try:
            return float(self.fn(x))
        except ZeroDivisionError:
            with np.errstate(all="ignore"):
                return float(self.fn(np.float64(x)))

    @cached_property
    def image(self) -> tuple[float, float]:
        """The values at the piece ends, sorted (closure of image)."""
        lo_val, hi_val = float(self.values[0]), float(self.values[-1])
        return (min(lo_val, hi_val), max(lo_val, hi_val))

    @cached_property
    def brackets(self) -> tuple[np.ndarray, np.ndarray]:
        """``(xs, vs)``: the points of ``values`` and sgn·f there; ``MonotonicityError`` if
        ``vs`` decreases, which ``build_map`` refuses but a ``Branch`` built directly skips."""
        vs = (1.0 if self.increasing else -1.0) * self.values
        if not vs[0] <= vs[-1]:
            raise MonotonicityError(f"branch values at piece ends contradict declared direction on {self.piece!r}")
        xs = np.linspace(self.piece.lo, self.piece.hi, BRACKET_GRID)
        bad = np.flatnonzero(vs[1:] < vs[:-1])
        if len(bad):
            raise MonotonicityError(f"bracket table decreases at {float(xs[bad[0] + 1])!r} on {self.piece!r}")
        return xs, vs

    @property
    def direction(self) -> int:
        return 1 if self.increasing else -1


@dataclass(frozen=True)
class PcMap:
    domain: Interval
    branches: tuple[Branch, ...]
    at_delta: str = "left"  # value convention at discontinuities: left|right limit
    tol: ClassVar[float] = DEFAULT_MAP_TOL

    @property
    def n_pieces(self) -> int:
        return len(self.branches)

    @cached_property
    def delta(self) -> PointSet:
        return PointSet([b.piece.hi for b in self.branches[:-1]], self.tol)

    @cached_property
    def cuts(self) -> tuple[float, ...]:
        return tuple(self.delta.points.tolist())

    def __hash__(self) -> int:
        # the dataclass hash walks every expression tree; a map is looked up
        # by hash on every DeltaTable read, so it is taken once per instance
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash((self.domain, self.branches, self.at_delta))


def _check_in_domain(pcmap: PcMap, x: float) -> float:
    d = pcmap.domain
    if not d.lo <= x <= d.hi:  # NaN too
        if not d.lo - IMAGE_TOL <= x <= d.hi + IMAGE_TOL:
            raise DomainError(f"{x!r} outside domain {d!r}")
        x = min(max(x, d.lo), d.hi)
    return x


def _cut_near(pcmap: PcMap, v: float) -> tuple[int | None, int]:
    """``(j, i)``: the left insertion index i of v among the cuts, and the cut
    j within ``tol`` of v, or None; as in ``PointSet.index_near``, i - 1 wins."""
    cuts, tol = pcmap.cuts, pcmap.tol
    i = bisect.bisect_left(cuts, v)
    if i and abs(cuts[i - 1] - v) <= tol:
        return i - 1, i
    if i < len(cuts) and abs(cuts[i] - v) <= tol:
        return i, i
    return None, i


LEFT, RIGHT = 0, 1


def evaluate(pcmap: PcMap, x: float) -> float:
    """Map value at x; at a discontinuity this is the configured one-sided
    limit, and within ``tol`` of a cut or a domain end x snaps to it."""
    return limit_step(pcmap, x, LEFT if pcmap.at_delta == "left" else RIGHT)[0]


def evaluate_many(pcmap: PcMap, xs: np.ndarray) -> np.ndarray:
    """Vectorized evaluation for points away from the discontinuity set.

    Values are clipped to the domain, whereas ``evaluate`` raises beyond
    ``IMAGE_TOL``.  The one caller, ``bowen.orbit_matrix``, passes sample
    orbits in the domain.  There, validation already keeps every branch value
    within ``IMAGE_TOL`` of the domain, so the clip only absorbs round-off.
    """
    idx = np.searchsorted(pcmap.delta.points, xs, side="right")
    out = np.empty_like(xs, dtype=float)
    with np.errstate(all="ignore"):
        for i, b in enumerate(pcmap.branches):
            m = idx == i
            if m.any():
                out[m] = b.fn(xs[m])
    return np.clip(out, pcmap.domain.lo, pcmap.domain.hi)


def evaluate_orbit(pcmap: PcMap, x: float, n: int) -> list[float]:
    """[x, f(x), ..., f^(n-1)(x)]."""
    if n < 1:
        raise ValueError("orbit length must be >= 1")
    out = [_check_in_domain(pcmap, x)]
    for _ in range(n - 1):
        out.append(evaluate(pcmap, out[-1]))
    return out


def limit_step(pcmap: PcMap, v: float, side: int) -> tuple[float, int, int]:
    """One-sided limit of f at v from ``side``; returns (value, new side, branch).

    The new side is where the image values approach their limit from, which
    flips under a decreasing branch.  This is the primitive that makes every
    piece/cover computation independent of the value convention at
    discontinuities.

    One ``bisect`` over ``PcMap.cuts`` finds the cut within ``tol`` of v, or
    else the branch, so the lap walk steps on Python floats alone.
    """
    v = _check_in_domain(pcmap, v)
    j, i = _cut_near(pcmap, v)
    if j is not None:
        bi, v = (j if side == LEFT else j + 1), pcmap.cuts[j]
    elif v - pcmap.domain.lo <= pcmap.tol:
        bi, v = 0, pcmap.domain.lo
    elif pcmap.domain.hi - v <= pcmap.tol:
        bi, v = pcmap.n_pieces - 1, pcmap.domain.hi
    else:
        bi = i  # no cut equals v, so its left and right insertion indices agree
    b = pcmap.branches[bi]
    value = _check_in_domain(pcmap, b.at(v))
    new_side = side if b.increasing else 1 - side
    return value, new_side, bi


_INVERSE_TOL = 1e-15
_SECANT_ROUNDS = 8  # then bisection, which halves the bracket every round


def branch_preimages(branch: Branch, ys: np.ndarray) -> np.ndarray:
    """Preimages of every target under the branch closure at once; NaN where absent.

    Affine branches use the closed form and clip onto the piece what lands
    within a relative ``1e-12`` of it.  Other branches clip onto the image
    what lies within ``_INVERSE_TOL`` of it and send a target at or past an
    end value to that piece end (the left one on a tie).  Every other target
    takes its bracket f(a) < y <= f(b) from ``Branch.brackets`` with one
    ``searchsorted`` and narrows it by the Illinois variant of regula falsi
    (Dowell & Jarratt, BIT 11, 1971): the secant point, held ``_INVERSE_TOL``/2
    inside the bracket, replaces the end on its side, and an end kept twice
    in a row has its value halved.  After ``_SECANT_ROUNDS`` rounds the step
    is the midpoint.  A target is done, at the midpoint, once its bracket is
    ``_INVERSE_TOL`` wide or its midpoint stops splitting it; smooth branches
    take about five rounds.  End or table values out of order, and an
    evaluated value outside the image by more than ``_INVERSE_TOL``, raise
    ``MonotonicityError``.  The scalar mirror is
    ``tests/reference.py::branch_preimage_scalar``; ``branch_inverse`` there
    is an independent bisection.
    """
    lo, hi = branch.piece.lo, branch.piece.hi
    aff = branch.affine
    if aff is not None:
        a, b = aff
        xs = (ys - b) / a
        pad = 1e-12 * max(1.0, abs(hi - lo))
        return np.where((xs >= lo - pad) & (xs <= hi + pad), np.clip(xs, lo, hi), np.nan)
    tol = _INVERSE_TOL
    vmin, vmax = branch.image
    out = np.full(len(ys), np.nan)
    inside = np.flatnonzero((ys >= vmin - tol) & (ys <= vmax + tol))
    if not len(inside):
        return out
    grid, table = branch.brackets
    flo, fhi = table[0], table[-1]
    sgn = 1.0 if branch.increasing else -1.0
    ty = sgn * np.clip(ys[inside], vmin, vmax)
    out[inside[ty >= fhi]] = hi
    out[inside[ty <= flo]] = lo  # after hi: lo wins when flo == fhi
    mid_range = (ty > flo) & (ty < fhi)
    idx, ty = inside[mid_range], ty[mid_range]
    j = np.searchsorted(table, ty)  # table[j - 1] < ty <= table[j]
    a, b, ga, gb = grid[j - 1], grid[j], table[j - 1] - ty, table[j] - ty
    below = np.zeros(len(idx), dtype=bool)  # per target: a moved last round, else b did
    for rnd in range(200):
        mid = 0.5 * (a + b)
        done = (b - a <= tol) | (mid <= a) | (mid >= b)
        if done.any():
            out[idx[done]] = mid[done]
            go = ~done
            idx, ty, a, b, ga, gb, below, mid = (v[go] for v in (idx, ty, a, b, ga, gb, below, mid))
        if not len(idx):
            break
        x = mid
        if rnd < _SECANT_ROUNDS:
            x = np.clip(a + ga / (ga - gb) * (b - a), a + 0.5 * tol, b - 0.5 * tol)
            x = np.where((x > a) & (x < b), x, mid)  # the hold collapsed in rounding, or NaN
        fx = sgn * branch.fn(x)
        bad = (fx < flo - tol) | (fx > fhi + tol)
        if bad.any():
            raise MonotonicityError(f"bracket violation at {float(x[bad][0])!r} on {branch.piece!r}")
        moved_a, below, gx = below, fx < ty, fx - ty
        if rnd:  # an end kept twice in a row has its value halved
            gb = np.where(below & moved_a, 0.5 * gb, gb)
            ga = np.where(below | moved_a, ga, 0.5 * ga)
        a, ga = np.where(below, x, a), np.where(below, gx, ga)
        b, gb = np.where(below, b, x), np.where(below, gb, gx)
    out[idx] = 0.5 * (a + b)
    return out


# ---------------------------------------------------------------------------
# construction and validation


def _validate_branch(domain: Interval, branch: Branch):
    """Refuse a branch whose ``values`` leave the domain by more than
    ``IMAGE_TOL`` or, once clipped to it, are not strictly monotone as declared."""
    vals = branch.values
    if vals.min() < domain.lo - IMAGE_TOL or vals.max() > domain.hi + IMAGE_TOL:
        raise MapValidationError(
            f"branch image on {branch.piece!r} escapes the domain "
            f"([{vals.min():.17g}, {vals.max():.17g}] vs {domain!r})"
        )
    # monotone as evaluated: evaluate snaps values within IMAGE_TOL to the domain's ends
    if not (np.diff(np.clip(vals, domain.lo, domain.hi)) * branch.direction > 0).all():
        word = "increasing" if branch.increasing else "decreasing"
        raise MapValidationError(f"branch on {branch.piece!r} is not strictly {word} on the validation grid")


def build_map(
    domain: tuple[float, float],
    pieces: list[tuple[float, float, Expr, bool | None]],
    at_delta: str = "left",
) -> PcMap:
    """Assemble and validate a map from (lo, hi, expr, increasing?) rows.

    Every branch is checked on its ``values``, the table its inverse brackets
    from: finite, inside the domain up to ``IMAGE_TOL``, and strictly monotone
    as declared once clipped to it, so no route meets a branch it refuses.
    """
    if at_delta not in ("left", "right"):
        raise MapValidationError(f"at_delta must be 'left' or 'right', got {at_delta!r}")
    dlo, dhi = domain
    if not dlo < dhi:
        raise MapValidationError("domain must have non-empty interior")
    if not pieces:
        raise MapValidationError("a map needs at least one piece")
    rows = sorted(pieces, key=lambda r: r[0])
    if rows[0][0] != dlo:
        raise MapValidationError("first piece must start at the domain's left endpoint")
    if rows[-1][1] != dhi:
        raise MapValidationError("last piece must end at the domain's right endpoint")
    for a, b, _, _ in rows:
        # cut points closer than tol would be one point to every merge of Delta^n
        if not b - a > PcMap.tol:
            raise MapValidationError(f"piece ({a!r}, {b!r}) is no wider than the map tolerance {PcMap.tol:g}")
    for (_, b, _, _), (c, _, _, _) in zip(rows, rows[1:]):
        if c < b:
            raise MapValidationError(f"pieces overlap at {c!r}")
        if c > b:
            raise MapValidationError(f"pieces leave a gap between {b!r} and {c!r}")

    dom = Interval.closed(dlo, dhi)
    branches = []
    n = len(rows)
    for i, (a, b, expr, inc) in enumerate(rows):
        piece = Interval(a, b, lo_open=(i > 0), hi_open=(i < n - 1))
        try:
            branch = Branch(piece, expr, inc)
            _validate_branch(dom, branch)
        except (RecursionError, SyntaxError):
            # compile_expr's source nests as deep as the tree
            raise MapValidationError(f"branch on {piece!r} nests too deeply to evaluate") from None
        branches.append(branch)
    return PcMap(dom, tuple(branches), at_delta)


def identity_map(domain: tuple[float, float]) -> PcMap:
    return build_map(domain, [(domain[0], domain[1], Var(), True)])


# ---------------------------------------------------------------------------
# map-definition files

_PIECE_RE = re.compile(r"^piece\s*\((?P<lo>[^,]+),(?P<hi>[^)]+)\)\s*:\s*(?P<body>.+)$")
_DOMAIN_RE = re.compile(r"^domain\s*=\s*\[(?P<lo>[^,]+),(?P<hi>[^\]]+)\]\s*$")
_AT_DELTA_RE = re.compile(r"^at_delta\s*=\s*(?P<side>\w+)\s*$")


def parse_map(source: str) -> PcMap:
    """Parse the map-definition format.

    Header ``domain = [lo, hi]``, optional ``at_delta = left|right``, then one
    ``piece (a, b): <expression> [inc|dec]`` line per branch.  ``#`` starts a
    comment; bounds may be constant expressions such as ``1/3``.
    """
    domain = at_delta = None
    pieces: list[tuple[float, float, Expr, bool | None]] = []
    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        indent = len(raw) - len(raw.lstrip())  # match offsets are in the stripped line
        m = _DOMAIN_RE.match(line)
        if m:
            if domain is not None:
                raise ExprParseError("duplicate domain line", lineno, 1)
            domain = tuple(parse_constant(m[g], lineno, indent + m.start(g)) for g in ("lo", "hi"))
            continue
        m = _AT_DELTA_RE.match(line)
        if m:
            if at_delta is not None:
                raise ExprParseError("duplicate at_delta line", lineno, 1)
            at_delta = m.group("side")
            if at_delta not in ("left", "right"):
                raise ExprParseError(f"at_delta must be left or right, got {at_delta!r}", lineno, 1)
            continue
        m = _PIECE_RE.match(line)
        if m:
            if domain is None:
                raise ExprParseError("piece line before domain line", lineno, 1)
            lo, hi = (parse_constant(m[g], lineno, indent + m.start(g)) for g in ("lo", "hi"))
            body = m.group("body").strip()
            inc: bool | None = None
            tail = body.rsplit(None, 1)
            if len(tail) == 2 and tail[1] in ("inc", "dec"):
                body, inc = tail[0], tail[1] == "inc"
            col = indent + m.start("body")
            try:
                expr = parse_expression(body, lineno, col)
            except RecursionError:
                msg = f"branch on ({lo!r}, {hi!r}) nests too deeply to parse"
                raise ExprParseError(msg, lineno, col + 1) from None
            pieces.append((lo, hi, expr, inc))
            continue
        raise ExprParseError(f"unrecognized line: {line!r}", lineno, 1)
    if domain is None:
        raise ExprParseError("missing domain line", 1, 1)
    if not pieces:
        raise ExprParseError("no piece lines", 1, 1)
    return build_map(domain, pieces, at_delta=at_delta or "left")
