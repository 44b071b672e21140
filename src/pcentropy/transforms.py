"""Constructions the entropy identities quantify over: iterates, piecewise
affine conjugations, and restriction to invariant regions.

Iterates and restrictions build their pieces by one rule: a piece is a lap
(a component of the domain minus the cut set), and its branch composes the
lap's branch word, the k branches all its points follow (Milnor & Thurston).
The word is read from the lap's image carried forward, as ``DeltaTable``
carries lap images: its midpoint is half an image width from every cut, while
a lap end of Delta^k walked forward alone can round past a cut.

A restriction decides invariance from the same laps it builds: on a lap f is
continuous and strictly monotone, so the lap's image runs between the
one-sided limits at its ends, and both must lie in one region part."""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvarianceError, MapValidationError
from .expr import Compose, PiecewiseAffine, Var
from .intervals import Interval, PointSet, RegionSet, components_of_complement
from .maps import IMAGE_TOL, LEFT, RIGHT, PcMap, build_map, identity_map, limit_step
from .symbolic import delta_n


@dataclass(frozen=True)
class PlHomeo:
    """Continuous piecewise-affine bijection between two compact intervals."""

    nodes: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if len(self.nodes) < 2:
            raise ValueError("need at least two nodes")
        xs = [p[0] for p in self.nodes]
        ys = [p[1] for p in self.nodes]
        if not all(math.isfinite(v) for v in xs + ys):
            raise ValueError("node coordinates must be finite")
        if not all(b > a for a, b in zip(xs, xs[1:])):
            raise ValueError("node abscissas must be strictly increasing")
        up = all(b > a for a, b in zip(ys, ys[1:]))
        down = all(b < a for a, b in zip(ys, ys[1:]))
        if not (up or down):
            raise ValueError("node ordinates must be strictly monotone")

    @property
    def xs(self) -> tuple[float, ...]:
        return tuple(p[0] for p in self.nodes)

    @property
    def ys(self) -> tuple[float, ...]:
        return tuple(p[1] for p in self.nodes)

    @property
    def increasing(self) -> bool:
        return self.nodes[1][1] > self.nodes[0][1]

    @property
    def domain(self) -> tuple[float, float]:
        return (self.nodes[0][0], self.nodes[-1][0])

    @property
    def codomain(self) -> tuple[float, float]:
        lo, hi = self.nodes[0][1], self.nodes[-1][1]
        return (lo, hi) if lo < hi else (hi, lo)

    def __call__(self, v):
        return np.interp(v, self.xs, self.ys)

    def inverse(self) -> "PlHomeo":
        pairs = sorted((y, x) for x, y in self.nodes)
        return PlHomeo(tuple(pairs))

    def as_expr(self, arg=None) -> PiecewiseAffine:
        return PiecewiseAffine(arg if arg is not None else Var(), self.xs, self.ys)


def _lap_rows(pcmap: PcMap, laps: list[Interval] | tuple[Interval, ...], k: int) -> list[tuple]:
    """``build_map`` rows for laps of f^k: each step takes the branch at the
    midpoint of the lap's current image and maps the image's ends, clipped
    onto that branch's piece, through it."""
    cuts = pcmap.delta.points.tolist()
    rows = []
    for lap in laps:
        a, b, expr, inc = lap.lo, lap.hi, None, True
        for _ in range(k):
            br = pcmap.branches[bisect.bisect_right(cuts, 0.5 * (a + b))]
            ya, yb = br.at(max(a, br.piece.lo)), br.at(min(b, br.piece.hi))
            a, b = min(ya, yb), max(ya, yb)
            expr = br.expr if expr is None else Compose(br.expr, expr)
            inc = inc == br.increasing
        rows.append((lap.lo, lap.hi, expr, inc))
    return rows


def iterate_map(pcmap: PcMap, k: int, cap: int | None = None) -> PcMap:
    """The k-th iterate as a map in its own right: pieces are the laps of f^k
    (the components of the domain minus Delta^k), branches the compositions
    along each lap's branch word, read from the lap's image."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        return identity_map((pcmap.domain.lo, pcmap.domain.hi))
    if k == 1:
        return pcmap
    laps = components_of_complement(pcmap.domain, delta_n(pcmap, k, cap))
    return build_map((pcmap.domain.lo, pcmap.domain.hi), _lap_rows(pcmap, laps, k), at_delta=pcmap.at_delta)


def conjugate_map(pcmap: PcMap, phi: PlHomeo) -> PcMap:
    """Change of coordinates g = phi o f o phi^-1 with the cut set mapped along."""
    dlo, dhi = phi.domain
    if abs(dlo - pcmap.domain.lo) > 1e-9 or abs(dhi - pcmap.domain.hi) > 1e-9:
        raise MapValidationError(
            f"phi domain [{dlo:g}, {dhi:g}] does not match the map domain {pcmap.domain!r}"
        )
    inv = phi.inverse()
    phi_e, inv_e = phi.as_expr(), inv.as_expr()
    rows = []
    for b in pcmap.branches:
        ya, yb = float(phi(b.piece.lo)), float(phi(b.piece.hi))
        lo, hi = (ya, yb) if ya < yb else (yb, ya)
        rows.append((lo, hi, Compose(phi_e, Compose(b.expr, inv_e)), b.increasing))
    at_delta = pcmap.at_delta if phi.increasing else ("right" if pcmap.at_delta == "left" else "left")
    return build_map(phi.codomain, rows, at_delta=at_delta)


@dataclass(frozen=True)
class RestrictedMap:
    """A map, a verified (pseudo-)invariant region, and the laps that verified it."""

    pcmap: PcMap
    region: RegionSet
    laps: tuple[Interval, ...]

    @property
    def report(self) -> str:
        k = len(self.laps)
        return f"invariance verified on {self.region!r} over {k} lap{'s' * (k != 1)} by their one-sided end limits"

    def as_pcmap(self) -> PcMap:
        """The restriction as a map on its own interval (single-part regions)."""
        if len(self.region.parts) != 1:
            raise MapValidationError("only single-interval regions restrict to a pc-map")
        part = self.region.parts[0]
        return build_map((part.lo, part.hi), _lap_rows(self.pcmap, self.laps, 1), at_delta=self.pcmap.at_delta)


def restrict_map(pcmap: PcMap, region: RegionSet) -> RestrictedMap:
    """Verify the region is (pseudo-)invariant and return the restriction handle.

    Exact, by the lap rule: each region part minus the cuts more than ``tol``
    inside it falls into laps, and on a lap f is continuous and strictly
    monotone, so the lap's image runs between the one-sided limits at its
    ends.  A lap passes when both limits lie in one region part, within
    ``IMAGE_TOL``; a refusal's witness is the lap end whose limit leaves the
    part that holds the other end's limit.  A point part passes when at
    least one one-sided limit there stays in the region.
    """
    if region.is_empty():
        raise InvarianceError("region is empty")
    dom, cuts, tol = pcmap.domain, pcmap.delta.points, pcmap.tol
    laps: list[Interval] = []
    for part in region.parts:
        if part.lo < dom.lo - IMAGE_TOL or part.hi > dom.hi + IMAGE_TOL:
            raise InvarianceError(f"region part {part!r} is not inside the domain {dom!r}")
        inner = PointSet(cuts[(cuts > part.lo + tol) & (cuts < part.hi - tol)], tol)
        laps += components_of_complement(part, inner)
    for lap in laps:
        if lap.is_point():
            vl, vr = limit_step(pcmap, lap.lo, LEFT)[0], limit_step(pcmap, lap.lo, RIGHT)[0]
            if not (region.contains(vl, tol=IMAGE_TOL) or region.contains(vr, tol=IMAGE_TOL)):
                raise InvarianceError(
                    f"both one-sided limits at {lap.lo:.17g} ({vl:.17g}, {vr:.17g}) leave the region",
                    witness=float(lap.lo),
                )
            continue
        a, b = limit_step(pcmap, lap.lo, RIGHT)[0], limit_step(pcmap, lap.hi, LEFT)[0]
        home = next((p for p in region.parts if p.lo - IMAGE_TOL <= a <= p.hi + IMAGE_TOL), None)
        if home is None or not home.lo - IMAGE_TOL <= b <= home.hi + IMAGE_TOL:
            raise InvarianceError(
                f"f maps {lap!r} onto [{min(a, b):g}, {max(a, b):g}], which leaves the region",
                witness=float(lap.lo if home is None else lap.hi),
            )
    return RestrictedMap(pcmap, region, tuple(laps))
