"""Constructions the entropy identities quantify over: iterates, piecewise
affine conjugations, and restriction to invariant regions."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvarianceError, MapValidationError
from .expr import Compose, PiecewiseAffine, Var
from .intervals import Interval, PointSet, RegionSet, components_of_complement
from .maps import (
    LEFT,
    RIGHT,
    PcMap,
    build_map,
    evaluate,
    evaluate_many,
    identity_map,
    limit_step,
)
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
        if any(b <= a for a, b in zip(xs, xs[1:])):
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


def iterate_map(pcmap: PcMap, k: int, cap: int | None = None) -> PcMap:
    """The k-th iterate as a map in its own right: pieces are the components of
    the domain minus the k-step cut set, branches the k-fold compositions."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        return identity_map((pcmap.domain.lo, pcmap.domain.hi))
    if k == 1:
        return pcmap
    comps = components_of_complement(pcmap.domain, delta_n(pcmap, k, cap))
    rows = []
    for comp in comps:
        # the branch sequence of the first probe whose k-step orbit misses the cut set
        for frac in (0.5, 0.381966, 0.618034, 0.271828, 0.707107):
            v = comp.lo + frac * comp.diameter
            seq = []
            for _ in range(k):
                if pcmap.delta.index_near(v) is not None:
                    break
                seq.append(pcmap.piece_index(v))
                v = evaluate(pcmap, v)
            else:
                break
        else:
            raise MapValidationError(f"cannot probe component {comp!r} away from the cut set")
        expr = pcmap.branches[seq[0]].expr
        inc = pcmap.branches[seq[0]].increasing
        for bi in seq[1:]:
            expr = Compose(pcmap.branches[bi].expr, expr)
            inc = inc == pcmap.branches[bi].increasing
        rows.append((comp.lo, comp.hi, expr, inc))
    return build_map((pcmap.domain.lo, pcmap.domain.hi), rows, at_delta=pcmap.at_delta, validation_grid=65)


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
        ya = float(phi(b.piece.lo))
        yb = float(phi(b.piece.hi))
        lo, hi = (ya, yb) if ya < yb else (yb, ya)
        expr = Compose(phi_e, Compose(b.expr, inv_e))
        rows.append((lo, hi, expr, b.increasing))
    at_delta = pcmap.at_delta
    if not phi.increasing:
        at_delta = "right" if at_delta == "left" else "left"
    return build_map(phi.codomain, rows, at_delta=at_delta, validation_grid=129)


@dataclass(frozen=True)
class InvarianceReport:
    region: RegionSet
    checked_points: int

    def __str__(self):
        return (
            f"invariance verified on {self.checked_points} grid points of {self.region!r}; "
            "one-sided limits at interior cut points stay inside"
        )


@dataclass(frozen=True)
class RestrictedMap:
    """A map together with a verified (pseudo-)invariant region."""

    pcmap: PcMap
    region: RegionSet
    report: InvarianceReport

    def as_pcmap(self) -> PcMap:
        """The restriction as a map on its own interval (single-part regions)."""
        if len(self.region.parts) != 1:
            raise MapValidationError("only single-interval regions restrict to a pc-map")
        part = self.region.parts[0]
        cuts, tol = self.pcmap.delta.points, self.pcmap.tol
        inner = PointSet.of(cuts[(cuts > part.lo + tol) & (cuts < part.hi - tol)], tol)
        comps = components_of_complement(Interval.closed(part.lo, part.hi), inner)
        rows = []
        for comp in comps:
            mid = 0.5 * (comp.lo + comp.hi)
            b = self.pcmap.branches[self.pcmap.piece_index(mid)]
            rows.append((comp.lo, comp.hi, b.expr, b.increasing))
        return build_map((part.lo, part.hi), rows, at_delta=self.pcmap.at_delta, validation_grid=257)


def restrict_map(pcmap: PcMap, region: RegionSet) -> RestrictedMap:
    """Verify the region is (pseudo-)invariant and return the restriction handle.

    Grid-based: failures are certain (a witness point is reported), passes are
    up to the verification tolerance.  Points of the cut set inside the region
    pass when at least one one-sided limit stays in the region.
    """
    if region.is_empty():
        raise InvarianceError("region is empty")
    tol = 1e-9
    dom = pcmap.domain
    for p in region.parts:
        if p.lo < dom.lo - tol or p.hi > dom.hi + tol:
            raise InvarianceError(f"region part {p!r} is not inside the domain {dom!r}")
    checked = 0
    for part in region.parts:
        xs = np.linspace(part.lo, part.hi, 10_000)
        xs = xs[~pcmap.delta.contains_many(xs)]
        vals = evaluate_many(pcmap, xs)
        ok = region.contains_many(vals, tol=tol)
        if not ok.all():
            i = int(np.argmax(~ok))
            raise InvarianceError(
                f"f({xs[i]:.17g}) = {vals[i]:.17g} leaves the region",
                witness=float(xs[i]),
            )
        checked += len(xs)
    for d in pcmap.delta:
        if not region.contains(d, tol=tol):
            continue
        vl, _, _ = limit_step(pcmap, d, LEFT)
        vr, _, _ = limit_step(pcmap, d, RIGHT)
        if not (region.contains(vl, tol=tol) or region.contains(vr, tol=tol)):
            raise InvarianceError(
                f"both one-sided limits at {d:.17g} ({vl:.17g}, {vr:.17g}) leave the region",
                witness=float(d),
            )
    return RestrictedMap(pcmap, region, InvarianceReport(region, checked))
