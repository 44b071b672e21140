"""Limit extrapolation for subadditive growth sequences, the submultiplicativity
certificate that every count series passes first, and the series record type.
``count_series`` is also the one rule that ends a count series at a resource
cap: both count routes hand it their records as an iterable."""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ResourceCapExceeded, SubadditivityError


@dataclass(frozen=True)
class SequenceFit:
    slope: float
    intercept: float
    residual: float
    window: tuple[int, int]


@dataclass(frozen=True)
class SeriesRecord:
    n: int
    value: float
    aux: float | None = None  # e.g. the epsilon a Bowen count was taken at
    flag: str | None = None


@dataclass(frozen=True)
class EntropySeries:
    method: str
    records: tuple[SeriesRecord, ...]
    estimate: float
    estimate_method: str
    estimates: dict[str, float] = field(default_factory=dict)
    truncated: bool = False


def last_ratio(values: list[tuple[int, float]]) -> float:
    n, v = values[-1]
    return v / n


def fekete_estimate(values: list[tuple[int, float]]) -> float:
    """min of value/n over the records.

    For a subadditive sequence this is both an upper bound for the limit and
    equal to it in the n -> infinity limit (Fekete).  Subadditivity is
    asserted over every recorded pair; a violation points at a tolerance
    undercount upstream, not at this routine.  This check is not
    ``submultiplicative_witness``: it tests a real-valued sequence (logs of
    counts, or any other) with a slack of 1e-9 for round-off, where that one
    tests integer counts exactly.
    """
    if len(values) < 2:
        raise ValueError("need at least two records")
    table = dict(values)
    ns = sorted(table)
    for n in ns:
        for k in ns:
            if n + k in table and table[n + k] > table[n] + table[k] + 1e-9:
                raise SubadditivityError(
                    f"a_{n + k}={table[n + k]:.12g} > a_{n}+a_{k}={table[n] + table[k]:.12g}",
                    witness=(n, k),
                )
    return min(v / n for n, v in values)


def slope_fit(values: list[tuple[int, float]]) -> SequenceFit:
    """Least-squares line over the top half of the n-range.

    The slope is the entropy estimate; small-n records carry additive
    transients, so the window drops the lower half.
    """
    if len(values) < 4:
        raise ValueError("need at least four records for a slope fit")
    ns = np.asarray([n for n, _ in values], dtype=float)
    ys = np.asarray([v for _, v in values], dtype=float)
    cutoff = ns[-1] - 0.5 * (ns[-1] - ns[0])
    mask = ns >= cutoff
    if mask.sum() < 2:
        raise ValueError("degenerate window: fewer than two records")
    nw, yw = ns[mask], ys[mask]
    slope, intercept = np.polyfit(nw, yw, 1)
    residual = float(np.sqrt(np.mean((slope * nw + intercept - yw) ** 2)))
    return SequenceFit(float(slope), float(intercept), residual, (int(nw[0]), int(nw[-1])))


def submultiplicative_witness(counts: dict[int, int]) -> tuple[int, int] | None:
    """The first pair (n, m) with c_{n+m} > c_n * c_m, or None."""
    pairs = ((n, m) for n in counts for m in counts if n + m in counts)
    return next(((n, m) for n, m in pairs if counts[n + m] > counts[n] * counts[m]), None)


_COUNTED = {"misiurewicz-szlenk": "piece", "cover": "subcover"}  # per count route


def count_series(method: str, records: Iterable[SeriesRecord], estimator: str) -> EntropySeries:
    """The entropy series of positive counts, estimated from their logs; a
    count of 0 (an empty target) raises ``ValueError``.

    A ``ResourceCapExceeded`` raised while ``records`` makes its next record
    ends the series there: the last record made is flagged ``truncated``, and
    a known ``estimator`` that this shorter series cannot compute degrades to
    the best available one instead of failing; an unknown name is refused
    before any record is made.  If no record was made, the refusal itself is
    re-raised.  The counts are certified submultiplicative first: a violation
    raises ``SubadditivityError`` with its witness pair instead of an estimate.
    """
    fits = {"last-ratio": last_ratio, "fekete-min": fekete_estimate, "slope-fit": lambda v: slope_fit(v).slope}
    if estimator not in fits:
        raise ValueError(f"unknown estimator {estimator!r} (choose from {sorted(fits)})")
    made: list[SeriesRecord] = []
    truncated = False
    try:
        for record in records:
            made.append(record)
    except ResourceCapExceeded:
        if not made:
            raise
        truncated = True
        made[-1] = replace(made[-1], flag="+".join(filter(None, (made[-1].flag, "truncated"))))
    empty = next((r for r in made if r.value <= 0), None)
    if empty is not None:
        raise ValueError(
            f"{method} route: {_COUNTED[method]} count c_{empty.n}={empty.value:g} is not positive, "
            f"so its target at n={empty.n} is empty and the counts have no logarithm"
        )
    counts = {r.n: int(r.value) for r in made}
    bad = submultiplicative_witness(counts)
    if bad is not None:
        n, m = bad
        raise SubadditivityError(
            f"{_COUNTED[method]} counts are not submultiplicative: c_{n + m}={counts[n + m]} "
            f"> c_{n}*c_{m}={counts[n] * counts[m]} (likely a tolerance undercount upstream)",
            witness=bad,
        )
    values = [(r.n, math.log(r.value)) for r in made]
    table: dict[str, float] = {}
    for name, fit in fits.items():
        try:
            table[name] = fit(values)
        except ValueError:
            pass
    chosen = estimator
    if chosen not in table:
        if not truncated:
            raise ValueError(f"estimator {estimator!r} not computable for this series "
                             f"(available: {sorted(table)})")
        chosen = "fekete-min" if "fekete-min" in table else "last-ratio"
    return EntropySeries(method, tuple(made), table[chosen], chosen, table, truncated)
