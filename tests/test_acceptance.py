"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here.
"""

import math
import time

import numpy as np
import pytest

from pcentropy.bowen import bowen_entropy, max_separated, min_spanning, sample_region
from pcentropy.catalog import get as catalog_get, names as catalog_names
from pcentropy.covers import (
    Cover,
    boundary_of_refined_natural_cover,
    cover_entropy,
    domainify_cover,
    minimal_subcover_cardinality,
    natural_cover,
    pullback_cover,
    refinement_steps,
    vee,
)
from pcentropy.intervals import Interval, OpenSet, RegionSet
from pcentropy.symbolic import count_pieces, delta_n, ms_entropy
from pcentropy.transforms import PlHomeo, conjugate_map, iterate_map, restrict_map

LOG2 = math.log(2)
X = RegionSet.of((0.0, 1.0))
PHI3 = PlHomeo(((0.0, 0.0), (0.35, 0.55), (1.0, 1.0)))


def report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS  ({detail})")


def test_criterion_1_full_branch_exactness():
    """mod-N maps: c_n = N^n exactly and the estimate is log N to 1e-9."""
    for name, n_big, n_max in [("mod2", 2, 16), ("mod3", 3, 10), ("mod5", 5, 8)]:
        start = time.monotonic()
        series = ms_entropy(catalog_get(name).map, n_max)
        elapsed = time.monotonic() - start
        assert [int(r.value) for r in series.records] == [n_big**n for n in range(1, n_max + 1)]
        assert series.estimate == pytest.approx(math.log(n_big), abs=1e-9)
        assert elapsed <= 30.0, f"{name} took {elapsed:.1f}s"
    report(1, "mod2/mod3/mod5 exact counts, estimates log N +/- 1e-9, under 30s each")


def test_criterion_2_two_branch_log2():
    for name in ("tent", "asym-tent", "lorenz-full"):
        series = ms_entropy(catalog_get(name).map, 12)
        assert series.estimate == pytest.approx(LOG2, abs=1e-9), name
    report(2, "tent, asym-tent, lorenz-full estimates log 2 +/- 1e-9 at n_max=12")


def test_criterion_3_injective_maps():
    for name in ("iet2-golden", "pw-contraction"):
        m = catalog_get(name).map
        counts = [count_pieces(m, n) for n in range(1, 41)]
        for a, b in zip(counts, counts[1:]):
            assert b - a <= m.n_pieces - 1, name
        series = ms_entropy(m, 40)
        assert series.estimate <= 0.02, (name, series.estimate)
    report(3, "piece-count increments <= N-1 up to n=40, slope estimates <= 0.02")


def test_criterion_4_cut_set_counts():
    for name, n_big, n_max in [("mod2", 2, 16), ("mod3", 3, 10)]:
        m = catalog_get(name).map
        for n in range(1, n_max + 1):
            d_count = len(delta_n(m, n))
            assert d_count == n_big**n - 1, (name, n)
            assert abs(count_pieces(m, n, merge_removable=False) - d_count) <= 1
    report(4, "#Delta^n = N^n - 1 exactly for mod2 (n<=16) and mod3 (n<=10)")


def test_criterion_5_power_rule():
    for name in ("tent", "mod3"):
        m = catalog_get(name).map
        base = ms_entropy(m, 12)
        for k in (2, 3):
            fk = iterate_map(m, k)
            for n in range(1, 12 // k + 1):
                assert count_pieces(fk, n) == count_pieces(m, k * n), (name, k, n)
            power = ms_entropy(fk, 12 // k)
            assert power.estimate == pytest.approx(k * base.estimate, abs=1e-9), (name, k)
    report(5, "c_n(f^k) = c_(kn)(f) exactly and estimates scale by k, tent and mod3")


def test_criterion_6_conjugacy_invariance():
    tent = catalog_get("tent").map
    conj = conjugate_map(tent, PHI3)
    for n in range(1, 11):
        assert len(delta_n(conj, n)) == len(delta_n(tent, n)), n
        assert count_pieces(conj, n) == count_pieces(tent, n), n
    report(6, "3-node conjugate of tent: identical #Delta^n and c_n for n <= 10")


def test_criterion_7_cover_route_matches_symbolic():
    for name in catalog_names():
        m = catalog_get(name).map
        n_max = 8 if name == "mod5" else 10
        series = cover_entropy(m, natural_cover(m), n_max)
        counts = [count_pieces(m, n, merge_removable=False) for n in range(1, n_max + 1)]
        assert [r.value for r in series.records] == counts, name
    tent = catalog_get("tent").map
    for n in (1, 2, 4, 6, 8):
        bnd = boundary_of_refined_natural_cover(tent, n)
        dn = delta_n(tent, n)
        assert len(bnd) == len(dn)
        assert max(abs(a - b) for a, b in zip(bnd, dn)) <= 1e-12
    report(7, "aleph of refined natural cover = pre-merge c_n on every catalog map, n <= 10 (mod5 8); boundary = Delta^n")


@pytest.fixture(scope="module")
def tent_bowen_runs():
    tent = catalog_get("tent").map
    runs = {}
    start = time.monotonic()
    runs["plain"] = bowen_entropy(tent, X, list(range(4, 13)), [0.05, 0.02, 0.01], grid=8193)
    runs["plain_elapsed"] = time.monotonic() - start
    runs["metric"] = bowen_entropy(
        tent, X, list(range(4, 13)), [0.05, 0.02, 0.01], grid=8193, metric=PHI3
    )
    return runs


def test_criterion_8_bowen_corroboration(tent_bowen_runs):
    tent = catalog_get("tent").map
    sep, span = tent_bowen_runs["plain"]
    for series in (sep, span):
        assert abs(series.estimate - LOG2) <= 0.15 * LOG2, series.estimates
    sample = sample_region(tent, X, 8193, horizon=12)
    ns = list(range(4, 13))
    for eps in (0.05, 0.02, 0.01):
        rs = min_spanning(tent, sample, ns, eps)
        ss = max_separated(tent, sample, ns, eps)
        r_halves = min_spanning(tent, sample, ns, eps / 2)
        for n, r, s, r_half in zip(ns, rs, ss, r_halves):
            assert r <= s <= r_half, (n, eps, r, s, r_half)
    assert tent_bowen_runs["plain_elapsed"] <= 60.0
    report(
        8,
        f"separated/spanning slopes {sep.estimate:.3f}/{span.estimate:.3f} within 15% "
        f"of log 2; sandwich holds on all 27 cells; {tent_bowen_runs['plain_elapsed']:.0f}s",
    )


def test_criterion_9_metric_independence(tent_bowen_runs):
    band = 0.15 * LOG2
    sep_p, span_p = tent_bowen_runs["plain"]
    sep_m, span_m = tent_bowen_runs["metric"]
    assert abs(sep_m.estimate - sep_p.estimate) < band
    assert abs(span_m.estimate - span_p.estimate) < band
    report(
        9,
        f"changing the metric moves estimates by {abs(sep_m.estimate - sep_p.estimate):.3f} "
        f"< {band:.3f}",
    )


def test_criterion_10_restriction_lower_bound():
    an = catalog_get("anzie").map
    handle = restrict_map(an, RegionSet.of((0.7, 1.0)))
    restricted = ms_entropy(handle.as_pcmap(), 10, estimator="fekete-min")
    assert restricted.estimate == pytest.approx(LOG2, abs=1e-6)
    full = ms_entropy(an, 10, estimator="fekete-min")
    assert full.estimate >= restricted.estimate - 1e-9
    report(
        10,
        f"restricted estimate {restricted.estimate:.9f} = log 2 +/- 1e-6; "
        f"full-map estimate {full.estimate:.6f} >= restricted",
    )


def test_criterion_11a_openset_algebra_vs_grid_oracle():
    rng = np.random.RandomState(42)
    xs = np.linspace(-0.05, 1.05, 557)
    for _ in range(10_000):
        a = _random_union(rng)
        b = _random_union(rng)
        w = a.intersect(b)
        np.testing.assert_array_equal(
            w.contains_many(xs), a.contains_many(xs) & b.contains_many(xs)
        )
        assert w == b.intersect(a)
        for p, q in zip(w.parts, w.parts[1:]):
            assert p.hi < q.lo or (p.hi == q.lo and p.hi_open and q.lo_open)
    report("11a", "10^4 random interval unions: intersect matches the dense-grid oracle")


def _random_union(rng) -> OpenSet:
    k = rng.randint(0, 4)
    parts = []
    for _ in range(k):
        lo = rng.uniform(0, 1)
        hi = lo + rng.uniform(1e-3, 0.5)
        parts.append((lo, min(hi, 1.0 + 1e-9)))
    return OpenSet.of(*parts)


def test_criterion_11b_aleph_bounds_on_random_covers():
    rng = np.random.RandomState(1234)
    tent = catalog_get("tent").map
    checked = 0
    for _ in range(1000):
        c = _random_cover(rng)
        d = _finer_cover(rng, c)
        a_c = minimal_subcover_cardinality(c, X)
        a_d = minimal_subcover_cardinality(d, X)
        assert a_c <= a_d  # (a) refinement monotonicity
        sup = Cover(c.elements + d.elements)
        assert minimal_subcover_cardinality(sup, X) <= a_c  # (b) sub-collection
        e = _random_cover(rng)
        a_e = minimal_subcover_cardinality(e, X)
        assert minimal_subcover_cardinality(vee([c, e]), X) <= a_c * a_e  # (c) product
        checked += 1
        if checked % 4 == 0:  # (d) pullback on the invariant full domain
            j = int(rng.randint(1, 3))
            pb = pullback_cover(tent, c, j)
            assert minimal_subcover_cardinality(pb, X, delta_n(tent, j)) <= a_c
    report("11b", "minimal-cardinality bounds (a)-(d) on 10^3 random interval covers")


def _random_cover(rng) -> Cover:
    k = rng.randint(2, 7)
    cuts = np.sort(rng.uniform(0.05, 0.95, size=k - 1))
    bounds = np.concatenate([[0.0], cuts, [1.0]])
    elements = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        elements.append(OpenSet.of((lo - rng.uniform(0.01, 0.2), hi + rng.uniform(0.01, 0.2))))
    return domainify_cover(Cover(tuple(elements)), Interval.closed(0.0, 1.0))


def _finer_cover(rng, cover: Cover) -> Cover:
    out = []
    for el in cover.elements:
        p = el.parts[0]
        mid = p.lo + p.diameter * rng.uniform(0.3, 0.7)
        pad = 0.05 * p.diameter
        out.append(OpenSet((Interval(p.lo, mid + pad, p.lo_open, True),)))
        out.append(OpenSet((Interval(mid - pad, p.hi, True, p.hi_open),)))
    return Cover(tuple(out))


def test_criterion_11c_refinement_subadditivity_on_tent():
    tent = catalog_get("tent").map
    counts = {}
    for n, refined in enumerate(refinement_steps(tent, natural_cover(tent), 12), start=1):
        counts[n] = minimal_subcover_cardinality(refined, X, delta_n(tent, n))
    for n in range(1, 7):
        for k in range(1, 7):
            assert math.log(counts[n + k]) <= math.log(counts[n]) + math.log(counts[k]) + 1e-9
    halves = Cover((OpenSet.of((0.0, 0.55)), OpenSet.of((0.45, 1.0))))
    halves = domainify_cover(halves, tent.domain)
    hcounts = {}
    for n, refined in enumerate(refinement_steps(tent, halves, 6), start=1):
        hcounts[n] = minimal_subcover_cardinality(refined, X, delta_n(tent, n))
    for n in range(1, 4):
        for k in range(1, 4):
            assert math.log(hcounts[n + k]) <= math.log(hcounts[n]) + math.log(hcounts[k]) + 1e-9
    report("11c", "log-aleph subadditive for the natural cover (n,k <= 6) and halves (n,k <= 3)")


def test_criterion_11d_submultiplicativity_across_catalog():
    from pcentropy.errors import ResourceCapExceeded

    reached = {}
    for name in catalog_names():
        m = catalog_get(name).map
        counts = {}
        for n in range(1, 13):
            try:
                counts[n] = count_pieces(m, n)
            except ResourceCapExceeded:
                break  # mod5 tops out at n=9 under the default point cap
        reached[name] = max(counts)
        assert reached[name] >= 8, name
        for n in counts:
            for k in counts:
                if n + k in counts:
                    assert counts[n + k] <= counts[n] * counts[k], (name, n, k)
    depth = ", ".join(f"{k}<= {v}" for k, v in reached.items() if v < 12)
    report("11d", f"c_n submultiplicative across the catalog, n+m <= 12 (cap-limited: {depth})")
