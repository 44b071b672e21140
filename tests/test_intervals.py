import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcentropy.intervals import (
    Interval,
    OpenSet,
    PointSet,
    RegionSet,
    components_of_complement,
    dedupe_sorted,
)
from reference import dedupe_reference


def grid_membership(oset: OpenSet, xs: np.ndarray) -> np.ndarray:
    """Dense-grid membership oracle, independent of the sweep algorithms."""
    out = np.zeros(len(xs), dtype=bool)
    for p in oset.parts:
        for i, x in enumerate(xs):
            if p.lo < x < p.hi or (x == p.lo and not p.lo_open) or (x == p.hi and not p.hi_open):
                out[i] = True
    return out


class TestInterval:
    def test_rejects_inverted(self):
        with pytest.raises(ValueError):
            Interval(1.0, 0.0)

    @pytest.mark.parametrize("lo, hi", [(0.0, float("nan")), (float("nan"), 1.0), (float("nan"), float("nan"))])
    def test_rejects_nan_end(self, lo, hi):
        # NaN fails lo <= hi too; it is refused first, under its own name
        with pytest.raises(ValueError, match="^interval end is NaN: lo="):
            Interval(lo, hi)

    def test_rejects_degenerate_open(self):
        with pytest.raises(ValueError):
            Interval.open(0.5, 0.5)

    def test_point_marker_allowed(self):
        assert Interval.point(0.5).is_point()

    def test_intersect_flags(self):
        a = Interval(0.0, 1.0, False, True)  # [0, 1)
        b = Interval(0.0, 0.5, True, False)  # (0, 0.5]
        w = a.intersect(b)
        assert (w.lo, w.hi, w.lo_open, w.hi_open) == (0.0, 0.5, True, False)

    def test_disjoint_intersect(self):
        assert Interval.open(0.0, 0.3).intersect(Interval.open(0.3, 1.0)) is None
        # shared endpoint with one side closed is still a single point: empty open overlap
        assert Interval.open(0.0, 0.3).intersect(Interval(0.3, 1.0, False, True)) is None


class TestComponentsOfComplement:
    def test_no_cuts(self):
        comps = components_of_complement(Interval.closed(0, 1), PointSet.empty())
        assert len(comps) == 1

    def test_one_interior_cut(self):
        comps = components_of_complement(Interval.closed(0, 1), PointSet.of([0.5]))
        assert [(c.lo, c.hi) for c in comps] == [(0, 0.5), (0.5, 1)]

    def test_three_cuts(self):
        comps = components_of_complement(Interval.closed(0, 1), PointSet.of([0.25, 0.5, 0.75]))
        assert len(comps) == 4

    def test_boundary_cuts_do_not_add_components(self):
        comps = components_of_complement(Interval.closed(0, 1), PointSet.of([0.0, 0.5, 1.0]))
        assert len(comps) == 2
        assert comps[0].lo_open and comps[-1].hi_open

    def test_cut_outside_domain(self):
        with pytest.raises(ValueError):
            components_of_complement(Interval.closed(0, 1), PointSet.of([2.0]))

    def test_count_rule_random(self):
        rng = np.random.RandomState(7)
        for _ in range(200):
            cuts = PointSet.of(rng.uniform(-0.2, 1.2, size=rng.randint(0, 9)))
            cuts = PointSet.of([c for c in cuts if 0 <= c <= 1])
            comps = components_of_complement(Interval.closed(0, 1), cuts)
            interior = sum(1 for c in cuts if 1e-12 < c < 1 - 1e-12)
            assert len(comps) == interior + 1


class TestOpenSet:
    def test_intersect_simple_overlap(self):
        w = OpenSet.of((0.0, 0.6)).intersect(OpenSet.of((0.4, 1.0)))
        assert w == OpenSet.of((0.4, 0.6))

    def test_intersect_disjoint(self):
        assert OpenSet.of((0.0, 0.3)).intersect(OpenSet.of((0.5, 1.0))).is_empty()

    def test_intersect_union_case(self):
        # endpoint-sweep oracle: [.4,.5) from the first part, (.6,.7) from the second
        a = OpenSet.of((0.0, 0.5), (0.6, 1.0))
        b = OpenSet.of((0.4, 0.7))
        assert a.intersect(b) == OpenSet.of((0.4, 0.5), (0.6, 0.7))

    def test_subtract_interior_point(self):
        assert OpenSet.of((0.0, 1.0)).subtract_points([0.5]) == OpenSet.of((0.0, 0.5), (0.5, 1.0))

    def test_subtract_point_outside(self):
        assert OpenSet.of((0.0, 1.0)).subtract_points([2.0]) == OpenSet.of((0.0, 1.0))

    def test_subtract_boundary_point_is_noop(self):
        # 0.5 is not interior to (0, 0.5); 0.25 splits it
        assert OpenSet.of((0.0, 0.5)).subtract_points([0.25, 0.5]) == OpenSet.of((0.0, 0.25), (0.25, 0.5))

    def test_subtract_closed_endpoint(self):
        half_open = OpenSet((Interval(0.0, 0.5, False, True),))
        assert half_open.subtract_points([0.0]) == OpenSet.of((0.0, 0.5))

    def test_overlapping_parts_merge(self):
        assert OpenSet.of((0.0, 0.6), (0.4, 1.0)) == OpenSet.of((0.0, 1.0))

    def test_adjacent_open_parts_stay_separate(self):
        assert len(OpenSet.of((0.0, 0.5), (0.5, 1.0)).parts) == 2

    def test_adjacent_merge_when_junction_included(self):
        merged = OpenSet((Interval(0.0, 0.5, True, False), Interval(0.5, 1.0, True, True)))
        assert merged.parts == (Interval(0.0, 1.0, True, True),)

    def test_diameter_spans_gaps(self):
        assert OpenSet.of((0.0, 0.1), (0.9, 1.0)).diameter == pytest.approx(1.0)


union_strategy = st.lists(
    st.tuples(st.floats(0, 1, width=32), st.floats(0, 1, width=32)).map(
        lambda ab: (min(ab), max(ab))
    ).filter(lambda ab: ab[1] - ab[0] > 1e-4),
    min_size=0,
    max_size=4,
).map(lambda bs: OpenSet.of(*bs))


@settings(max_examples=200, deadline=None)
@given(union_strategy, union_strategy)
def test_intersect_commutes_and_matches_grid_oracle(a, b):
    xs = np.linspace(-0.1, 1.1, 601)
    left = a.intersect(b)
    assert left == b.intersect(a)
    np.testing.assert_array_equal(
        grid_membership(left, xs), grid_membership(a, xs) & grid_membership(b, xs)
    )


@settings(max_examples=100, deadline=None)
@given(union_strategy, union_strategy, union_strategy)
def test_intersect_associative_and_idempotent(a, b, c):
    assert a.intersect(a) == a
    assert a.intersect(b).intersect(c) == a.intersect(b.intersect(c))


@settings(max_examples=200, deadline=None)
@given(union_strategy)
def test_canonical_invariants(a):
    parts = a.parts
    for p, q in zip(parts, parts[1:]):
        assert p.lo <= p.hi and q.lo <= q.hi
        # disjoint, sorted, and not mergeable
        assert p.hi < q.lo or (p.hi == q.lo and p.hi_open and q.lo_open)


class TestPointSet:
    def test_sorted_and_merged(self):
        ps = PointSet.of([0.3, 0.1, 0.1 + 1e-15, 0.2], tol=1e-12)
        assert len(ps) == 3
        assert list(ps) == sorted(ps)

    def test_contains_with_tolerance(self):
        ps = PointSet.of([0.5], tol=1e-9)
        assert ps.contains(0.5 + 1e-10)
        assert not ps.contains(0.5 + 1e-6)


class TestRegionSet:
    def test_merges_touching_closed_parts(self):
        assert len(RegionSet.of((0.0, 0.5), (0.5, 1.0)).parts) == 1

    def test_contains(self):
        r = RegionSet.of((0.0, 0.25), (0.75, 1.0))
        assert r.contains(0.1) and r.contains(0.75) and not r.contains(0.5)


# gaps in units of tol = 1: exact ties, gaps just at tol, and chains of
# adjacent sub-tol gaps all occur often
_GAPS = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.25, 2.0, 3.0]), st.floats(0.0, 3.0))


class TestDedupeSorted:
    @settings(max_examples=300, deadline=None)
    @given(
        start=st.floats(-10.0, 10.0),
        steps=st.lists(st.tuples(_GAPS, st.integers(0, 3)), max_size=40),
    )
    def test_matches_scalar_reference(self, start, steps):
        xs = start + np.cumsum([0.0] + [g for g, _ in steps])
        rank = np.array([0] + [r for _, r in steps], dtype=np.int64)
        keep_ref, _ = dedupe_reference(xs, 1.0, rank)
        assert np.array_equal(dedupe_sorted(xs, 1.0), keep_ref)

    def test_chain_keeps_every_point_past_tol_from_the_last_kept(self):
        xs = np.array([0.0, 0.6, 1.2, 1.8, 2.4])
        assert dedupe_sorted(xs, 1.0).tolist() == [True, False, True, False, True]

    def test_provenance_smallest_rank_then_first(self):
        xs = np.array([0.0, 0.0, 0.5, 0.5, 5.0])
        assert dedupe_sorted(xs, 1.0).tolist() == [True, False, False, False, True]

    def test_empty_and_single(self):
        assert dedupe_sorted(np.empty(0), 1e-12).tolist() == []
        assert dedupe_sorted(np.array([0.3]), 1e-12).tolist() == [True]


@settings(max_examples=200, deadline=None)
@given(
    points=st.lists(st.floats(0.0, 1.0), max_size=20),
    probes=st.lists(st.one_of(st.floats(-0.1, 1.1), st.sampled_from([0.0, 1.0, 1e-12, 1 - 1e-12])), max_size=20),
    tol=st.sampled_from([0.0, 1e-12, 0.05]),
)
def test_contains_many_matches_contains(points, probes, tol):
    ps = PointSet.of(points, tol=tol)
    xs = np.asarray(probes, dtype=float)
    assert ps.contains_many(xs).tolist() == [ps.contains(x) for x in probes]


@settings(max_examples=300, deadline=None)
@given(
    points=st.lists(st.floats(0.0, 1.0), max_size=20),
    tol=st.sampled_from([0.0, 1e-12, 0.05]),
    data=st.data(),
)
def test_index_near_matches_brute_force(points, tol, data):
    ps = PointSet.of(points, tol=tol)
    pts = ps.points
    # points at exactly +-tol, the points themselves, and midpoints of
    # neighbours, which lie within tol of both when their gap is below 2 tol
    special = [p + s * tol for p in pts for s in (-1, 0, 1)]
    special += [0.5 * (a + b) for a, b in zip(pts, pts[1:])]
    probe = st.floats(-0.1, 1.1)
    if special:
        probe = st.one_of(probe, st.sampled_from(special))
    probes = data.draw(st.lists(probe, max_size=20))
    for x in probes:
        # PointSet.of keeps neighbours more than tol apart, so the first point
        # within tol is the left one of any two within tol
        ref = next((j for j, p in enumerate(pts) if abs(p - x) <= tol), None)
        assert ps.index_near(x) == ref, (x, ref)
        assert ps.contains(x) == (ref is not None)


def test_index_near_left_wins():
    assert PointSet.of([0.0, 0.15], tol=0.1).index_near(0.075) == 0
    assert PointSet.of([0.0, 0.15], tol=0.1).index_near(0.15 + 0.1) == 1
    assert PointSet.of([0.0, 0.15], tol=0.1).index_near(0.4) is None
    assert PointSet.empty().index_near(0.0) is None


# ends on a quarter grid, so parts touch, overlap and share ends often
@st.composite
def quarter_intervals(draw):
    lo = draw(st.integers(0, 8)) / 4
    hi = lo + draw(st.integers(0, 4)) / 4
    if lo == hi:
        return Interval.point(lo)
    return Interval(lo, hi, draw(st.booleans()), draw(st.booleans()))


def end_probes(parts, tol: float, extra) -> np.ndarray:
    """Part ends, the ends moved by tol and by one ulp either way, and midpoints."""
    ends = np.array([x for p in parts for x in (p.lo, p.hi)], dtype=float)
    moved = np.concatenate([ends - tol, ends + tol])
    around = np.concatenate([ends, moved])
    mids = [0.5 * (p.lo + p.hi) for p in parts]
    return np.concatenate([
        around, np.nextafter(around, -np.inf), np.nextafter(around, np.inf), mids, extra
    ])


@settings(max_examples=300, deadline=None)
@given(parts=st.lists(quarter_intervals(), max_size=6), extra=st.lists(st.floats(-0.5, 3.5), max_size=10))
def test_openset_contains_many_matches_contains(parts, extra):
    oset = OpenSet(tuple(parts))
    xs = end_probes(parts, 0.0, extra)
    assert oset.contains_many(xs).tolist() == [oset.contains(float(x)) for x in xs]


@settings(max_examples=300, deadline=None)
@given(
    parts=st.lists(quarter_intervals(), max_size=6),
    tol=st.sampled_from([0.0, 1e-12, 1e-9, 0.125]),
    extra=st.lists(st.floats(-0.5, 3.5), max_size=10),
)
def test_regionset_contains_many_matches_contains(parts, tol, extra):
    region = RegionSet(tuple(parts))
    xs = end_probes(parts, tol, extra)
    assert region.contains_many(xs, tol).tolist() == [region.contains(float(x), tol) for x in xs]
