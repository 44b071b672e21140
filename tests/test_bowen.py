import ast
import contextlib
import io
import math
import weakref
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcentropy import bowen, cli
from pcentropy.bowen import (
    _avoid_mask,
    _close_pairs,
    bowen_entropy,
    max_separated,
    min_spanning,
    rho_n,
    sample_region,
)
from pcentropy.catalog import get as catalog_get
from pcentropy.catalog import names as catalog_names
from pcentropy.errors import EmptySampleError, NotACoverError, NotSeparatedError
from pcentropy.intervals import RegionSet
from pcentropy.maps import evaluate_orbit
from pcentropy.symbolic import count_pieces, delta_n, delta_table
from pcentropy.transforms import PlHomeo, conjugate_map
from reference import (
    greedy_spanning_reference,
    orbit_avoids_delta,
    sample_region_scalar,
    verify_separated_scalar,
)

X = RegionSet.of((0.0, 1.0))


@pytest.fixture(scope="module")
def tent_sample(tent):
    return sample_region(tent, X, grid=1025, horizon=8)


class TestRhoN:
    def test_zero_on_diagonal(self, tent):
        assert rho_n(tent, 0.3, 0.3, 5) == 0.0

    def test_n_one_is_distance(self, tent):
        assert rho_n(tent, 0.1, 0.2, 1) == pytest.approx(0.1)

    def test_orbit_expansion(self, tent):
        assert rho_n(tent, 0.1, 0.2, 2) == pytest.approx(0.2)

    def test_dominates_base_distance_and_monotone(self, tent, tent_sample):
        pts = list(tent_sample.points)[::97]
        for x in pts:
            for y in pts:
                base = abs(x - y)
                prev = 0.0
                for n in (1, 2, 4, 8):
                    r = rho_n(tent, x, y, n)
                    assert r >= base - 1e-15
                    assert r >= prev - 1e-15
                    prev = r

    def test_metric_axioms_on_sampled_triples(self, tent, tent_sample):
        pts = list(tent_sample.points)[::211]
        for x in pts:
            for y in pts:
                rxy = rho_n(tent, x, y, 4)
                assert rxy == pytest.approx(rho_n(tent, y, x, 4), abs=1e-12)
                if x != y:
                    assert rxy > 0
                for z in pts[::3]:
                    assert rxy <= rho_n(tent, x, z, 4) + rho_n(tent, z, y, 4) + 1e-12


class TestSampleRegion:
    def test_identity_unchanged(self, identity):
        s = sample_region(identity, X, grid=11, horizon=3)
        assert len(s.points) == 11
        assert list(s.points) == pytest.approx(list(np.linspace(0, 1, 11)))

    def test_tent_peak_handled(self, tent):
        s = sample_region(tent, X, grid=5, horizon=1)
        assert not any(abs(p - 0.5) <= tent.tol for p in s.points)

    def test_empty_sample(self, tent):
        with pytest.raises(EmptySampleError):
            sample_region(tent, RegionSet.of((0.5, 0.5)), grid=2, horizon=1)

    def test_all_points_avoid_cuts(self, tent, tent_sample):
        for p in list(tent_sample.points)[::53]:
            assert orbit_avoids_delta(tent, p, tent_sample.horizon)

    def test_density_recorded(self, tent_sample):
        assert 0 < tent_sample.density < 0.01


class TestSeparated:
    def test_identity_packing_oracle(self, identity):
        # 1-d packing: floor(1/eps) + 1 points at spacing eps
        s = sample_region(identity, X, grid=11, horizon=1)
        assert max_separated(identity, s, 1, 0.5) == 3

    def test_eps_beyond_diameter(self, tent, tent_sample):
        assert max_separated(tent, tent_sample, 3, 1.5) == 1

    def test_regression_tent(self, tent):
        # frozen deterministic greedy value
        s = sample_region(tent, X, grid=4097, horizon=6)
        assert max_separated(tent, s, 6, 0.05) == 529
        assert [max_separated(tent, s, n, 0.05) for n in range(1, 7)] == [20, 39, 76, 148, 288, 529]

    def test_monotone_in_eps(self, tent, tent_sample):
        for n in (2, 5, 8):
            vals = [max_separated(tent, tent_sample, n, eps) for eps in (0.2, 0.1, 0.05, 0.02)]
            assert vals == sorted(vals)

    def test_monotone_in_n(self, tent, tent_sample):
        vals = [max_separated(tent, tent_sample, n, 0.05) for n in range(1, 9)]
        assert vals == sorted(vals)


class TestSpanning:
    def test_identity_covering_oracle(self, identity):
        # grid without an exact eps multiple: ceil(1/(2*eps - delta)) balls
        s = sample_region(identity, X, grid=12, horizon=1)
        assert min_spanning(identity, s, 1, 0.5) == 2

    def test_eps_beyond_diameter(self, tent, tent_sample):
        assert min_spanning(tent, tent_sample, 4, 1.5) == 1

    def test_monotone_in_eps(self, tent, tent_sample):
        for n in (2, 5, 8):
            vals = [min_spanning(tent, tent_sample, n, eps) for eps in (0.2, 0.1, 0.05, 0.02)]
            assert vals == sorted(vals)

    def test_sandwich(self, tent, tent_sample):
        for n in (2, 4, 6, 8):
            for eps in (0.1, 0.05, 0.02):
                r = min_spanning(tent, tent_sample, n, eps)
                s = max_separated(tent, tent_sample, n, eps)
                r_half = min_spanning(tent, tent_sample, n, eps / 2)
                assert r <= s <= r_half


class TestBowenEntropy:
    def test_identity_zero(self, identity):
        sep, span = bowen_entropy(identity, X, [2, 4, 6, 8], [0.1, 0.05], grid=513)
        assert abs(sep.estimate) <= 0.05
        assert abs(span.estimate) <= 0.05

    def test_tent_desk_scale(self, tent):
        # grid and schedule matched so the finest eps still resolves: the full
        # 8193-point configuration is exercised by the acceptance suite
        sep, span = bowen_entropy(tent, X, list(range(4, 11)), [0.1, 0.05], grid=2049)
        assert abs(sep.estimate - math.log(2)) <= 0.15 * math.log(2)
        # each cell's separated set is its certified cover
        assert span.records == sep.records
        assert (span.estimate, span.estimates) == (sep.estimate, sep.estimates)

    def test_contraction_trends_to_zero(self):
        pw = catalog_get("pw-contraction").map
        sep, span = bowen_entropy(pw, X, [4, 6, 8, 10], [0.05, 0.02, 0.01], grid=1025)
        assert sep.estimate <= 0.1
        assert span.estimate <= 0.1

    def test_constant_series_has_slope_zero(self, identity):
        # the identity's counts do not grow with n, and polyfit alone would
        # leave a round-off slope of about 4e-16 on them
        sep, span = bowen_entropy(identity, X, [2, 3], [0.1], grid=257)
        assert len({r.value for r in sep.records}) == 1
        assert sep.estimate == span.estimate == 0.0
        assert bowen._lsq_slope([(2, 2.5), (3, 2.5), (5, 2.5)]) == 0.0

    def test_records_carry_eps(self, identity):
        sep, _ = bowen_entropy(identity, X, [2, 4, 6, 8], [0.1, 0.05], grid=257)
        assert {r.aux for r in sep.records} == {0.1, 0.05}

    def test_coarse_flagging(self, identity):
        sep, _ = bowen_entropy(identity, X, [2, 3, 4, 5], [0.01, 0.005], grid=65)
        assert all("coarse" in (r.flag or "") for r in sep.records if r.aux == 0.005)

    def test_schedule_must_decrease(self, identity):
        with pytest.raises(ValueError):
            bowen_entropy(identity, X, [2, 3, 4, 5], [0.01, 0.05], grid=65)

    def test_one_n_cannot_fit_a_slope(self, identity):
        with pytest.raises(ValueError, match="at least two values"):
            bowen_entropy(identity, X, [5], [0.05], grid=65)

    def test_metric_transform_is_order_preserving(self, tent, tent_sample):
        phi = PlHomeo(((0.0, 0.0), (0.35, 0.55), (1.0, 1.0)))
        for n in (3, 6):
            s_plain = max_separated(tent, tent_sample, n, 0.05)
            s_metric = max_separated(tent, tent_sample, n, 0.05, metric=phi)
            assert s_metric > 0 and abs(math.log(s_metric / s_plain)) < 1.0


WALKER_MAPS = {name: catalog_get(name).map for name in ("tent", "lorenz-full", "anzie", "mod3")}


@settings(max_examples=150, deadline=None)
@given(
    name=st.sampled_from(sorted(WALKER_MAPS)),
    horizon=st.integers(1, 12),
    data=st.data(),
)
def test_avoid_mask_matches_scalar_walker(name, horizon, data):
    pcmap = WALKER_MAPS[name]
    point = st.one_of(
        st.floats(0.0, 1.0),
        st.integers(1, 12).flatmap(lambda e: st.integers(0, 2**e).map(lambda k: k / 2**e)),  # dyadic grid
        # the cut points and their preimages: orbits that meet the cut set
        # at every step up to the last one checked
        st.sampled_from(delta_n(pcmap, horizon).points),
    )
    xs = np.asarray(data.draw(st.lists(point, min_size=1, max_size=30)), dtype=float)
    mask = _avoid_mask(pcmap, xs, horizon)
    assert mask.tolist() == [orbit_avoids_delta(pcmap, float(x), horizon) for x in xs]


@pytest.mark.parametrize("name", [*catalog_names(), "tent-conjugate"])
def test_orbit_matrix_rows_are_the_scalar_orbits(name):
    # the sample's orbit table against the scalar walk; lorenz-full differs
    # in round-off only, where the walk snaps a point within tol of 0
    if name == "tent-conjugate":
        pcmap = conjugate_map(catalog_get("tent").map, PlHomeo(((0.0, 0.0), (0.35, 0.55), (1.0, 1.0))))
    else:
        pcmap = catalog_get(name).map
    sample = sample_region(pcmap, RegionSet.of((pcmap.domain.lo, pcmap.domain.hi)), grid=1025, horizon=10)
    O = bowen.orbit_matrix(pcmap, sample)
    assert O.shape == (len(sample.points), 10)
    for x, row in zip(sample.points, O):
        assert np.abs(row - evaluate_orbit(pcmap, x, 10)).max() <= pcmap.tol, (name, x)


NUDGE_CASES = [
    *((name, grid, horizon) for name in sorted(WALKER_MAPS) for grid, horizon in ((8193, 12), (4097, 10), (257, 4))),
    # later offset rounds: anzie places points at h/2, -h/2, h/4 and h/8, tent
    # only at h/16, and at horizon 13 tent excises every interior grid point
    ("anzie", 1025, 15),
    ("tent", 257, 11),
    ("tent", 257, 13),
]


@pytest.mark.parametrize("name, grid, horizon", NUDGE_CASES)
def test_batched_nudging_matches_per_point_loop(name, grid, horizon):
    pcmap = WALKER_MAPS[name]
    fast = sample_region(pcmap, X, grid, horizon)
    ref = sample_region_scalar(pcmap, X, grid, horizon)
    assert np.array_equal(fast.points.points, ref.points.points)
    assert fast.density == ref.density


def test_batched_nudging_on_a_split_region():
    tent = WALKER_MAPS["tent"]
    region = RegionSet.of((0.0, 0.3), (0.5, 0.9))
    assert sample_region(tent, region, 1025, 8) == sample_region_scalar(tent, region, 1025, 8)


def _certificate_rows(data, h, quarter_steps):
    """A random matrix of h columns sorted by first coordinate, and its eps."""
    m = data.draw(st.integers(1, 40))
    if quarter_steps:
        # multiples of 1/4 make gaps of exactly eps and tied coordinates common
        value = st.integers(0, 12).map(lambda k: k / 4)
        eps = data.draw(st.sampled_from([0.25, 0.5, 0.75, 1.0]))
    else:
        value = st.floats(0.0, 1.0)
        eps = data.draw(st.floats(0.01, 0.5))
    M = np.asarray(data.draw(st.lists(st.lists(value, min_size=h, max_size=h), min_size=m, max_size=m)))
    return M[np.argsort(M[:, 0], kind="stable")], eps


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(1, 4), quarter_steps=st.booleans())
def test_vectorized_separated_certificate_matches_scalar(data, n, quarter_steps):
    # the one-depth case of the sweep certificate
    M, eps = _certificate_rows(data, n, quarter_steps)
    idx = sorted(data.draw(st.sets(st.integers(0, len(M) - 1))))
    pair = _close_pairs(M, {n: idx}, eps)[n]
    assert (pair is None) == verify_separated_scalar(M, idx, eps)
    if pair is not None:
        a, b = pair
        assert a != b and a in idx and b in idx
        assert np.abs(M[a] - M[b]).max() < eps


@settings(max_examples=300, deadline=None)
@given(data=st.data(), h=st.integers(1, 6), quarter_steps=st.booleans())
def test_sweep_certificate_matches_scalar_at_every_depth(data, h, quarter_steps):
    """One pass over the union of a sweep's sets certifies each depth n as the
    scalar check of its own set on the first n columns does."""
    M, eps = _certificate_rows(data, h, quarter_steps)
    ns = sorted(data.draw(st.sets(st.integers(1, h), min_size=1)))
    sets = {n: sorted(data.draw(st.sets(st.integers(0, len(M) - 1)))) for n in ns}
    found = _close_pairs(M, sets, eps)
    assert list(found) == ns
    for n, pair in found.items():
        assert (pair is None) == verify_separated_scalar(M[:, :n], sets[n], eps)
        if pair is not None:
            a, b = pair
            assert a != b and a in sets[n] and b in sets[n]
            assert np.abs(M[a, :n] - M[b, :n]).max() < eps


def _matches_reference(swept_n, reference):
    """The greedy's ``(admitted, witness)`` intp arrays hold the reference's lists."""
    admitted, witness = swept_n
    assert admitted.dtype == witness.dtype == np.intp
    return (admitted.tolist(), witness.tolist()) == reference


@settings(max_examples=300, deadline=None)
@given(data=st.data(), h=st.integers(1, 5), steps=st.sampled_from([None, 4, 10]), long_range=st.booleans())
def test_greedy_witnesses_match_the_spanning_sweep(data, h, steps, long_range):
    """One scan over 1 to 4 eps, each with its own depths, gives at each eps
    and depth n the per-depth sweep of the first n columns.  The first eps
    sweeps the depths n0 .. h, and a long range sweeps 9 to 20 depths, so its
    claim slots are 2 or 3 bytes wide."""
    if long_range:
        h = data.draw(st.integers(9, 20))
    m = data.draw(st.integers(1, 40))
    if steps:
        # gaps of exactly eps on quarter steps; on tenths, gaps that round
        # to either side of eps.  1 and 1.5 steps have equal windows, and
        # 0.3 steps a window 10x narrower than 3 or 4 steps
        value = st.integers(0, 12).map(lambda k: k / steps)
        eps_pool = [q / steps for q in (1, 1.5, 2, 3, 4, 0.3)]
    else:
        # a base eps, one that almost always has the same windows, and eps
        # 10x and 20x smaller
        value = st.floats(0.0, 1.0)
        base = data.draw(st.floats(0.01, 0.5))
        eps_pool = [base, base * 1.0001, base / 10, base / 20]
    eps_list = data.draw(st.lists(st.sampled_from(eps_pool), min_size=1, max_size=4, unique=True))
    M = np.asarray(data.draw(st.lists(st.lists(value, min_size=h, max_size=h), min_size=m, max_size=m)))
    M = M[np.argsort(M[:, 0], kind="stable")]
    n0 = data.draw(st.integers(1, h - 8 if long_range else h))
    wanted = {eps_list[0]: list(range(n0, h + 1))}
    for eps in eps_list[1:]:
        wanted[eps] = sorted(data.draw(st.sets(st.integers(1, h), min_size=1)))
    swept = bowen._greedy_separated_indices(M, wanted)
    assert list(swept) == eps_list
    for eps, by_n in swept.items():
        assert list(by_n) == wanted[eps]
        for n, (admitted, witness) in by_n.items():
            Mn = M[:, :n]
            assert _matches_reference((admitted, witness), greedy_spanning_reference(Mn, eps))
            assert set(witness) <= set(admitted)
            assert (np.abs(Mn - Mn[witness]).max(axis=1) < eps).all()
        assert set(_close_pairs(M, {n: admitted for n, (admitted, _) in by_n.items()}, eps).values()) == {None}


@pytest.mark.parametrize("name", ["tent", "lorenz-full"])
def test_greedy_matches_the_spanning_sweep_on_real_orbits(name):
    pcmap = catalog_get(name).map
    O = bowen.orbit_matrix(pcmap, sample_region(pcmap, X, grid=1025, horizon=8))
    swept = bowen._greedy_separated_indices(bowen._prepare(O, 8, None), {0.05: list(range(4, 9)), 0.02: [4, 8]})
    for eps in (0.05, 0.02):
        for n in (4, 8):
            assert _matches_reference(swept[eps][n], greedy_spanning_reference(bowen._prepare(O, n, None), eps))


@pytest.mark.parametrize("budget", [1, 1000])
def test_greedy_decode_chunks_give_the_same_sets(monkeypatch, budget):
    # at eps = 0.05, 20 depths make 3-byte claim slots, and a window here is
    # 27 rows, so a budget of 1 byte decodes every step on its own and 1000
    # bytes flush a chunk every 12 steps; eps = 0.02 sweeps 10 depths in
    # 2-byte slots over narrower windows, and keeps its own chunks
    pcmap = catalog_get("lorenz-full").map
    M = bowen._prepare(bowen.orbit_matrix(pcmap, sample_region(pcmap, X, grid=513, horizon=20)), 20, None)
    wanted = {0.05: list(range(1, 21)), 0.02: list(range(2, 21, 2))}
    whole = bowen._greedy_separated_indices(M, wanted)
    monkeypatch.setattr(bowen, "_DECODE_BYTES", budget)
    chunked = bowen._greedy_separated_indices(M, wanted)
    assert list(chunked) == list(whole) == [0.05, 0.02]
    for eps, by_n in chunked.items():
        assert list(by_n) == wanted[eps]
        for n, (admitted, witness) in by_n.items():
            assert np.array_equal(admitted, whole[eps][n][0]) and np.array_equal(witness, whole[eps][n][1])
        for n in (wanted[eps][0], 10, 20):
            assert _matches_reference(by_n[n], greedy_spanning_reference(M[:, :n], eps))


def test_greedy_window_ends_at_the_rounded_sum():
    # 0.7 + 0.1 rounds down to the double 0.7999999999999999: the row there
    # is within eps and ends row 0's window, and the row at the next double,
    # 0.8, lies past the window, where 0.8 - 0.7 rounds to at least eps
    x, eps = 0.7, 0.1
    top = x + eps
    assert top < 0.8 and np.nextafter(top, 1.0) == 0.8 and 0.8 - x >= eps
    M = np.asarray([[x], [top], [0.8]])
    assert np.searchsorted(M[:, 0], top, side="right") == 2
    assert greedy_spanning_reference(M, eps) == ([0, 2], [0, 0, 2])
    assert _matches_reference(bowen._greedy_separated_indices(M, {eps: [1]})[eps][1], ([0, 2], [0, 0, 2]))


def test_greedy_window_matches_the_certificate_norm():
    # 1.0 - 0.1 rounds up to the double 0.9, yet 1.0 - 0.9 < 0.1: row 1
    # lies within eps of row 0 in the norm the certificates use, and row 0's
    # window, which ends at the double 0.9 + 0.1, holds it
    swept = bowen._greedy_separated_indices(np.asarray([[0.9], [1.0]]), {0.1: [1]})
    assert _matches_reference(swept[0.1][1], ([0], [0, 0]))
    identity = catalog_get("identity").map
    s = sample_region(identity, X, grid=11, horizon=1)
    # seven of the ten grid gaps round below 0.1
    assert max_separated(identity, s, 1, 0.1) == 8


@pytest.fixture
def fresh_cells(monkeypatch):
    """An empty orbit and cell cache, so no memoized cell hides a patched builder."""
    monkeypatch.setattr(bowen, "_ORBIT_CACHE", weakref.WeakKeyDictionary())


def _run_cell(entry, tent):
    sample = sample_region(tent, X, grid=513, horizon=4)
    if entry == "bowen_entropy":
        bowen_entropy(tent, X, [2, 3, 4], [0.1, 0.05], grid=513)
    elif entry == "max_separated":
        max_separated(tent, sample, 3, 0.05)
    else:
        min_spanning(tent, sample, 3, 0.05)


@pytest.mark.parametrize("entry", ["bowen_entropy", "max_separated", "min_spanning"])
def test_separated_certificate_raises(entry, tent, monkeypatch, fresh_cells):
    real = bowen._greedy_separated_indices

    def with_near_duplicate(M, wanted):
        # the grid neighbour of the first point joins every cell's set
        return {
            eps: {n: (np.sort(np.append(idx, idx[0] + 1)), witness) for n, (idx, witness) in by_n.items()}
            for eps, by_n in real(M, wanted).items()
        }

    monkeypatch.setattr(bowen, "_greedy_separated_indices", with_near_duplicate)
    with pytest.raises(NotSeparatedError) as info:
        _run_cell(entry, tent)
    assert len(info.value.witness) == 2


def test_separated_certificate_raises_at_the_first_failing_depth(tent, monkeypatch, fresh_cells):
    real = bowen._greedy_separated_indices
    corrupted = {}

    def with_inner_near_duplicate(M, wanted):
        # only depth 3 of the range 2..4 takes the grid neighbour of its first
        # point, at every eps of the one scan
        swept = real(M, wanted)
        for eps, by_n in swept.items():
            idx, witness = by_n[3]
            by_n[3] = corrupted[eps] = (np.sort(np.append(idx, idx[0] + 1)), witness)
        return swept

    monkeypatch.setattr(bowen, "_greedy_separated_indices", with_inner_near_duplicate)
    with pytest.raises(NotSeparatedError, match=r"at n=3, eps=0\.1:") as info:
        bowen_entropy(tent, X, [2, 3, 4], [0.1, 0.05], grid=513)
    a, b = info.value.witness
    assert a in corrupted[0.1][0] and b in corrupted[0.1][0]
    # the shallower depth of the first eps was certified and memoized first;
    # the failing one, the deeper one and every cell of the later eps were not
    ((pcmap, O, cells),) = bowen._ORBIT_CACHE.values()
    assert list(cells) == [(2, 0.1, None)]
    M3 = bowen._prepare(O, 3, None)
    assert np.abs(M3[a] - M3[b]).max() < 0.1


@pytest.mark.parametrize("entry", ["bowen_entropy", "max_separated", "min_spanning"])
def test_spanning_certificate_raises(entry, tent, monkeypatch, fresh_cells):
    real = bowen._greedy_separated_indices

    def without_first_center(M, wanted):
        # the first row is always admitted and is its own witness, so it is
        # left in no ball of the remaining rows
        return {
            eps: {n: (admitted[1:], witness) for n, (admitted, witness) in by_n.items()}
            for eps, by_n in real(M, wanted).items()
        }

    monkeypatch.setattr(bowen, "_greedy_separated_indices", without_first_center)
    with pytest.raises(NotACoverError) as info:
        _run_cell(entry, tent)
    assert info.value.witness == 0


def _record_sweeps(monkeypatch):
    """Patch the greedy to log each scan as ``{eps: depths}``."""
    sweeps = []
    real = bowen._greedy_separated_indices

    def recorded(M, wanted):
        sweeps.append({eps: list(ns) for eps, ns in wanted.items()})
        return real(M, wanted)

    monkeypatch.setattr(bowen, "_greedy_separated_indices", recorded)
    return sweeps


def test_cells_are_memoized_per_sample(tent, monkeypatch, fresh_cells):
    sweeps = _record_sweeps(monkeypatch)
    sample = sample_region(tent, X, grid=513, horizon=4)
    assert max_separated(tent, sample, 3, 0.05) == min_spanning(tent, sample, 3, 0.05)
    # a single cell sweeps its own depth only
    assert sweeps == [{0.05: [3]}]
    max_separated(tent, sample, 3, 0.1)
    max_separated(tent, sample, 2, 0.05)
    assert sweeps == [{0.05: [3]}, {0.1: [3]}, {0.05: [2]}]
    phi = PlHomeo(((0.0, 0.0), (0.35, 0.55), (1.0, 1.0)))
    assert max_separated(tent, sample, 3, 0.05, metric=phi) != max_separated(tent, sample, 3, 0.05)
    assert len(sweeps) == 4
    # another map on the same sample replaces the orbits and their cells
    max_separated(WALKER_MAPS["anzie"], sample, 3, 0.05)
    max_separated(tent, sample, 3, 0.05)
    assert len(sweeps) == 6
    # a series over an eps schedule and an n-range scans once per sample
    sweeps.clear()
    bowen_entropy(tent, X, [2, 3, 4], [0.1, 0.05], grid=257)
    assert sweeps == [{0.1: [2, 3, 4], 0.05: [2, 3, 4]}]
    # a scan takes only the cells asked for and not memoized yet: (3, 0.05)
    # is, since the anzie orbits were replaced
    sweeps.clear()
    assert bowen._cell(tent, sample, [2, 3, 4], 0.05) == [max_separated(tent, sample, n, 0.05) for n in (2, 3, 4)]
    assert bowen._cell(tent, sample, [1, 4], 0.2) == [max_separated(tent, sample, n, 0.2) for n in (1, 4)]
    assert sweeps == [{0.05: [2, 4]}, {0.2: [1, 4]}]
    # over a list of eps, each eps sweeps its own missing depths, an eps with
    # none is left out, and the counts come in the caller's eps order
    sweeps.clear()
    counts = bowen._cell(tent, sample, [2, 3, 4], [0.2, 0.05, 0.1])
    assert sweeps == [{0.2: [2, 3], 0.1: [2, 3, 4]}]
    assert counts == [[max_separated(tent, sample, n, eps) for n in (2, 3, 4)] for eps in (0.2, 0.05, 0.1)]
    assert bowen._cell(tent, sample, 4, [0.1, 0.2]) == [counts[2][2], counts[0][2]]
    assert len(sweeps) == 1
    # verify asks for all its eps and depths at once; its sample equals the
    # one bowen_entropy built above, so that sample's cells are dropped first
    bowen._ORBIT_CACHE.clear()
    sweeps.clear()
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["verify", "--catalog", "tent", "--n-max", "4"]) == 0
    assert sweeps == [{0.1: [2, 3, 4], 0.05: [2, 3, 4], 0.025: [2, 3, 4]}]


@pytest.mark.parametrize("name", catalog_names())
def test_depth_list_matches_single_depths(name, monkeypatch):
    # on verify's sample, a list call returns the single-depth counts, each
    # taken on an empty cache so that no memoized cell is shared
    f = catalog_get(name).map
    sample = sample_region(f, RegionSet.of((f.domain.lo, f.domain.hi)), grid=257, horizon=4)
    phi = PlHomeo(((0.0, 0.0), (0.35, 0.55), (1.0, 1.0)))
    for metric in (None, phi):
        for eps in (0.1, 0.05, 0.025):
            monkeypatch.setattr(bowen, "_ORBIT_CACHE", weakref.WeakKeyDictionary())
            single = [max_separated(f, sample, n, eps, metric) for n in (2, 3, 4)]
            assert all(type(c) is int for c in single)
            monkeypatch.setattr(bowen, "_ORBIT_CACHE", weakref.WeakKeyDictionary())
            assert max_separated(f, sample, [2, 3, 4], eps, metric) == single
            monkeypatch.setattr(bowen, "_ORBIT_CACHE", weakref.WeakKeyDictionary())
            assert min_spanning(f, sample, [2, 3, 4], eps, metric) == single


@pytest.mark.parametrize("ns", [[], [4, 2], [2, 2], [2, 4, 3]])
def test_depth_list_must_increase(ns, tent, fresh_cells):
    sample = sample_region(tent, X, grid=257, horizon=4)
    for call in (bowen._cell, max_separated, min_spanning):
        with pytest.raises(ValueError, match="depths must"):
            call(tent, sample, ns, 0.05)
    # nothing was swept or memoized
    assert not any(cells for _, _, cells in bowen._ORBIT_CACHE.values())


@pytest.mark.parametrize("name", catalog_names())
def test_eps_list_matches_single_cells(name, monkeypatch):
    # on verify's sample, a list call over every eps and depth returns the
    # single-cell counts, each taken on an empty cache
    f = catalog_get(name).map
    sample = sample_region(f, RegionSet.of((f.domain.lo, f.domain.hi)), grid=257, horizon=4)
    phi = PlHomeo(((0.0, 0.0), (0.35, 0.55), (1.0, 1.0)))
    eps_list, ns = [0.1, 0.05, 0.025], [2, 3, 4]
    for metric in (None, phi):
        single = []
        for eps in eps_list:
            row = []
            for n in ns:
                monkeypatch.setattr(bowen, "_ORBIT_CACHE", weakref.WeakKeyDictionary())
                row.append(max_separated(f, sample, n, eps, metric))
            single.append(row)
        for call in (max_separated, min_spanning):
            monkeypatch.setattr(bowen, "_ORBIT_CACHE", weakref.WeakKeyDictionary())
            assert call(f, sample, ns, eps_list, metric) == single
        monkeypatch.setattr(bowen, "_ORBIT_CACHE", weakref.WeakKeyDictionary())
        assert max_separated(f, sample, 3, eps_list, metric) == [row[1] for row in single]


@pytest.mark.parametrize("eps", [[], [0.05, 0.05], [0.05, 0.0], [0.0, 0.05], [0.05, -0.1], [0.05, math.nan]])
def test_eps_list_is_checked_before_any_work(eps, tent, monkeypatch, fresh_cells):
    sweeps = _record_sweeps(monkeypatch)
    sample = sample_region(tent, X, grid=257, horizon=4)
    for call in (bowen._cell, max_separated, min_spanning):
        for ns in (3, [2, 3]):
            with pytest.raises(ValueError, match="eps must"):
                call(tent, sample, ns, eps)
    # nothing was swept or memoized
    assert sweeps == []
    assert not any(cells for _, _, cells in bowen._ORBIT_CACHE.values())


@pytest.mark.parametrize(
    "schedule, message",
    [
        ([], "must not be empty"),
        ([0.05, 0], "eps must be positive"),
        ([0, 0.05], "eps must be positive"),
        ([0.05, -0.02], "eps must be positive"),
        ([0.05, math.nan], "eps must be positive"),
        ([0.05, 0.05], "eps must not repeat"),
        ([0.02, 0.05], "strictly decreasing"),
    ],
)
def test_eps_schedule_is_checked_before_sampling(schedule, message, tent, monkeypatch):
    # the sample is local to bowen_entropy, so its cache entry is gone after
    # the error: recording the calls is what shows no work was done
    sweeps = _record_sweeps(monkeypatch)
    sampled = []
    real_sample = bowen.sample_region
    monkeypatch.setattr(bowen, "sample_region", lambda *args, **kw: sampled.append(args) or real_sample(*args, **kw))
    with pytest.raises(ValueError, match=message):
        bowen_entropy(tent, X, [2, 3], schedule, grid=513)
    assert sampled == [] and sweeps == []


@pytest.mark.parametrize("name", catalog_names())
def test_separated_counts_stay_under_the_lap_bound(name):
    """s(n, eps) <= c_(n-1) + |Delta^(n-1)| + (|I| / eps) * sum_(k<n) c_k, with
    c_0 = 1 and the lap counts before removable junctions merge, as derived in
    ``max_separated``'s docstring; checked in exact arithmetic."""
    f = catalog_get(name).map
    sample = sample_region(f, RegionSet.of((f.domain.lo, f.domain.hi)), grid=4097, horizon=10)
    ns, eps_list = list(range(1, 11)), [0.05, 0.02, 0.01, 0.005]
    laps = [1] + [count_pieces(f, k, merge_removable=False) for k in range(1, 10)]
    assert all(type(c) is int for c in laps)
    length = Fraction(f.domain.hi) - Fraction(f.domain.lo)
    table = delta_table(f)
    for eps, counts in zip(eps_list, max_separated(f, sample, ns, eps_list)):
        for n, s in zip(ns, counts):
            bound = laps[n - 1] + table.delta_size(n - 1) + length / Fraction(eps) * sum(laps[:n])
            assert s <= bound, (n, eps, s, bound)


def test_no_assert_statements_in_package():
    # checks written as assert vanish under python -O
    package = Path(bowen.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
