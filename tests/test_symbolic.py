import gc
import itertools
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from pcentropy import symbolic
from pcentropy.catalog import GOLDEN_SPLIT, get as catalog_get, names as catalog_names
from pcentropy.errors import DomainError, ResourceCapExceeded, SubadditivityError
from pcentropy.estimators import submultiplicative_witness
from pcentropy.expr import parse_expression
from pcentropy.intervals import PointSet
from pcentropy.maps import (
    LEFT,
    RIGHT,
    branch_preimages,
    build_map,
    limit_step,
    parse_map,
)
from pcentropy.symbolic import (
    DeltaTable,
    count_pieces,
    delta_n,
    delta_table,
    full_branch_check,
    ms_entropy,
    preimage_set,
)
from pcentropy.transforms import PlHomeo, conjugate_map, iterate_map
from reference import connection_depth_reference, count_pieces_scalar, delta_reference

PHI = PlHomeo(((0.0, 0.0), (0.35, 0.55), (1.0, 1.0)))


class TestPreimageSet:
    def test_tent(self, tent):
        assert list(preimage_set(tent, PointSet.of([0.5]))) == pytest.approx([0.25, 0.75])

    def test_identity(self):
        ident = catalog_get("identity").map
        assert list(preimage_set(ident, PointSet.of([0.3]))) == [0.3]

    def test_doubling(self):
        m2 = catalog_get("mod2").map
        assert list(preimage_set(m2, PointSet.of([0.5]))) == pytest.approx([0.25, 0.75])

    def test_target_outside_the_domain(self, tent):
        with pytest.raises(DomainError, match=r"^target 1\.5 outside domain"):
            preimage_set(tent, PointSet.of([0.5, 1.5, 2.0]))

    def test_boundary_limit_counts(self):
        # 0 maps to 0.5 under the left branch of this contraction, so it is a
        # limit-preimage even though 0 is the domain endpoint
        pw = catalog_get("pw-contraction").map
        assert 0.0 in set(preimage_set(pw, PointSet.of([0.5])))


class TestDeltaN:
    def test_tent_level_two(self, tent):
        assert list(delta_n(tent, 2)) == pytest.approx([0.25, 0.5, 0.75])

    def test_n_zero_empty(self):
        for name in ("tent", "mod3", "identity"):
            assert len(delta_n(catalog_get(name).map, 0)) == 0

    def test_mod3_counts(self):
        m3 = catalog_get("mod3").map
        assert len(delta_n(m3, 2)) == 8  # 3^2 - 1

    def test_nested(self, tent):
        previous = set()
        for n in range(0, 8):
            current = set(delta_n(tent, n))
            assert previous <= current
            previous = current

    def test_points_are_a_read_only_view_of_the_table(self):
        m3 = catalog_get("mod3").map
        pts = delta_n(m3, 4).points
        assert pts.dtype == np.float64
        assert np.shares_memory(pts, delta_table(m3).cumulative[4][0])
        with pytest.raises(ValueError):
            pts[0] = 0.5
        assert not hasattr(PointSet, "array")

    def test_resource_cap(self):
        m3 = catalog_get("mod3").map
        with pytest.raises(ResourceCapExceeded) as exc:
            delta_n(m3, 12, cap=100)
        assert exc.value.completed >= 1


class TestCountPieces:
    def test_tent(self, tent):
        assert count_pieces(tent, 2) == 4

    def test_identity(self):
        ident = catalog_get("identity").map
        assert all(count_pieces(ident, n) == 1 for n in (1, 3, 7))

    def test_rotation_merge_rule(self):
        # the iterate of an interval exchange is again a two-interval exchange:
        # all junctions except the wrap point are removable
        iet = catalog_get("iet2-golden").map
        for n in range(1, 12):
            assert count_pieces(iet, n) == 2
            assert count_pieces(iet, n, merge_removable=False) == n + 1

    def test_rotation_bound(self):
        iet = catalog_get("iet2-golden").map
        for n in range(1, 12):
            assert count_pieces(iet, n) <= 2 + (n - 1) * 1

    def test_spurious_split_is_undone(self, tent):
        # same tent with the left branch split at 0.25 into two identical pieces:
        # the junction of every iterate at 0.25-preimages is removable there
        split = parse_map(
            "domain = [0, 1]\n"
            "piece (0, 0.25): 2*x inc\n"
            "piece (0.25, 0.5): 2*x inc\n"
            "piece (0.5, 1): 2 - 2*x dec\n"
        )
        for n in range(1, 7):
            assert count_pieces(split, n) == count_pieces(tent, n)

    def test_convention_independence(self):
        from pcentropy.covers import natural_cover, refine_n

        rows = [(0, 0.5, parse_expression("2*x"), True), (0.5, 1, parse_expression("2*x - 1"), True)]
        left = build_map((0, 1), rows, at_delta="left")
        right = build_map((0, 1), rows, at_delta="right")
        for n in range(1, 7):
            assert list(delta_n(left, n)) == list(delta_n(right, n))
            assert count_pieces(left, n) == count_pieces(right, n)
        for n in (1, 3, 5):
            assert set(refine_n(left, natural_cover(left), n).elements) == set(
                refine_n(right, natural_cover(right), n).elements
            )

    def test_jump_that_recoalesces_merges_at_depth_two(self):
        # f jumps at 0.5 (limits 0.4 and 0.7), but both limit orbits land on
        # 0.34 with matching direction, so the second iterate is continuous
        # there; the junction at 0.75 recoalesces in value too (0.175 both
        # sides) yet the directions differ, so it must stay a turning point
        m = parse_map(
            "domain = [0, 1]\n"
            "piece (0, 0.5): 0.1 + 0.6*x inc\n"
            "piece (0.5, 0.75): 1.6 - 1.8*x dec\n"
            "piece (0.75, 1): x - 0.5 inc\n"
        )
        assert count_pieces(m, 1) == 3
        # components of X minus Delta^2 number 4 (cuts 0.5, 11/18, 0.75); only
        # the junction at 0.5 merges
        assert count_pieces(m, 2, merge_removable=False) == 4
        assert count_pieces(m, 2) == 3


class TestMsEntropy:
    def test_mod3_exact(self):
        series = ms_entropy(catalog_get("mod3").map, 6)
        assert [r.value for r in series.records] == [3**n for n in range(1, 7)]
        assert series.estimate == pytest.approx(math.log(3), abs=1e-9)

    def test_tent(self, tent):
        series = ms_entropy(tent, 10)
        assert series.estimate == pytest.approx(math.log(2), abs=1e-9)

    def test_identity_zero(self):
        series = ms_entropy(catalog_get("identity").map, 10)
        assert series.estimate == pytest.approx(0.0, abs=1e-12)

    def test_estimator_table(self, tent):
        series = ms_entropy(tent, 8, estimator="fekete-min")
        assert set(series.estimates) == {"last-ratio", "fekete-min", "slope-fit"}
        assert series.estimate == pytest.approx(math.log(2), abs=1e-9)

    def test_truncated_series(self):
        series = ms_entropy(catalog_get("mod3").map, 12, cap=500)
        assert series.truncated
        assert series.records[-1].flag == "truncated"
        assert len(series.records) < 12

    def test_submultiplicative_across_catalog(self):
        for name in catalog_names():
            series = ms_entropy(catalog_get(name).map, 8)
            counts = {r.n: int(r.value) for r in series.records}
            for n in counts:
                for m in counts:
                    if n + m in counts:
                        assert counts[n + m] <= counts[n] * counts[m]

    def test_submultiplicative_witness(self):
        assert submultiplicative_witness({n: 2**n for n in range(1, 9)}) is None
        assert submultiplicative_witness({}) is None
        assert submultiplicative_witness({1: 2, 2: 5, 3: 9}) == (1, 1)
        # pairs are tried in the order n, then m, of the dict
        assert submultiplicative_witness({1: 3, 2: 9, 3: 28}) == (1, 2)
        assert submultiplicative_witness({2: 9, 1: 3, 3: 28}) == (2, 1)

    def test_non_submultiplicative_counts_raise(self, tent, monkeypatch):
        fake = {1: 2, 2: 5, 3: 9}
        monkeypatch.setattr(DeltaTable, "count_pieces", lambda self, n, merge_removable=True: fake[n])
        with pytest.raises(SubadditivityError) as info:
            ms_entropy(tent, 3)
        assert info.value.witness == (1, 1)
        assert str(info.value) == (
            "piece counts are not submultiplicative: c_2=5 > c_1*c_1=4 "
            "(likely a tolerance undercount upstream)"
        )


class TestFullBranchCheck:
    def test_doubling(self):
        report = full_branch_check(catalog_get("mod2").map, 10)
        assert report.passed
        assert report.rows[-1][1] == 2**10 - 1

    def test_tent(self, tent):
        report = full_branch_check(tent, 10)
        assert report.passed
        assert all(count == n_expected for _, count, n_expected, _ in report.rows)

    def test_non_surjective_branch_reported(self):
        report = full_branch_check(catalog_get("pw-contraction").map, 6)
        assert not report.surjective
        assert not report.passed
        assert any("image" in msg for msg in report.messages)

    def test_injective_increment_bound(self):
        # one-sided piece-count growth for injective maps
        for name in ("iet2-golden", "pw-contraction"):
            m = catalog_get(name).map
            counts = [count_pieces(m, n) for n in range(1, 16)]
            n_branches = m.n_pieces
            for a, b in zip(counts, counts[1:]):
                assert b - a <= n_branches - 1


def _verdict_map(label: str):
    if label == "tent-phi":
        return conjugate_map(catalog_get("tent").map, PHI)
    if label == "beta-golden":
        return _beta_golden()
    if label == "near-cut":
        # the limit at 0 falls 1e-12 below the cut and the one at 0.5 from
        # the right 1e-12 above it: image ends within tol of a cut, no new points
        return parse_map(
            "domain = [0, 1]\n"
            "piece (0, 0.5): 0.5*x + 0.5 - 1e-12 inc\n"
            "piece (0.5, 1): 0.7 + 1e-12 - 0.4*x dec\n"
        )
    name, _, power = label.partition("^")
    pcmap = catalog_get(name).map
    return iterate_map(pcmap, int(power)) if power else pcmap


VERDICT_MAPS = [*catalog_names(), *(f"{m}^2" for m in catalog_names()), "tent-phi", "beta-golden", "near-cut"]


def _refusal(table: DeltaTable, n: int, cap: int) -> tuple[str, int]:
    with pytest.raises(ResourceCapExceeded) as exc:
        table.ensure(n, cap)
    return str(exc.value), exc.value.completed


@pytest.mark.parametrize("label", [*catalog_names(), *(f"{m}^2" for m in catalog_names())])
def test_deep_table_refuses_a_smaller_cap_as_a_fresh_one_does(label):
    """A table that has walked to n = 30 finds the first level past a smaller
    cap among the sizes it has checked: for every k the cap |Delta^k| - 1 is
    refused with the message and ``completed`` of a fresh table, and the
    depth stays where it was."""
    pcmap, n = _verdict_map(label), 30
    deep = DeltaTable(pcmap)
    deep.ensure(n, cap=10**100)
    for k in range(1, n + 1):
        cap = deep.delta_size(k) - 1
        assert _refusal(deep, n, cap) == _refusal(DeltaTable(pcmap), n, cap), k
        assert deep.depth == n


@pytest.mark.parametrize("label", [*catalog_names(), *(f"{m}^2" for m in catalog_names())])
def test_refused_table_walks_on_under_a_larger_cap(label):
    """Refused at |Delta^n| - 1 and then asked again at |Delta^n|, one table
    reaches every n in turn: the refusal leaves its depth alone, the larger
    cap takes it to n, and its counts are those of a table that never saw a
    cap."""
    pcmap, n_max = _verdict_map(label), 30
    free = DeltaTable(pcmap)
    free.ensure(n_max, cap=10**100)
    table = DeltaTable(pcmap)
    for n in range(1, n_max + 1):
        size = free.delta_size(n)
        assert _refusal(table, n, size - 1) == _refusal(DeltaTable(pcmap), n, size - 1), n
        assert table.depth == max(n - 1, 1)
        table.ensure(n, size)
        assert table.depth == n
    assert [table.count_pieces(n) for n in range(1, n_max + 1)] == [free.count_pieces(n) for n in range(1, n_max + 1)]


@pytest.mark.parametrize("label", VERDICT_MAPS)
def test_verdict_table_matches_scalar_loop(label):
    """Lap counts, with and without the removable merge, equal the scalar
    limit-orbit loop over Delta^n built in full, each point carrying the
    provenance of the lexsort merge reference."""
    pcmap = _verdict_map(label)
    table = DeltaTable(pcmap)
    ref, moved, prev = delta_reference(pcmap), 0, None
    for n in range(1, 9):
        try:
            table.ensure(n, cap=400_000)
        except ResourceCapExceeded:
            break
        cum = next(ref)
        for merge in (True, False):
            assert table.count_pieces(n, merge) == count_pieces_scalar(pcmap, cum, n, merge), (n, merge)
        if prev is not None:
            # a kept level point took the earlier hit of a dropped Delta^{n-1} point
            moved += int(np.count_nonzero((cum[1] < n - 1) & ~np.isin(cum[0], prev[0])))
        prev = cum
    if label == "beta-golden":
        assert moved > 0


@pytest.mark.parametrize("name", catalog_names())
def test_provenance_matches_limit_orbits(name):
    """Each point x of Delta^n with hit h and root r (the merge reference)
    reaches base point r after h one-sided limit steps from one of its sides,
    and meets no cut point on the way; and the lap images find, per level h
    and cut point r, as many new interior points as that provenance gives."""
    pcmap = catalog_get(name).map
    n = 6
    table = DeltaTable(pcmap)
    table.ensure(n)
    xs, hit, root = next(itertools.islice(delta_reference(pcmap), n - 1, None))
    for x, h, r in zip(xs.tolist(), hit.tolist(), root.tolist()):
        target = pcmap.delta.points[r]
        reached = False
        for side in (LEFT, RIGHT):
            v, s, clear = x, side, True
            for _ in range(h):
                clear &= pcmap.delta.index_near(v) is None
                v, s, _ = limit_step(pcmap, v, s)
            reached |= clear and abs(v - target) <= 1e-9
        assert reached, (n, x, h, r)
    dom, tol = pcmap.domain, pcmap.tol
    interior = (xs > dom.lo + tol) & (xs < dom.hi - tol)
    for h in range(n):
        found = np.bincount(root[interior & (hit == h)], minlength=len(pcmap.delta))
        assert table._new[h] == found.tolist(), h


@pytest.mark.parametrize("label", [*catalog_names(), *(f"{m}^2" for m in catalog_names()), "beta-golden"])
def test_merge_matches_lexsort_reference(label):
    """Each Delta^n the table builds on read is bitwise the points of the
    merge by a lexsort on (x, hit) and a greedy dedupe."""
    pcmap = _verdict_map(label)
    table = DeltaTable(pcmap)
    ref = delta_reference(pcmap)
    for n in range(1, 9):
        try:
            table.ensure(n, cap=100_000)
        except ResourceCapExceeded:
            break
        got, want = table.cumulative[n][0], next(ref)[0]
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), n


@pytest.mark.parametrize("label", [*catalog_names(), *(f"{m}^2" for m in catalog_names())])
def test_cap_refuses_where_the_full_build_does(label, monkeypatch):
    """Caps at |Delta^k| and |Delta^k| - 1 for every k, with the sizes of a
    full build: the refusal comes at the first k whose size passes the cap,
    ``ensure`` inverts no branch, and asking again refuses the same way."""
    pcmap = _verdict_map(label)
    sizes = []
    for xs, _, _ in itertools.islice(delta_reference(pcmap), 8):
        sizes.append(len(xs))
        if len(xs) > 20_000:
            break
    n = len(sizes)
    built = []
    monkeypatch.setattr(symbolic, "branch_preimages", lambda b, ys: built.append(b) or branch_preimages(b, ys))
    for cap in sorted({c for size in sizes for c in (size, size - 1) if c >= 0}):
        expected = next((k - 1 for k, size in enumerate(sizes, 1) if size > cap), n)
        table = DeltaTable(pcmap)
        for _ in range(2):
            try:
                table.ensure(n, cap)
            except ResourceCapExceeded as exc:
                assert exc.completed == expected, cap
                assert str(exc) == f"Delta^{expected + 1} holds {sizes[expected]} points (cap {cap})"
            else:
                assert expected == n, cap
            # Delta^1 and its base level are there from the start
            assert len(table.cumulative) - 1 == len(table.levels) == table.depth == max(expected, 1), cap
        assert not built, cap


@pytest.mark.parametrize("label", VERDICT_MAPS)
def test_exact_size_equals_the_built_size(label):
    """The lap-image |Delta^k|, domain ends included, is the size of the
    Delta^k the table builds on read, for every k <= 12 under the cap."""
    pcmap = _verdict_map(label)
    table = DeltaTable(pcmap)
    try:
        table.ensure(12, cap=400_000)
    except ResourceCapExceeded:
        pass
    for k in range(table.depth + 1):
        if label == "lorenz-full^2" and k >= 9:
            # the built Delta^18 of lorenz-full merges distinct points closer
            # than tol, so the table refuses it like an over-cap level; the
            # lap images still count 2^18 - 1
            with pytest.raises(ResourceCapExceeded) as info:
                table.cumulative[k]
            assert info.value.completed == 8, k
            assert str(info.value) == (
                "Delta^9 holds 262143 points, but only 261874 of them lie more than tol = 1e-10 apart"
            )
            assert table.delta_size(k) == 2**18 - 1, k
        else:
            assert table.delta_size(k) == len(table.cumulative[k][0]), k
    if label in ("anzie", "pw-contraction", "near-cut"):
        # a domain end is a point of Delta^k from some k on
        assert any(table.delta_size(k) > table.count_pieces(k, False) - 1 for k in range(1, table.depth + 1))


@pytest.mark.parametrize("label", VERDICT_MAPS)
def test_first_connection_matches_the_built_levels(label):
    """The first depth at which a cut point's one-sided limit orbit meets a
    cut is the first built level f^-d(Delta) that meets Delta, up to the
    deepest Delta^n the table builds exactly."""
    pcmap = _verdict_map(label)
    table = delta_table(pcmap)
    try:
        table.ensure(12, cap=400_000)
    except ResourceCapExceeded:
        pass
    exact_to = table.depth
    try:
        table.cumulative[exact_to]
    except ResourceCapExceeded as exc:
        exact_to = exc.completed
    report = full_branch_check(pcmap, exact_to, cap=400_000)
    want = connection_depth_reference(pcmap, table, exact_to)
    assert report.no_connection == (want is None)
    if want is not None:
        assert report.messages[-1] == f"f^-{want}(Delta) meets Delta: connection at depth {want}"


def test_full_branch_check_inverts_no_branch(monkeypatch):
    """#Delta^n and the connection depth come from the forward walk, so a
    fresh table builds no preimage level.  Equal maps share a cached table,
    so the cache starts empty."""
    monkeypatch.setattr(symbolic, "_TABLES", weakref.WeakKeyDictionary())
    calls = []
    monkeypatch.setattr(symbolic, "branch_preimages", lambda b, ys: calls.append(b) or branch_preimages(b, ys))
    report = full_branch_check(parse_map(catalog_get("tent").source), 12)
    assert report.passed and report.rows[-1][1] == 2**12 - 1
    assert not calls


def test_cached_table_does_not_outlive_its_map(monkeypatch):
    monkeypatch.setattr(symbolic, "_TABLES", weakref.WeakKeyDictionary())
    m = parse_map(catalog_get("tent").source)
    delta_n(m, 10)
    assert len(symbolic._TABLES) == 1
    del m
    gc.collect()
    assert len(symbolic._TABLES) == 0


def test_table_dies_with_its_map_without_the_collector(monkeypatch):
    monkeypatch.setattr(symbolic, "_TABLES", weakref.WeakKeyDictionary())
    m = parse_map(catalog_get("tent").source)
    delta_n(m, 12)
    table = weakref.ref(symbolic._TABLES[m])
    assert len(table().levels) == 12 and len(table().cumulative[12][0]) == 2**12 - 1
    gc.disable()
    try:
        del m
        assert table() is None  # no reference cycle holds the table or its arrays
    finally:
        gc.enable()


@pytest.mark.parametrize("name", ["lorenz-full", "asym-tent"])
def test_deep_counts_are_exact(name):
    """Two full branches give 2^n laps at any depth, where the built Delta^n
    of these maps merges distinct points closer than tol."""
    pcmap = catalog_get(name).map
    for n in (18, 19, 20):
        assert count_pieces(pcmap, n) == count_pieces(pcmap, n, merge_removable=False) == 2**n


def test_counts_past_float_precision_stay_exact():
    """5^n passes 2^53 at n = 23; the counts stay Python ints, so the
    submultiplicativity certificate compares them exactly."""
    series = ms_entropy(catalog_get("mod5").map, 30, cap=10**30)
    assert not series.truncated
    assert [r.value for r in series.records] == [5**n for n in range(1, 31)]
    assert all(type(r.value) is int for r in series.records)
    assert series.estimate == pytest.approx(math.log(5), abs=1e-12)


def test_cap_refusal_builds_nothing():
    """mod5 under the default cap refuses Delta^10 (9 765 624 points) on its
    exact size; counting up to there builds no point set."""
    pcmap = parse_map(catalog_get("mod5").source)
    tracemalloc.start()
    try:
        series = ms_entropy(pcmap, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert series.truncated and len(series.records) == 9
    assert peak < 1_000_000, peak


def _beta_golden():
    """x -> phi*x mod 1 with phi the golden mean, split where phi*x = 1.  It is
    Markov, and its piece counts are the Fibonacci numbers c_n = F_(n+2)."""
    phi = (1 + 5**0.5) / 2
    return parse_map(
        f"domain = [0, 1]\npiece (0, {GOLDEN_SPLIT!r}): {phi!r}*x inc\n"
        f"piece ({GOLDEN_SPLIT!r}, 1): {phi!r}*x - 1 inc\n"
    )


def test_beta_golden_counts_are_fibonacci():
    table = DeltaTable(_beta_golden())
    table.ensure(24)
    fib = [1, 1]
    while len(fib) < 26:
        fib.append(fib[-1] + fib[-2])
    assert [table.count_pieces(n) for n in range(1, 25)] == fib[2:26]


