import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pcentropy import covers, symbolic
from pcentropy.catalog import get as catalog_get
from pcentropy.catalog import names as catalog_names
from pcentropy.covers import (
    Cover,
    SubcoverResult,
    boundary_of_refined_natural_cover,
    cover_entropy,
    domainify_cover,
    lebesgue_number,
    minimal_subcover,
    minimal_subcover_cardinality,
    natural_cover,
    pullback_cover,
    refine_n,
    refinement_steps,
    vee,
)
from pcentropy.errors import NotACoverError, ResourceCapExceeded, SubadditivityError
from pcentropy.intervals import Interval, OpenSet, PointSet, RegionSet
from pcentropy.maps import parse_map
from pcentropy.symbolic import delta_n, delta_table
from pcentropy.transforms import PlHomeo, conjugate_map, iterate_map
from reference import (
    lebesgue_number_reference,
    openset_preimage_scalar,
    refinement_product_reference,
    refinement_reference,
    subcover_atoms_reference,
    subcover_reduction_reference,
    subcover_sweep_reference,
    vee_reference,
)

X = RegionSet.of((0.0, 1.0))


def spans(cover):
    return sorted((p.lo, p.hi) for el in cover.elements for p in el.parts)


def part_rows(cover):
    """The cover's part arrays as rows (owner, lo, hi, lo_open, hi_open); unlike
    ``elements``, they show parts that ``OpenSet`` would merge."""
    return list(zip(*(col.tolist() for col in cover.parts)))


class TestNaturalCover:
    def test_tent(self, tent):
        assert spans(natural_cover(tent)) == [(0.0, 0.5), (0.5, 1.0)]

    def test_identity_covers_whole_domain(self):
        ident = catalog_get("identity").map
        nc = natural_cover(ident)
        assert len(nc) == 1
        assert minimal_subcover_cardinality(nc, X) == 1

    def test_mod3_has_three_elements(self):
        assert len(natural_cover(catalog_get("mod3").map)) == 3


class TestVee:
    def test_two_covers(self):
        c = Cover((OpenSet.of((0.0, 0.6)), OpenSet.of((0.4, 1.0))))
        d = Cover((OpenSet.of((0.0, 0.5)), OpenSet.of((0.5, 1.0))))
        w = vee([c, d])
        assert spans(w) == [(0.0, 0.5), (0.4, 0.5), (0.5, 0.6), (0.5, 1.0)]

    def test_identity_element(self, tent):
        c = natural_cover(tent)
        whole = Cover((OpenSet((tent.domain,)),))
        assert set(vee([c, whole]).elements) == set(c.elements)

    def test_self_product_cardinality(self, tent):
        c = natural_cover(tent)
        w = vee([c, c])
        assert set(c.elements) <= set(w.elements)
        assert minimal_subcover_cardinality(w, X, delta_n(tent, 1)) == minimal_subcover_cardinality(
            c, X, delta_n(tent, 1)
        )

    def test_empty_intersections_dropped(self):
        c = Cover((OpenSet.of((0.0, 0.3)),))
        d = Cover((OpenSet.of((0.5, 1.0)),))
        assert len(vee([c, d])) == 0


class TestPullback:
    def test_tent_interval(self, tent):
        pb = pullback_cover(tent, Cover((OpenSet.of((0.4, 0.6)),)), 1)
        assert spans(pb) == [(0.2, 0.3), (0.7, 0.8)]

    def test_j_zero_identity(self, tent):
        c = natural_cover(tent)
        assert set(pullback_cover(tent, c, 0).elements) == set(c.elements)

    def test_identity_map_fixed(self):
        ident = catalog_get("identity").map
        c = Cover((OpenSet.of((0.1, 0.4)), OpenSet.of((0.3, 0.9))))
        for j in (1, 2, 5):
            assert set(pullback_cover(ident, c, j).elements) == set(c.elements)


PULLBACK_MAPS = [
    catalog_get(name).map for name in ("tent", "asym-tent", "lorenz-full", "anzie", "mod3")
] + [
    conjugate_map(catalog_get("tent").map, PlHomeo(((0.0, 0.0), (0.35, 0.55), (1.0, 1.0)))),
    iterate_map(catalog_get("tent").map, 2),
]


def random_elements(draw, pcmap, max_elements=4, max_parts=4) -> list[OpenSet]:
    """Union elements with closed point parts, whose ends are random or shared:
    domain ends, cut points and branch image ends."""
    dom = pcmap.domain
    special = sorted(
        {dom.lo, dom.hi, *pcmap.delta.points}
        | {min(max(v, dom.lo), dom.hi) for b in pcmap.branches for v in b.image}
    )
    coord = st.one_of(st.floats(dom.lo, dom.hi), st.sampled_from(special))

    def part():
        a, b = sorted((draw(coord), draw(coord)))
        if draw(st.booleans()):
            b = a  # a closed point part
        if a == b:
            return Interval.point(a)
        return Interval(a, b, draw(st.booleans()), draw(st.booleans()))

    return [
        OpenSet(tuple(part() for _ in range(draw(st.integers(1, max_parts)))))
        for _ in range(draw(st.integers(1, max_elements)))
    ]


@st.composite
def pullback_cases(draw):
    pcmap = draw(st.sampled_from(PULLBACK_MAPS))
    return pcmap, random_elements(draw, pcmap)


@given(pullback_cases())
@settings(max_examples=300, deadline=None)
def test_pullback_matches_scalar_reference(case):
    pcmap, elements = case
    expected = [openset_preimage_scalar(pcmap, el) for el in elements]
    pulled = covers._pullback(pcmap, Cover(elements))
    assert list(pulled.elements) == [el for el in expected if not el.is_empty()]
    assert part_rows(pulled) == part_rows(Cover(pulled.elements))


def test_pullback_merges_parts_whose_gap_collapses():
    # (0.2, y] u [y', 0.97) with y' the float after y: where y/3 == y'/3 the
    # increasing branch's preimages touch at an included point and must merge
    pcmap = parse_map("domain = [0, 1]\npiece (0, 1/3): 3*x inc\npiece (1/3, 1): 1.5 - 1.5*x dec\n")
    ys = np.linspace(0.5, 0.95, 2000)
    ys = ys[ys / 3 == np.nextafter(ys, np.inf) / 3]
    assert len(ys) == 299
    elements = [
        OpenSet((Interval(0.2, y, True, False), Interval(math.nextafter(y, math.inf), 0.97, False, True)))
        for y in ys.tolist()
    ]
    pulled = covers._pullback(pcmap, Cover(elements))
    assert list(pulled.elements) == [openset_preimage_scalar(pcmap, el) for el in elements]
    assert part_rows(pulled) == part_rows(Cover(pulled.elements))
    assert pulled.total_parts() == 3 * len(ys)


@st.composite
def refinement_cases(draw):
    pcmap = draw(st.sampled_from(PULLBACK_MAPS))
    elements = random_elements(draw, pcmap, 3, 3)
    if draw(st.booleans()):  # a cover of the domain minus the cut points
        elements += [OpenSet((b.piece,)) for b in pcmap.branches]
    return pcmap, Cover(elements), Cover(random_elements(draw, pcmap, 3, 3)), draw(st.integers(1, 5))


def _subcover_outcome(cover, target, exclude):
    try:
        return minimal_subcover(cover, target, exclude)
    except NotACoverError as exc:
        return exc.witness


@given(refinement_cases())
@settings(max_examples=100, deadline=None)
def test_refinement_matches_pairwise_reference(case):
    pcmap, cover, other, n_max = case
    assert vee([cover, other]).elements == vee_reference([cover, other]).elements
    target = RegionSet.of((pcmap.domain.lo, pcmap.domain.hi))
    steps = zip(refinement_steps(pcmap, cover, n_max), refinement_reference(pcmap, cover, n_max))
    # the same capped search on both sides keeps the union covers cheap
    with mock.patch.object(covers, "DEFAULT_NODE_CAP", 2000):
        for n, (flat, expected) in enumerate(steps, start=1):
            exclude = delta_n(pcmap, n)
            assert _subcover_outcome(flat, target, exclude) == _subcover_outcome(expected, target, exclude)
            assert flat.elements == expected.elements
            assert part_rows(flat) == part_rows(expected)


@pytest.mark.parametrize("name, halves, n_max", [
    ("mod3", False, 8),  # 6,561 one-part elements at n = 8
    ("tent", True, 10),  # overlapping halves: union elements
    ("lorenz-full", False, 9),  # pulled back through smooth branches
])
def test_wide_refinement_matches_pairwise_reference(name, halves, n_max):
    # row widths that the drawn cases above never reach
    pcmap = catalog_get(name).map
    cover = natural_cover(pcmap)
    if halves:
        cover = domainify_cover(Cover((OpenSet.of((0, 0.55)), OpenSet.of((0.45, 1)))), pcmap.domain)
    steps = zip(refinement_steps(pcmap, cover, n_max), refinement_reference(pcmap, cover, n_max), strict=True)
    for flat, expected in steps:
        assert part_rows(flat) == part_rows(expected)
    assert flat.total_parts() >= 512


def _subcover_count(cover, target, exclude):
    """The count of an exact search, None for a capped one, or the error's
    type when the cover does not cover."""
    try:
        res = minimal_subcover(cover, target, exclude)
    except NotACoverError:
        return NotACoverError
    return res.count if res.exact else None


@given(refinement_cases())
@settings(max_examples=100, deadline=None)
def test_refinement_counts_match_product_form(case):
    # C ∨ f⁻¹(Cⁿ⁻¹) and the product of preimages of C minus the cut set are
    # one cover in exact arithmetic, so their subcover outcomes agree, counts
    # where both searches are exact.  Their element lists may differ, and so
    # may counts once two distinct part ends lie within tol, where the two
    # forms round differently (C = {{a} ∪ (b, 1], {0}} with a, b below 1e-120
    # gives tent's n = 3 count 3 against 2); the rounding carries to later n
    pcmap, cover, _, n_max = case
    target = RegionSet.of((pcmap.domain.lo, pcmap.domain.hi))
    steps = zip(refinement_steps(pcmap, cover, n_max), refinement_product_reference(pcmap, cover, n_max))
    with mock.patch.object(covers, "DEFAULT_NODE_CAP", 2000):
        for n, (flat, product) in enumerate(steps, start=1):
            exclude = delta_n(pcmap, n)
            ends = np.unique(np.concatenate([col for c in (flat, product) for col in (c.parts.lo, c.parts.hi)]))
            if np.any(np.diff(ends) < exclude.tol):
                break
            got, expected = _subcover_count(flat, target, exclude), _subcover_count(product, target, exclude)
            assert (got is NotACoverError) == (expected is NotACoverError)
            if None not in (got, expected):
                assert got == expected


class TestRefine:
    def test_tent_depth_two_matches_components(self, tent):
        refined = refine_n(tent, natural_cover(tent), 2)
        assert spans(refined) == [(0.0, 0.25), (0.25, 0.5), (0.5, 0.75), (0.75, 1.0)]

    def test_depth_one_is_cover_minus_cuts(self, tent):
        closed = Cover((OpenSet((Interval.closed(0.0, 0.5),)), OpenSet((Interval.closed(0.5, 1.0),))))
        # anzie cuts at 0.3, 0.7 and 0.85: the point on a cut goes, a closed
        # end on a cut opens, a part over three cuts splits in four, and the
        # two elements equal once cut keep the first
        anzie = catalog_get("anzie").map
        on_cuts = Cover((
            OpenSet((Interval.point(0.3),)),
            OpenSet((Interval(0.2, 0.3, True, False),)),
            OpenSet.of((0.25, 0.9)),
            OpenSet.of((0.3, 0.5)),
            OpenSet((Interval(0.3, 0.5, False, True),)),
            OpenSet.of((0.0, 1.0)),
        ))
        for pcmap, cover in ((tent, natural_cover(tent)), (tent, closed), (anzie, on_cuts)):
            cover = domainify_cover(cover, pcmap.domain)
            cut = [el.subtract_points(pcmap.delta) for el in cover.elements]
            expected = list(dict.fromkeys(el for el in cut if not el.is_empty()))
            assert list(refine_n(pcmap, cover, 1).elements) == expected
        assert len(expected) == 4

    def test_identity_fixed(self):
        ident = catalog_get("identity").map
        single = Cover((OpenSet((ident.domain,)),))
        assert set(refine_n(ident, single, 4).elements) == set(single.elements)
        # with several elements the product picks up self-intersections, but
        # the original elements survive and the minimal cardinality is unchanged
        c = Cover((OpenSet.of((0.0, 0.6)), OpenSet.of((0.5, 1.0))))
        c = domainify_cover(c, ident.domain)
        refined = refine_n(ident, c, 4)
        assert set(c.elements) <= set(refined.elements)
        assert minimal_subcover_cardinality(refined, X) == minimal_subcover_cardinality(c, X)

    def test_elements_avoid_cut_set(self, tent):
        refined = refine_n(tent, natural_cover(tent), 4)
        cuts = delta_n(tent, 4)
        for el in refined.elements:
            assert all(not el.contains(c) for c in cuts)


# a union cover with a forced element and atoms left for the search
FORCED_UNION_CASE = (
    Cover(
        (
            OpenSet((Interval(0.125, 0.5, False, True), Interval.closed(0.625, 1.0))),
            OpenSet((Interval(0.0, 0.5, False, True), Interval.closed(0.875, 1.0))),
            OpenSet((Interval.closed(0.875, 1.125),)),
            OpenSet((Interval(0.375, 0.625, False, True), Interval.closed(0.75, 1.0))),
            OpenSet((Interval(0.0, 0.125, False, True), Interval(0.5, 0.75, False, True))),
        ),
    ),
    RegionSet.of((0.0, 1.125)),
    PointSet.empty(),
    set(),
)


class TestMinimalSubcover:
    def test_two_overlapping(self):
        cov = Cover((OpenSet.of((-0.1, 0.6)), OpenSet.of((0.4, 1.1))))
        assert minimal_subcover_cardinality(cov, X) == 2

    def test_whole_domain_single(self):
        cov = Cover((OpenSet((Interval.closed(0.0, 1.0),)),))
        assert minimal_subcover_cardinality(cov, X) == 1

    def test_refined_natural_cover(self, tent):
        d2 = refine_n(tent, natural_cover(tent), 2)
        assert minimal_subcover_cardinality(d2, X, delta_n(tent, 2)) == 4

    def test_redundant_elements_skipped(self):
        cov = Cover(
            (OpenSet.of((-0.1, 0.4)), OpenSet.of((0.2, 0.5)), OpenSet.of((0.3, 1.1))),
        )
        res = minimal_subcover(cov, X)
        assert res.count == 2 and res.exact
        assert set(res.indices) == {0, 2}

    def test_not_a_cover(self):
        cov = domainify_cover(
            Cover((OpenSet.of((0.0, 0.4)), OpenSet.of((0.6, 1.0)))),
            Interval.closed(0.0, 1.0),
        )
        with pytest.raises(NotACoverError) as exc:
            minimal_subcover_cardinality(cov, X)
        assert 0.4 <= exc.value.witness <= 0.6

    def test_excluded_points_do_not_need_cover(self):
        cov = Cover((OpenSet.of((0.0, 0.5)), OpenSet.of((0.5, 1.0))))
        cov = domainify_cover(cov, Interval.closed(0.0, 1.0))
        with pytest.raises(NotACoverError):
            minimal_subcover_cardinality(cov, X)
        assert minimal_subcover_cardinality(cov, X, PointSet.of([0.5])) == 2

    def test_union_elements_exact(self):
        # element 0 alone covers the two ends; elements 1+2 needed for the middle
        cov = Cover(
            (
                OpenSet.of((0.0, 0.3), (0.7, 1.0)),
                OpenSet.of((0.25, 0.6)),
                OpenSet.of((0.55, 0.75)),
            ),
        )
        cov = domainify_cover(cov, Interval.closed(0.0, 1.0))
        res = minimal_subcover(cov, X)
        assert res.count == 3 and res.exact

    def test_union_element_single_suffices(self):
        cov = Cover(
            (
                OpenSet.of((0.0, 0.6), (0.5, 1.0)),  # merges to the whole interval
                OpenSet.of((0.2, 0.9)),
            ),
        )
        cov = domainify_cover(cov, Interval.closed(0.0, 1.0))
        assert minimal_subcover_cardinality(cov, X) == 1

    def test_node_cap_keeps_the_first_cover(self):
        # every atom lies under two elements, so nothing is forced and the
        # search sees the whole target; its first dive takes element 1, the
        # largest gain at 0, and needs three, where elements 3 and 0 suffice
        cov = Cover(
            (
                OpenSet((Interval(0.125, 0.5, False, True), Interval.closed(0.625, 1.0))),
                OpenSet((Interval(0.0, 0.5, False, True), Interval.closed(0.875, 1.0))),
                OpenSet((Interval(0.375, 0.625, False, True), Interval.closed(0.75, 1.0))),
                OpenSet((Interval(0.0, 0.125, False, True), Interval(0.5, 0.75, False, True))),
            ),
        )
        assert minimal_subcover(cov, X) == SubcoverResult(2, (3, 0), True)
        with mock.patch.object(covers, "DEFAULT_NODE_CAP", 1):
            assert minimal_subcover(cov, X) == SubcoverResult(3, (1, 2, 0), False)

    def test_forced_elements_come_first(self):
        # element 2 alone reaches past 1, so it is taken before the search,
        # which covers the atoms left below 0.875 with elements 4 and 0
        cover, target, exclude, removed = FORCED_UNION_CASE
        assert minimal_subcover(cover, target, exclude) == SubcoverResult(3, (2, 4, 0), True)
        assert _brute_minimum(cover, _needed_points(target, removed)) == 3

    def test_lowest_uncovered_point_is_the_witness(self):
        # both covers miss 0.2 and everything up to 0.3, and 0.6 to 0.7
        half_open = Interval(0.0, 0.2, False, True)
        union = Cover((OpenSet((half_open, Interval(0.7, 1.0, True, False))), OpenSet.of((0.3, 0.6))))
        single = Cover((OpenSet((half_open,)), OpenSet.of((0.3, 0.6)), OpenSet((Interval(0.7, 1.0, True, False),))))
        for cov in (union, single):
            with pytest.raises(NotACoverError, match="target point 0.2000") as exc:
                minimal_subcover(cov, X)
            assert exc.value.witness == 0.2

    def test_equal_gains_keep_index_order(self):
        # elements 0 and 1 cover atom 0 with the same gain, so the search
        # tries element 0 first and keeps the first cover of two it finds;
        # element 3 shares every atom above 0.6 with element 2, so nothing
        # is forced and both ties reach the search
        cov = Cover(
            (
                OpenSet((Interval(0.0, 0.6, False, True), Interval.point(0.8))),
                OpenSet((Interval(0.0, 0.6, False, True), Interval.point(0.9))),
                OpenSet((Interval(0.4, 1.0, True, False),)),
                OpenSet((Interval(0.5, 1.0, True, False),)),
            ),
        )
        assert minimal_subcover(cov, X) == SubcoverResult(2, (0, 2), True)

    def test_multi_part_region(self):
        region = RegionSet.of((0.0, 0.2), (0.8, 1.0))
        cov = Cover((OpenSet.of((-0.1, 0.25)), OpenSet.of((0.75, 1.1))))
        assert minimal_subcover_cardinality(cov, region) == 2


# Brute-force reference for minimal_subcover: every coordinate is a multiple of
# 1/8, so membership in each element and in the target is constant between
# consecutive grid points.  An excluded point either lies within tol of a grid
# point, and so removes it, or on a half step, where it is a point of its own.
GRID = [k / 8 for k in range(-1, 10)]


@st.composite
def grid_intervals(draw, grid=GRID):
    """An interval with ends on ``grid`` and any flags, or a closed point."""
    a, b = sorted(draw(st.sampled_from(grid)) for _ in range(2))
    if a == b:
        return Interval.point(a)
    return Interval(a, b, draw(st.booleans()), draw(st.booleans()))


@st.composite
def subcover_cases(draw, repeated=False):
    """A cover, a target, excluded points and the grid points they remove;
    a ``repeated`` cover lists every element twice, so no element owns the
    only part over an atom, nothing is forced and every draw is searched."""
    max_parts = draw(st.sampled_from([1, 3, 3]))
    elements = tuple(
        OpenSet(tuple(draw(grid_intervals()) for _ in range(draw(st.integers(1, max_parts)))))
        for _ in range(draw(st.integers(1, 6)))
    )
    if repeated:
        elements *= 2
    ends = sorted(draw(st.sampled_from(GRID[1:-1])) for _ in range(draw(st.sampled_from([2, 4]))))
    target = RegionSet.of(*zip(ends[0::2], ends[1::2]))
    excluded, removed = [], set()
    for _ in range(draw(st.integers(0, 3))):
        g = draw(st.sampled_from(GRID[1:-1]))
        offset = draw(st.sampled_from([-4e-13, 4e-13, 1 / 16]))
        excluded.append(g + offset)
        removed.add(g if abs(offset) < 1e-12 else g + offset)
    return Cover(elements), target, PointSet.of(excluded), removed


def _needed_points(target, removed):
    xs = sorted(set(GRID) | removed)
    points = [x for x in xs if x not in removed and target.contains(x)]
    gaps = [0.5 * (a + b) for a, b in zip(xs[:-1], xs[1:]) if target.contains(0.5 * (a + b))]
    return points + gaps


def _covers(cover, picks, needed):
    return all(any(cover.elements[i].contains(x) for i in picks) for x in needed)


def _brute_minimum(cover, needed):
    for k in range(len(cover) + 1):
        for picks in itertools.combinations(range(len(cover)), k):
            if _covers(cover, picks, needed):
                return k
    return None


@given(subcover_cases())
@example(FORCED_UNION_CASE)
@settings(max_examples=400, deadline=None)
def test_minimal_subcover_matches_brute_force(case):
    cover, target, exclude, removed = case
    needed = _needed_points(target, removed)
    expected = _brute_minimum(cover, needed)
    if expected is None:
        with pytest.raises(NotACoverError):
            minimal_subcover(cover, target, exclude)
        return
    res = minimal_subcover(cover, target, exclude)
    assert (res.count, res.exact) == (expected, True)
    assert len(res.indices) == res.count and _covers(cover, res.indices, needed)
    # the forced elements come first, in index order, then the search's picks
    _, atoms, first, last = covers._atomize(cover, target, exclude)
    forced = tuple(subcover_reduction_reference(first, last, cover.parts.owner, len(atoms))[1])
    assert res.indices[: len(forced)] == forced
    assert not set(res.indices[len(forced) :]) & set(forced)
    # a search cut by the node cap still reports a real cover
    with mock.patch.object(covers, "DEFAULT_NODE_CAP", 1):
        capped = minimal_subcover(cover, target, exclude)
    assert len(capped.indices) == capped.count >= expected
    assert _covers(cover, capped.indices, needed)


@given(subcover_cases(repeated=True))
@settings(max_examples=200, deadline=None)
def test_unforced_search_matches_brute_force(case):
    cover, target, exclude, removed = case
    needed = _needed_points(target, removed)
    # a repeat covers what its first copy does, so the first half's minimum is the whole cover's
    expected = _brute_minimum(Cover(cover.elements[: len(cover) // 2]), needed)
    if expected is None:
        with pytest.raises(NotACoverError):
            minimal_subcover(cover, target, exclude)
        return
    res = minimal_subcover(cover, target, exclude)
    assert (res.count, res.exact) == (expected, True)
    assert len(res.indices) == res.count and _covers(cover, res.indices, needed)


@st.composite
def reduction_cases(draw):
    # elements of up to three ranges over a few atoms; some ranges are empty
    # (first > last), some atoms lie under no range, and some elements are
    # repeated under a new index, so nothing among them is forced
    n_atoms = draw(st.integers(1, 10))
    block = st.tuples(st.integers(0, n_atoms), st.integers(-1, n_atoms - 1))
    elements = draw(st.lists(st.lists(block, min_size=1, max_size=3), min_size=1, max_size=6))
    repeats = draw(st.lists(st.sampled_from(range(len(elements))), max_size=3))
    elements += [elements[i] for i in repeats]
    rows = [(a, b, idx) for idx, el in enumerate(elements) for a, b in el]
    first, last, owner = (np.array(col, dtype=np.intp) for col in zip(*rows))
    return first, last, owner, n_atoms, repeats, len(elements) - len(repeats)


@given(reduction_cases())
@settings(max_examples=400, deadline=None)
def test_reduce_matches_loop_reference(case):
    first, last, owner, n_atoms, repeats, n_distinct = case
    cands, forced, leftover = covers._reduce(first, last, owner, n_atoms)
    expected = subcover_reduction_reference(first, last, owner, n_atoms)
    assert cands.tolist() == expected[0]
    assert forced.tolist() == expected[1]
    assert leftover.tolist() == expected[2]
    repeated = set(repeats) | set(range(n_distinct, n_distinct + len(repeats)))
    assert not repeated & set(forced.tolist())


def _with_every_atom_covered(first, last, n_atoms):
    """What ``_reduce`` leaves for the search: the parts with first <= last,
    and a one-atom part for each atom that none of them covers."""
    keep = first <= last
    first, last = first[keep], last[keep]
    depth = np.cumsum(np.bincount(first, minlength=n_atoms + 1) - np.bincount(last + 1, minlength=n_atoms + 1))
    holes = np.flatnonzero(depth[:-1] == 0)
    return np.append(first, holes).astype(np.intp), np.append(last, holes).astype(np.intp)


@st.composite
def sweep_cases(draw):
    # few distinct (first, last) values, so ties and one-atom parts are common
    n_atoms = draw(st.integers(1, 11))
    ranges = draw(st.lists(st.tuples(st.integers(0, n_atoms), st.integers(-1, n_atoms - 1)), max_size=10))
    first, last = (np.array([r[k] for r in ranges], dtype=np.intp) for k in (0, 1))
    first, last = _with_every_atom_covered(first, last, n_atoms)
    owner = np.array(draw(st.permutations(range(len(first)))), dtype=np.intp)
    return first, last, owner, n_atoms


def _search_single_intervals(first, last, owner, n_atoms) -> SubcoverResult:
    """``_branch_and_bound`` on one single-interval part per element; checks
    that its picks cover every atom and that the packing bound proved them
    minimal, with the sweep reference's count."""
    res = covers._branch_and_bound(first, last, owner, len(owner), n_atoms)
    expected = subcover_sweep_reference(first, last, owner, n_atoms)
    assert (res.count, res.exact) == (expected.count, True)
    by_owner = dict(zip(owner.tolist(), zip(first.tolist(), last.tolist())))
    covered = np.zeros(n_atoms, dtype=bool)
    for idx in res.indices:
        a, b = by_owner[idx]
        covered[a : b + 1] = True
    assert len(res.indices) == res.count and covered.all()
    return res


@given(sweep_cases())
@settings(max_examples=400, deadline=None)
def test_sweep_matches_tuple_reference(case):
    # on single intervals the search's first dive is the greedy sweep, and
    # the packing bound ends the search there
    _search_single_intervals(*case)


@st.composite
def long_sweep_cases(draw):
    # a chain of up to 300 ranges, each reaching at least to the start of the
    # next, so the greedy takes many picks and the search dives deep; a few
    # more ranges make ties, and half of the chains get a hole cut deep
    # into them, an atom that only a one-atom part then covers
    size = draw(st.integers(1, 300))
    gaps = np.array(draw(st.lists(st.integers(1, 3), min_size=size, max_size=size)), dtype=np.intp)
    extra = np.array(draw(st.lists(st.integers(0, 4), min_size=size, max_size=size)), dtype=np.intp)
    first = np.cumsum(gaps) - gaps
    last = first + gaps + extra - 1
    n_atoms = int(last.max()) + 1 + draw(st.sampled_from([0, 0, 1]))
    ties = draw(st.lists(st.tuples(st.integers(0, n_atoms), st.integers(-1, n_atoms - 1)), max_size=20))
    first = np.append(first, [a for a, _ in ties]).astype(np.intp)
    last = np.append(last, [b for _, b in ties]).astype(np.intp)
    if draw(st.booleans()):
        hole = draw(st.integers(n_atoms // 2, n_atoms - 1))
        last[(first <= hole) & (hole <= last)] = hole - 1
    first, last = _with_every_atom_covered(first, last, n_atoms)
    owner = np.array(draw(st.permutations(range(len(first)))), dtype=np.intp)
    return first, last, owner, n_atoms


@given(long_sweep_cases())
@settings(max_examples=200, deadline=None)
def test_long_sweep_matches_tuple_reference(case):
    _search_single_intervals(*case)


def test_sweep_of_one_part_per_atom():
    # 3000 picks, so the first dive holds 3000 frames
    n = 3000
    atoms = np.arange(n)
    owner = atoms[::-1].copy()
    res = _search_single_intervals(atoms, atoms, owner, n)
    assert res.indices == tuple(range(n - 1, -1, -1))


# signed zeros, and runs of four coordinates 0.6 * tol apart, which
# dedupe_sorted merges one by one in its loop
ATOM_COORDS = [-0.0, 0.0, *(g + k * 6e-13 for g in (0.25, 0.5, 0.75) for k in range(4)), 1.0]


@st.composite
def atomize_cases(draw):
    coord = st.sampled_from(ATOM_COORDS)

    def part():
        a, b = sorted((draw(coord), draw(coord)))
        if a == b:
            return Interval.point(a)
        return Interval(a, b, draw(st.booleans()), draw(st.booleans()))

    elements = [
        OpenSet(tuple(part() for _ in range(draw(st.integers(1, 3)))))
        for _ in range(draw(st.integers(1, 5)))
    ]
    ends = sorted(draw(coord) for _ in range(draw(st.sampled_from([2, 4]))))
    target = RegionSet.of(*zip(ends[0::2], ends[1::2]))
    # excluded points come from the same coordinates, so many lie on part ends
    return Cover(elements), target, PointSet.of(draw(st.lists(coord, max_size=4)))


@given(atomize_cases())
@settings(max_examples=400, deadline=None)
def test_atomize_matches_sort_and_snap_reference(case):
    # array_equal counts -0.0 and 0.0 as equal, as the representatives'
    # order of repeats may differ between the two sorts
    for got, expected in zip(covers._atomize(*case), subcover_atoms_reference(*case)):
        assert np.array_equal(got, expected)


@given(st.lists(
    st.tuples(st.integers(0, 3), st.sampled_from(GRID), st.sampled_from(GRID), st.booleans(), st.booleans()),
    max_size=12,
))
@settings(max_examples=300, deadline=None)
def test_canonical_merges_like_openset(rows):
    # rows are (key, lo, hi, lo_open, hi_open); empty intervals are dropped
    parts = {}
    for key, lo, hi, lo_open, hi_open in rows:
        if lo < hi or (lo == hi and not (lo_open or hi_open)):
            parts.setdefault(key, []).append(Interval(lo, hi, lo_open, hi_open))
    expected = part_rows(Cover(OpenSet(tuple(parts[key])) for key in sorted(parts)))
    dtypes = (np.intp, float, float, bool, bool)
    # as drawn, and sorted by (key, lo, closed first): sorted rows whose parts
    # do not overlap take the in-order path, touching and point parts included
    for rows in (rows, sorted(rows, key=lambda r: r[:2] + (r[3],))):
        cover = covers._canonical(*(np.array([r[i] for r in rows], dtype=t) for i, t in enumerate(dtypes)))
        assert part_rows(cover) == expected


def _parts_of(intervals):
    cols = zip(*((p.lo, p.hi, p.lo_open, p.hi_open) for p in intervals))
    return covers.Parts(np.arange(len(intervals)), *(np.array(c, dtype=t) for c, t in zip(cols, (float, float, bool, bool))))


@given(st.lists(st.tuples(grid_intervals(), grid_intervals()), min_size=1, max_size=20), grid_intervals())
@settings(max_examples=300, deadline=None)
def test_meet_is_interval_intersect(pairs, single):
    ps, qs = zip(*pairs)
    one = covers.Parts(None, single.lo, single.hi, single.lo_open, single.hi_open)
    # as row pairs, and against one interval broadcast over the rows
    for q_rows, qs in ((_parts_of(qs), qs), (one, [single] * len(ps))):
        meet, keep = covers._meet(_parts_of(ps), q_rows)
        expected = [p.intersect(q) for p, q in zip(ps, qs)]
        assert keep.tolist() == [w is not None for w in expected]
        assert meet.owner.tolist() == list(range(len(ps)))
        got = list(zip(*(col[keep].tolist() for col in meet[1:])))
        assert got == [(w.lo, w.hi, w.lo_open, w.hi_open) for w in expected if w is not None]


class TestCoverEntropy:
    def test_tent_natural(self, tent):
        series = cover_entropy(tent, natural_cover(tent), 8)
        assert [r.value for r in series.records] == [2**n for n in range(1, 9)]
        assert series.estimate == pytest.approx(math.log(2), abs=1e-9)
        assert series.estimates["slope-fit"] == pytest.approx(math.log(2), abs=1e-9)

    def test_identity_whole_cover(self):
        ident = catalog_get("identity").map
        series = cover_entropy(ident, Cover((OpenSet((ident.domain,)),)), 6)
        assert series.estimate == 0.0

    def test_tent_overlapping_halves(self, tent):
        # frozen from a direct refinement run; growth stays below the natural
        # cover's rate, consistent with refinement monotonicity
        series = cover_entropy(tent, Cover((OpenSet.of((0.0, 0.55)), OpenSet.of((0.45, 1.0)))), 8)
        assert [r.value for r in series.records] == [2, 4, 8, 16, 31, 59, 112, 212]
        assert all(r.flag is None for r in series.records)  # exact, no cap hit
        assert series.estimate <= math.log(2) + 1e-9
        assert series.estimate >= 0.5

    def test_tent_overlapping_halves_deep_search(self, tent):
        # every refined element is forced, so 17,884 elements are taken at
        # n = 15 without a search; a recursive search at n = 11 would go
        # 1421 picks deep, past Python's default recursion limit
        series = cover_entropy(tent, Cover((OpenSet.of((0.0, 0.55)), OpenSet.of((0.45, 1.0)))), 15)
        assert [r.value for r in series.records] == [
            2, 4, 8, 16, 31, 59, 112, 212, 400, 754, 1421, 2677, 5042, 9496, 17884,
        ]
        assert all(r.flag is None for r in series.records)

    def test_packing_bound_proves_overlapping_intervals(self):
        # at n = 6 the search runs on 9,375 leftover atoms; each first dive
        # meets the packing bound, so no count is flagged
        mod5 = catalog_get("mod5").map
        cover = Cover(tuple(OpenSet.of(p) for p in ((0.0, 0.5), (0.4, 0.6), (0.45, 0.65), (0.55, 1.0))))
        series = cover_entropy(mod5, cover, 6)
        assert [r.value for r in series.records] == [3, 8, 21, 55, 144, 377]
        assert all(r.flag is None for r in series.records)

    def test_cap_flags_the_last_record(self, tent):
        # at n = 4 and 5 every atom of the refined cover lies under two
        # elements, so nothing is forced, and the first dive of the search
        # takes one pick more than the optimum
        cover = Cover((OpenSet.of((0.0, 0.3), (0.6, 1.0)), OpenSet.of((0.0, 0.9))))
        # Delta^6 of tent has 63 points, past the cap
        series = cover_entropy(tent, cover, 8, cap=50)
        assert series.truncated
        assert [r.value for r in series.records] == [2, 3, 3, 4, 6]
        assert [r.flag for r in series.records] == [None, None, None, None, "truncated"]
        with mock.patch.object(covers, "DEFAULT_NODE_CAP", 1):
            series = cover_entropy(tent, cover, 8, cap=50)
        assert [r.value for r in series.records] == [2, 3, 4, 5, 7]
        assert [r.flag for r in series.records[-2:]] == ["inexact", "inexact+truncated"]

    def test_part_cap_holds_at_every_n(self):
        mod3 = catalog_get("mod3").map
        with mock.patch.object(covers, "DEFAULT_PART_CAP", 30):
            series = cover_entropy(mod3, natural_cover(mod3), 6)
        assert [r.n for r in series.records] == [1, 2, 3]
        assert [r.flag for r in series.records] == [None, None, "truncated"]
        # C¹ already has 3 parts: the first step is refused like any other
        with mock.patch.object(covers, "DEFAULT_PART_CAP", 2), pytest.raises(ResourceCapExceeded) as err:
            cover_entropy(mod3, natural_cover(mod3), 6)
        assert err.value.completed == 0

    def test_cover_not_covering_raises(self, tent):
        bad = Cover((OpenSet.of((0.0, 0.4)),))
        with pytest.raises(NotACoverError):
            cover_entropy(tent, bad, 4)
        # a gap at n = 1, checked against the cut set itself
        gap = Cover((OpenSet.of((0.0, 0.3)), OpenSet.of((0.35, 1.0))))
        with pytest.raises(NotACoverError, match=r"^target point 0.29999999999999999 is uncovered$"):
            cover_entropy(tent, gap, 4)

    def test_whole_domain_builds_no_delta_point(self, monkeypatch):
        # over the whole domain Δⁿ is read from the refinement's bare points
        # from n = 2; a region narrower than the domain excludes Δⁿ's points
        mod3 = catalog_get("mod3").map
        real, seen = covers.delta_n, []
        monkeypatch.setattr(covers, "delta_n", lambda pcmap, n, cap=None: seen.append(n) or real(pcmap, n, cap))
        whole = cover_entropy(mod3, natural_cover(mod3), 8)
        assert seen == [1]
        seen.clear()
        # narrower than the domain by less than an element of C⁸ is wide
        # (a region that a counted element misses can break submultiplicativity)
        near = cover_entropy(mod3, natural_cover(mod3), 8, region=RegionSet.of((0.0, 0.9999)))
        assert seen == list(range(1, 9))
        assert [r.value for r in whole.records] == [r.value for r in near.records] == [3**n for n in range(1, 9)]

    def test_tol_merged_bare_points_end_the_series(self):
        # at n = 18 tol merges lorenz-full's bare points to 261,874 of
        # |Δ¹⁸| = 262,143, where the built Δ¹⁸ refuses the same way
        lorenz = catalog_get("lorenz-full").map
        series = cover_entropy(lorenz, natural_cover(lorenz), 19)
        assert series.truncated
        assert [r.n for r in series.records] == list(range(1, 18))
        assert series.records[-1].value == 2**17 and series.records[-1].flag == "truncated"

    def test_bare_count_mismatch_ends_the_series(self, tent, monkeypatch):
        # |Δ³| read one high: the 7 bare points of C³ no longer match it
        real = symbolic.DeltaTable.delta_size
        monkeypatch.setattr(symbolic.DeltaTable, "delta_size", lambda self, n: real(self, n) + (n == 3))
        series = cover_entropy(tent, natural_cover(tent), 5)
        assert [r.value for r in series.records] == [2, 4]
        assert series.truncated and series.records[-1].flag == "truncated"
        monkeypatch.setattr(covers, "count_series", lambda method, records, estimator: list(records))
        with pytest.raises(ResourceCapExceeded) as info:
            cover_entropy(tent, natural_cover(tent), 5)
        assert str(info.value) == "Delta^3: expected 8 target points under no part, found 7"
        assert info.value.completed == 2

    def test_bare_gap_is_not_a_discontinuity_point(self, tent):
        cover = Cover((OpenSet.of((0.1, 0.5)), OpenSet.of((0.5, 1.0))))
        with pytest.raises(NotACoverError, match=r"^target point 0.050000000000000003 is uncovered$"):
            minimal_subcover(cover, X, PointSet.empty(tent.tol), 1)


BARE_COVERS = [
    None,  # the map's natural cover
    Cover((OpenSet.of((0.0, 0.55)), OpenSet.of((0.45, 1.0)))),
    Cover((OpenSet.of((0.0, 0.3), (0.6, 1.0)), OpenSet.of((0.2, 0.7)))),
    Cover(tuple(OpenSet.of(p) for p in ((0.0, 0.5), (0.4, 0.6), (0.45, 0.65), (0.55, 1.0)))),
]


@pytest.mark.parametrize("name", catalog_names())
def test_bare_points_give_the_delta_exclusion_result(name):
    # Cⁿ leaves exactly Δⁿ bare, so dropping its bare points from the whole
    # domain gives the subcover that excludes the built Δⁿ, as a whole result
    pcmap = catalog_get(name).map
    target = RegionSet.of((pcmap.domain.lo, pcmap.domain.hi))
    table = delta_table(pcmap)
    for cover in BARE_COVERS:
        cover = domainify_cover(natural_cover(pcmap) if cover is None else cover, pcmap.domain)
        for n, refined in enumerate(refinement_steps(pcmap, cover, 5 if name == "mod5" else 6), start=1):
            bare = minimal_subcover(refined, target, PointSet.empty(pcmap.tol), table.delta_size(n))
            assert bare == minimal_subcover(refined, target, delta_n(pcmap, n)), (name, n)


class TestBoundary:
    def test_tent(self, tent):
        assert list(boundary_of_refined_natural_cover(tent, 2)) == pytest.approx([0.25, 0.5, 0.75])

    def test_identity_empty(self):
        assert len(boundary_of_refined_natural_cover(catalog_get("identity").map, 3)) == 0

    def test_doubling_level_three(self):
        pts = boundary_of_refined_natural_cover(catalog_get("mod2").map, 3)
        assert len(pts) == 7
        d3 = delta_n(catalog_get("mod2").map, 3)
        assert np.allclose(list(pts), list(d3))


class TestAlephProperties:
    def _random_cover(self, rng, k):
        # overlapping segments that provably cover [0, 1]
        cuts = np.sort(rng.uniform(0.05, 0.95, size=k - 1))
        bounds = np.concatenate([[0.0], cuts, [1.0]])
        elements = []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            pad_lo = rng.uniform(0.01, 0.2)
            pad_hi = rng.uniform(0.01, 0.2)
            elements.append(OpenSet.of((lo - pad_lo, hi + pad_hi)))
        return domainify_cover(Cover(tuple(elements)), Interval.closed(0.0, 1.0))

    def _refine_elements(self, rng, cover):
        out = []
        for el in cover.elements:
            p = el.parts[0]
            mid = rng.uniform(p.lo + 0.25 * p.diameter, p.hi - 0.25 * p.diameter)
            pad = 0.05 * p.diameter
            out.append(OpenSet((Interval(p.lo, mid + pad, p.lo_open, True),)))
            out.append(OpenSet((Interval(mid - pad, p.hi, True, p.hi_open),)))
        return Cover(tuple(out))

    def test_monotone_product_subcollection(self):
        rng = np.random.RandomState(3)
        for _ in range(60):
            c = self._random_cover(rng, rng.randint(2, 6))
            d = self._refine_elements(rng, c)
            a_c = minimal_subcover_cardinality(c, X)
            a_d = minimal_subcover_cardinality(d, X)
            assert a_c <= a_d  # finer cover needs at least as many elements
            bigger = Cover(c.elements + (OpenSet.of((0.3, 0.7)),))
            assert minimal_subcover_cardinality(bigger, X) <= a_c  # sub-collection bound
            e = self._random_cover(rng, rng.randint(2, 5))
            a_ve = minimal_subcover_cardinality(vee([c, e]), X)
            assert a_ve <= a_c * minimal_subcover_cardinality(e, X)

    def test_pullback_bound(self, tent):
        rng = np.random.RandomState(5)
        for _ in range(40):
            c = self._random_cover(rng, rng.randint(2, 6))
            a_c = minimal_subcover_cardinality(c, X)
            for j in (1, 2):
                pb = pullback_cover(tent, c, j)
                a_pb = minimal_subcover_cardinality(pb, X, delta_n(tent, j))
                assert a_pb <= a_c

    def test_subadditivity_of_refinements(self, tent):
        counts = {}
        from pcentropy.covers import refinement_steps

        for n, cov in enumerate(refinement_steps(tent, natural_cover(tent), 8), start=1):
            counts[n] = minimal_subcover_cardinality(cov, X, delta_n(tent, n))
        for n in range(1, 5):
            for k in range(1, 5):
                assert math.log(counts[n + k]) <= math.log(counts[n]) + math.log(counts[k]) + 1e-9


SIXTEENTHS = [k / 16 for k in range(17)]


@st.composite
def lebesgue_cases(draw):
    """1-4 elements of 1-3 parts on the 1/16 grid, and a region of one part
    or two, the second a point when three ends are drawn."""
    cover = Cover(tuple(
        OpenSet(tuple(draw(grid_intervals(SIXTEENTHS)) for _ in range(draw(st.integers(1, 3)))))
        for _ in range(draw(st.integers(1, 4)))
    ))
    ends = sorted(draw(st.sampled_from(SIXTEENTHS)) for _ in range(draw(st.integers(2, 4))))
    bounds = [(ends[0], ends[1])]
    if len(ends) > 2:
        bounds.append((ends[2], ends[-1]))
    return cover, RegionSet.of(*bounds)


def _lebesgue_outcome(fn, cover, region):
    try:
        return fn(cover, region)
    except NotACoverError as exc:
        return str(exc), exc.witness


class TestLebesgue:
    @given(lebesgue_cases())
    @settings(max_examples=200, deadline=None)
    def test_matches_the_loop_reference(self, case):
        assert _lebesgue_outcome(lebesgue_number, *case) == _lebesgue_outcome(lebesgue_number_reference, *case)

    def test_every_ball_fits(self, tent):
        cov = domainify_cover(
            Cover((OpenSet.of((0.0, 0.55)), OpenSet.of((0.45, 1.0)))), tent.domain
        )
        delta = lebesgue_number(cov, X)
        assert delta > 0
        for x in np.linspace(0.0, 1.0, 1000):
            ball_lo, ball_hi = max(0.0, x - delta), min(1.0, x + delta)
            assert any(
                any(p.lo <= ball_lo and ball_hi <= p.hi for p in el.parts)
                for el in cov.elements
            )

    def test_one_point_region(self, tent):
        # both sides of the only grid point are domain-clipped
        assert lebesgue_number(natural_cover(tent), RegionSet.of((0.2, 0.2))) == math.inf

    def test_region_with_a_point_part(self, tent):
        # the grid on [0, 0.4] ends 0.1 below the cut at 0.5; the point 0.7 lies 0.2 above it
        region = RegionSet.of((0.0, 0.4), (0.7, 0.7))
        assert lebesgue_number(natural_cover(tent), region) == pytest.approx(0.1)

    def test_uncovered_point_raises(self):
        cov = Cover((OpenSet.of((0.0, 0.4)),))
        with pytest.raises(NotACoverError):
            lebesgue_number(cov, X)


@pytest.mark.parametrize("estimator", ["fekete-min", "slope-fit"])
def test_non_submultiplicative_cover_counts_raise(tent, monkeypatch, estimator):
    fake = iter([2, 5, 9, 17])
    monkeypatch.setattr(covers, "minimal_subcover", lambda *a: SubcoverResult(next(fake), (), True))
    with pytest.raises(SubadditivityError) as info:
        cover_entropy(tent, natural_cover(tent), 4, estimator=estimator)
    assert info.value.witness == (1, 1)
    assert str(info.value) == (
        "subcover counts are not submultiplicative: c_2=5 > c_1*c_1=4 "
        "(likely a tolerance undercount upstream)"
    )
