import math

import numpy as np
import pytest

from pcentropy.catalog import get as catalog_get
from pcentropy.catalog import names as catalog_names
from pcentropy.errors import InvarianceError, MapValidationError
from pcentropy.intervals import RegionSet
from pcentropy.maps import RIGHT, evaluate, evaluate_orbit, parse_map
from pcentropy.symbolic import count_pieces, delta_n, ms_entropy
from pcentropy.transforms import PlHomeo, conjugate_map, iterate_map, restrict_map
from reference import limit_orbit

PHI3 = PlHomeo(((0.0, 0.0), (0.35, 0.55), (1.0, 1.0)))
NARROW_LAP_SRC = (
    "domain = [0, 1]\n"
    "piece (0, 0.5): x inc\n"
    "piece (0.5, 0.50000000015): x inc\n"
    "piece (0.50000000015, 1): 1.5 - x dec\n"
)
STEEP_SRC = "domain = [0, 1]\npiece (0, 0.9): x / 0.9 inc\npiece (0.9, 1): (1 - x) / (1 - 0.9) dec\n"


class TestPlHomeo:
    def test_requires_monotone(self):
        with pytest.raises(ValueError):
            PlHomeo(((0.0, 0.0), (0.5, 1.0), (1.0, 0.5)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("at", [(1, 0), (1, 1), (2, 1)])
    def test_refuses_non_finite_nodes(self, bad, at):
        # a NaN abscissa compares false both ways, so only a check that each
        # abscissa rises refuses it
        nodes = [[0.0, 0.0], [0.5, 0.5], [1.0, 1.0]]
        nodes[at[0]][at[1]] = bad
        with pytest.raises(ValueError, match="node coordinates must be finite"):
            PlHomeo(tuple(map(tuple, nodes)))

    def test_inverse_roundtrip(self):
        inv = PHI3.inverse()
        for x in np.linspace(0, 1, 37):
            assert float(inv(PHI3(x))) == pytest.approx(x, abs=1e-12)

    def test_decreasing_supported(self):
        phi = PlHomeo(((0.0, 1.0), (1.0, 0.0)))
        assert not phi.increasing
        assert float(phi(0.25)) == pytest.approx(0.75)
        assert float(phi.inverse()(0.75)) == pytest.approx(0.25)


class TestIterateMap:
    def test_k_zero_is_identity(self, tent):
        f0 = iterate_map(tent, 0)
        assert f0.n_pieces == 1
        assert evaluate(f0, 0.37) == 0.37

    def test_k_one_is_same(self, tent):
        assert iterate_map(tent, 1) is tent

    def test_tent_squared_structure(self, tent):
        f2 = iterate_map(tent, 2)
        assert f2.n_pieces == 4
        assert list(f2.delta) == pytest.approx([0.25, 0.5, 0.75])

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("name", catalog_names())
    def test_branches_agree_with_orbit(self, name, k):
        f = catalog_get(name).map
        fk = iterate_map(f, k)
        cuts = delta_n(f, k).points
        lo, hi = f.domain.lo, f.domain.hi
        for x in np.linspace(lo + 1e-3 * (hi - lo), hi - 1e-3 * (hi - lo), 1000):
            if len(cuts) and np.abs(cuts - x).min() <= 1e-9:
                continue
            direct = evaluate_orbit(f, float(x), k + 1)[-1]
            assert evaluate(fk, float(x)) == pytest.approx(direct, abs=1e-9)
        # each piece's branch is the k-step limit orbit of its left end from the right
        for b in fk.branches:
            value, _, direction = limit_orbit(f, b.piece.lo, RIGHT, k)
            assert float(b.fn(b.piece.lo)) == pytest.approx(value, abs=1e-9)
            assert b.direction == direction

    def test_lap_narrower_than_twice_tol(self):
        # the middle piece is 1.5e-10 wide, so every point of it lies within
        # tol = 1e-10 of a cut; its branch comes from its image's midpoint
        f = parse_map(NARROW_LAP_SRC)
        f2 = iterate_map(f, 2)
        assert f2.n_pieces == 4
        for n in (1, 2, 3):
            assert count_pieces(f2, n) == count_pieces(f, 2 * n)

    def test_steep_branch_words(self):
        # laps of f^8 near 1 are about 1e-9 wide, and the rounding of their
        # ends, multiplied along the slope-10 branch, carries a lap end walked
        # forward past the cut 0.9; the image midpoints keep every word right
        f = parse_map(STEEP_SRC)
        f8 = iterate_map(f, 8)
        assert f8.n_pieces == count_pieces(f, 8, merge_removable=False)
        for b in f8.branches:
            x = 0.5 * (b.piece.lo + b.piece.hi)
            assert evaluate(f8, x) == pytest.approx(evaluate_orbit(f, x, 9)[-1], abs=1e-9)

    def test_power_identity_piece_counts(self, tent):
        for k in (2, 3):
            fk = iterate_map(tent, k)
            for n in range(1, 12 // k + 1):
                assert count_pieces(fk, n) == count_pieces(tent, k * n)

    def test_iterate_delta_matches_power_rule(self, tent):
        # the k-iterate's n-step cut set is the nk-step cut set of the base map
        f2 = iterate_map(tent, 2)
        for n in (1, 2, 3):
            assert np.allclose(list(delta_n(f2, n)), list(delta_n(tent, 2 * n)))


class TestConjugateMap:
    def test_identity_phi(self, tent):
        g = conjugate_map(tent, PlHomeo(((0.0, 0.0), (1.0, 1.0))))
        for x in np.linspace(0, 1, 101):
            assert evaluate(g, float(x)) == pytest.approx(evaluate(tent, float(x)), abs=1e-12)

    def test_affine_rescale(self, tent):
        g = conjugate_map(tent, PlHomeo(((0.0, 0.0), (1.0, 2.0))))
        assert (g.domain.lo, g.domain.hi) == (0.0, 2.0)
        assert list(g.delta) == pytest.approx([1.0])
        assert evaluate(g, 0.5) == pytest.approx(1.0)

    def test_piece_counts_invariant(self, tent):
        g = conjugate_map(tent, PHI3)
        for n in range(1, 11):
            assert len(delta_n(g, n)) == len(delta_n(tent, n))
            assert count_pieces(g, n) == count_pieces(tent, n)

    def test_semiconjugacy_relation_off_cuts(self, tent):
        g = conjugate_map(tent, PHI3)
        for x in np.linspace(0.01, 0.99, 301):
            if abs(x - 0.5) < 1e-6:
                continue
            assert float(PHI3(evaluate(tent, float(x)))) == pytest.approx(
                evaluate(g, float(PHI3(x))), abs=1e-9
            )

    def test_decreasing_phi(self, tent):
        g = conjugate_map(tent, PlHomeo(((0.0, 1.0), (1.0, 0.0))))
        assert list(g.delta) == pytest.approx([0.5])
        for n in range(1, 8):
            assert count_pieces(g, n) == count_pieces(tent, n)

    def test_domain_mismatch(self, tent):
        with pytest.raises(MapValidationError):
            conjugate_map(tent, PlHomeo(((0.0, 0.0), (2.0, 1.0))))


class TestRestrictMap:
    def test_full_domain_passes(self, tent):
        handle = restrict_map(tent, RegionSet.of((0.0, 1.0)))
        assert handle.checked_points > 0
        assert handle.report.startswith(f"invariance verified on {handle.checked_points} grid points")

    def test_anzie_right_block(self):
        an = catalog_get("anzie").map
        handle = restrict_map(an, RegionSet.of((0.7, 1.0)))
        sub = handle.as_pcmap()
        assert sub.n_pieces == 2
        assert list(sub.delta) == pytest.approx([0.85])
        assert ms_entropy(sub, 8).estimate == pytest.approx(math.log(2), abs=1e-9)
        # a left end within tol of the cut 0.7 takes the branch of (0.7, 0.85)
        sub = restrict_map(an, RegionSet.of((0.7 + 5e-11, 1.0))).as_pcmap()
        assert sub.n_pieces == 2
        right_of_cut = an.branches[an.delta.index_near(0.7) + 1]
        assert sub.branches[0].expr == right_of_cut.expr
        assert sub.branches[0].increasing == right_of_cut.increasing

    def test_tent_left_half_fails_with_witness(self, tent):
        with pytest.raises(InvarianceError) as exc:
            restrict_map(tent, RegionSet.of((0.0, 0.5)))
        assert 0.25 <= exc.value.witness <= 0.5

    def test_region_outside_domain(self, tent):
        with pytest.raises(InvarianceError):
            restrict_map(tent, RegionSet.of((0.5, 1.5)))

    def test_multi_part_region_has_no_pcmap(self, tent):
        handle = restrict_map(tent, RegionSet.of((0.0, 1.0)))
        object.__setattr__(handle, "region", RegionSet.of((0.0, 0.2), (0.8, 1.0)))
        with pytest.raises(MapValidationError):
            handle.as_pcmap()

    def test_restriction_entropy_bounded_by_full(self):
        an = catalog_get("anzie").map
        handle = restrict_map(an, RegionSet.of((0.7, 1.0)))
        restricted = ms_entropy(handle.as_pcmap(), 8, estimator="fekete-min")
        full = ms_entropy(an, 8, estimator="fekete-min")
        assert restricted.estimate <= full.estimate + 1e-9
