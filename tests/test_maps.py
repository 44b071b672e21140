import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcentropy.catalog import get as catalog_get, names as catalog_names
from pcentropy.covers import cover_entropy, natural_cover
from pcentropy.errors import DomainError, ExprParseError, MapValidationError, MonotonicityError
from pcentropy import maps
from pcentropy.expr import compile_expr, parse_expression
from pcentropy.intervals import Interval
from pcentropy.maps import (
    _INVERSE_TOL,
    LEFT,
    RIGHT,
    Branch,
    branch_preimages,
    build_map,
    evaluate,
    evaluate_many,
    evaluate_orbit,
    limit_step,
    parse_map,
)
from pcentropy.symbolic import ms_entropy
from pcentropy.transforms import PlHomeo, conjugate_map, iterate_map
from reference import branch_inverse, branch_preimage_scalar, limit_orbit, orbit_avoids_delta

TENT_SRC = "domain = [0, 1]\npiece (0, 0.5): 2*x inc\npiece (0.5, 1): 2 - 2*x dec\n"


@pytest.fixture(scope="module")
def doubling():
    return catalog_get("mod2").map


class TestParseMap:
    def test_tent_parse(self):
        m = parse_map(TENT_SRC)
        assert m.n_pieces == 2
        assert list(m.delta) == [0.5]
        assert m.branches[0].increasing and not m.branches[1].increasing

    def test_identity_parse(self):
        m = parse_map("domain = [0, 1]\npiece (0, 1): x\n")
        assert m.n_pieces == 1 and len(m.delta) == 0
        assert m.branches[0].increasing  # direction inferred from endpoint values

    def test_equal_maps_hash_equal(self):
        a, b = parse_map(TENT_SRC), parse_map(TENT_SRC)
        assert a is not b and a == b
        assert hash(a) == hash(b) == hash((a.domain, a.branches, a.at_delta))
        assert {a: "table"}[b] == "table"
        assert a != parse_map(TENT_SRC.replace("at_delta", "").replace("domain = [0, 1]", "domain = [0, 1]\nat_delta = right"))

    def test_overlapping_pieces(self):
        src = "domain = [0, 1]\npiece (0, 0.6): x inc\npiece (0.5, 1): x inc\n"
        with pytest.raises(MapValidationError, match="overlap"):
            parse_map(src)

    def test_gap_between_pieces(self):
        src = "domain = [0, 1]\npiece (0, 0.4): x inc\npiece (0.5, 1): x inc\n"
        with pytest.raises(MapValidationError, match="gap"):
            parse_map(src)

    def test_piece_no_wider_than_tol(self):
        # the two cut points would be one point to the merges of Delta^n
        src = "domain = [0, 1]\npiece (0, 0.5): 2*x inc\npiece (0.5, 0.50000000005): x inc\npiece (0.50000000005, 1): 2 - 2*x dec\n"
        with pytest.raises(MapValidationError, match=r"piece \(0.5, 0.50000000005\) is no wider than the map tolerance"):
            parse_map(src)

    def test_image_escape(self):
        with pytest.raises(MapValidationError, match="escapes"):
            parse_map("domain = [0, 1]\npiece (0, 1): 2*x inc\n")

    def test_monotonicity_violation(self):
        src = "domain = [-1, 1]\npiece (-1, 1): x^2 inc\n"
        with pytest.raises(MapValidationError):
            parse_map(src)

    def test_flat_once_clipped_to_the_domain(self):
        # the second branch climbs only 5e-11 above 1, within the image
        # tolerance, so evaluation snaps it to 1 and it is flat there
        src = "domain = [0, 1]\npiece (0, 0.5): 2*x inc\npiece (0.5, 1): 1 + 1e-10*(x - 0.5) inc\n"
        with pytest.raises(MapValidationError, match=r"\(0.5, 1\] is not strictly increasing"):
            parse_map(src)

    @pytest.mark.parametrize("body", ["x + 1/0", "x/0", "1/(x-x)"])
    def test_division_by_zero_without_direction(self, body):
        # the direction is read from the table, which refuses the branch
        with pytest.raises(MapValidationError, match="divides by zero|not evaluable everywhere"):
            parse_map(f"domain = [0, 1]\npiece (0, 1): {body}\n")

    @pytest.mark.parametrize("tail", [" inc", ""])
    def test_division_by_zero_at_a_piece_end_runs_every_route(self, tail):
        # 1/x^-1 is x on arrays, but a Python float raises at x = 0
        pcmap = parse_map(f"domain = [0, 1]\npiece (0, 1): 1 / x^-1{tail}\n")
        assert pcmap.branches[0].increasing and pcmap.branches[0].image == (0.0, 1.0)
        assert limit_step(pcmap, 0.0, LEFT) == (0.0, LEFT, 0)
        assert [r.value for r in ms_entropy(pcmap, 4).records] == [1, 1, 1, 1]
        assert [r.value for r in cover_entropy(pcmap, natural_cover(pcmap), 3).records] == [1, 1, 1]

    def test_image_is_the_scalar_value_at_the_piece_ends(self):
        for name in catalog_names():
            m = catalog_get(name).map
            for pcmap in (m, iterate_map(m, 2), iterate_map(m, 3)):
                for b in pcmap.branches:
                    lo_val, hi_val = float(b.fn(b.piece.lo)), float(b.fn(b.piece.hi))
                    assert b.image == (min(lo_val, hi_val), max(lo_val, hi_val)), name

    def test_wrong_declared_direction(self):
        with pytest.raises(MapValidationError):
            parse_map("domain = [0, 1]\npiece (0, 1): x dec\n")

    def test_syntax_error_carries_position(self):
        with pytest.raises(ExprParseError) as exc:
            parse_map("domain = [0, 1]\npiece (0, 1): 2*+x inc\n")
        assert exc.value.line == 2

    @pytest.mark.parametrize(
        "line",
        ["domain = [0, 1e999]", "domain = [1e999, 1]", "  piece (0, 1e999): x", "piece (1e999, 1): x",
         "piece (0, 1):x + 1e999"],
    )
    def test_error_column_in_bounds_and_body(self, line):
        src = line if line.startswith("domain") else f"domain = [0, 1]\n{line}"
        with pytest.raises(ExprParseError) as exc:
            parse_map(src + "\n")
        assert exc.value.column == line.index("1e999") + 1

    def test_inferred_direction_compiles_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(maps, "compile_expr", lambda e: calls.append(e) or compile_expr(e))
        pcmap = parse_map(catalog_get("lorenz-full").source.replace(" inc", ""))
        assert [b.increasing for b in pcmap.branches] == [True, True]
        assert len(calls) == pcmap.n_pieces == 2

    def test_comments_and_fractional_bounds(self):
        src = "# a map\ndomain = [0, 1]\npiece (0, 1/3): 3*x inc  # left\npiece (1/3, 1): 1.5 - 1.5*x dec\n"
        m = parse_map(src)
        assert list(m.delta) == [1.0 / 3.0]

    def test_missing_domain(self):
        with pytest.raises(ExprParseError, match="domain"):
            parse_map("piece (0, 1): x\n")

    def test_at_delta_parsing(self):
        m = parse_map("domain = [0, 1]\nat_delta = right\npiece (0, 1): x\n")
        assert m.at_delta == "right"

    def test_duplicate_at_delta_line(self):
        # like a second domain line, a second at_delta line is refused, even
        # one that repeats the first
        for second in ("right", "left"):
            with pytest.raises(ExprParseError, match="duplicate at_delta line") as exc:
                parse_map(f"domain = [0, 1]\nat_delta = left\nat_delta = {second}\npiece (0, 1): x\n")
            assert exc.value.line == 3


class TestEvaluate:
    def test_tent_values(self, tent):
        assert evaluate(tent, 0.25) == pytest.approx(0.5)
        assert evaluate(tent, 0.0) == 0.0
        assert evaluate(tent, 1.0) == 0.0

    def test_identity(self, identity):
        assert evaluate(identity, 0.7) == 0.7

    def test_doubling(self, doubling):
        assert evaluate(doubling, 0.75) == pytest.approx(0.5)

    def test_outside_domain(self, tent):
        with pytest.raises(DomainError):
            evaluate(tent, 1.5)

    def test_at_delta_conventions(self):
        left = build_map((0, 1), [(0, 0.5, parse_expression("2*x"), True),
                                  (0.5, 1, parse_expression("2*x - 1"), True)], at_delta="left")
        right = build_map((0, 1), [(0, 0.5, parse_expression("2*x"), True),
                                   (0.5, 1, parse_expression("2*x - 1"), True)], at_delta="right")
        assert evaluate(left, 0.5) == 1.0
        assert evaluate(right, 0.5) == 0.0

    @pytest.mark.parametrize("name", catalog_names())
    def test_evaluate_is_the_convention_side_limit(self, name):
        """``evaluate`` agrees with ``limit_step`` from the convention side at
        every cut, just inside both domain ends and at random interior points."""
        pcmap = catalog_get(name).map
        side = LEFT if pcmap.at_delta == "left" else RIGHT
        lo, hi = pcmap.domain.lo, pcmap.domain.hi
        rng = np.random.default_rng(0)
        xs = [*pcmap.delta, lo + 1e-11, hi - 1e-11, *rng.uniform(lo, hi, 200).tolist()]
        for x in xs:
            assert evaluate(pcmap, x) == limit_step(pcmap, x, side)[0], x

    def test_evaluate_snaps_to_a_domain_end(self, tent):
        assert evaluate(tent, 1e-11) == 0.0
        assert evaluate(tent, 1 - 1e-11) == 0.0

    def test_evaluate_many_matches_scalar(self, tent):
        xs = np.linspace(0.01, 0.99, 97)
        np.testing.assert_allclose(evaluate_many(tent, xs), [evaluate(tent, float(x)) for x in xs])


class TestOrbits:
    def test_tent_orbit(self, tent):
        assert evaluate_orbit(tent, 0.25, 3) == pytest.approx([0.25, 0.5, 1.0])

    def test_identity_orbit_constant(self, identity):
        assert evaluate_orbit(identity, 0.3, 5) == [0.3] * 5

    def test_doubling_period_two(self, doubling):
        orbit = evaluate_orbit(doubling, 1 / 3, 4)
        assert orbit == pytest.approx([1 / 3, 2 / 3, 1 / 3, 2 / 3], abs=1e-12)

    def test_orbit_avoids_delta(self, tent, identity):
        assert not orbit_avoids_delta(tent, 0.5, 1)
        assert orbit_avoids_delta(tent, 1 / 3, 10)  # orbit is {1/3, 2/3}
        assert orbit_avoids_delta(identity, 0.123, 50)

    def test_orbit_avoids_matches_delta_membership(self, tent):
        from pcentropy.symbolic import delta_n

        d4 = delta_n(tent, 4)
        for x in np.linspace(0.01, 0.99, 197):
            assert orbit_avoids_delta(tent, float(x), 4) == (not d4.contains(float(x)))


class TestBranchInverse:
    def test_tent_right_branch(self, tent):
        assert branch_inverse(tent.branches[1], 0.5, 1e-12) == pytest.approx(0.75)

    def test_out_of_range(self, tent):
        affine = build_map((0, 1), [(0, 0.5, parse_expression("2*x"), True),
                                    (0.5, 1, parse_expression("2 - 2*x"), False)])
        assert branch_inverse(affine.branches[0], 1.5, 1e-12) is None

    def test_cubic_bisection(self):
        m = build_map((0, 1), [(0, 1, parse_expression("x^3"), True)])
        x = branch_inverse(m.branches[0], 0.125, 1e-10)
        assert x == pytest.approx(0.5, abs=1e-10)

    @pytest.mark.parametrize("name", ["tent", "lorenz-full", "asym-tent", "mod3", "iet2-golden"])
    def test_inverse_of_evaluate_roundtrip(self, name):
        m = catalog_get(name).map
        rng = np.random.RandomState(11)
        tol = 1e-12
        for b in m.branches:
            xs = rng.uniform(b.piece.lo, b.piece.hi, 1000)
            for x in xs:
                y = float(b.fn(float(x)))
                back = branch_inverse(b, y, tol)
                assert back is not None and abs(back - x) <= 10 * tol + 1e-9 * abs(x)


PHI = PlHomeo(((0.0, 0.0), (0.35, 0.55), (1.0, 1.0)))
SMOOTH_BRANCHES = [
    b
    for m in (
        catalog_get("lorenz-full").map,
        conjugate_map(catalog_get("tent").map, PHI),
        conjugate_map(catalog_get("anzie").map, PHI),
        iterate_map(catalog_get("lorenz-full").map, 2),
    )
    for b in m.branches
    if b.affine is None
]


@settings(max_examples=200, deadline=None)
@given(
    branch=st.sampled_from(SMOOTH_BRANCHES),
    targets=st.lists(
        st.one_of(
            st.floats(-0.05, 1.05),
            st.sampled_from([0.0, 1.0, -1e-15, 1 + 1e-15, -2e-15, 1 + 2e-15, 0.55, 0.5, 1e-20, 1 - 1e-16]),
        ),
        min_size=1,
        max_size=40,
    ),
)
def test_branch_preimages_matches_mirror_and_bisection(branch, targets):
    """The kernel equals its scalar mirror bit for bit, and lies within
    2 * _INVERSE_TOL of the bisection oracle, which shares none of its steps."""
    xs = branch_preimages(branch, np.asarray(targets))
    for y, x in zip(targets, xs.tolist()):
        mirror = branch_preimage_scalar(branch, y)
        assert x == mirror or (np.isnan(x) and np.isnan(mirror)), (y, x, mirror)
        ref = branch_inverse(branch, y, _INVERSE_TOL)
        if ref is None:
            assert np.isnan(x), (y, x)
        else:
            assert abs(x - ref) <= 2 * _INVERSE_TOL, (y, x, ref)


def _direct_branch(text: str, increasing: bool = True) -> Branch:
    """A branch on [0, 1] that skips build_map's validation."""
    return Branch(Interval.closed(0.0, 1.0), parse_expression(text), increasing)


class TestBranchPreimages:
    def test_all_catalog_branches_match_mirror(self):
        for name in catalog_names():
            for b in catalog_get(name).map.branches:
                lo, hi = b.image
                ys = np.concatenate([np.linspace(lo - 0.01, hi + 0.01, 101), [lo, hi, 0.5]])
                xs = branch_preimages(b, ys)
                mirror = np.array([branch_preimage_scalar(b, y) for y in ys.tolist()])
                assert np.array_equal(xs, mirror, equal_nan=True), name

    @pytest.mark.parametrize("power", [9, 25])
    def test_flat_branch_converges(self, power):
        # near the critical point of x^p the secant rounds creep a tol/2 at a
        # time; the bisection rounds after them still end inside 2 * tol
        b = _direct_branch(f"x^{power}")
        ys = np.array([1e-100, 1e-80, 1e-50, 1e-20, 0.5])
        xs = branch_preimages(b, ys)
        for y, x in zip(ys.tolist(), xs.tolist()):
            assert x == branch_preimage_scalar(b, y)
            assert abs(x - branch_inverse(b, y, _INVERSE_TOL)) <= 2 * _INVERSE_TOL, (y, x)

    def test_end_values_contradict_direction(self):
        b = _direct_branch("1 - x^2", increasing=True)
        with pytest.raises(MonotonicityError, match="contradict declared direction"):
            branch_preimages(b, np.array([0.5]))
        with pytest.raises(MonotonicityError, match="contradict declared direction"):
            branch_preimage_scalar(b, 0.5)

    def test_out_of_range_value_is_a_bracket_violation(self):
        # a bump between the last two table points lifts f above f(1) = 1;
        # the table sees f(x) = x, so the secant point for the target c is c
        c = 1 - 0.5 / (maps.BRACKET_GRID - 1)
        b = _direct_branch(f"x + max(0, 0.001 - 2.5*abs(x - {c!r}))")
        assert np.array_equal(b.brackets[1], b.brackets[0])
        with pytest.raises(MonotonicityError, match="bracket violation at 0.99951"):
            branch_preimages(b, np.array([0.25, c]))
        with pytest.raises(MonotonicityError, match="bracket violation at 0.99951"):
            branch_preimage_scalar(b, c)

    def test_table_dip_between_validation_points(self):
        # the dip is narrower than the table spacing and sits on one table
        # point: parse_map refuses it on that table, and a branch built
        # directly, which skips build_map, refuses it when inverted
        c = 0.5 + 1 / (maps.BRACKET_GRID - 1)
        body = f"x^3 - max(0, 0.01 - 100*abs(x - {c!r}))"
        with pytest.raises(MapValidationError, match="not strictly increasing on the validation grid"):
            parse_map(f"domain = [0, 1]\npiece (0, 1): {body} inc\n")
        b = _direct_branch(body)
        with pytest.raises(MonotonicityError, match=f"bracket table decreases at {c!r}"):
            branch_preimages(b, np.array([0.2]))
        # a target outside the image reads no table
        assert np.isnan(branch_preimages(b, np.array([2.0]))).all()


class TestLimits:
    def test_limit_matches_approach_sequence(self, doubling):
        # left limit at the cut: f(0.5 - h) -> 1; the sequence stays outside
        # the snap tolerance so the convention at the cut never kicks in
        v, side, _ = limit_step(doubling, 0.5, LEFT)
        seq = [evaluate(doubling, 0.5 - 10.0**-k) for k in range(4, 9)]
        assert v == pytest.approx(seq[-1], abs=1e-7)
        v_r, _, _ = limit_step(doubling, 0.5, RIGHT)
        assert v_r == pytest.approx(0.0, abs=1e-12)

    def test_limit_orbit_direction(self, tent):
        # approaching the peak from the left: image approaches 1 from the left
        v, side, d = limit_orbit(tent, 0.5, LEFT, 1)
        assert v == 1.0 and side == LEFT and d == 1
        # second step goes through the decreasing branch: side flips
        v2, side2, d2 = limit_orbit(tent, 0.5, LEFT, 2)
        assert v2 == pytest.approx(0.0) and side2 == RIGHT and d2 == -1

    @pytest.mark.parametrize("name", catalog_names())
    def test_monotone_on_grid(self, name):
        m = catalog_get(name).map
        for b in m.branches:
            xs = np.linspace(b.piece.lo, b.piece.hi, 1000)
            vals = np.asarray(b.fn(xs), dtype=float)
            diffs = np.diff(vals)
            assert (diffs > 0).all() if b.increasing else (diffs < 0).all()
