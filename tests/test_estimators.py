import math

import pytest

from pcentropy.catalog import get as catalog_get
from pcentropy.covers import cover_entropy, natural_cover
from pcentropy.errors import ResourceCapExceeded, SubadditivityError
from pcentropy.estimators import SeriesRecord, count_series, fekete_estimate, last_ratio, slope_fit
from pcentropy.intervals import RegionSet
from pcentropy.symbolic import ms_entropy


def log_series(fn, n_max):
    return [(n, math.log(fn(n))) for n in range(1, n_max + 1)]


class TestFekete:
    def test_exactly_linear(self):
        vals = [(n, n * math.log(2)) for n in range(1, 11)]
        assert fekete_estimate(vals) == pytest.approx(math.log(2), abs=1e-12)

    def test_rotation_like_counts(self):
        # closed form: min over n of log(n+1)/n is attained at n_max
        vals = log_series(lambda n: n + 1, 30)
        assert fekete_estimate(vals) == pytest.approx(math.log(31) / 30)

    def test_mixed_sequence_bracket(self):
        vals = log_series(lambda n: 2**n + n, 20)
        est = fekete_estimate(vals)
        assert math.log(2) <= est <= math.log(2) + math.log(1 + 20 / 2**20) / 20 + 1e-12

    def test_upper_bounds_the_limit(self):
        vals = log_series(lambda n: 3 * 2**n, 12)
        assert fekete_estimate(vals) >= math.log(2)

    def test_violation_reports_witness(self):
        vals = [(1, 0.0), (2, 0.0), (3, 1.0)]  # a_3 > a_1 + a_2
        with pytest.raises(SubadditivityError) as exc:
            fekete_estimate(vals)
        assert exc.value.witness in [(1, 2), (2, 1)]


class TestSlopeFit:
    def test_exactly_linear(self):
        vals = [(n, 0.7 + n * math.log(3)) for n in range(1, 9)]
        fit = slope_fit(vals)
        assert fit.slope == pytest.approx(math.log(3), abs=1e-12)
        assert fit.residual <= 1e-12

    def test_logarithmic_data_slope(self):
        # frozen from the closed-form least-squares oracle over the window n=16..30
        vals = log_series(lambda n: n + 1, 30)
        fit = slope_fit(vals)
        assert fit.window == (16, 30)
        assert fit.slope == pytest.approx(0.04250706081889847, abs=1e-12)
        assert fit.slope <= 0.043

    def test_mixed_sequence_converges(self):
        # frozen from the closed-form fit: window (11, 20) gives 0.69267...
        vals = log_series(lambda n: 2**n + n, 20)
        fit = slope_fit(vals)
        assert fit.window == (11, 20)
        assert abs(fit.slope - math.log(2)) <= 1e-3

    def test_too_few_records(self):
        with pytest.raises(ValueError):
            slope_fit([(1, 0.0), (2, 0.1), (3, 0.2)])

    def test_degenerate_window(self):
        with pytest.raises(ValueError):
            slope_fit([(1, 0.0), (2, 0.1), (3, 0.2), (100, 0.3)])


class TestLastRatio:
    def test_value(self):
        assert last_ratio([(1, 1.0), (10, 5.0)]) == pytest.approx(0.5)


class TestCountSeries:
    @staticmethod
    def capped_after(records, completed):
        yield from records
        raise ResourceCapExceeded("over the cap", completed=completed)

    def test_cap_ends_the_series_at_the_last_record(self):
        made = [SeriesRecord(1, 2), SeriesRecord(2, 4), SeriesRecord(3, 8, flag="inexact")]
        series = count_series("cover", self.capped_after(made, 3), "slope-fit")
        assert series.truncated
        assert [r.value for r in series.records] == [2, 4, 8]
        assert [r.flag for r in series.records] == [None, None, "inexact+truncated"]
        # three records cannot support a slope fit, so the estimate falls back
        assert series.estimate_method == "fekete-min"
        assert series.estimate == pytest.approx(math.log(2), abs=1e-12)

    def test_uncut_series_is_not_truncated(self):
        series = count_series("cover", (SeriesRecord(n, 2**n) for n in range(1, 5)), "slope-fit")
        assert not series.truncated and all(r.flag is None for r in series.records)
        with pytest.raises(ValueError, match="not computable"):
            count_series("cover", [SeriesRecord(1, 2), SeriesRecord(2, 4)], "slope-fit")

    def test_zero_count_names_the_route_and_level(self):
        # the region is anzie's cut point 0.7, pseudo-invariant since a
        # one-sided limit there stays in it, so the region minus Delta^1 is empty
        anzie = catalog_get("anzie").map
        with pytest.raises(ValueError, match=r"^cover route: subcover count c_1=0 is not positive.* at n=1 is empty"):
            cover_entropy(anzie, natural_cover(anzie), 4, region=RegionSet.of((0.7, 0.7)))

    def test_refusal_before_any_record_names_its_level(self):
        tent = catalog_get("tent").map
        for route in (lambda: ms_entropy(tent, 4, cap=0), lambda: cover_entropy(tent, natural_cover(tent), 4, cap=0)):
            with pytest.raises(ResourceCapExceeded) as info:
                route()
            assert str(info.value) == "Delta^1 holds 1 points (cap 0)"
            assert info.value.completed == 0

    def test_unknown_estimator_is_refused_before_any_record(self):
        def records():
            raise AssertionError("no record may be made")
            yield

        with pytest.raises(ValueError, match="unknown estimator 'slope-fti'"):
            count_series("cover", records(), "slope-fti")
        # a series that a cap truncates degrades a known estimator only
        with pytest.raises(ValueError, match="unknown estimator 'slope-fti'"):
            ms_entropy(catalog_get("mod5").map, 12, estimator="slope-fti")
