import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from pcentropy import bowen, cli
from pcentropy.cli import main
from pcentropy.maps import evaluate, parse_map

TENT_SRC = "domain = [0, 1]\npiece (0, 0.5): 2*x inc\npiece (0.5, 1): 2 - 2*x dec\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEntropyCommand:
    def test_ms_tent_csv(self, capsys):
        code, out, _ = run(capsys, "entropy", "--catalog", "tent", "--method", "ms", "--n-max", "10")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "method,n,eps,value,flag"
        assert lines[1].startswith("misiurewicz-szlenk,1,,2,")
        est = lines[-1].split(",")
        assert est[0] == "estimate" and est[4] == "slope-fit"
        assert float(est[3]) == pytest.approx(0.693147, abs=1e-6)

    def test_all_methods_identity(self, capsys):
        code, out, _ = run(
            capsys, "entropy", "--catalog", "identity", "--method", "all",
            "--n-max", "6", "--n-range", "2:6", "--eps", "0.1,0.05", "--grid", "129",
        )
        assert code == 0
        estimates = [float(l.split(",")[3]) for l in out.strip().split("\n") if l.startswith("estimate")]
        assert len(estimates) == 4  # ms, cover, bowen-separated, bowen-spanning
        assert all(abs(e) <= 0.05 for e in estimates)

    def test_map_file_bowen(self, capsys, tmp_path):
        f = tmp_path / "tent.pcm"
        f.write_text(TENT_SRC)
        code, out, _ = run(
            capsys, "entropy", "--map", str(f), "--method", "bowen",
            "--n-range", "3:7", "--eps", "0.05,0.02", "--grid", "1025",
        )
        assert code == 0
        methods = {l.split(",")[0] for l in out.strip().split("\n")[1:]}
        assert {"bowen-separated", "bowen-spanning", "estimate"} <= methods

    @pytest.mark.parametrize(
        "body",
        ["1 / x^-1 inc", "1 / x^-1", "min(x, (max(x, 1) / ((x-x) * 11/16))) inc"],
        ids=[" inc", "", "after-max"],
    )
    def test_division_by_zero_at_a_piece_end(self, capsys, tmp_path, body):
        # both bodies are x on arrays; on Python floats 1/x^-1 divides by
        # zero at 0.0 and the other everywhere, after a call to max.  No
        # route may raise or warn on either
        f = tmp_path / "recip.pcm"
        f.write_text(f"domain = [0, 1]\npiece (0, 1): {body}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(
                capsys, "entropy", "--map", str(f), "--method", "all",
                "--n-max", "4", "--n-range", "2:4", "--eps", "0.1", "--grid", "129",
            )
        assert (code, err) == (0, "")
        estimates = [float(l.split(",")[3]) for l in out.strip().split("\n") if l.startswith("estimate")]
        assert len(estimates) == 4 and all(abs(e) <= 0.05 for e in estimates)

    def test_csv_byte_stable(self, capsys, tmp_path):
        argv = ["entropy", "--catalog", "mod3", "--method", "ms", "--n-max", "8"]
        outputs = []
        for out_file in ("a.csv", "b.csv"):
            path = tmp_path / out_file
            code = main(argv + ["--out", str(path)])
            assert code == 0
            outputs.append(path.read_bytes())
        capsys.readouterr()
        assert outputs[0] == outputs[1]
        assert b"\r" not in outputs[0]

    def test_json_lines(self, capsys):
        code, out, _ = run(
            capsys, "entropy", "--catalog", "tent", "--method", "ms", "--n-max", "6",
            "--output", "json-lines",
        )
        assert code == 0
        rows = [json.loads(l) for l in out.strip().split("\n")]
        assert rows[0]["method"] == "misiurewicz-szlenk" and rows[0]["value"] == 2
        assert rows[-1]["method"] == "estimate"

    def test_tsv(self, capsys):
        code, out, _ = run(capsys, "entropy", "--catalog", "tent", "--output", "tsv", "--n-max", "4")
        assert code == 0
        assert out.split("\n")[0] == "method\tn\teps\tvalue\tflag"

    def test_truncation_exit_code(self, capsys, monkeypatch):
        monkeypatch.setenv("PCENTROPY_CAP", "50")
        code, out, _ = run(capsys, "entropy", "--catalog", "mod3", "--method", "ms", "--n-max", "10")
        assert code == 2
        assert "truncated" in out
        # 3 records cannot support a slope fit; the estimate degrades gracefully
        assert out.strip().split("\n")[-1].endswith("fekete-min")

    def test_power_k(self, capsys):
        code, out, _ = run(
            capsys, "entropy", "--catalog", "tent", "--method", "ms", "--n-max", "5", "--power-k", "2",
        )
        assert code == 0
        est = float(out.strip().split("\n")[-1].split(",")[3])
        assert est == pytest.approx(2 * math.log(2), abs=1e-9)

    def test_zero_cap_names_the_refused_level(self, capsys, monkeypatch):
        monkeypatch.setenv("PCENTROPY_CAP", "0")
        code, out, err = run(capsys, "entropy", "--catalog", "tent", "--method", "ms")
        assert (code, out, err) == (1, "", "error: Delta^1 holds 1 points (cap 0)\n")

    @pytest.mark.parametrize("raw", ["abc", "1e6", "-5"])
    def test_bad_cap_rejected(self, capsys, monkeypatch, raw):
        monkeypatch.setenv("PCENTROPY_CAP", raw)
        code, out, err = run(capsys, "entropy", "--catalog", "tent", "--method", "ms", "--n-max", "4")
        assert code == 1
        assert out == ""
        assert f"PCENTROPY_CAP must be a non-negative integer, got '{raw}'" in err

    def test_zero_cap_fits_a_map_without_cuts(self, capsys, monkeypatch):
        monkeypatch.setenv("PCENTROPY_CAP", "0")
        code, out, _ = run(
            capsys, "entropy", "--catalog", "identity", "--method", "ms", "--n-max", "4", "--estimator", "fekete-min",
        )
        assert code == 0
        assert "truncated" not in out

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_power_k_below_one_rejected(self, capsys, k):
        code, out, err = run(
            capsys, "entropy", "--catalog", "tent", "--method", "ms", "--n-max", "4", "--power-k", k,
        )
        assert code == 1
        assert out == ""
        assert "--power-k must be >= 1" in err

    def test_region_restriction(self, capsys):
        code, out, _ = run(
            capsys, "entropy", "--catalog", "anzie", "--method", "ms",
            "--n-max", "8", "--region", "[0.7, 1]",
        )
        assert code == 0
        est = float(out.strip().split("\n")[-1].split(",")[3])
        assert est == pytest.approx(math.log(2), abs=1e-6)

    def test_multi_part_region(self, capsys, tmp_path):
        # identity on [0, 0.2], three full slope-3 branches onto [0.2, 0.5],
        # a tent on [0.5, 1]: the region [0, 0.2] u [0.5, 1] carries log 2
        f = tmp_path / "three-parts.pcm"
        f.write_text(
            "domain = [0, 1]\n"
            "piece (0, 0.2): x\n"
            "piece (0.2, 0.3): 3*x - 0.4\n"
            "piece (0.3, 0.4): 3*x - 0.7\n"
            "piece (0.4, 0.5): 3*x - 1\n"
            "piece (0.5, 0.75): 2*x - 0.5\n"
            "piece (0.75, 1): 2.5 - 2*x\n"
        )
        argv = ["entropy", "--map", str(f), "--n-max", "8", "--region", "[0,0.2]|[0.5,1]"]
        for method in ("ms", "all"):
            code, out, err = run(capsys, *argv, "--method", method)
            assert code == 1
            assert out == ""
            assert "only single-interval regions restrict to a pc-map" in err
        code, out, _ = run(capsys, *argv, "--method", "cover")
        assert code == 0
        est = float(out.strip().split("\n")[-1].split(",")[3])
        assert est == pytest.approx(math.log(2), abs=0.01)

    def test_custom_cover(self, capsys):
        code, out, _ = run(
            capsys, "entropy", "--catalog", "tent", "--method", "cover",
            "--n-max", "6", "--cover", "{(0,0.55), (0.45,1)}",
        )
        assert code == 0
        est = float(out.strip().split("\n")[-1].split(",")[3])
        assert est <= math.log(2) + 1e-9

    def test_union_cover_literal(self, capsys):
        code, out, _ = run(
            capsys, "entropy", "--catalog", "tent", "--method", "cover",
            "--n-max", "4", "--cover", "{(0,0.3)|(0.6,1), (0.2,0.7)}",
        )
        assert code == 0

    @pytest.mark.parametrize("literal", [
        "{(0,0.6) (0.4,1)}",
        "{(0,0.6);(0.4,1)}",
        "{(0,0.3),(0.2,1) junk (0.5,0.6)}",
    ])
    def test_malformed_cover_literal_rejected(self, capsys, literal):
        code, out, err = run(
            capsys, "entropy", "--catalog", "tent", "--method", "cover", "--n-max", "3", "--cover", literal,
        )
        assert code == 1 and out == ""
        assert "bad cover literal" in err

    @pytest.mark.parametrize("method, estimator, expected", [
        ("cover", None, "fekete-min"),
        ("cover", "last-ratio", "last-ratio"),
        ("cover", "slope-fit", "slope-fit"),
        ("ms", None, "slope-fit"),
        ("ms", "last-ratio", "last-ratio"),
    ])
    def test_estimator_reaches_both_count_routes(self, capsys, method, estimator, expected):
        argv = ["entropy", "--catalog", "tent", "--method", method, "--n-max", "6"]
        if estimator is not None:
            argv += ["--estimator", estimator]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        est = out.strip().split("\n")[-1].split(",")
        assert est[4] == expected
        if expected == "last-ratio":
            last = out.strip().split("\n")[-2].split(",")
            assert float(est[3]) == math.log(float(last[3])) / 6

    @pytest.mark.parametrize("phi", ["[(0,0),(0.5", "[(0,0),(1,1)", "5", "[(0,0),(0.5,0.6,7),(1,1)]"])
    @pytest.mark.parametrize("command", ["entropy", "verify"])
    def test_malformed_phi_rejected(self, capsys, command, phi):
        code, out, err = run(capsys, command, "--catalog", "tent", "--n-max", "3", "--phi", phi)
        assert code == 1 and out == ""
        assert err == f"error: bad phi literal {phi!r}; expected [(x0, y0), (x1, y1), ...]\n"

    @pytest.mark.parametrize("command", ["entropy", "verify"])
    def test_non_finite_phi_rejected(self, capsys, command):
        phi = '[(0,0),("nan",0.5),(1,1)]'
        code, out, err = run(capsys, command, "--catalog", "tent", "--n-max", "3", "--phi", phi)
        assert code == 1 and out == ""
        assert err == "error: node coordinates must be finite\n"

    def test_cap_truncates_cover_route(self, capsys, monkeypatch):
        monkeypatch.setenv("PCENTROPY_CAP", "50")
        code, out, _ = run(capsys, "entropy", "--catalog", "mod3", "--method", "cover", "--n-max", "6")
        assert code == 2
        lines = out.strip().split("\n")
        assert lines[1:-1] == ["cover,1,,3,", "cover,2,,9,", "cover,3,,27,truncated"]

    def test_gutted_bowen_sample_is_coarse(self, capsys):
        # at horizon 10 every interior point of the 17-point grid and every
        # nudge is dyadic and meets 1/2, so only 0 and 1 are kept
        code, out, _ = run(
            capsys, "entropy", "--catalog", "tent", "--method", "bowen",
            "--n-range", "4:10", "--eps", "0.05,0.02", "--grid", "17",
        )
        assert code == 0
        records = [l.split(",") for l in out.strip().split("\n")[1:] if not l.startswith("estimate")]
        assert len(records) == 2 * 2 * 7
        assert all(r[3] == "2" and r[4] == "coarse" for r in records)

    def test_empty_bowen_n_range(self, capsys):
        code, _, err = run(capsys, "entropy", "--catalog", "tent", "--method", "bowen", "--n-range", "12:4")
        assert code == 1
        assert "n_range must not be empty" in err

    def test_single_bowen_n_rejected(self, capsys):
        code, out, err = run(
            capsys, "entropy", "--catalog", "tent", "--method", "bowen",
            "--n-range", "5", "--eps", "0.05,0.02", "--grid", "257",
        )
        assert code == 1 and out == ""
        assert err == "error: n_range needs at least two values to fit a slope\n"

    def test_bowen_n_range_below_one_rejected(self, capsys, monkeypatch):
        # refused before the region is sampled, naming the option's own field
        monkeypatch.setattr(bowen, "sample_region", None)
        code, out, err = run(
            capsys, "entropy", "--catalog", "tent", "--method", "bowen",
            "--n-range", "0:3", "--eps", "0.05,0.02", "--grid", "257",
        )
        assert code == 1 and out == ""
        assert err == "error: n_range must start at n >= 1, got n = 0\n"

    @pytest.mark.parametrize("args", [
        ["--map", "{path}"],
        ["--catalog", "tent", "--n-max", "4", "--out", "{path}"],
        ["--catalog", "tent", "--n-max", "4", "--plot", "{path}"],
    ])
    def test_file_errors_name_the_path(self, capsys, tmp_path, args):
        path = str(tmp_path / "missing" / "file")
        code, _, err = run(capsys, "entropy", *[a.format(path=path) for a in args])
        assert code == 1
        assert err.startswith("error: ") and path in err

    @pytest.mark.parametrize("args, lo, hi", [
        (["--method", "cover", "--cover", "{(0,nan),(0.4,1)}"], "0.0", "nan"),
        (["--region", "[nan, 1]"], "nan", "1.0"),
    ])
    def test_nan_interval_end_is_named(self, capsys, args, lo, hi):
        code, out, err = run(capsys, "entropy", "--catalog", "tent", "--n-max", "3", *args)
        assert code == 1 and out == ""
        assert err == f"error: interval end is NaN: lo={lo}, hi={hi}\n"

    @pytest.mark.parametrize("flag, literal, expected", [
        ("--eps", "abc", "comma-separated numbers"),
        ("--eps", "0.05,x", "comma-separated numbers"),
        ("--n-range", "4:10:2", "'a:b' or a comma list"),
        ("--n-range", "4,five", "'a:b' or a comma list"),
    ])
    def test_bad_bowen_literal_names_the_flag(self, capsys, flag, literal, expected):
        code, out, err = run(capsys, "entropy", "--catalog", "tent", "--method", "bowen", flag, literal)
        assert code == 1 and out == ""
        assert err == f"error: bad {flag} literal {literal!r}; expected {expected}\n"

    def test_empty_bowen_eps_schedule(self, capsys):
        code, _, err = run(capsys, "entropy", "--catalog", "tent", "--method", "bowen", "--eps", ",")
        assert code == 1
        assert "eps_schedule must not be empty" in err

    def test_nan_bowen_eps(self, capsys):
        code, _, err = run(
            capsys, "entropy", "--catalog", "tent", "--method", "bowen",
            "--n-range", "2:3", "--eps", "0.05,nan", "--grid", "257",
        )
        assert code == 1
        assert "eps must be positive" in err

    @pytest.mark.parametrize("eps", ["0,0.05", "0.05,0", "0.05,-0.01"])
    def test_non_positive_bowen_eps(self, capsys, eps):
        # positivity is checked before the order, so an increasing schedule
        # that starts at 0 names the zero
        code, _, err = run(
            capsys, "entropy", "--catalog", "tent", "--method", "bowen",
            "--n-range", "2:3", "--eps", eps, "--grid", "257",
        )
        assert code == 1
        assert "eps must be positive" in err

    def test_svg_plot(self, capsys, tmp_path):
        svg = tmp_path / "series.svg"
        code, _, _ = run(
            capsys, "entropy", "--catalog", "tent", "--method", "ms", "--n-max", "8",
            "--plot", str(svg),
        )
        assert code == 0
        body = svg.read_text()
        assert body.startswith("<svg") and body.rstrip().endswith("</svg>")
        assert "polyline" in body

    def test_unknown_catalog(self, capsys):
        code, _, err = run(capsys, "entropy", "--catalog", "bogus")
        assert code == 1
        assert "bogus" in err


class TestUsageErrors:
    @pytest.mark.parametrize("argv, message", [
        (["entropy", "--catalog", "tent", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
        (["entropy", "--catalog", "tent", "--n-max", "abc"], "argument --n-max: invalid int value: 'abc'"),
    ])
    def test_usage_error_exits_1(self, capsys, argv, message):
        # exit code 2 means a resource cap truncated the run
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert message in err

    def test_help_exits_0(self, capsys):
        code, out, _ = run(capsys, "entropy", "--help")
        assert code == 0 and "--n-max" in out


class TestVerifyCommand:
    def test_mod2(self, capsys):
        code, out, _ = run(capsys, "verify", "--catalog", "mod2", "--n-max", "8")
        assert code == 0
        assert "#Delta^n = 2^n - 1" in out
        assert "FAIL" not in out

    def test_identity_all_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "--catalog", "identity", "--n-max", "6")
        assert code == 0
        assert "FAIL" not in out

    def test_power_identity(self, capsys):
        code, out, _ = run(capsys, "verify", "--catalog", "tent", "--n-max", "9", "--power-k", "3")
        assert code == 0
        assert "c_n(f^3)" in out

    def test_power_rule_on_a_lap_narrower_than_twice_tol(self, capsys, tmp_path):
        # every point of the middle piece lies within tol = 1e-10 of a cut
        f = tmp_path / "narrow.pcm"
        f.write_text(
            "domain = [0, 1]\n"
            "piece (0, 0.5): x inc\n"
            "piece (0.5, 0.50000000015): x inc\n"
            "piece (0.50000000015, 1): 1.5 - x dec\n"
        )
        code, out, err = run(capsys, "verify", "--map", str(f), "--n-max", "6", "--power-k", "2")
        assert (code, err) == (0, "")
        rows = out.splitlines()
        assert any(r.startswith("c_n(f^2) = c_(n*2)(f)") for r in rows)
        assert len(rows) == 6 and all(" pass  " in r for r in rows)

    def test_power_bound_covers_k_above_n_max(self, capsys):
        # c_1(f^3) is compared with c_3(f), so the checked bound is 3, not n_max
        code, out, _ = run(capsys, "verify", "--catalog", "tent", "--n-max", "2", "--power-k", "3")
        assert code == 0
        row = next(line for line in out.splitlines() if line.startswith("c_n(f^3)"))
        assert row.endswith("n*k <= 3")

    def test_cap_gives_partial_rows_and_exit_two(self, capsys, monkeypatch):
        # Delta^6 of tent holds 63 points, so rows stop at n = 5
        monkeypatch.setenv("PCENTROPY_CAP", "50")
        code, out, err = run(capsys, "verify", "--catalog", "tent", "--n-max", "8", "--power-k", "2")
        assert (code, err) == (2, "")
        assert "FAIL" not in out
        rows = out.splitlines()
        assert rows[0].endswith("n <= 5 (cap)")
        assert next(r for r in rows if r.startswith("c_n(f^2)")).endswith("n*k <= 5 (cap)")
        # f^7 needs Delta^7, beyond the cap
        code, out, err = run(capsys, "verify", "--catalog", "tent", "--n-max", "8", "--power-k", "7")
        assert (code, err) == (2, "")
        assert next(r for r in out.splitlines() if r.startswith("c_n(f^7)")).endswith("skipped: k > n = 5 (cap)")

    def test_cap_below_delta_one_is_an_error(self, capsys, monkeypatch):
        monkeypatch.setenv("PCENTROPY_CAP", "0")
        code, out, err = run(capsys, "verify", "--catalog", "tent", "--n-max", "4")
        assert (code, out) == (1, "")
        assert "Delta^1 holds 1 points (cap 0)" in err

    def test_power_k_zero_rejected(self, capsys):
        code, out, err = run(capsys, "verify", "--catalog", "tent", "--n-max", "4", "--power-k", "0")
        assert code == 1
        assert out == ""
        assert "--power-k must be >= 1" in err

    def test_n_max_below_one_rejected(self, capsys):
        code, out, err = run(capsys, "verify", "--catalog", "tent", "--n-max", "0")
        assert code == 1 and out == ""
        assert err == "error: --n-max must be >= 1\n"

    def test_phi_checked_before_any_work(self, capsys, monkeypatch):
        def no_work(*args, **kwargs):
            raise RuntimeError("verify built Delta^n before checking its inputs")

        monkeypatch.setattr("pcentropy.cli.delta_n", no_work)
        code, out, err = run(capsys, "verify", "--catalog", "tent", "--phi", "5")
        assert code == 1 and out == ""
        assert "bad phi literal" in err

    def test_submultiplicative_failure_row(self, capsys, monkeypatch):
        fake = {1: 2, 2: 5, 3: 9}
        monkeypatch.setattr("pcentropy.cli.count_pieces", lambda pcmap, n, cap=None: fake[n])
        code, out, _ = run(capsys, "verify", "--catalog", "tent", "--n-max", "3")
        assert code == 1
        row = next(line for line in out.splitlines() if line.startswith("c_n submultiplicative"))
        assert row.endswith("FAIL  witness (1, 1)")

    def test_sandwich_row_reports_the_first_failure(self, capsys, monkeypatch):
        # every cell breaks r <= s, so the first one, (n=2, eps=0.1), is the witness
        # verify asks for every eps and depth in one list call
        monkeypatch.setattr(
            cli, "min_spanning", lambda pcmap, sample, n, eps, metric=None: [[10**6] * len(n) for _ in eps]
        )
        code, out, _ = run(capsys, "verify", "--catalog", "tent", "--n-max", "4")
        assert code == 1
        row = next(line for line in out.splitlines() if line.startswith("separated/spanning sandwich"))
        assert "FAIL  (n=2, eps=0.1): r=1000000," in row

    def test_boundary_row_ignores_domain_endpoints(self, capsys):
        # Delta^n of anzie holds the endpoint 1.0, which no refined cover boundary has
        code, out, _ = run(capsys, "verify", "--catalog", "anzie")
        assert code == 0
        assert "FAIL" not in out

    def test_boundary_row_fails_on_missing_point(self, capsys, monkeypatch):
        from pcentropy import cli
        from pcentropy.intervals import PointSet

        real = cli.boundary_of_refined_natural_cover

        def drop_one(pcmap, n):
            pts = list(real(pcmap, n))
            del pts[len(pts) // 2]
            return PointSet.of(pts, tol=pcmap.tol)

        monkeypatch.setattr(cli, "boundary_of_refined_natural_cover", drop_one)
        code, out, _ = run(capsys, "verify", "--catalog", "anzie", "--n-max", "6")
        assert code == 1
        row = next(line for line in out.splitlines() if line.startswith("boundary of refined natural cover"))
        assert "FAIL" in row

    def test_conjugacy(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--catalog", "tent", "--n-max", "6",
            "--phi", "[(0,0),(0.35,0.55),(1,1)]",
        )
        assert code == 0
        assert "conjugate" in out

    def test_conjugate_row_builds_no_conjugate_delta(self, capsys, monkeypatch):
        # the conjugate row reads |Delta^n| of the conjugate from its lap images
        real, seen = cli.delta_n, []
        monkeypatch.setattr(cli, "delta_n", lambda pcmap, n, cap=None: seen.append(pcmap) or real(pcmap, n, cap))
        code, out, _ = run(
            capsys, "verify", "--catalog", "tent", "--n-max", "6",
            "--phi", "[(0,0),(0.35,0.55),(1,1)]",
        )
        assert code == 0
        assert "conjugate has identical #Delta^n and c_n" in out and "FAIL" not in out
        assert len({id(m) for m in seen}) == 1

    @pytest.mark.parametrize(("name", "depth"), [("asym-tent", 19), ("lorenz-full", 17)])
    def test_collapsing_delta_stops_like_a_cap(self, capsys, name, depth):
        # the built Delta^(depth + 1) merges distinct points closer than tol,
        # so every row stops at depth instead of failing the #Delta^n row
        code, out, err = run(capsys, "verify", "--catalog", name, "--n-max", "20")
        assert (code, err) == (2, "")
        assert "FAIL" not in out
        rows = out.splitlines()
        assert rows[0].endswith(f"n <= {depth} (cap)")
        assert next(r for r in rows if r.startswith("#Delta^n = 2^n - 1")).endswith(f"pass  n <= {depth} (cap)")


class TestCatalogCommand:
    def test_list(self, capsys):
        code, out, _ = run(capsys, "catalog", "list")
        assert code == 0
        assert "tent" in out and "iet2-golden" in out

    def test_show_roundtrips(self, capsys):
        from pcentropy.catalog import get
        from pcentropy.maps import parse_map

        code, out, _ = run(capsys, "catalog", "show", "asym-tent")
        assert code == 0
        assert parse_map(out) == get("asym-tent").map


class TestValidateCommand:
    def test_valid_file(self, capsys, tmp_path):
        f = tmp_path / "m.pcm"
        f.write_text(TENT_SRC)
        code, out, _ = run(capsys, "validate", str(f))
        assert code == 0
        assert "ok: 2 piece(s)" in out

    def test_invalid_file(self, capsys, tmp_path):
        f = tmp_path / "bad.pcm"
        f.write_text("domain = [0, 1]\npiece (0, 1): 3*x inc\n")
        code, _, err = run(capsys, "validate", str(f))
        assert code == 1
        assert "escapes" in err

    def test_table_dip_rejected(self, capsys, tmp_path):
        # the dip sits on one point of the table the inverse brackets from,
        # between the points of a coarser grid
        f = tmp_path / "dip.pcm"
        f.write_text(
            "domain = [0, 1]\npiece (0, 1/2): 8*x^3 - max(0, 0.01 - 100*abs(x - 0.2509765625)) inc\n"
            "piece (1/2, 1): 2 - 2*x dec\n"
        )
        code, out, err = run(capsys, "validate", str(f))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
        assert "not strictly increasing on the validation grid" in err

    def test_sliver_piece_rejected(self, capsys, tmp_path):
        f = tmp_path / "sliver.pcm"
        f.write_text(
            "domain = [0, 1]\npiece (0, 0.5): 2*x inc\npiece (0.5, 0.50000000005): x inc\n"
            "piece (0.50000000005, 1): 2 - 2*x dec\n"
        )
        code, out, err = run(capsys, "validate", str(f))
        assert code == 1 and out == ""
        assert err == "error: piece (0.5, 0.50000000005) is no wider than the map tolerance 1e-10\n"

    @pytest.mark.parametrize("body", [
        "(" + " + ".join(["x"] + ["0.001"] * 299) + ")/1.5",
        "x/2 + 1 + " + "-" * 1200 + "1",
        "(" * 1200 + "x" + ")" * 1200,
        " + ".join(["x"] + ["0"] * 1499),
        " + ".join(["x"] + ["0"] * 1499) + " inc",
    ])
    def test_deep_expression_rejected(self, capsys, tmp_path, body):
        f = tmp_path / "deep.pcm"
        f.write_text(f"domain = [0, 1]\npiece (0, 1): {body}\n")
        code, out, err = run(capsys, "validate", str(f))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "nests too deeply" in err and ("[0, 1]" in err or "(0.0, 1.0)" in err)

    def test_long_sum_still_validates(self, capsys, tmp_path):
        f = tmp_path / "sum190.pcm"
        f.write_text("domain = [0, 1]\npiece (0, 1): (" + " + ".join(["x"] + ["0.001"] * 189) + ")/1.5 inc\n")
        code, out, _ = run(capsys, "validate", str(f))
        assert code == 0 and out.startswith("ok: 1 piece(s)")
        pcmap = parse_map(f.read_text())
        for x in (0.0, 0.3, 1.0):
            ref = x
            for _ in range(189):
                ref += 0.001
            assert evaluate(pcmap, x) == ref / 1.5

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "validate", "/nonexistent/x.pcm")
        assert code == 1
        assert err.startswith("error: ") and "/nonexistent/x.pcm" in err

    def test_directory_names_the_path(self, capsys, tmp_path):
        code, _, err = run(capsys, "validate", str(tmp_path))
        assert code == 1
        assert err.startswith("error: ") and str(tmp_path) in err

    @pytest.mark.parametrize("src,line", [
        ("domain = [0, 1]\npiece (0, 1): x/(1 + 1/1e999) inc\n", 2),
        ("domain = [0, 1]\npiece (0, 1): x + 0*1e999\n", 2),
        ("domain = [0, 1e999]\npiece (0, 1e999): x inc\n", 1),
    ])
    def test_overflowing_literal_rejected(self, capsys, tmp_path, src, line):
        f = tmp_path / "inf.pcm"
        f.write_text(src)
        code, out, err = run(capsys, "validate", str(f))
        assert code == 1 and out == ""
        assert err.startswith(f"error: line {line}, col ") and err.count("\n") == 1
        assert err.endswith("number '1e999' is out of range\n")


_MA_PROBE = """
import json, sys
import pcentropy.cli
before = "numpy.ma" in sys.modules
seen = {}
for method in ("ms", "cover"):
    pcentropy.cli.main(["entropy", "--catalog", "anzie", "--method", method, "--n-max", "6"])
    seen[method] = "numpy.ma" in sys.modules
print(json.dumps([before, seen]))
"""


def test_entropy_runs_do_not_import_numpy_ma():
    # numpy >= 2 loads numpy.ma lazily and np.unique loads it, which costs
    # each fresh process milliseconds and memory
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", _MA_PROBE], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    before, seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen == {"ms": before, "cover": before}
