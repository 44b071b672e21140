"""Command-line front end.

Subcommands: ``entropy`` (run an estimator and emit the series), ``verify``
(run the invariant suites as a pass/fail table), ``catalog list|show``, and
``validate``.  Exit codes: 0 success, 1 usage or validation failure, 2 a
resource cap truncated the run but partial results were written.
"""

from __future__ import annotations

import argparse
import ast
import math
import os
import re
import sys

from . import catalog as _catalog
# cli calls no min_spanning, but bench/spans.py rebinds cli.min_spanning
from .bowen import bowen_entropy, max_separated, min_spanning, sample_region
from .covers import (
    Cover,
    boundary_of_refined_natural_cover,
    cover_entropy,
    natural_cover,
)
from .errors import PcEntropyError, ResourceCapExceeded
from .estimators import EntropySeries, submultiplicative_witness
from .intervals import Interval, OpenSet, RegionSet
from .maps import PcMap, parse_map
from .symbolic import count_pieces, delta_n, delta_table, full_branch_check, ms_entropy
from .transforms import PlHomeo, conjugate_map, iterate_map, restrict_map

_EXIT_OK, _EXIT_FAIL, _EXIT_TRUNCATED = 0, 1, 2


def _load_map(args) -> PcMap:
    if args.catalog:
        return _catalog.get(args.catalog).map
    with open(args.map, encoding="utf-8") as fh:
        return parse_map(fh.read())


def _parse_eps(text: str) -> list[float]:
    try:
        return [float(t) for t in text.split(",") if t.strip()]
    except ValueError:
        raise ValueError(f"bad --eps literal {text!r}; expected comma-separated numbers") from None


def _parse_n_range(text: str) -> list[int]:
    try:
        if ":" in text:
            a, b = text.split(":", 1)
            return list(range(int(a), int(b) + 1))
        return [int(t) for t in text.split(",") if t.strip()]
    except ValueError:
        raise ValueError(f"bad --n-range literal {text!r}; expected 'a:b' or a comma list") from None


def _parse_region(text: str) -> RegionSet:
    parts = []
    for chunk in text.split("|"):
        m = re.match(r"^\s*\[([^,]+),([^\]]+)\]\s*$", chunk)
        if not m:
            raise ValueError(f"bad region literal {chunk!r}; expected [a, b]")
        parts.append((float(m.group(1)), float(m.group(2))))
    return RegionSet.of(*parts)


def _parse_cover(text: str) -> Cover:
    body = text.strip()
    if body.startswith("{") and body.endswith("}"):
        body = body[1:-1]
    # commas inside parens bound intervals; ',' between parens separates
    # elements and '|' joins intervals into one element
    pieces = re.split(r"(\([^()]*\))", body)
    seps = [s.strip() for s in pieces[0::2]]
    ivals = [re.fullmatch(r"\(([^,()]+),([^,()]+)\)", iv) for iv in pieces[1::2]]
    if not ivals or not all(ivals) or seps[0] or seps[-1] or any(s not in (",", "|") for s in seps[1:-1]):
        raise ValueError(f"bad cover literal {text!r}; expected intervals (a, b) joined by ',' or '|'")
    groups: list[list[Interval]] = []
    for sep, iv in zip(seps, ivals):
        interval = Interval.open(float(iv[1]), float(iv[2]))
        if sep == "|":
            groups[-1].append(interval)
        else:
            groups.append([interval])
    elements = [OpenSet(tuple(g)) for g in groups]
    return Cover(tuple(elements))


def _parse_phi(text: str) -> PlHomeo:
    try:
        nodes = tuple((float(x), float(y)) for x, y in ast.literal_eval(text))
    except (SyntaxError, TypeError, ValueError):
        raise ValueError(f"bad phi literal {text!r}; expected [(x0, y0), (x1, y1), ...]") from None
    return PlHomeo(nodes)


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _emit_series(series: list[EntropySeries], fmt: str, out):
    if fmt == "json-lines":
        import json

        for s in series:
            for r in s.records:
                out.write(json.dumps({
                    "method": s.method, "n": r.n,
                    "eps": r.aux, "value": r.value, "flag": r.flag,
                }) + "\n")
            out.write(json.dumps({
                "method": "estimate", "series": s.method,
                "value": s.estimate, "estimator": s.estimate_method,
            }) + "\n")
        return
    sep = "\t" if fmt == "tsv" else ","
    out.write(sep.join(["method", "n", "eps", "value", "flag"]) + "\n")
    for s in series:
        for r in s.records:
            eps = "" if r.aux is None else _fmt(r.aux)
            out.write(sep.join([s.method, str(r.n), eps, _fmt(r.value), r.flag or ""]) + "\n")
        out.write(sep.join(["estimate", "", "", _fmt(s.estimate), s.estimate_method]) + "\n")


def _svg_plot(series: list[EntropySeries], path: str):
    width, height, pad = 640, 400, 50
    groups: dict[tuple[str, float | None], list[tuple[int, float]]] = {}
    for s in series:
        for r in s.records:
            groups.setdefault((s.method, r.aux), []).append((r.n, max(float(r.value), 1e-300)))
    xs = [n for pts in groups.values() for n, _ in pts]
    ys = [math.log10(v) for pts in groups.values() for _, v in pts]
    if not xs:
        return
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x1 == x0:
        x1 += 1
    if y1 == y0:
        y1 += 1

    def sx(n):
        return pad + (n - x0) / (x1 - x0) * (width - 2 * pad)

    def sy(v):
        return height - pad - (math.log10(v) - y0) / (y1 - y0) * (height - 2 * pad)

    palette = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" y2="{height - pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="black"/>',
        f'<text x="{width // 2}" y="{height - 12}" font-size="12" text-anchor="middle">n</text>',
        f'<text x="14" y="{height // 2}" font-size="12" transform="rotate(-90 14 {height // 2})" '
        'text-anchor="middle">count (log scale)</text>',
    ]
    for i, (key, pts) in enumerate(sorted(groups.items(), key=lambda kv: (kv[0][0], kv[0][1] or 0))):
        pts.sort()
        color = palette[i % len(palette)]
        poly = " ".join(f"{sx(n):.2f},{sy(v):.2f}" for n, v in pts)
        lines.append(f'<polyline points="{poly}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        label = key[0] if key[1] is None else f"{key[0]} eps={key[1]:g}"
        lines.append(
            f'<text x="{width - pad + 4}" y="{pad + 14 * i}" font-size="10" fill="{color}">{label}</text>'
        )
    lines.append(f'<text x="{pad}" y="{pad - 8}" font-size="10">10^{y1:.2f}</text>')
    lines.append(f'<text x="{pad}" y="{height - pad + 14}" font-size="10">10^{y0:.2f}</text>')
    lines.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _power_k(args) -> int | None:
    if args.power_k is not None and args.power_k < 1:
        raise ValueError("--power-k must be >= 1")
    return args.power_k


def _cap_from_env() -> int | None:
    raw = os.environ.get("PCENTROPY_CAP")
    if raw and not (raw.isascii() and raw.isdigit()):
        raise ValueError(f"PCENTROPY_CAP must be a non-negative integer, got {raw!r}")
    return int(raw) if raw else None


def cmd_entropy(args) -> int:
    pcmap = _load_map(args)
    if args.phi:
        pcmap = conjugate_map(pcmap, _parse_phi(args.phi))
    cap = _cap_from_env()
    k = _power_k(args)
    if k is not None:
        pcmap = iterate_map(pcmap, k, cap=cap)
    region = _parse_region(args.region) if args.region else None
    if region is not None:
        restricted = restrict_map(pcmap, region)
        print(restricted.report, file=sys.stderr)
    # each count route keeps its own default estimator unless one is asked for
    est = {} if args.estimator is None else {"estimator": args.estimator}
    series: list[EntropySeries] = []
    methods = ["ms", "cover", "bowen"] if args.method == "all" else [args.method]
    for method in methods:
        if method == "ms":
            target = pcmap if region is None else restricted.as_pcmap()
            series.append(ms_entropy(target, args.n_max, cap=cap, **est))
        elif method == "cover":
            cov = _parse_cover(args.cover) if args.cover else natural_cover(pcmap)
            series.append(cover_entropy(pcmap, cov, args.n_max, region=region, cap=cap, **est))
        elif method == "bowen":
            reg = region if region is not None else RegionSet.of((pcmap.domain.lo, pcmap.domain.hi))
            n_range = _parse_n_range(args.n_range)
            sep, span = bowen_entropy(pcmap, reg, n_range, _parse_eps(args.eps), args.grid)
            series.extend([sep, span])
    out = open(args.out, "w", encoding="utf-8", newline="") if args.out else sys.stdout
    try:
        _emit_series(series, args.output, out)
    finally:
        if args.out:
            out.close()
    if args.plot:
        _svg_plot(series, args.plot)
    return _EXIT_TRUNCATED if any(s.truncated for s in series) else _EXIT_OK


def cmd_verify(args) -> int:
    pcmap = _load_map(args)
    cap = _cap_from_env()
    k = _power_k(args)
    n_max = args.n_max
    if n_max < 1:
        raise ValueError("--n-max must be >= 1")
    conj = conjugate_map(pcmap, _parse_phi(args.phi)) if args.phi else None
    rows: list[tuple[str, bool, str]] = []

    # under a point cap, every row runs up to the deepest Delta^n that fits
    capped = ""
    try:
        delta_n(pcmap, n_max, cap)
    except ResourceCapExceeded as exc:
        if exc.completed < 1:
            raise
        n_max, capped = exc.completed, " (cap)"

    deltas = [delta_n(pcmap, n, cap) for n in range(n_max + 1)]
    nested = all(deltas[n + 1].contains_many(deltas[n].points).all() for n in range(n_max))
    rows.append(("Delta^n nested in Delta^(n+1)", nested, f"n <= {n_max}{capped}"))

    counts = {n: count_pieces(pcmap, n, cap=cap) for n in range(1, n_max + 1)}
    bad = submultiplicative_witness(counts)
    rows.append(
        ("c_n submultiplicative", bad is None, f"n <= {n_max}{capped}" if bad is None else f"witness {bad}")
    )

    report = full_branch_check(pcmap, n_max, cap)
    if report.surjective:
        n_br = pcmap.n_pieces
        rows.append((f"#Delta^n = {n_br}^n - 1", report.passed, f"n <= {report.checked_to}{capped}"))
    else:
        rows.append(("full-branch counts", True, "skipped: branches not surjective"))

    bnd = boundary_of_refined_natural_cover(pcmap, min(n_max, 6))
    # the boundary holds interior points only, so the domain endpoints of Delta^n are left out
    dom, tol = pcmap.domain, pcmap.tol
    dn = [x for x in deltas[min(n_max, 6)] if dom.lo + tol < x < dom.hi - tol]
    same = len(bnd) == len(dn) and all(abs(a - b) <= 1e-9 for a, b in zip(bnd, dn))
    rows.append(("boundary of refined natural cover = Delta^n", same, f"n = {min(n_max, 6)}{capped}"))

    if k is not None and capped and k > n_max:
        # f^k needs Delta^k, which the cap refused
        rows.append((f"c_n(f^{k}) = c_(n*{k})(f)", True, f"skipped: k > n = {n_max}{capped}"))
    elif k is not None:
        fk = iterate_map(pcmap, k, cap=cap)
        ok = all(
            count_pieces(fk, n, cap=cap) == count_pieces(pcmap, k * n, cap=cap)
            for n in range(1, max(1, n_max // k) + 1)
        )
        rows.append((f"c_n(f^{k}) = c_(n*{k})(f)", ok, f"n*k <= {max(n_max, k)}{capped}"))

    if conj is not None:
        ok = all(
            count_pieces(conj, n, cap=cap) == counts[n]
            and delta_table(conj).delta_size(n) == delta_table(pcmap).delta_size(n)
            for n in range(1, n_max + 1)
        )
        rows.append(("conjugate has identical #Delta^n and c_n", ok, f"n <= {n_max}{capped}"))

    reg = RegionSet.of((pcmap.domain.lo, pcmap.domain.hi))
    ns = [2, 3, 4]
    eps_list = [0.1, 0.05]
    sample = sample_region(pcmap, reg, grid=257, horizon=max(ns))
    sandwich_ok = True
    witness = ""
    # every eps and its half in one list call, whose one scan builds all the
    # cells; r(eps) = s(eps), as each separated set is its certified cover
    eps_all = sorted({e for eps in eps_list for e in (eps, eps / 2)}, reverse=True)
    separated = dict(zip(eps_all, max_separated(pcmap, sample, ns, eps_all)))
    for eps in eps_list:
        for n, r1, s1, r2 in zip(ns, separated[eps], separated[eps], separated[eps / 2]):
            if sandwich_ok and not r1 <= s1 <= r2:
                sandwich_ok = False
                witness = f"(n={n}, eps={eps}): r={r1}, s={s1}, r(eps/2)={r2}"
    rows.append(("separated/spanning sandwich", sandwich_ok, witness or "small-sample check"))

    width = max(len(r[0]) for r in rows) + 2
    all_ok = True
    for name, ok, note in rows:
        all_ok &= ok
        print(f"{name:<{width}} {'pass' if ok else 'FAIL'}  {note}")
    if not all_ok:
        return _EXIT_FAIL
    return _EXIT_TRUNCATED if capped else _EXIT_OK


def cmd_catalog(args) -> int:
    if args.action == "list":
        for name in _catalog.names():
            entry = _catalog.get(name)
            known = "?" if entry.known_entropy is None else f"{entry.known_entropy:.6f}"
            print(f"{name:<16} h_top={known:<10} {entry.provenance}")
        return _EXIT_OK
    entry = _catalog.get(args.name)
    sys.stdout.write(entry.source)
    return _EXIT_OK


def cmd_validate(args) -> int:
    with open(args.file, encoding="utf-8") as fh:
        pcmap = parse_map(fh.read())
    print(
        f"ok: {pcmap.n_pieces} piece(s) on {pcmap.domain!r}, "
        f"cut set {pcmap.delta!r}, values at cuts: {pcmap.at_delta}-limit"
    )
    return _EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcentropy",
        description="Topological entropy of piecewise continuous interval maps",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_map_source(p):
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--catalog", help="built-in map name (see `catalog list`)")
        src.add_argument("--map", help="path to a .pcm map-definition file")

    p = sub.add_parser("entropy", help="estimate entropy and emit the per-n series")
    add_map_source(p)
    p.add_argument("--method", choices=["ms", "bowen", "cover", "all"], default="ms")
    p.add_argument("--n-max", type=int, default=10)
    p.add_argument("--n-range", default="4:12", help="bowen n values, 'a:b' or comma list")
    p.add_argument("--eps", default="0.05,0.02,0.01,0.005", help="bowen epsilon schedule")
    p.add_argument("--grid", type=int, default=4097, help="bowen sample grid")
    p.add_argument("--estimator", choices=["slope-fit", "fekete-min", "last-ratio"],
                   help="estimate of the ms and cover series (default: slope-fit for ms, "
                   "fekete-min for cover); the bowen series is always a slope fit")
    p.add_argument("--region", help="restrict to a region, e.g. '[0.7, 1]'")
    p.add_argument("--cover", help="cover literal, e.g. '{(0,0.6), (0.4,1)}'")
    p.add_argument("--phi", help="conjugating homeomorphism nodes, e.g. '[(0,0),(0.4,0.6),(1,1)]'")
    p.add_argument("--power-k", type=int, help="estimate for the k-th iterate")
    p.add_argument("--output", choices=["csv", "tsv", "json-lines"], default="csv")
    p.add_argument("--out", help="write the series here instead of stdout")
    p.add_argument("--plot", help="write a single-file SVG line chart here")
    p.set_defaults(fn=cmd_entropy)

    p = sub.add_parser("verify", help="run the invariant property suites")
    add_map_source(p)
    p.add_argument("--n-max", type=int, default=8)
    p.add_argument("--power-k", type=int)
    p.add_argument("--phi")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("catalog", help="list or show built-in maps")
    csub = p.add_subparsers(dest="action", required=True)
    pl = csub.add_parser("list")
    pl.set_defaults(fn=cmd_catalog, action="list")
    ps = csub.add_parser("show")
    ps.add_argument("name")
    ps.set_defaults(fn=cmd_catalog, action="show")

    p = sub.add_parser("validate", help="parse and validate a map-definition file")
    p.add_argument("file")
    p.set_defaults(fn=cmd_validate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse printed help (code 0) or a usage error (code 2)
        return _EXIT_OK if exc.code == 0 else _EXIT_FAIL
    try:
        return args.fn(args)
    except (PcEntropyError, OSError, KeyError, ValueError) as exc:
        # an OSError's first argument is its errno, and str() of a KeyError adds quotes
        msg = exc.args[0] if exc.args and not isinstance(exc, OSError) else exc
        print(f"error: {msg}", file=sys.stderr)
        return _EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
