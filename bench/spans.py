"""Per-layer tracing from outside the package.

``Tracer.install`` rebinds the public functions the CLI and the routes call
(in the modules that call them) to wrappers that record a span per call:
name, start, end, parent span and op.  Counts are taken at the same
boundaries from the arguments and results, after the span has closed, so
they add no time to the span itself.  Spans stay in memory; ``layers`` turns
them into the per-layer metrics when the pass ends.
"""

from __future__ import annotations

import functools
import inspect
import weakref
from collections import defaultdict
from time import perf_counter

import numpy as np

from pcentropy import bowen, cli, covers, symbolic


class Span:
    __slots__ = ("name", "start", "end", "parent", "op")

    def __init__(self, name, start, parent, op):
        self.name, self.start, self.end, self.parent, self.op = name, start, None, parent, op

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[Span] = []
        self.op = -1
        self.counts: dict[str, float] = defaultdict(float)
        # work the traced pass must share with the untraced one, per op
        self.c_n: dict[int, list[int]] = defaultdict(list)
        self.separated: dict[int, list[int]] = defaultdict(list)
        self.spanning: dict[int, list[int]] = defaultdict(list)
        self._table_serial: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        self._tables: dict[int, tuple[int, int]] = {}  # serial -> (|Delta^n|, merged level points)
        self._merges: dict[tuple[int, int], int] = {}  # (serial, n) -> removable merges
        self.headroom = 1.0

    # -- spans ---------------------------------------------------------------

    def _begin(self, name: str) -> Span:
        span = Span(name, perf_counter(), self._open[-1] if self._open else None, self.op)
        self._open.append(span)
        return span

    def _finish(self, span: Span):
        span.end = perf_counter()
        self._open.pop()
        self.spans.append(span)

    def _inside(self, name: str) -> bool:
        return any(s.name == name for s in self._open)

    def wrap(self, fn, name: str, after=None, before=None):
        """``fn`` inside a span; ``after(span, bound args, result, exc, state)``
        runs once the span is closed, with ``state = before(bound args)``."""
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = sig.bind(*args, **kwargs).arguments if (after or before) else None
            state = before(bound) if before else None
            span = self._begin(name)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                self._finish(span)
                if after:
                    after(span, bound, result, exc, state)

        return traced

    def wrap_steps(self, gen_fn, name: str):
        """A generator function, with one span per step it yields."""

        @functools.wraps(gen_fn)
        def traced(*args, **kwargs):
            gen = gen_fn(*args, **kwargs)
            while True:
                span = self._begin(name)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._finish(span)
                self.counts["covers.refined_elements"] += len(item)
                self.counts["covers.refined_parts"] += item.total_parts()
                yield item

        return traced

    def install(self):
        """Rebind each public entry point where it is looked up at call time."""
        table = symbolic.DeltaTable
        table.ensure = self.wrap(
            table.ensure, "symbolic.DeltaTable.ensure", self._after_ensure, self._levels_built
        )
        table.count_pieces = self.wrap(
            table.count_pieces, "symbolic.DeltaTable.count_pieces", self._after_count
        )
        for owner, attr, name, after in (
            (cli, "ms_entropy", "symbolic.ms_entropy", None),
            (cli, "count_pieces", "symbolic.count_pieces", None),
            (cli, "delta_n", "symbolic.delta_n", None),
            (cli, "full_branch_check", "symbolic.full_branch_check", None),
            (cli, "bowen_entropy", "bowen.bowen_entropy", self._after_bowen),
            (cli, "sample_region", "bowen.sample_region", self._after_sample),
            (bowen, "sample_region", "bowen.sample_region", self._after_sample),
            (bowen, "orbit_matrix", "bowen.orbit_matrix", None),
            (cli, "max_separated", "bowen.max_separated", None),
            (cli, "min_spanning", "bowen.min_spanning", None),
            (cli, "cover_entropy", "covers.cover_entropy", None),
            (cli, "natural_cover", "covers.natural_cover", None),
            (cli, "boundary_of_refined_natural_cover", "covers.boundary_of_refined_natural_cover", None),
            (covers, "minimal_subcover", "covers.minimal_subcover", self._after_subcover),
            (covers, "delta_n", "covers.delta_n", None),
            (cli, "iterate_map", "transforms.iterate_map", self._after_iterate),
            (cli, "conjugate_map", "transforms.conjugate_map", None),
            (cli, "restrict_map", "transforms.restrict_map", None),
        ):
            setattr(owner, attr, self.wrap(getattr(owner, attr), name, after))
        covers.refinement_steps = self.wrap_steps(covers.refinement_steps, "covers.refinement_steps")

    # -- counts taken at the boundaries ----------------------------------------

    def _serial(self, table) -> int:
        return self._table_serial.setdefault(table, len(self._table_serial))

    @staticmethod
    def _levels_built(bound) -> int:
        return len(bound["self"].levels)

    def _after_ensure(self, span, bound, result, exc, levels_before):
        table = bound["self"]
        levels, cum = table.levels, table.cumulative
        smooth = sum(b.affine is None for b in table.map.branches)
        # _branch_preimages inverts every target of the level below once per
        # non-affine branch, each by a scalar branch_inverse bisection
        self.counts["maps.branch_inverse_calls"] += smooth * sum(
            len(levels[k - 1][0]) for k in range(max(levels_before, 1), len(levels))
        )
        refused = isinstance(exc, symbolic.ResourceCapExceeded)
        if refused:
            span.name = "symbolic.cap_refused"
        else:
            span.name = "symbolic.delta_build_smooth" if smooth else "symbolic.delta_build_affine"
        n_done = len(cum) - 1
        self._tables[self._serial(table)] = (
            len(cum[n_done][0]),
            sum(len(levels[k][0]) for k in range(min(n_done, len(levels)))),
        )
        # the last size ensure held against the cap: the refused level, or the last merged one
        k = n_done + 1 if refused else n_done
        checked = len(cum[k - 1][0]) + len(levels[k - 1][0]) if 1 <= k <= len(levels) else 0
        cap = bound.get("cap") or symbolic.DEFAULT_DELTA_CAP
        self.headroom = min(self.headroom, (cap - checked) / cap)

    def _after_count(self, span, bound, result, exc, state):
        if exc is not None:
            return
        table, n = bound["self"], bound["n"]
        if self._inside("symbolic.ms_entropy"):
            self.c_n[self.op].append(result)
        if bound.get("merge_removable", True):
            xs = table.cumulative[n][0]
            dom, tol = table.map.domain, table.map.tol
            interior = int(((xs > dom.lo + tol) & (xs < dom.hi - tol)).sum())
            self._merges[(self._serial(table), n)] = interior + 1 - result

    def _after_bowen(self, span, bound, result, exc, state):
        if exc is not None:
            return
        sep, span_series = result
        s = [int(r.value) for r in sep.records]
        r = [int(r.value) for r in span_series.records]
        self.separated[self.op].extend(s)
        self.spanning[self.op].extend(r)
        self.counts["bowen.cells"] += len(s)
        self.counts["bowen.separated_sum"] += sum(s)
        self.counts["bowen.spanning_sum"] += sum(r)
        self.counts["bowen.saturated_cells"] += sum("saturated" in (rec.flag or "") for rec in sep.records)

    def _after_sample(self, span, bound, result, exc, state):
        if exc is not None:
            return
        region, grid = bound["region"], bound["grid"]
        total = region.total_length()
        # the grid sample_region lays over each part before nudging
        grids = [
            np.linspace(p.lo, p.hi, grid if len(region.parts) == 1
                        else max(2, round(grid * p.diameter / max(total, 1e-300))))
            for p in region.parts
        ]
        points = np.asarray(result.points.points)
        on_grid = int(np.isin(points, np.concatenate(grids)).sum())
        self.counts["bowen.sample_kept"] += len(points)
        self.counts["bowen.sample_nudged"] += len(points) - on_grid
        self.counts["bowen.sample_excised"] += sum(len(g) for g in grids) - len(points)

    def _after_subcover(self, span, bound, result, exc, state):
        single = all(len(el.parts) == 1 for el in bound["cover"].elements)
        span.name = "covers.subcover_sweep" if single else "covers.subcover_bnb"
        if exc is not None:
            self.counts["covers.failed_cells"] += 1
            return
        self.counts["covers.subcover_sum"] += result.count
        self.counts["covers.inexact_cells"] += not result.exact

    def _after_iterate(self, span, bound, result, exc, state):
        if exc is None:
            self.counts["transforms.iterate_pieces"] += result.n_pieces

    # -- per-layer metrics ---------------------------------------------------

    def layers(self, op_seconds: list[float], scale: float, output_bytes: int,
               parse_s: float) -> dict[str, float]:
        """Per-layer metrics of the pass.  Times are the summed durations of a
        layer's spans, times the pass's speed ``scale``; ``bowen.cells_s`` and
        ``cli.overhead_s`` are self times."""
        total: dict[str, float] = defaultdict(float)
        children: dict[int, float] = defaultdict(float)
        top_level = 0.0
        for s in self.spans:
            total[s.name] += s.seconds
            if s.parent is None:
                top_level += s.seconds
            else:
                children[id(s.parent)] += s.seconds
        cells = sum(s.seconds - children[id(s)] for s in self.spans if s.name == "bowen.bowen_entropy")
        delta_points = sum(d for d, _ in self._tables.values())
        level_points = sum(lv for _, lv in self._tables.values())
        times = {
            "symbolic.delta_build_affine_s": total["symbolic.delta_build_affine"],
            "symbolic.delta_build_smooth_s": total["symbolic.delta_build_smooth"],
            "symbolic.count_pieces_s": total["symbolic.DeltaTable.count_pieces"],
            "symbolic.cap_refused_s": total["symbolic.cap_refused"],
            "maps.parse_s": parse_s,
            "bowen.sample_s": total["bowen.sample_region"],
            "bowen.orbit_matrix_s": total["bowen.orbit_matrix"],
            "bowen.cells_s": cells,
            "bowen.certified_cells_s": total["bowen.max_separated"] + total["bowen.min_spanning"],
            "covers.refine_s": total["covers.refinement_steps"],
            "covers.subcover_sweep_s": total["covers.subcover_sweep"],
            "covers.subcover_bnb_s": total["covers.subcover_bnb"],
            "covers.exclude_s": total["covers.delta_n"],
            "transforms.iterate_s": total["transforms.iterate_map"],
            "transforms.conjugate_s": total["transforms.conjugate_map"],
            "cli.overhead_s": sum(op_seconds) - top_level,
        }
        out = {name: seconds * scale for name, seconds in times.items()}
        out.update({
            "symbolic.delta_points": delta_points,
            "symbolic.level_points": level_points,
            "symbolic.merge_keep_ratio": delta_points / level_points if level_points else 0.0,
            "symbolic.removable_merges": sum(self._merges.values()),
            "symbolic.cap_headroom": self.headroom,
            "cli.output_bytes": output_bytes,
        })
        for name in (
            "maps.branch_inverse_calls",
            "bowen.sample_kept", "bowen.sample_nudged", "bowen.sample_excised", "bowen.cells",
            "bowen.separated_sum", "bowen.spanning_sum", "bowen.saturated_cells",
            "covers.failed_cells", "covers.refined_elements", "covers.refined_parts",
            "covers.subcover_sum", "covers.inexact_cells", "transforms.iterate_pieces",
        ):
            out[name] = self.counts[name]
        return out
