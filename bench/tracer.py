"""Span and count tracing of arnoldtongues, installed from outside the package.

The tracer wraps public functions of the package's modules and rebinds
every name that refers to them in every ``arnoldtongues`` module, because
``from .maps import envelope`` gives ``rotation``, ``tongues``, ``sweep``
and ``cli`` their own binding of the same function.  ``MonotoneLift.eval``
is wrapped on the class.  Nothing under ``src/`` is edited.

Spanned functions record (name, start, end, parent, item, flag) in memory;
the hottest scalar entry points only count calls, since they run more than
1e5 times per run and a span each would dominate the measurement.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

# Functions that get a span per call, by module.
SPANNED: Dict[str, Tuple[str, ...]] = {
    "maps": ("envelope",),
    "solvers": ("bisect_root", "golden_min"),
    "rotation": (
        "level_sign",
        "rho_exact_rational_test",
        "rho_monotone",
        "rotation_interval",
        "snap_rational",
    ),
    "orbits": ("find_periodic_orbits", "orbit_pair"),
    "tongues": (
        "plateau_edges",
        "trace_curve",
        "region_boundary",
        "boundary_condition_residuals",
        "lipschitz_check",
    ),
    "sweep": ("raster", "render_ppm", "export_csv"),
    "cli": ("main",),
}

# Functions that only count calls.
COUNTED: Dict[str, Tuple[str, ...]] = {"maps": ("eval_lift", "deriv")}

_MARK = "__bench_traced__"

# Span record layout: [name, start, end, parent index, item id, flag].
# flag is "raised" when the call raised, "none" when it returned None.
NAME, START, END, PARENT, ITEM, FLAG = range(6)


def _package_modules():
    return [
        m
        for name, m in sorted(sys.modules.items())
        if m is not None and (name == "arnoldtongues" or name.startswith("arnoldtongues."))
    ]


class Tracer:
    """Installs wrappers, collects spans and counts, and removes them again."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self.item: str = ""
        self._stack: List[int] = []
        self._rebound: List[Tuple[object, str, object]] = []
        self._eval_original: Optional[Callable] = None

    # -- wrappers ---------------------------------------------------------

    def _span(self, fn: Callable, name: str) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.item, ""]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                rec[FLAG] = "raised"
                raise
            finally:
                rec[END] = time.perf_counter()
                stack.pop()
            if out is None:
                rec[FLAG] = "none"
            return out

        setattr(wrapper, _MARK, True)
        return wrapper

    def _count(self, fn: Callable, name: str) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        setattr(wrapper, _MARK, True)
        return wrapper

    # -- install / uninstall ----------------------------------------------

    def install(self) -> None:
        """Wrap every traced function and rebind it wherever it is imported."""
        import arnoldtongues  # noqa: F401  (loads every submodule)
        from arnoldtongues import maps

        replace: Dict[int, object] = {}
        for table, make in ((SPANNED, self._span), (COUNTED, self._count)):
            for mod_name, funcs in table.items():
                mod = sys.modules[f"arnoldtongues.{mod_name}"]
                for fn_name in funcs:
                    fn = getattr(mod, fn_name)
                    replace[id(fn)] = (fn, make(fn, f"{mod_name}.{fn_name}"))
        for mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    self._rebound.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        self._eval_original = maps.MonotoneLift.__dict__["eval"]
        maps.MonotoneLift.eval = self._count(self._eval_original, "maps.MonotoneLift.eval")

    def uninstall(self) -> None:
        """Put every original binding back."""
        for mod, attr, value in reversed(self._rebound):
            setattr(mod, attr, value)
        self._rebound.clear()
        if self._eval_original is not None:
            from arnoldtongues import maps

            maps.MonotoneLift.eval = self._eval_original
            self._eval_original = None

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- analysis ---------------------------------------------------------

    def span_table(self) -> Dict[str, Dict[str, float]]:
        """Per function: calls, self seconds, raised and None-returning calls."""
        child_time = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[PARENT] >= 0:
                child_time[rec[PARENT]] += rec[END] - rec[START]
        table: Dict[str, Dict[str, float]] = {}
        for rec, covered in zip(self.spans, child_time):
            row = table.setdefault(rec[NAME], {"calls": 0, "self_s": 0.0, "raised": 0, "none": 0})
            row["calls"] += 1
            row["self_s"] += (rec[END] - rec[START]) - covered
            if rec[FLAG]:
                row[rec[FLAG]] += 1
        return table

    def children_named(self, parent_name: str, child_name: str) -> int:
        """Number of parent_name spans with at least one direct child_name span."""
        parents = {
            rec[PARENT]
            for rec in self.spans
            if rec[NAME] == child_name and rec[PARENT] >= 0
            and self.spans[rec[PARENT]][NAME] == parent_name
        }
        return len(parents)

    def under(self, name: str, ancestors: Tuple[str, ...]) -> int:
        """Number of name spans that have one of ancestors above them."""
        n = 0
        for rec in self.spans:
            if rec[NAME] != name:
                continue
            p = rec[PARENT]
            while p >= 0:
                if self.spans[p][NAME] in ancestors:
                    n += 1
                    break
                p = self.spans[p][PARENT]
        return n

    def write_spans(self, path: str) -> None:
        """Write spans as JSON lines, start and end relative to the first span."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": rec[NAME],
                            "start": rec[START] - t0,
                            "end": rec[END] - t0,
                            "parent": rec[PARENT],
                            "item": rec[ITEM],
                            "flag": rec[FLAG],
                        }
                    )
                )
                fh.write("\n")


def leftover_wrappers() -> List[str]:
    """Names in arnoldtongues modules still bound to a tracer wrapper."""
    found = []
    for mod in _package_modules():
        for attr, value in vars(mod).items():
            if getattr(value, _MARK, False):
                found.append(f"{mod.__name__}.{attr}")
    maps = sys.modules.get("arnoldtongues.maps")
    if maps is not None and getattr(maps.MonotoneLift.__dict__["eval"], _MARK, False):
        found.append("arnoldtongues.maps.MonotoneLift.eval")
    return found


def layer_metrics(tracer: Tracer, located_items: int) -> Dict[str, float]:
    """The per-layer metrics of one traced run (all but trace.overhead_ratio)."""
    spans = tracer.span_table()

    def col(name: str, key: str) -> float:
        return spans.get(name, {}).get(key, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    level_sign = col("rotation.level_sign", "calls")
    snaps = col("rotation.snap_rational", "calls")
    out: Dict[str, float] = {}
    for name in (
        "maps.envelope",
        "solvers.bisect_root",
        "solvers.golden_min",
        "rotation.level_sign",
        "rotation.snap_rational",
        "orbits.find_periodic_orbits",
        "tongues.plateau_edges",
        "cli.main",
    ):
        out[f"{name}.calls"] = col(name, "calls")
    for name in (
        "maps.envelope",
        "solvers.bisect_root",
        "solvers.golden_min",
        "rotation.level_sign",
        "rotation.rho_monotone",
        "rotation.snap_rational",
        "orbits.find_periodic_orbits",
        "tongues.trace_curve",
        "tongues.region_boundary",
        "tongues.boundary_condition_residuals",
        "sweep.raster",
        "sweep.render_ppm",
        "sweep.export_csv",
        "cli.main",
    ):
        out[f"{name}.self_s"] = col(name, "self_s")
    for name in ("maps.MonotoneLift.eval", "maps.eval_lift", "maps.deriv"):
        out[f"{name}.calls"] = tracer.counts[name]
    out["maps.envelope_per_level_sign"] = ratio(col("maps.envelope", "calls"), level_sign)
    out["rotation.level_sign.sharpened_ratio"] = ratio(
        tracer.children_named("rotation.level_sign", "solvers.golden_min"), level_sign
    )
    out["rotation.snap_rational.hit_ratio"] = ratio(snaps - col("rotation.snap_rational", "none"), snaps)
    out["orbits.find_periodic_orbits.raised"] = col("orbits.find_periodic_orbits", "raised")
    out["tongues.level_sign_per_item"] = ratio(
        tracer.under("rotation.level_sign", ("tongues.trace_curve", "tongues.region_boundary")),
        located_items,
    )
    return out
