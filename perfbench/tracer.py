"""Outside-in tracer: spans around the calls into each charscan module.

The package modules import each other with `from .x import y`, so a function
is reached through several module globals (`charscan.sums.bulk_values`,
`charscan.experiments.bulk_values`, ...). `Tracer.install` replaces every
binding of a seam's function in every loaded `charscan` module, and methods on
their class, so no call goes around the wrapper. Spans are kept in memory as
plain lists and handed back to the benchmark driver when the pass ends;
`layer_metrics` turns one repetition's spans into the per-layer metrics.

A seam that no longer exists (a later change renamed or removed it) is listed
in `Tracer.absent`, and its metrics are left out instead of failing the pass.
"""

from __future__ import annotations

import functools
import math
import os
import resource
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass

# Span fields, in order, as stored in Tracer.spans.
SPAN_FIELDS = ("seam", "stage", "start", "end", "parent", "run", "elements", "rss_step_kb", "extra")


def _search_extra(a: dict, result, state) -> dict:
    """Hits of the inversion search and the (subset, N) pairs it examined."""
    m = math.floor(a["x_max"])
    pool = sys.modules["charscan.experiments"]._FLIP_POOL
    size = sum(1 for p in pool if p <= m)
    subsets = sum(math.comb(size, k) for k in range(min(a["flip_budget"], size) + 1))
    return {"hits": len(result), "candidates": subsets * (m - 1)}


def _file_size(a: dict) -> int:
    try:
        return os.stat(a["cache"]).st_size
    except FileNotFoundError:
        return 0


def _text_bytes(text: str) -> int:
    return len(text) if text.isascii() else len(text.encode("utf-8"))


@dataclass(frozen=True)
class Seam:
    """One traced function: where it is defined and what its span records.

    name is the metric prefix `<layer>.<function>`; stage is the stage label
    from the roadmap's vocabulary; size reads the element count (the size
    argument) from the bound arguments; pre runs before the span opens and
    its result is passed to extra, which runs after the span closes, so
    neither is timed.
    """

    name: str
    module: str
    attr: str
    stage: str
    stats: tuple[str, ...]
    size: Callable[[dict], int] | None = None
    rss: bool = False
    pre: Callable[[dict], object] | None = None
    extra: Callable[[dict, object, object], dict] | None = None


SEAMS = (
    Seam("arith.build_spf", "charscan.arith", "build_spf", "spf sieve",
         ("calls", "elements", "self_s", "rss_step_mb"), lambda a: a["limit"], rss=True),
    Seam("arith.sieve_primes", "charscan.arith", "sieve_primes", "prime sieve",
         ("calls", "elements", "self_s"), lambda a: a["limit"]),
    Seam("arith.liouville", "charscan.arith", "liouville", "multiplicative expansion",
         ("elements", "self_s"), lambda a: a["limit"]),
    Seam("arith.kronecker", "charscan.arith", "kronecker", "jacobi symbol", ("calls",)),
    Seam("characters.bulk_values", "charscan.characters", "bulk_values",
         "character value tables", ("calls", "elements", "self_s", "rss_step_mb"),
         lambda a: a["limit"], rss=True),
    Seam("characters.evaluate", "charscan.characters", "evaluate",
         "pointwise character value", ("calls", "self_s")),
    Seam("sums.max_partial_sum", "charscan.sums", "max_partial_sum", "partial-sum scan",
         ("calls", "elements", "self_s", "rss_step_mb"), lambda a: a["chi"].modulus, rss=True),
    Seam("sums.cmf_construct", "charscan.sums", "CompletelyMultiplicativeFunction.__post_init__",
         "function construction", ("calls", "self_s")),
    Seam("sums.values_upto", "charscan.sums", "CompletelyMultiplicativeFunction.values_upto",
         "multiplicative expansion", ("calls", "elements", "self_s"),
         lambda a: math.floor(a["x"])),
    Seam("sums.mean", "charscan.sums", "mean", "mean", ("self_s",)),
    Seam("sums.log_mean", "charscan.sums", "log_mean", "log-mean", ("self_s",)),
    Seam("sums.conv_mean", "charscan.sums", "conv_mean", "convolution mean", ("self_s",)),
    Seam("sums.ht_u", "charscan.sums", "ht_u", "prime decay statistic", ("self_s",)),
    Seam("experiments.theorem_a_pipeline", "charscan.experiments", "theorem_a_pipeline",
         "conductor-pasting pipeline", ("self_s",)),
    Seam("experiments.verify_lemma_bg", "charscan.experiments", "verify_lemma_bg",
         "log-weighted bound audit", ("elements", "self_s", "rss_step_mb"),
         lambda a: a["xi"].modulus * a["psi"].modulus, rss=True),
    Seam("experiments.estimate_delta", "charscan.experiments", "estimate_delta",
         "delta estimate", ("self_s",)),
    Seam("experiments.lemma_b_report", "charscan.experiments", "lemma_b_report",
         "means report", ("self_s",)),
    Seam("experiments.counterexample_search", "charscan.experiments", "counterexample_search",
         "inversion search", ("self_s", "hits", "rss_step_mb"), rss=True, extra=_search_extra),
    Seam("cli.main", "charscan.cli", "main", "command", ("self_s",)),
    Seam("cli.cache_load", "charscan.cli", "_load_cache", "cache load", ("rows", "self_s"),
         extra=lambda a, result, state: {"rows": len(result)}),
    Seam("cli.cache_append", "charscan.cli", "_append_cache", "cache append",
         ("rows", "bytes", "self_s"), pre=_file_size,
         extra=lambda a, result, size0: {"rows": len(a["records"]), "bytes": _file_size(a) - size0}),
    Seam("cli.render", "charscan.cli", "_render", "row rendering", ("rows", "bytes", "self_s"),
         extra=lambda a, result, state: {"rows": len(a["rows"]), "bytes": _text_bytes(result)}),
)

# Ratios built from more than one seam: name -> seams they need.
DERIVED = {
    "sums.values_per_function": ("sums.values_upto", "sums.cmf_construct"),
    "experiments.counterexample_search.hit_ratio": ("experiments.counterexample_search",),
    "cli.cache_hit_ratio": ("cli.cache_load", "cli.cache_append", "cli.render"),
}

OVERHEAD = "trace.overhead_s"

_UNITS = {"calls": "count", "elements": "count", "rows": "count", "hits": "count",
          "bytes": "B", "self_s": "s", "rss_step_mb": "MB"}
_HIGHER = {"hits", "experiments.counterexample_search.hit_ratio", "cli.cache_hit_ratio"}


def catalog() -> list[dict]:
    """Every per-layer metric as BENCHMARK.json lists it."""
    out = []
    for seam in SEAMS:
        for stat in seam.stats:
            better = "higher" if stat in _HIGHER else "lower"
            out.append({"name": f"{seam.name}.{stat}", "unit": _UNITS[stat], "better": better})
    for name in DERIVED:
        out.append({"name": name, "unit": "ratio", "better": "higher" if name in _HIGHER else "lower"})
    out.append({"name": OVERHEAD, "unit": "s", "better": "lower"})
    return out


def _resolve(seam: Seam):
    """(owner, attribute) holding the seam's function, or None if it is gone."""
    owner = sys.modules.get(seam.module)
    if owner is None:
        return None
    *path, attr = seam.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


def _max_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """Records a span for each call through an installed seam."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.absent: list[str] = []
        self.run = 0
        self._stack: list[int] = []

    def install(self) -> None:
        for index, seam in enumerate(SEAMS):
            found = _resolve(seam)
            if found is None:
                self.absent.append(seam.name)
                continue
            owner, attr = found
            original = getattr(owner, attr)
            wrapper = self._wrap(index, seam, original)
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                continue
            for name, module in list(sys.modules.items()):
                if name != "charscan" and not name.startswith("charscan."):
                    continue
                for key in [k for k, v in vars(module).items() if v is original]:
                    setattr(module, key, wrapper)

    def _wrap(self, index: int, seam: Seam, fn):
        code = getattr(fn, "__code__", None)
        names = list(code.co_varnames[: code.co_argcount]) if code else []
        spans, stack = self.spans, self._stack
        needs_args = seam.size or seam.pre or seam.extra

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = {**dict(zip(names, args)), **kwargs} if needs_args else None
            try:
                state = seam.pre(bound) if seam.pre else None
            except (KeyError, AttributeError, TypeError):
                state = None
            slot = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(slot)
            rss0 = _max_rss_kb() if seam.rss else 0
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                rss_step = _max_rss_kb() - rss0 if seam.rss else 0
                stack.pop()
                spans[slot] = [index, seam.stage, start, end, parent, self.run, None, rss_step, None]
            span = spans[slot]
            # A changed signature leaves the field None; its metrics are then absent.
            try:
                if seam.size:
                    span[6] = int(seam.size(bound))
                if seam.extra:
                    span[8] = seam.extra(bound, result, state)
            except (KeyError, AttributeError, TypeError):
                pass
            return result

        return wrapper


def layer_metrics(spans: list[list], absent: list[str]) -> dict[str, float]:
    """Per-layer metrics of one traced repetition; absent seams are left out."""
    child_time = [0.0] * len(spans)
    for _, _, start, end, parent, *_ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    present = [seam for seam in SEAMS if seam.name not in absent]
    sums: dict[str, dict[str, float]] = {
        seam.name: {"calls": 0, "elements": 0, "self_s": 0.0, "rss_step_mb": 0.0,
                    "rows": 0, "bytes": 0, "hits": 0, "candidates": 0}
        for seam in present
    }
    missing: set[tuple[str, str]] = set()  # (seam, field) a call could not report
    by_run: dict[int, dict[str, int]] = {}
    for i, (seam_i, _, start, end, parent, run, elements, rss_kb, extra) in enumerate(spans):
        name = SEAMS[seam_i].name
        acc = sums[name]
        acc["calls"] += 1
        acc["self_s"] += (end - start) - child_time[i]
        acc["rss_step_mb"] += rss_kb / 1024.0
        if elements is None:
            missing.add((name, "elements"))
        else:
            acc["elements"] += elements
        if extra is None and SEAMS[seam_i].extra:
            missing.add((name, "extra"))
        for key, value in (extra or {}).items():
            acc[key] += value
            if key == "rows":
                per_run = by_run.setdefault(run, {})
                per_run[name] = per_run.get(name, 0) + value

    out: dict[str, float] = {}
    for seam in present:
        for stat in seam.stats:
            field = stat if stat == "elements" else "extra"
            if stat in ("calls", "self_s", "rss_step_mb") or (seam.name, field) not in missing:
                out[f"{seam.name}.{stat}"] = sums[seam.name][stat]

    def have(*names: str) -> bool:
        return all(n in sums and (n, "extra") not in missing for n in names)

    if have(*DERIVED["sums.values_per_function"]):
        made = sums["sums.cmf_construct"]["calls"]
        out["sums.values_per_function"] = sums["sums.values_upto"]["calls"] / made if made else 0.0
    if have(*DERIVED["experiments.counterexample_search.hit_ratio"]):
        search = sums["experiments.counterexample_search"]
        out["experiments.counterexample_search.hit_ratio"] = (
            search["hits"] / search["candidates"] if search["candidates"] else 0.0
        )
    if have(*DERIVED["cli.cache_hit_ratio"]):
        # Rows a cached command served, less the rows it had to compute and append.
        served = appended = 0
        for per_run in by_run.values():
            if "cli.cache_load" in per_run:
                served += per_run.get("cli.render", 0)
                appended += per_run.get("cli.cache_append", 0)
        out["cli.cache_hit_ratio"] = (served - appended) / served if served else 0.0
    return out
