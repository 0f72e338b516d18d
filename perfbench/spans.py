"""Layer tracing from outside the program.

`install` wraps public functions and methods of the `whittaker` modules in
every namespace that bound them by name (`from .linalg import mat_mul` copies
the reference into `groups`, `chartab` and `whittaker_verify`).  Each wrapper
records a span (name, start, end, parent) in memory and adds exact counts.
`layer_metrics` derives inclusive time, self time (span time minus the time
of its direct children) and the counts once the pass is over.
"""

from __future__ import annotations

import functools
import json
import pathlib
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np


class Tracer:
    """Spans and counts of one process.  Spans are [name, start, end, parent],
    parent being the index of the enclosing span or -1."""

    def __init__(self, cache_dir: Path):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.cache_dir = str(cache_dir)
        self.names: set[str] = set()
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        stack = self._stack
        span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1]
        stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        self._stack.pop()
        span[2] = time.perf_counter()

    def timed(self, name: str, fn, count=None):
        self.names.add(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if count is not None:
                count(self.counts, result, *args, **kwargs)
            return result
        return wrapper

    def timed_generator(self, name: str, fn, count):
        """Time a generator per next(): its body runs only then."""
        self.names.add(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                span = self._open(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._close(span)
                count(self.counts, item)
                yield item
        return wrapper

    def counted(self, fn, count):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            count(self.counts, result, *args, **kwargs)
            return result
        return wrapper

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"fields": ["name", "start", "end", "parent"],
                                    "spans": self.spans}))


# -- counters ----------------------------------------------------------------
# Each factory declares its keys (at 0) so that a layer a pass never reaches
# still reports its counts.


def _n_mats(result) -> int:
    """Matrices in a batched result of shape (..., n, n)."""
    arr = np.asarray(result)
    return arr.size // (arr.shape[-1] ** 2) if arr.ndim >= 2 else 1


def _declare(tracer: Tracer, *keys: str) -> None:
    for key in keys:
        tracer.counts[key] += 0


def _add(tracer: Tracer, key: str, amount):
    _declare(tracer, key)

    def count(counts, result, *args, **kwargs):
        counts[key] += amount(result, *args)
    return count


def _calls(tracer: Tracer, key: str):
    return _add(tracer, key, lambda result, *args: 1)


def _calls_and_mats(tracer: Tracer, prefix: str, per_call: bool, n_mats=_n_mats):
    _declare(tracer, prefix + ".mats", *([prefix + ".calls"] if per_call else []))

    def count(counts, result, *args, **kwargs):
        if per_call:
            counts[prefix + ".calls"] += 1
        counts[prefix + ".mats"] += n_mats(result)
    return count


def _hit_or_miss(tracer: Tracer, prefix: str):
    _declare(tracer, prefix + ".hits", prefix + ".misses")

    def count(counts, result, *args, **kwargs):
        counts[prefix + (".hits" if result is not None else ".misses")] += 1
    return count


def _char_table_facts(tracer: Tracer):
    """Sums of k, the Dixon prime r and the exponent e over the tables
    `cached_char_table` returns, built or loaded."""
    _declare(tracer, "chartab.classes", "chartab.dixon_r", "chartab.exponent")

    def count(counts, ct, *args, **kwargs):
        counts["chartab.classes"] += ct.k
        counts["chartab.dixon_r"] += ct.r
        counts["chartab.exponent"] += ct.e
    return count


def _conjugations(tracer: Tracer):
    """|G|·|U| per induced norm: the conjugations the double sum tests."""
    from whittaker.groups import unipotent_order

    key = "whittaker_verify.induced_norm.conjugations"
    return _add(tracer, key, lambda result, spec, *args:
                spec.order() * unipotent_order(spec.n, spec.ring))


# -- installation ------------------------------------------------------------


def _rebind(original, replacement) -> None:
    """Replace `original` in every whittaker module namespace and in the CLI
    command table."""
    for name, module in list(sys.modules.items()):
        if name == "whittaker" or name.startswith("whittaker."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
    from whittaker import cli

    for key, value in cli.COMMANDS.items():
        if value is original:
            cli.COMMANDS[key] = replacement


def install(tracer: Tracer) -> None:
    """Wrap every traced function; call once per process, before the jobs."""
    from whittaker import (cache, chartab, cli, cyclotomic, groups, linalg,
                           regular, reporting, whittaker_verify)

    functions = [
        (linalg.mat_mul, "linalg.mat_mul",
         _calls_and_mats(tracer, "linalg.mat_mul", True)),
        (linalg.mat_inv_batch, "linalg.mat_inv_batch",
         _calls_and_mats(tracer, "linalg.mat_inv_batch", False)),
        (linalg.mat_det_batch, "linalg.mat_det_batch",
         _calls_and_mats(tracer, "linalg.mat_det_batch", False, np.size)),
        (groups.enumerate_group, "groups.enumerate_group",
         _add(tracer, "groups.enumerate_group.elems", lambda table, *a: len(table))),
        (whittaker_verify.induced_norm, "whittaker_verify.induced_norm",
         _conjugations(tracer)),
        (whittaker_verify.predicted_regular_count,
         "whittaker_verify.predicted_regular_count", None),
        (regular.type_of, "regular.type_of", _calls(tracer, "regular.type_of.calls")),
        (chartab.conjugacy_classes, "chartab.conjugacy_classes", None),
        (chartab.class_matrix, "chartab.class_matrix",
         _calls(tracer, "chartab.class_matrix.calls")),
        (chartab.character_table, "chartab.character_table", None),
        (chartab.charpoly_mod, "chartab.charpoly_mod", None),
        (chartab.nullspace_mod, "chartab.nullspace_mod", None),
        (chartab.classify_regular, "chartab.classify_regular", None),
        (chartab.restriction_norm, "chartab.restriction_norm", None),
        (chartab.sl_class_profile, "chartab.sl_class_profile", None),
        (cache.load_group_table, "cache.load_group_table",
         _hit_or_miss(tracer, "cache.group")),
        (cache.save_group_table, "cache.save_group_table", None),
        (cache.load_char_table, "cache.load_char_table",
         _hit_or_miss(tracer, "cache.chartab")),
        (cache.save_char_table, "cache.save_char_table", None),
        (cache.cached_char_table, "cache.cached_char_table",
         _char_table_facts(tracer)),
        (cache.cached_irreducibles, "cache.cached_irreducibles", None),
    ]
    for fn, name, count in functions:
        _rebind(fn, tracer.timed(name, fn, count))
    for command, fn in list(cli.COMMANDS.items()):
        _rebind(fn, tracer.timed(f"cli.{command}", fn))
    _rebind(groups.iter_group_chunks, tracer.timed_generator(
        "groups.iter_group_chunks", groups.iter_group_chunks,
        _add(tracer, "groups.iter_group_chunks.elems", len)))
    _rebind(cache.atomic_write_bytes, tracer.counted(
        cache.atomic_write_bytes,
        _add(tracer, "cache.bytes_written", lambda result, path, data: len(data))))

    methods = [
        (groups.GroupTable, "__init__", "groups.GroupTable.init",
         _add(tracer, "groups.GroupTable.init.elems",
              lambda result, table, spec, elems: len(elems))),
        (groups.GroupTable, "ids_of", "groups.GroupTable.ids_of",
         _add(tracer, "groups.GroupTable.lookups",
              lambda result, table, batch: len(batch))),
        (groups.GroupTable, "inverses", "groups.GroupTable.inverses", None),
        (chartab.CharTable, "verify", "chartab.CharTable.verify",
         _calls(tracer, "chartab.CharTable.verify.calls")),
        (cyclotomic.CycloNum, "rational_value", "cyclotomic.CycloNum.rational_value",
         _calls(tracer, "cyclotomic.CycloNum.rational_value.calls")),
        (reporting.ReportEnvelope, "to_json", "reporting.render", None),
    ]
    for cls, attr, name, count in methods:
        setattr(cls, attr, tracer.timed(name, getattr(cls, attr), count))
    groups.GroupTable.id_of = tracer.counted(
        groups.GroupTable.id_of, _calls(tracer, "groups.GroupTable.lookups"))

    # bytes read from the run's cache directory, whichever reader is used
    cache_dir = tracer.cache_dir

    def read_size(result, path, *args, **kwargs):
        return len(result) if str(path).startswith(cache_dir) else 0

    for attr in ("read_bytes", "read_text"):
        setattr(pathlib.Path, attr, tracer.counted(
            getattr(pathlib.Path, attr), _add(tracer, "cache.bytes_read", read_size)))


# -- derived metrics ---------------------------------------------------------


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Inclusive `<name>.s`, `<name>.self_s` and the counts.  A span nested
    in a span of the same name adds to neither total twice."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, float] = Counter()
    for name in tracer.names:
        out[name + ".s"] = out[name + ".self_s"] = 0.0
    for i, (name, start, end, parent) in enumerate(spans):
        out[name + ".self_s"] += (end - start) - child_time[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            out[name + ".s"] += end - start
    out.update(tracer.counts)
    return dict(out)
