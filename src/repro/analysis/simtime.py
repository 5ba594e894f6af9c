"""S rules — simulated-time accounting.

Work that touches shared simulated state must be *paid for* in simulated
time, or the benchmarks stop measuring contention. These rules pin the
two accounting contracts: storage/cache mutation flows through the timed
``*_process`` pipelines, and every benchmark artifact flows through
``emit()`` (which attaches the PR 4/6 metadata block CI validates).

Codes
-----
S301
    direct store/cache mutation (``.put``/``.put_many``/``.delete``/
    ``.invalidate_many``/``.load`` on a store- or cache-shaped receiver)
    from a non-generator function in ``core/``/``storage/``: mutation
    outside a timed pipeline lands in zero simulated time and dodges the
    FIFO contention every experiment measures. Untimed *setup* loaders are
    legitimate — waive them with a reason.
S302
    a ``bench/`` module writing artifacts around ``emit()``
    (``write_json_atomic``, ``json.dump``, ``open``, ``.write_text``):
    artifacts that skip ``emit()`` lack the metadata contract and fail
    ``repro.bench.validate`` in CI — or worse, silently drop out of the
    perf trajectory.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .registry import (
    Finding,
    ModuleContext,
    is_generator,
    receiver_segments,
    rule,
)

#: Mutating methods the S301 rule watches.
MUTATORS = frozenset({"put", "put_many", "delete", "invalidate_many", "load"})

#: Receiver path segments that mark a storage/cache object. Matching is
#: by segment (``self.store.put``, ``processor.cache.invalidate_many``,
#: ``tier.servers[sid].store.delete`` all hit); queue-like receivers
#: (``inbox.put`` — a sim Store channel) deliberately do not.
STOREISH = ("store", "cache", "kvstore", "kv")

#: Modules that *implement* the data structures: their internal calls are
#: the structures' own bookkeeping, not simulation-time accounting.
IMPL_MODULES = ("core/cache.py",)

#: bench modules allowed to touch files: the emit()/validate machinery.
BENCH_IO_MODULES = ("bench/harness.py", "bench/validate.py")

#: File-writing callables banned in bench modules outside the harness.
#: ``open`` is matched only as the bare builtin (``Service.open(...)``
#: class methods are not file I/O).
BENCH_IO_CALLS = frozenset({"json.dump", "json.dumps", "open"})
BENCH_IO_TAILS = frozenset({"write_json_atomic"})
BENCH_IO_METHODS = frozenset({"write_text", "write_bytes"})


def _is_storeish(segments: list) -> bool:
    for segment in segments[:-1]:  # last segment is the method itself
        low = segment.lower()
        if low in STOREISH or low.endswith(("store", "cache")):
            return True
    return False


@rule("S301", "untimed-mutation",
      "store/cache mutation outside a timed *_process pipeline")
def check_untimed_mutation(ctx: ModuleContext) -> Iterator[Finding]:
    if not ctx.in_package("core", "storage"):
        return
    if ctx.is_module(*IMPL_MODULES):
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call) or \
                not isinstance(node.func, ast.Attribute) or \
                node.func.attr not in MUTATORS:
            continue
        segments = receiver_segments(node.func)
        if not _is_storeish(segments):
            continue
        func = ctx.enclosing_function(node)
        if func is not None and is_generator(func):
            continue  # inside a timed pipeline: the yield pays for it
        where = f"`{func.name}`" if func is not None else "module scope"
        yield (node.lineno, node.col_offset,
               f"{'.'.join(segments)}() mutates storage/cache state from "
               f"{where}, which is not a generator: the write lands in "
               "zero simulated time, outside the FIFO pipelines the "
               "experiments measure (waive only for documented untimed "
               "setup)")


@rule("S302", "artifact-bypasses-emit",
      "bench module writes artifacts around emit()")
def check_artifact_emission(ctx: ModuleContext) -> Iterator[Finding]:
    if not ctx.in_package("bench") or ctx.is_module(*BENCH_IO_MODULES):
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        name = ctx.resolve_call(node.func)
        flagged = (
            name in BENCH_IO_CALLS
            or name.split(".")[-1] in BENCH_IO_TAILS
            or (isinstance(node.func, ast.Attribute)
                and node.func.attr in BENCH_IO_METHODS)
        )
        if flagged:
            yield (node.lineno, node.col_offset,
                   f"`{name or ast.unparse(node.func)}` writes outside "
                   "emit(): benchmark artifacts must go through "
                   "repro.bench.harness.emit so the metadata contract "
                   "(and the perf trajectory) holds")


__all__ = ["check_untimed_mutation", "check_artifact_emission"]
