"""Query workload generators (hotspot, uniform, zipfian + per-family).

Each workload is a lazy ``*_stream`` generator (the session API's unit;
``list(...)`` materialises one for replay); :func:`interleave` composes
streams. The generic streams accept any registered query operator in
their ``mix`` (see
:mod:`repro.core.operators`); :mod:`~repro.workloads.families` adds
dedicated streams shaping traffic for the extended families (``ppr``,
``k_reach``, ``sample``); :mod:`~repro.workloads.updates` adds
:func:`churn_stream`, which interleaves live
:class:`~repro.graph.updates.GraphUpdate` mutations with hotspot queries;
:mod:`~repro.workloads.open_loop` timestamps any query stream as an
open-loop Poisson arrival process and
multiplexes per-tenant streams for
:meth:`~repro.core.service.QuerySession.serve`.
"""

from .families import k_reach_stream, ppr_stream, sample_stream
from .hotspot import (
    DEFAULT_MIX,
    FULL_MIX,
    hotspot_stream,
    interleave,
    shifting_hotspot_stream,
    uniform_stream,
    zipfian_stream,
)
from .open_loop import (
    Arrival,
    merge_arrivals,
    poisson_arrivals,
)
from .updates import churn_stream

__all__ = [
    "Arrival",
    "DEFAULT_MIX",
    "FULL_MIX",
    "churn_stream",
    "hotspot_stream",
    "interleave",
    "k_reach_stream",
    "merge_arrivals",
    "poisson_arrivals",
    "ppr_stream",
    "sample_stream",
    "shifting_hotspot_stream",
    "uniform_stream",
    "zipfian_stream",
]
