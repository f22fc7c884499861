"""Synthetic access-stream models of the paper's Table III workloads."""

from .base import ProcessContext, Workload, interleave
from .colocation import MultiWorkload
from .data_analytics import DataAnalytics
from .data_caching import DataCaching
from .graph500 import Graph500
from .graph_analytics import GraphAnalytics
from .gups import GUPS
from .lulesh import LULESH
from .registry import (
    DEFAULT_SCALE,
    WORKLOAD_NAMES,
    WORKLOADS,
    make_workload,
    paper_suite,
    resolve_workload,
)
from .synth import (
    BoundedZipf,
    StreamBuilder,
    rmw_expand,
    sequential_sweep,
    strided_sweep,
    uniform_pages,
)
from .web_serving import WebServing
from .xsbench import XSBench

__all__ = [
    "BoundedZipf",
    "DataAnalytics",
    "DataCaching",
    "DEFAULT_SCALE",
    "GUPS",
    "Graph500",
    "GraphAnalytics",
    "LULESH",
    "MultiWorkload",
    "ProcessContext",
    "StreamBuilder",
    "WORKLOADS",
    "WORKLOAD_NAMES",
    "WebServing",
    "Workload",
    "XSBench",
    "interleave",
    "make_workload",
    "paper_suite",
    "resolve_workload",
    "rmw_expand",
    "sequential_sweep",
    "strided_sweep",
    "uniform_pages",
]
