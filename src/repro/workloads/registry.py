"""Workload registry: name → factory, plus the paper's Table III suite.

Footprints are the paper's inputs scaled down by :data:`DEFAULT_SCALE`
(the simulator runs millions, not trillions, of accesses; all
experiments depend on *ratios* — tier1 : footprint, samples : pages —
which the registry preserves).  Pass a different ``scale`` to the
factories to trade fidelity against runtime.
"""

from __future__ import annotations

from collections.abc import Callable

from .base import Workload
from .data_analytics import DataAnalytics
from .data_caching import DataCaching
from .graph500 import Graph500
from .graph_analytics import GraphAnalytics
from .gups import GUPS
from .lulesh import LULESH
from .web_serving import WebServing
from .xsbench import XSBench

__all__ = [
    "WORKLOADS",
    "WORKLOAD_NAMES",
    "resolve_workload",
    "make_workload",
    "paper_suite",
    "DEFAULT_SCALE",
]

#: Linear footprint scale-down applied to the paper's inputs (1/64).
DEFAULT_SCALE = 1.0

#: Minimum pages any scaled footprint may shrink to.
_MIN_PAGES = 256


def _scaled(pages: int, scale: float, n_processes: int) -> int:
    return max(_MIN_PAGES, n_processes, int(pages * scale))


def _gups(scale: float = DEFAULT_SCALE, **kw) -> Workload:
    kw.setdefault("footprint_pages", _scaled(16_384, scale, 8))
    return GUPS(**kw)


def _xsbench(scale: float = DEFAULT_SCALE, **kw) -> Workload:
    kw.setdefault("footprint_pages", _scaled(245_760, scale, 8))
    return XSBench(**kw)


def _graph500(scale: float = DEFAULT_SCALE, **kw) -> Workload:
    kw.setdefault("footprint_pages", _scaled(16_384, scale, 8))
    return Graph500(**kw)


def _graph_analytics(scale: float = DEFAULT_SCALE, **kw) -> Workload:
    kw.setdefault("footprint_pages", _scaled(45_056, scale, 17))
    return GraphAnalytics(**kw)


def _lulesh(scale: float = DEFAULT_SCALE, **kw) -> Workload:
    kw.setdefault("footprint_pages", _scaled(86_016, scale, 8))
    return LULESH(**kw)


def _data_caching(scale: float = DEFAULT_SCALE, **kw) -> Workload:
    kw.setdefault("footprint_pages", _scaled(98_304, scale, 12))
    return DataCaching(**kw)


def _data_analytics(scale: float = DEFAULT_SCALE, **kw) -> Workload:
    kw.setdefault("footprint_pages", _scaled(33_792, scale, 33))
    return DataAnalytics(**kw)


def _web_serving(scale: float = DEFAULT_SCALE, **kw) -> Workload:
    kw.setdefault("footprint_pages", _scaled(4_608, scale, 15))
    return WebServing(**kw)


WORKLOADS: dict[str, Callable[..., Workload]] = {
    "data-analytics": _data_analytics,
    "data-caching": _data_caching,
    "graph500": _graph500,
    "graph-analytics": _graph_analytics,
    "gups": _gups,
    "lulesh": _lulesh,
    "web-serving": _web_serving,
    "xsbench": _xsbench,
}

#: Table III order.
WORKLOAD_NAMES = tuple(WORKLOADS)


def resolve_workload(
    name: str, *, error: Callable[[str], Exception] = KeyError, also: tuple = ()
) -> Callable[..., Workload]:
    """The factory registered as ``name``.

    The one place a name nobody registered is reported: it raises
    ``error(message)`` — ``KeyError`` by default, the caller's own kind
    at a boundary (``SystemExit`` on the command line, ``bad_params``
    in the service).  ``also`` names what the caller accepts besides the
    registry (the command line's ``all``), so the message offers it.
    """
    try:
        return WORKLOADS[name]
    except (KeyError, TypeError):  # TypeError: an unhashable off the wire
        raise error(
            f"unknown workload {name!r}; "
            f"available: {', '.join((*also, *WORKLOAD_NAMES))}"
        ) from None


def make_workload(name: str, scale: float = DEFAULT_SCALE, **kw) -> Workload:
    """Instantiate a Table III workload by name."""
    return resolve_workload(name)(scale=scale, **kw)


def paper_suite(scale: float = DEFAULT_SCALE, **kw) -> dict[str, Workload]:
    """The full Table III suite at the given scale."""
    return {name: make_workload(name, scale=scale, **kw) for name in WORKLOAD_NAMES}
