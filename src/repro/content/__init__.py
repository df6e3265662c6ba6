"""Content: blocks, catalogs and request popularity.

* :mod:`repro.content.blocks` — chunking data into content-addressed
  blocks with a flat DAG root,
* :mod:`repro.content.catalog` — the population of content items, their
  publishers, lifetimes and request popularity.

The traffic engine that used to live here is now the
:mod:`repro.workload` package; the re-exports below keep old call sites
working.
"""

from repro.content.blocks import chunk_data, DagObject
from repro.content.catalog import ContentCatalog, ContentItem

__all__ = [
    "ContentCatalog",
    "ContentItem",
    "DagObject",
    "TrafficEngine",
    "WorkloadConfig",
    "chunk_data",
]


def __getattr__(name: str):
    # Lazy: the engine imports the catalog, so an eager re-export here
    # would be circular now that the engine lives in repro.workload.
    if name in ("TrafficEngine", "WorkloadConfig"):
        from repro.workload import engine

        return getattr(engine, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
