"""Router registry: build routers by name for benches, examples and CLIs."""

from __future__ import annotations

from functools import cache
from typing import Callable

from repro.routing.base import Router

__all__ = ["available_routers", "make_router", "oblivious_routers"]


@cache  # built once: the imports are deferred only to break import cycles
def _factories() -> dict[str, Callable[..., Router]]:
    from repro.core.compact import CompactHierarchicalRouter
    from repro.core.path_selection import HierarchicalRouter
    from repro.core.rect import RectHierarchicalRouter
    from repro.routing.baselines import (
        AccessTreeRouter,
        DimensionOrderRouter,
        GreedyMinCongestionRouter,
        RandomDimOrderRouter,
        ShortestPathRouter,
        ValiantRouter,
    )
    from repro.routing.competitors import RackeTreeRouter, SemiObliviousRouter

    return {
        "hierarchical": HierarchicalRouter,
        "hierarchical-general": lambda **kw: HierarchicalRouter(
            variant="general", name="hierarchical-general", **kw
        ),
        "compact-hierarchical": CompactHierarchicalRouter,
        "access-tree": AccessTreeRouter,
        "dim-order": DimensionOrderRouter,
        "random-dim-order": RandomDimOrderRouter,
        "valiant": ValiantRouter,
        "shortest-path": ShortestPathRouter,
        "greedy-offline": GreedyMinCongestionRouter,
        "rect-hierarchical": RectHierarchicalRouter,
        "semi-oblivious": SemiObliviousRouter,
        "racke-tree": RackeTreeRouter,
    }


def available_routers() -> list[str]:
    """Names accepted by :func:`make_router`."""
    return sorted(_factories())


def oblivious_routers() -> list[str]:
    """The names in :func:`available_routers` whose router is oblivious,
    which are the ones the online simulator accepts."""
    return sorted(
        name for name, factory in _factories().items() if factory().is_oblivious
    )


def make_router(name: str, **kwargs) -> Router:
    """Instantiate a router by registry name.

    Keyword arguments are forwarded to the router's constructor, e.g.
    ``make_router("hierarchical", bit_mode="recycled")``.
    """
    factories = _factories()
    if name not in factories:
        raise KeyError(f"unknown router {name!r}; choose from {sorted(factories)}")
    return factories[name](**kwargs)
