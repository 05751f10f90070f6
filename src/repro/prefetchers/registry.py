"""Name -> factory registry for prefetchers.

Experiments and the CLI construct prefetchers by name; factories accept
the system config, an optional degree override, and design-specific
keyword arguments (e.g. ``unbounded`` for the temporal designs or
``depth`` for the multi-lookup prefetcher).

The registry holds what the experiments run and nothing more: the
no-prefetcher ``baseline`` of the multicore cells, the Section IV-D
comparison set (:data:`PAPER_PREFETCHERS`), fig05's ``multi_lookup``
and fig16's ``vldp+domino``.  A tier-1 test checks that the cells of
the registered experiments use exactly these names.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

from ..config import SystemConfig
from ..core.domino import DominoPrefetcher
from ..errors import UnknownPrefetcherError
from .base import NullPrefetcher, Prefetcher
from .digram import DigramPrefetcher
from .isb import IsbPrefetcher
from .multi_lookup import MultiLookupPrefetcher
from .spatio_temporal import SpatioTemporalPrefetcher
from .stms import StmsPrefetcher
from .vldp import VldpPrefetcher

Factory = Callable[..., Prefetcher]

PREFETCHERS: dict[str, Factory] = {
    "baseline": NullPrefetcher,
    "vldp": VldpPrefetcher,
    "isb": IsbPrefetcher,
    "stms": StmsPrefetcher,
    "digram": DigramPrefetcher,
    "domino": DominoPrefetcher,
    "multi_lookup": MultiLookupPrefetcher,
    "vldp+domino": SpatioTemporalPrefetcher,
}

#: The comparison set of Section IV-D, in the paper's plotting order.
PAPER_PREFETCHERS = ("vldp", "isb", "stms", "digram", "domino")


def prefetcher_names() -> list[str]:
    """All registered prefetcher names."""
    return list(PREFETCHERS)


def make_prefetcher(name: str, config: SystemConfig,
                    degree: int | None = None, **kwargs: Any) -> Prefetcher:
    """Instantiate a prefetcher by registry name."""
    try:
        factory = PREFETCHERS[name]
    except KeyError:
        raise UnknownPrefetcherError(
            f"unknown prefetcher {name!r}; known: {', '.join(PREFETCHERS)}"
        ) from None
    return factory(config, degree=degree, **kwargs)
