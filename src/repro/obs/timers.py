"""Phase timers and the opt-in cProfile hook.

``with timed("simulate"):`` records one wall-clock (and CPU) sample
into the active registry's ``time.<section>_s`` histograms, which
``obs summary``'s timing table reads.  When telemetry is off the
context manager body runs with nothing but one state lookup of
overhead — cheap enough to leave in place permanently.

:func:`profile_call` wraps one callable in ``cProfile`` and condenses
the result to its top rows by cumulative time — small, picklable, and
ready to ride back from a worker process inside cell telemetry.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from collections.abc import Callable, Iterator
from typing import Any

from . import runtime


@contextmanager
def timed(section: str) -> Iterator[None]:
    """Time a section into ``time.<section>_s`` histograms."""
    st = runtime.state()
    if st is None:
        yield
        return
    wall0 = time.perf_counter()
    cpu0 = time.process_time()
    try:
        yield
    finally:
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
        st.registry.histogram(f"time.{section}_s").observe(wall)
        st.registry.histogram(f"time.{section}_cpu_s").observe(cpu)


#: Rows kept per profiled runner cell.
PROFILE_TOP = 10


def profile_call(fn: Callable[..., Any], *args: Any, top: int = PROFILE_TOP,
                 **kwargs: Any) -> tuple[Any, list[dict[str, Any]]]:
    """Run ``fn`` under cProfile; returns ``(result, top_rows)``.

    Rows are ``{"func", "ncalls", "tottime_s", "cumtime_s"}`` sorted by
    cumulative time, profiler scaffolding excluded.
    """
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    result = profiler.runcall(fn, *args, **kwargs)
    stats = pstats.Stats(profiler)
    rows: list[dict[str, Any]] = []
    entries = sorted(stats.stats.items(),  # type: ignore[attr-defined]
                     key=lambda item: item[1][3], reverse=True)
    for (filename, lineno, funcname), (cc, nc, tottime, cumtime, _callers) in entries:
        if funcname in ("<built-in method builtins.exec>", "runcall"):
            continue
        where = f"{filename.rsplit('/', 1)[-1]}:{lineno}" if lineno else filename
        rows.append({"func": f"{where}:{funcname}", "ncalls": nc,
                     "tottime_s": round(tottime, 6),
                     "cumtime_s": round(cumtime, 6)})
        if len(rows) >= top:
            break
    return result, rows
