"""repro.analyze — whole-program static analyzer for the simulator stack.

Two phases.  Per-file rules encode the repo's determinism, pickling,
error-hierarchy, telemetry-naming, and durability conventions; project
rules build a cross-module symbol table + typed call graph
(``callgraph.py``) over every file in the run and check concurrency
discipline on top of it (``concurrency.py``):

========== ==================================================================
DET001     no unseeded nondeterminism in sim/, core/, prefetchers/,
           memory/, workloads/
PICKLE001  runner-registered callables must be module-level (picklable)
ERR001     no raise Exception/RuntimeError or assert control flow in src/
OBS001     obs event/metric names must come from repro.obs.names
OBS002     spans use registered names, ``with`` form only
IO001      durable writes in runner/store.py must fsync
CONC001    thread-shared mutable module state written without the lock
           that guards its other access sites
CONC002    blocking call reachable from ``async def`` without a
           to_thread/executor hop
CONC003    inconsistent lock acquisition order (deadlock candidate)
CONC004    fork-unsafe values crossing the multiprocessing boundary
CONC005    ContextVar.set() whose token is never reset
========== ==================================================================

Run it as ``python -m repro.analyze [paths]`` or
``domino-repro analyze [paths]``; suppress a finding with
``# repro: noqa[RULE]`` (line) or ``# repro: noqa-file[RULE]`` (file).
``--format sarif`` emits SARIF 2.1, ``--baseline`` grandfathers known
findings, ``--changed`` scopes reporting to the git working-tree diff.
See ``docs/ANALYSIS.md`` for each rule's rationale and examples.
"""

from .baseline import apply_baseline, fingerprint, load_baseline, write_baseline
from .callgraph import Project
from .engine import (ALL_RULES, Analyzer, FileContext, Finding, ProjectRule,
                     Rule, all_rules, describe_rules, main, register,
                     render_json, render_text)
from .sarif import render_sarif

__all__ = [
    "ALL_RULES",
    "Analyzer",
    "FileContext",
    "Finding",
    "Project",
    "ProjectRule",
    "Rule",
    "all_rules",
    "apply_baseline",
    "describe_rules",
    "fingerprint",
    "load_baseline",
    "main",
    "register",
    "render_json",
    "render_sarif",
    "render_text",
    "write_baseline",
]
