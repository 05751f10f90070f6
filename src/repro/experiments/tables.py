"""Tables I and II — the evaluated system and workload catalogues.

These are configuration tables rather than measurements; regenerating
them renders the live defaults so any drift between code and paper is
visible.
"""

from __future__ import annotations

from ..runner import Cell, run_cells
from ..workloads.server import SERVER_WORKLOADS
from .common import ExperimentOptions, ExperimentResult, payload_field


def run_table1(options: ExperimentOptions | None = None) -> ExperimentResult:
    """Rendered by the runner's ``table1`` cell executor so the live
    defaults travel through the same cache/manifest machinery as the
    measured experiments (the rows depend only on the config, so the
    cell's cache key excludes the trace-shaping options)."""
    payloads, manifest = run_cells([Cell(kind="table1")],
                                   options or ExperimentOptions())
    (payload,) = payloads
    rows = payload_field(payload, "rows",
                         default=[["(unavailable)", "cell failed"]])
    return ExperimentResult(
        experiment_id="table1",
        title="Evaluation parameters (Table I)",
        headers=["parameter", "value"],
        rows=rows,
        manifest=manifest,
    )


def run_table2(options: ExperimentOptions | None = None) -> ExperimentResult:
    rows = [[name, cfg.description,
             cfg.n_documents, round(cfg.doc_length_mean, 1),
             round(cfg.shared_frac, 2), round(cfg.noise_rate, 2),
             round(cfg.dependent_frac, 2)]
            for name, cfg in SERVER_WORKLOADS.items()]
    return ExperimentResult(
        experiment_id="table2",
        title="Application parameters (Table II analogue: synthetic configs)",
        headers=["workload", "models", "documents", "mean_len",
                 "shared", "noise", "dependent"],
        rows=rows,
    )
