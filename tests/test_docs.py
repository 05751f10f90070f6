"""Documentation consistency: the docs must track the code."""

import argparse
import re
from pathlib import Path

import pytest

from repro.cli import build_parser
from repro.experiments import experiment_ids
from repro.faults import parse_fault_spec
from repro.workloads import workload_names

ROOT = Path(__file__).resolve().parents[1]

#: Flags the docs name that belong to other tools (pip, pytest).
FOREIGN_FLAGS = {"--no-build-isolation", "--benchmark-only"}

_FLAG_RE = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")
_SPEC_RE = re.compile(r"--inject-(?:net-)?faults\s+(\S+)")


def _doc_texts():
    paths = [ROOT / "README.md", ROOT / "DESIGN.md",
             *sorted((ROOT / "docs").glob("*.md"))]
    return {path.relative_to(ROOT).as_posix(): path.read_text()
            for path in paths}


def _cli_options(parser):
    options = set()
    for action in parser._actions:
        options.update(action.option_strings)
        if isinstance(action, argparse._SubParsersAction):
            for subparser in action.choices.values():
                options |= _cli_options(subparser)
    return options


@pytest.fixture(scope="module")
def design_md():
    return (ROOT / "DESIGN.md").read_text()


@pytest.fixture(scope="module")
def readme_md():
    return (ROOT / "README.md").read_text()


@pytest.fixture(scope="module")
def experiments_md():
    return (ROOT / "EXPERIMENTS.md").read_text()


def test_core_docs_exist():
    for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md"):
        assert (ROOT / name).exists(), f"{name} missing"


def test_design_confirms_paper_identity(design_md):
    assert "Domino Temporal Data Prefetcher" in design_md
    assert "HPCA 2018" in design_md
    assert "10.1109/HPCA.2018.00021" in design_md


def test_design_indexes_every_paper_experiment(design_md):
    for fig in ("Fig 1", "Fig 2", "Fig 3", "Fig 4", "Fig 5", "Fig 6",
                "Fig 9", "Fig 10", "Fig 11", "Fig 12", "Fig 13",
                "Fig 14", "Fig 15", "Fig 16", "Table I", "Table II"):
        assert fig in design_md, f"DESIGN.md missing {fig}"


def test_experiments_md_covers_all_registered_ids(experiments_md):
    for experiment_id in experiment_ids():
        assert experiment_id in experiments_md, (
            f"EXPERIMENTS.md missing row for {experiment_id}")


def test_experiments_md_documents_deviations(experiments_md):
    assert "deviation" in experiments_md.lower()


def test_readme_names_the_paper_and_quickstart(readme_md):
    assert "HPCA 2018" in readme_md
    assert "pip install -e ." in readme_md
    assert "simulate_trace" in readme_md


def test_design_lists_every_workload(design_md, readme_md):
    # The workload catalogue lives in code; the docs reference the suite.
    assert "nine" in design_md.lower() or "nine" in readme_md.lower()
    corpus = (design_md + readme_md).lower()
    for workload in workload_names():
        variants = (workload, workload.replace("_", " "),
                    workload.replace("_", "-"))
        assert any(v in corpus for v in variants), f"docs missing {workload}"


def test_every_documented_flag_is_a_cli_option():
    known = _cli_options(build_parser()) | FOREIGN_FLAGS
    unknown = sorted({(name, flag) for name, text in _doc_texts().items()
                      for flag in _FLAG_RE.findall(text)
                      if flag not in known})
    assert unknown == []


def test_documented_fault_specs_parse():
    specs = [(name, token.strip("`'\"()[],.;"))
             for name, text in _doc_texts().items()
             for token in _SPEC_RE.findall(text)
             if ":" in token or "@" in token]
    assert specs, "the docs give no fault-spec examples"
    for name, spec in specs:
        parse_fault_spec(spec)  # raises ConfigError on a stale example
