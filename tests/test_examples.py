"""Every example and script must import against the current package
surface.

CI only lints ``examples/``, so an example or a ``scripts/`` tool
importing a removed name would go unnoticed.  Each file is loaded as a
module — its ``if __name__ == "__main__"`` guard keeps ``main()`` from
running.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def _import(path, prefix):
    spec = importlib.util.spec_from_file_location(f"{prefix}_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_examples_present():
    assert EXAMPLES
    assert SCRIPTS


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_imports(path):
    assert callable(_import(path, "example").main)


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda path: path.stem)
def test_script_imports(path):
    assert callable(_import(path, "script").main)
