"""Every example imports cleanly and guards its ``main()``.

CI does not run the examples, so an example that imports a deleted or
renamed name would break with no signal.  Loading each one as a module
(``__name__`` is not ``"__main__"``) resolves its imports without
running it.
"""

import importlib.util
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).parent.parent / "examples").glob("*.py"))


def test_examples_found():
    assert len(EXAMPLES) >= 16


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_imports_without_running(path):
    spec = importlib.util.spec_from_file_location(
        f"examples_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
