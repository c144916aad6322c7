"""The package's lazy exports and the README's library example."""

import importlib
import re
from pathlib import Path

import pytest

import oddminors

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_resolves_to_its_home():
    for module, names in oddminors._HOMES.items():
        home = importlib.import_module(f"oddminors.{module}")
        for name in names:
            assert getattr(oddminors, name) is getattr(home, name)
    assert sorted(oddminors.__all__) == oddminors.__all__
    assert set(oddminors.__all__) == {n for names in oddminors._HOMES.values() for n in names}
    with pytest.raises(AttributeError, match="no attribute 'nothing'"):
        oddminors.nothing


def test_readme_library_example_runs_as_written():
    text = README.read_text()
    block = re.search(r"## Library example\n\n```python\n(.*?)```", text, re.S)
    assert block is not None
    exec(compile(block.group(1), str(README), "exec"), {})
