"""The package's lazy exports and the README's library example and command
block."""

import importlib
import re
import shlex
from pathlib import Path

import pytest

import oddminors
from oddminors import cli

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


def test_readme_command_block_runs_as_written(tmp_path, monkeypatch, capsys):
    text = README.read_text()
    block = re.search(r"## Command line\n\n```sh\n(.*?)```", text, re.S)
    assert block is not None
    monkeypatch.chdir(tmp_path)
    lines = block.group(1).splitlines()
    assert lines and all(line.startswith("oddminors ") for line in lines)
    for line in lines:
        assert cli.main(shlex.split(line)[1:]) == 0, (line, capsys.readouterr())
