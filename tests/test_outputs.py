"""The byte gate's rules: ``scripts/outputs.py compare`` on small output directories."""

import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "outputs.py"
SAME = {"a.model": b"w=1\n", "a.probs": b"0.5\n"}


@pytest.fixture
def outputs(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script puts bench/ on the path
    spec = importlib.util.spec_from_file_location("outputs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def trees(outputs, monkeypatch, tmp_path):
    """A parent and a change tree holding the given {name: bytes} files, ``declared`` declared."""

    def build(parent, change, declared=()):
        monkeypatch.setattr(outputs, "declared_changes", lambda: set(declared))
        for side, files in (("parent", parent), ("change", change)):
            (tmp_path / side).mkdir()
            for name, data in files.items():
                (tmp_path / side / name).write_bytes(data)
        return tmp_path / "parent", tmp_path / "change"

    return build


def test_equal_sets_pass(outputs, trees, capsys):
    dirs = trees(SAME, dict(SAME))
    assert outputs.compare(*dirs) == []
    assert outputs.main(["compare", *map(str, dirs)]) == 0
    assert capsys.readouterr().out == "2 outputs: every byte as declared\n"


def test_a_declared_file_that_differs_passes(outputs, trees):
    dirs = trees(SAME, {**SAME, "a.probs": b"0.25\n"}, declared={"a.probs"})
    assert outputs.compare(*dirs) == []


def test_an_undeclared_file_that_differs_fails_and_is_named(outputs, trees, capsys):
    dirs = trees(SAME, {**SAME, "a.probs": b"0.25\n"})
    problem = "a.probs: bytes differ from line 1, and byte_changes.txt does not declare it"
    assert outputs.compare(*dirs) == [problem]
    assert outputs.main(["compare", *map(str, dirs)]) == 1
    assert capsys.readouterr().out == problem + "\n"


def test_an_undeclared_change_names_its_first_differing_line(outputs, trees):
    dirs = trees({"a.report": b"1\n2\n3\n"}, {"a.report": b"1\n2.0\n3\n"})
    problem = "a.report: bytes differ from line 2, and byte_changes.txt does not declare it"
    assert outputs.compare(*dirs) == [problem]


def test_a_declared_file_with_equal_bytes_fails(outputs, trees):
    dirs = trees(SAME, dict(SAME), declared={"a.model"})
    assert outputs.compare(*dirs) == ["a.model: declared changed, but its bytes are the same"]


@pytest.mark.parametrize("side", ["parent", "change"])
def test_a_file_written_for_only_one_tree_fails(outputs, trees, side):
    extra = {**SAME, "b.algebra": b"k=1\n"}
    dirs = trees(extra, SAME) if side == "parent" else trees(SAME, extra)
    assert outputs.compare(*dirs) == ["b.algebra: written for only one tree"]


def test_a_declared_name_that_is_not_written_fails(outputs, trees):
    dirs = trees(SAME, dict(SAME), declared={"gone.model"})
    assert outputs.compare(*dirs) == ["gone.model: declared in byte_changes.txt but not written"]


def test_declared_names_skip_comments_and_blank_lines(outputs, monkeypatch, tmp_path):
    text = "# a comment line\n\na.probs  # why it changes\n  b.model\n"
    (tmp_path / "byte_changes.txt").write_text(text, encoding="utf-8")
    monkeypatch.setattr(outputs, "HERE", tmp_path)
    assert outputs.declared_changes() == {"a.probs", "b.model"}
