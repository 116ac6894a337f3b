"""tools/outputs.py on stub runs and hand-made builds: `build` saves each
run's logs and exits 1 when a run fails, `compare` names each kind of
difference and exits 1 on any.  No sswm run is made."""
import importlib.util
import re
import sys
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "outputs_tool", Path(__file__).resolve().parents[1] / "tools" / "outputs.py")
outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(outputs)


def _stub_tree(tmp_path):
    tree = tmp_path / "tree"
    (tree / "src" / "sswm").mkdir(parents=True)
    return tree


def test_build_saves_logs_and_fails_on_a_failed_run(tmp_path, monkeypatch, capsys):
    stub = {
        "ok": [sys.executable, "-c", "import os; os.mkdir('ok'); print('fine')"],
        # the tree's path in stderr is written as <tree>
        "fails": [sys.executable, "-c",
                  "import os, sys; sys.stderr.write(os.environ['PYTHONPATH'] + ' boom\\n'); "
                  "sys.exit(3)"],
    }
    monkeypatch.setattr(outputs, "canonical_runs", lambda tree: stub)
    tree, out = _stub_tree(tmp_path), tmp_path / "build"
    assert outputs.main(["build", str(tree), str(out)]) == 1
    logs = out / "logs"
    assert (out / "ok").is_dir()
    assert (logs / "ok.stdout").read_text() == "fine\n"
    assert (logs / "ok.exit").read_text() == "0\n"
    assert (logs / "fails.exit").read_text() == "3\n"
    assert (logs / "fails.stderr").read_text().startswith("<tree>/src")
    printed = capsys.readouterr().out.splitlines()
    # each exit line gives the run's wall time and peak RSS
    assert re.fullmatch(r"ok: exit 0, \d+\.\d\d s, peak \d+\.\d MB", printed[0])
    assert re.fullmatch(r"fails: exit 3, \d+\.\d\d s, peak \d+\.\d MB", printed[1])
    assert printed[2].startswith("<tree>/src") and printed[2].endswith(" boom")
    assert printed[-1] == f"built {out}: 2 runs, 1 with a non-zero exit"


def test_build_exits_0_when_every_run_does(tmp_path, monkeypatch):
    monkeypatch.setattr(outputs, "canonical_runs",
                        lambda tree: {"ok": [sys.executable, "-c", "pass"]})
    assert outputs.main(["build", str(_stub_tree(tmp_path)), str(tmp_path / "build")]) == 0


@pytest.mark.parametrize("case", ["no_sswm", "dir_not_empty"])
def test_build_refuses_a_bad_tree_or_dir(tmp_path, case, monkeypatch):
    monkeypatch.setattr(outputs, "canonical_runs", lambda tree: pytest.fail("ran"))
    tree, out = _stub_tree(tmp_path), tmp_path / "build"
    if case == "no_sswm":
        tree = tmp_path
    else:
        out.mkdir()
        (out / "left_over").write_text("x")
    assert outputs.main(["build", str(tree), str(out)]) == 2


def _write_build(root, files):
    for rel, text in files.items():
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_text(text)
    return root


def test_compare_names_each_kind_of_difference(tmp_path, capsys):
    a = _write_build(tmp_path / "a", {
        "same.txt": "x 1.5\n", "numbers.csv": "t,1.0,2\n", "text.txt": "hello\n",
        "only_a.txt": "a\n"})
    b = _write_build(tmp_path / "b", {
        "same.txt": "x 1.5\n", "numbers.csv": "t,1.5,2\n", "text.txt": "world\n",
        "logs/only_b.txt": "b\n"})
    assert outputs.main(["compare", str(a), str(b)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "only in B  logs/only_b.txt",
        "different  numbers.csv  (1 differing numbers, max abs diff 0.5, max rel diff 0.333)",
        "only in A  only_a.txt",
        "identical  same.txt",
        "different  text.txt  (text)",
        "compare: 5 files, 1 identical, 2 different, 1 only in A, 1 only in B",
    ]


def test_compare_of_equal_builds_exits_0(tmp_path, capsys):
    files = {"sim_x/x.csv": "1,2\n", "logs/sim_x.exit": "0\n"}
    a, b = _write_build(tmp_path / "a", files), _write_build(tmp_path / "b", files)
    assert outputs.main(["compare", str(a), str(b)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        "compare: 2 files, 2 identical, 0 different, 0 only in A, 0 only in B")
