"""The README's library example runs as written against a small synthetic page."""

import re
from pathlib import Path

from inkscan.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(tmp_path, monkeypatch, capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    assert main(["synth", "--out-dir", str(tmp_path / "doc"), "--width", "48",
                 "--height", "40", "--bands", "6", "--inks", "5", "--noise-sigma", "4",
                 "--seed", "3"]) == 0
    monkeypatch.chdir(tmp_path)
    scope = {}
    exec(compile(blocks[0], str(README), "exec"), scope)
    assert scope["render"].shape == (40, 48, 3)
    assert scope["segmap"].k == 5
