"""The public surface: every exported name resolves, and the README's Python API example runs as written."""

import re
from pathlib import Path

import conivat

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_resolves():
    assert len(set(conivat.__all__)) == len(conivat.__all__)
    for name in conivat.__all__:
        assert getattr(conivat, name, None) is not None, name
    star = {}
    exec("from conivat import *", star)
    assert set(star) - {"__builtins__"} == set(conivat.__all__)


def readme_python_api_example() -> str:
    """The first ``python`` code block under README's "Python API" heading."""
    section = README.read_text(encoding="utf-8").split("\n## Python API\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert block, "README's Python API section has no python block"
    return block.group(1)


def test_readme_python_api_example_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    exec(compile(readme_python_api_example(), str(README), "exec"), {"__name__": "__main__"})
    pa = float(capsys.readouterr().out)
    assert 0.0 <= pa <= 100.0
    assert (tmp_path / "iris.pgm").read_bytes().startswith(b"P5\n150 150\n255\n")
