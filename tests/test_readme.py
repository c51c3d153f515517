"""The README's library examples run as written."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start_blocks():
    """The python blocks under "Quick start (library)", in order."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Quick start (library)\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, flags=re.S)


def write_quick_start_inputs(directory):
    """schema.txt, data.csv (with name columns) and vectors.txt."""
    (directory / "schema.txt").write_text(
        "age continuous\n"
        "job categorical\n"
        "sex categorical group=F\n"
        "income label\n"
        "first first_name\n"
        "last last_name\n", encoding="utf-8")
    rng = np.random.default_rng(0)
    rows = ["age,job,sex,income,first,last"]
    for i in range(80):
        rows.append(f"{rng.uniform(18, 70):.1f},{'ab'[i % 2]},{'FM'[i // 2 % 2]},"
                    f"{'hi' if (i % 4 < 2) == (rng.random() < 0.8) else 'lo'},"
                    f"name{i % 10},{'' if i % 3 else f'family{i % 5}'}")
    (directory / "data.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    tokens = [f"Name{i}" for i in range(8)] + [f"family{i}" for i in range(3)]
    (directory / "vectors.txt").write_text(
        f"{len(tokens)} 3\n" + "".join(
            f"{token} " + " ".join(repr(float(v)) for v in rng.normal(size=3))
            + "\n" for token in tokens), encoding="utf-8")


def test_quick_start_runs(tmp_path, monkeypatch):
    blocks = quick_start_blocks()
    assert len(blocks) == 2
    write_quick_start_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert len(namespace["table"]) == 11
    assert len(namespace["grid"].fits) == 3
