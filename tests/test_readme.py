"""The README's library sketch runs as written against the current API."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_sketch_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    ns = {}
    exec(compile(blocks[0], str(README), "exec"), ns)
    n = ns["grid"].num_nodes
    for name in ("w", "w_lim"):
        assert ns[name].shape == (n,), name
    assert ns["sol"].u.shape == (n,)
    assert ns["err"] <= 0.03
    np.testing.assert_array_equal(ns["rep"].w, ns["w_lim"])
    assert not ns["rep"].failures
