"""The README's library example runs against the current API."""

import math
from pathlib import Path

import numpy as np
import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_use_block():
    """The first indented code block under the "Library use" heading."""
    lines = README.read_text().split("## Library use", 1)[1].splitlines()
    block = []
    for line in lines:
        if line.startswith("    ") or (block and not line.strip()):
            block.append(line[4:])
        elif block:
            break
    return "\n".join(block)


def test_readme_library_example_runs():
    code = _library_use_block()
    assert "integrate_ode" in code
    scope = {}
    exec(compile(code, str(README), "exec"), scope)
    traj = scope["traj"]
    assert traj.times.size == 5001
    assert traj.escape_time is None
    # the corrected loop is dh/dt = -h from h(0) = 0.5
    assert float(np.min(traj.h_values)) == pytest.approx(
        0.5 * math.exp(-5.0), rel=1e-6)


def test_readme_stacked_qp_filter_example_runs():
    # the third block of "Library use", after the first, whose plant,
    # barrier and imports it reuses; its rows are qp_filter at each row
    text = README.read_text().split("## Library use", 1)[1]
    blocks, block = [], []
    for line in text.splitlines():
        if line.startswith("    ") or (block and not line.strip()):
            block.append(line[4:])
        elif block:
            blocks.append("\n".join(block))
            block = []
    code = blocks[2]
    assert "qp_filter(spec, X, 0.0)" in code
    scope = {}
    for part in (blocks[0], code):
        exec(compile(part, str(README), "exec"), scope)
    spec, X, ubar = scope["spec"], scope["X"], scope["ubar"]
    assert ubar.shape == (7, 1)
    want = np.array([scope["qp_filter"](spec, x, 0.0) for x in X])
    assert ubar.tobytes() == want.tobytes()
    # h = -x, u0 = 1, Lg2h = -1: the corrected margin -1 - x - ubar is
    # 0 on X
    assert np.allclose(ubar[:, 0], -1.0 - X[:, 0], atol=1e-15)
