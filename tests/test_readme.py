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
