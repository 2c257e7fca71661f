"""write_trajectory_csv formats each block of CSV_BLOCK samples with one
% of the row format repeated once per row. Its bytes must be those of
the row format applied to each row in turn, for every float the %.17g
format meets (signed zeros and infinities, NaNs, subnormals, 1e+-300),
with and without a disturbance column, and across block edges.
"""

import math

import numpy as np
import pytest

from safefilt.sim import CSV_BLOCK, Trajectory, write_trajectory_csv

SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324,
           -5e-324, 2.2250738585072014e-308, 1e-300, -1e-300, 1e300, -1e300,
           1.7976931348623157e308, 0.1, -1.0 / 3.0, 12345.678901234567]


def _record(rows, n, m1, seed):
    """A record of `rows` samples whose columns mix SPECIAL values with
    seeded draws spread over 10^+-300."""
    rng = np.random.default_rng(seed)

    def column(*shape):
        v = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 301,
                                                              shape)
        mask = rng.random(shape) < 0.3
        v[mask] = rng.choice(SPECIAL, mask.sum())
        return v
    return Trajectory(times=column(rows), states=column(rows, n),
                      controls=column(rows, 1), nominal=column(rows, 1),
                      disturbances=column(rows, m1), h_values=column(rows),
                      running_cost=column(rows))


def _per_row(traj):
    """The CSV body, the row format applied to each row in turn."""
    table = np.hstack([traj.times[:, None], traj.states, traj.controls,
                       traj.nominal, traj.disturbances,
                       traj.h_values[:, None], traj.running_cost[:, None]])
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    return "".join(row % tuple(r) for r in table.tolist())


@pytest.mark.parametrize("m1", [0, 2])
@pytest.mark.parametrize("rows", [1, CSV_BLOCK - 1, CSV_BLOCK, CSV_BLOCK + 1])
def test_block_format_equals_the_per_row_format(tmp_path, rows, m1):
    traj = _record(rows, 2, m1, seed=rows + m1)
    path = tmp_path / "t.csv"
    write_trajectory_csv(traj, path)
    header, body = path.read_text().split("\n", 1)
    assert header.startswith("t,x1,x2,u1,u0_1,")
    assert header.count("d_") == m1
    assert body == _per_row(traj)
    assert body.count("\n") == rows
