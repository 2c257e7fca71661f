"""Failures that surface in one documented way.

A custom config's io-qp gain is gated at parse time like its cost gain,
a NaN gain included, and non-finite model data is a ModelBlowup from
lie_data, lie_data_rows and the cost pass, with no numpy RuntimeWarning
on the way.
"""

import warnings

import numpy as np
import pytest

from safefilt.certify import CostSpec, evaluate_cost
from safefilt.cli import main
from safefilt.comparison import identity_k, linear_extended
from safefilt.filters import DssfCbfSpec
from safefilt.scenarios import neg_state_barrier
from safefilt.sim import Trajectory
from safefilt.systems import (ControlAffineSystem, ModelBlowup, lie_data,
                              lie_data_rows)

IO_QP = ("system = integrator\nx0 = -1\nu0 = const:1\nalpha = linear:1\n"
         "filter = io-qp:%s\nT = 1\n")


@pytest.mark.parametrize("gain", ["1.5", "nan"])
def test_io_qp_gain_below_two_is_a_config_error(tmp_path, capsys, gain):
    cfg = tmp_path / "loop.cfg"
    cfg.write_text(IO_QP % gain)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    assert main(["run", str(cfg), "--out-dir", str(out_dir)]) == 2
    assert capsys.readouterr().err == (
        "config error: line 5: bad gain in 'io-qp:%s': beta_gain %s < 2\n"
        % (gain, gain))
    assert list(out_dir.iterdir()) == []


def test_io_qp_gain_of_two_runs(tmp_path, capsys):
    cfg = tmp_path / "loop.cfg"
    cfg.write_text(IO_QP % "2")
    assert main(["run", str(cfg), "--out-dir", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "trajectory.csv").exists()


# g1 = inf against a zero Hessian: 0 * inf in g1' H g1
def _inf_g1_spec():
    sys = ControlAffineSystem(1, 1, 1, lambda x: np.array([0.0]),
                              lambda x: np.array([[np.inf]]),
                              lambda x: np.array([[1.0]]))
    return DssfCbfSpec(sys, neg_state_barrier(), identity_k(),
                       linear_extended(1.0), lambda x, t: np.array([1.0]))


def _inf_g1_record():
    n = 5
    x = np.linspace(-1.0, -0.5, n).reshape(n, 1)
    return Trajectory(times=np.linspace(0.0, 1.0, n), states=x,
                      controls=np.ones((n, 1)), nominal=np.ones((n, 1)),
                      disturbances=np.zeros((n, 1)), h_values=-x[:, 0],
                      running_cost=np.zeros(n))


@pytest.mark.parametrize("call", [
    lambda spec: lie_data(spec.sys, spec.bf, np.array([-1.0])),
    lambda spec: lie_data_rows(spec.sys, spec.bf,
                               _inf_g1_record().states),
    lambda spec: evaluate_cost(_inf_g1_record(),
                               CostSpec("qp-weighted", spec=spec)),
], ids=["lie_data", "lie_data_rows", "evaluate_cost"])
def test_non_finite_model_data_raises_without_a_warning(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ModelBlowup,
                           match=r"non-finite model data at x=\[-1\.\]"):
            call(_inf_g1_spec())
