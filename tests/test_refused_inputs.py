"""Inputs that have no answer are refused in one documented way.

* The reciprocal filters read B, its gradient and the model at one
  state with numpy's warnings silenced, as first_order_lie does, so at
  the special states of test_filtered_step.py, with warnings raised as
  errors, omega_tilde and rcbf_qp_filter at one state equal their
  one-row stack, or raise the same class and text.
* One Monte Carlo path has no standard error: mc_summary refuses fewer
  than two totals, and the ex5-stoch built-in refuses paths < 2 as a
  config error that writes nothing.
* The named class-K constructors refuse NaN and infinite parameters, so
  a config with such a gain is a config error, not a run that escapes.
"""

import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import safefilt as sf
from safefilt import comparison
from safefilt.cli import main
from safefilt.scenarios import ConfigError, integrator_system

# the special states of test_filtered_step.py: signed zeros and
# infinities, NaNs of both signs and two payloads, subnormals and values
# whose squares overflow
SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan,
           struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000123))[0],
           5e-324, -5e-324, 1e-200, 1e200, -1e200]


def outcome(fn):
    """fn()'s shape, dtype and bytes, or its error's class and text,
    with every warning raised as an error."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = np.asarray(fn())
    except Exception as exc:
        return type(exc), str(exc)
    return out.shape, out.dtype.str, out.tobytes()


def recip_spec(c, beta):
    return sf.RcbfSpec(integrator_system(), lambda x: -1.0 / x[0],
                       sf.identity_k(), lambda x, t: np.array([c]),
                       gradB=lambda x: np.array([1.0 / x[0] ** 2]),
                       beta_gain=beta)


# finite nominal values: an infinite one meets a zero direction in the
# margin's product, which is a numpy warning on a stack only
NOMINAL = st.one_of(st.floats(-5.0, 5.0),
                    st.sampled_from([v for v in SPECIAL if math.isfinite(v)]))


@given(v=st.sampled_from(SPECIAL + [-0.5, -2.0]), c=NOMINAL,
       beta=st.sampled_from([2.0, 2.5]),
       fn=st.sampled_from([sf.omega_tilde, sf.rcbf_qp_filter]))
@settings(max_examples=200, deadline=None)
def test_reciprocal_one_state_equals_its_one_row_stack(v, c, beta, fn):
    spec = recip_spec(c, beta)
    x = np.array([v])
    assert outcome(lambda: fn(spec, x, 0.0)) == outcome(
        lambda: fn(spec, x[None], 0.0)[0])


def test_reciprocal_gradient_overflow_is_silent_at_one_state():
    # 1/x**2 overflows in numpy scalars at x = -1e200; the stack reads
    # B = 1e-200 and a zero gradient, and so does the single state
    spec = recip_spec(1.0, 2.0)
    x = np.array([-1e200])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = sf.rcbf_qp_filter(spec, x, 0.0)
        row = sf.rcbf_qp_filter(spec, x[None], 0.0)[0]
    assert got.tobytes() == row.tobytes() == np.array([1.0]).tobytes()


@pytest.mark.parametrize("totals", [[], [1.5], np.array([2.0])])
def test_mc_summary_needs_two_totals(totals):
    with pytest.raises(ValueError, match="needs two totals, got %d"
                       % len(totals)):
        sf.mc_summary(totals)
    assert sf.mc_summary([1.0, 2.0]) == (1.5, 0.5)


def test_ex5_with_one_path_is_a_config_error(tmp_path, capsys):
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["run-builtin", "ex5-stoch", "--paths", "1",
                   "--out-dir", str(out)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("config error: ex5-stoch needs paths >= 2, "
                            "got 1\n")
    assert not out.exists()
    with pytest.raises(ConfigError, match="paths >= 2"):
        sf.run_builtin("ex5-stoch", {"paths": 1, "T": 0.01})
    cfg = tmp_path / "ex5.cfg"
    cfg.write_text("scenario = ex5-stoch\npaths = 1\nT = 0.01\n")
    assert main(["run", str(cfg), "--out-dir", str(out)]) == 2
    assert "config error: ex5-stoch needs paths" in capsys.readouterr().err
    assert not out.exists()


# constructor: (its finite arguments, the message it refuses with)
CONSTRUCTORS = {
    "linear_k": ((1.0,), "linear slope"),
    "linear_extended": ((1.0,), "linear slope"),
    "power_k": ((2.0, 1.0), "power-law needs"),
    "power_extended": ((2.0, 1.0), "power-law needs"),
    "eps_power_k": ((0.5,), "eps must be positive"),
    "eps_power_extended": ((0.5,), "eps must be positive"),
    "piecewise_extended": ((1.0, 3.0), "slopes must be positive"),
    "power_pair": ((2.0, 1.0), "transform needs|scale must be positive"),
}


@pytest.mark.parametrize("name", CONSTRUCTORS)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_named_constructors_refuse_non_finite_parameters(name, bad):
    make = getattr(comparison, name)
    args, message = CONSTRUCTORS[name]
    make(*args)  # the finite arguments build
    for i in range(len(args)):
        with pytest.raises(ValueError, match=message):
            make(*args[:i], bad, *args[i + 1:])


@pytest.mark.parametrize("key,value", [("alpha", "linear:nan"),
                                       ("alpha", "power:inf"),
                                       ("rho", "linear:inf"),
                                       ("alpha", "piecewise:1:nan")])
def test_config_with_a_non_finite_class_k_gain_is_a_config_error(
        tmp_path, capsys, key, value):
    lines = {"system": "integrator", "x0": "-1", "u0": "const:1",
             "alpha": "linear:1", "filter": "qp", "T": "1", key: value}
    cfg = tmp_path / "loop.cfg"
    cfg.write_text("".join("%s = %s\n" % kv for kv in lines.items()))
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out-dir", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: ")
    assert not out.exists()
