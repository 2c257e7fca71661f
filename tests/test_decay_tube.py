"""Exact decay flows and the one tube the certificates read.

The named extended class-K constructors carry the closed-form solution
of dy/dt = -alpha(y), y(0) = r, and decay_tube uses it; every other
alpha is solved by kl_solve_grid's RK4 sweep. kl_solve_grid is the
oracle here: the flows agree with it within KL_AGREE_TOL, decay_tube
refuses what it refuses with the same exception, and an alpha whose
flow is not known, or whose name merely looks familiar, gets its result
bit for bit.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safefilt import certify, scenarios
from safefilt.certify import certify_dssf_bound
from safefilt.cli import main
from safefilt.comparison import (KL_AGREE_TOL, DomainError,
                                 ExtendedKFunction, decay_tube,
                                 eps_power_extended, extended_k_from_name,
                                 identity_k, kl_solve_grid, linear_extended,
                                 piecewise_extended, power_extended)
from safefilt.scenarios import run_builtin
from safefilt.sim import Trajectory

slopes = st.floats(0.1, 4.0)
exponents = st.floats(1.0, 3.0)
named_families = st.one_of(
    slopes.map(lambda c: "linear:%r" % c),
    st.tuples(exponents, st.floats(0.25, 2.0)).map(
        lambda ps: "power:%r:%r" % ps),
    exponents.map(lambda e: "eps:%r" % e),
    st.tuples(slopes, slopes).map(lambda ab: "piecewise:%r:%r" % ab))


@given(name=named_families, r=st.floats(-2.0, 2.0), t=st.floats(0.0, 5.0))
@settings(max_examples=60, deadline=None)
def test_flow_agrees_with_the_rk4_solver(name, r, t):
    a = extended_k_from_name(name)
    assert a.flow is not None
    times = np.linspace(0.0, t, 21)
    for r0 in (r, -r):
        gap = np.max(np.abs(a.flow(r0, times) - kl_solve_grid(a, r0, times)))
        assert gap <= KL_AGREE_TOL


@pytest.mark.parametrize("name", ["linear:2", "power:3", "power:1:0.5",
                                  "power:1.5:0.7", "eps:1", "eps:2.5",
                                  "piecewise:1:3"])
def test_flow_starts_at_r_exactly(name):
    a = extended_k_from_name(name)
    for r in (0.5, -1.25, 0.0, 1e-300):
        assert a.flow(r, np.zeros(3)).tolist() == [r] * 3


def test_flows_are_the_known_solutions():
    times = np.linspace(0.0, 2.0, 5)
    assert np.allclose(linear_extended(2.0).flow(0.5, times),
                       0.5 * np.exp(-2.0 * times), rtol=1e-15, atol=0.0)
    assert np.allclose(power_extended(2.0, 0.5).flow(-2.0, times),
                       -2.0 / (1.0 + 0.5 * times * 2.0), rtol=1e-15,
                       atol=0.0)
    # eps:E is (1/E) sign(r) |r|^E, the power law with scale 1/E
    assert np.allclose(eps_power_extended(1.0).flow(1.5, times),
                       1.5 * np.exp(-times), rtol=1e-15, atol=0.0)
    pw = piecewise_extended(1.0, 3.0)
    assert np.allclose(pw.flow(0.5, times), 0.5 * np.exp(-times),
                       rtol=1e-15, atol=0.0)
    assert np.allclose(pw.flow(-0.5, times), -0.5 * np.exp(-3.0 * times),
                       rtol=1e-15, atol=0.0)


def test_sublinear_laws_keep_the_solver():
    # p < 1 reaches 0 in finite time; no flow, so the tube is RK4's
    times = np.linspace(0.0, 1.0, 11)
    for a in (power_extended(0.5), eps_power_extended(0.5),
              extended_k_from_name("power:0.8:2")):
        assert a.flow is None
        assert np.array_equal(decay_tube(a, 0.7, times),
                              kl_solve_grid(a, 0.7, times))


@given(r=st.floats(allow_nan=False, allow_infinity=False))
def test_piecewise_is_the_inline_law_bit_for_bit(r):
    a = piecewise_extended(1.0, 3.0)
    want = r if r >= 0.0 else 3.0 * r
    assert np.float64(a(r)).view(np.uint64) == np.float64(want).view(
        np.uint64)


def test_piecewise_name_tag():
    a = extended_k_from_name("piecewise:1:3")
    assert a.name == "piecewise:1:3"
    assert (a(2.0), a(-2.0)) == (2.0, -6.0)
    with pytest.raises(ValueError, match="slopes must be positive"):
        piecewise_extended(0.0, 1.0)
    with pytest.raises(ValueError, match="slopes must be positive"):
        extended_k_from_name("piecewise:1:-3")
    with pytest.raises(ValueError, match="unknown extended class-K"):
        extended_k_from_name("piecewise:1")


def test_config_alpha_takes_piecewise(tmp_path, capsys):
    cfg = tmp_path / "loop.cfg"
    cfg.write_text("system = disturbed-gain\nx0 = -0.5\nu0 = const:1\n"
                   "alpha = piecewise:1:3\nfilter = qp\nd = sin:0.5\n"
                   "T = 2\n")
    assert main(["run", str(cfg), "--out-dir", str(tmp_path / "out")]) == 0
    assert "overall = PASS" in capsys.readouterr().out


def _anonymous():
    return ExtendedKFunction(lambda r: r ** 3 if r >= 0.0 else r,
                             name="cube")


def _raised(fn, *args):
    with pytest.raises(Exception) as info:
        fn(*args)
    return type(info.value), str(info.value)


BAD_INPUTS = [
    (math.nan, [0.0, 1.0]),
    (math.inf, [0.0, 1.0]),
    (-math.inf, [0.0, 1.0]),
    (0.5, [0.0, math.nan, 1.0]),
    (0.5, [0.0, math.inf]),
    (0.5, [-0.1, 1.0]),
    (0.5, [0.0, 1.0, 0.5]),
    (0.5, []),
    (0.5, [[0.0, 1.0]]),
]


@pytest.mark.parametrize("r, times", BAD_INPUTS)
@pytest.mark.parametrize("make", [lambda: linear_extended(1.0), _anonymous,
                                  lambda: piecewise_extended(1.0, 3.0)],
                         ids=["named", "anonymous", "piecewise"])
def test_bad_input_raises_as_the_solver_does(r, times, make):
    a = make()
    want = _raised(kl_solve_grid, a, r, times)
    assert want[0] in (ValueError, DomainError)
    assert _raised(decay_tube, a, r, times) == want


def test_out_of_domain_start_raises_as_the_solver_does():
    a = ExtendedKFunction(lambda r: r, lo=-1.0, hi=1.0, name="clipped")
    want = _raised(kl_solve_grid, a, 2.0, [0.0, 1.0])
    assert want[0] is DomainError
    assert _raised(decay_tube, a, 2.0, [0.0, 1.0]) == want


def test_unknown_flow_is_the_solver_bit_for_bit():
    times = np.arange(501) * 2e-3
    # a familiar tag on an arbitrary callable is not trusted: this is
    # the 3 r decay, not the linear:1 flow its name suggests
    mislabelled = ExtendedKFunction(lambda r: 3.0 * r, name="linear:1")
    assert mislabelled.flow is None
    for a in (_anonymous(), mislabelled):
        for r in (0.5, -1.25):
            assert np.array_equal(decay_tube(a, r, times),
                                  kl_solve_grid(a, r, times))
    tube = decay_tube(mislabelled, 0.5, times)
    assert np.allclose(tube, 0.5 * np.exp(-3.0 * times), atol=1e-9)
    assert not np.allclose(tube, 0.5 * np.exp(-times), atol=1e-3)


def _counting(a):
    calls = []
    fn = a._fn

    def counted(r):
        calls.append(r)
        return fn(r)
    a._fn = counted
    return a, calls


@pytest.mark.parametrize("make", [lambda: linear_extended(2.0),
                                  lambda: power_extended(3.0),
                                  lambda: power_extended(1.0, 0.5),
                                  lambda: eps_power_extended(2.0),
                                  lambda: piecewise_extended(1.0, 3.0)])
def test_named_tube_calls_alpha_once(make):
    times = np.arange(2001) * 1e-3
    for r in (0.5, -0.5):
        a, calls = _counting(make())
        tube = decay_tube(a, r, times)
        assert calls == [r]
        assert np.max(np.abs(tube - kl_solve_grid(make(), r, times))) \
            <= KL_AGREE_TOL


def test_dssf_bound_still_refuses_an_escaped_record():
    n = 5
    traj = Trajectory(times=0.1 * np.arange(n), states=np.full((n, 1), -0.5),
                      controls=np.zeros((n, 1)), nominal=np.zeros((n, 1)),
                      disturbances=np.zeros((n, 1)),
                      h_values=np.full(n, 0.5), running_cost=np.zeros(n))
    _, mn, ok = certify_dssf_bound(traj, linear_extended(1.0), identity_k())
    assert ok
    traj.escape_time = 0.3
    with pytest.raises(ValueError, match="disturbance-to-state bound "
                                         "undefined on an escaped record"):
        certify_dssf_bound(traj, linear_extended(1.0), identity_k())


@pytest.mark.parametrize("bid, tubes", [("ex1-dssf", 1),
                                        ("sandwich-scalar", 2)])
def test_builtin_tubes_call_alpha_once_at_defaults(monkeypatch, tmp_path,
                                                   bid, tubes):
    calls = []
    call = ExtendedKFunction.__call__

    def counted(self, r):
        calls.append(r)
        return call(self, r)

    per_tube = []

    def tube(alpha, r, times):
        before = len(calls)
        out = decay_tube(alpha, r, times)
        per_tube.append(len(calls) - before)
        return out

    monkeypatch.setattr(ExtendedKFunction, "__call__", counted)
    monkeypatch.setattr(certify, "decay_tube", tube)
    monkeypatch.setattr(scenarios, "decay_tube", tube)
    assert run_builtin(bid, None, str(tmp_path)).passed
    assert per_tube == [1] * tubes
