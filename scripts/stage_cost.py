"""Per-layer cost of one general single-state RK4 stage, as JSON.

    python scripts/stage_cost.py [--rounds R]

Imports safefilt from the src/ of the checkout that holds this script,
so running it from two checkouts compares them. Every number is the
best of R rounds (default 5), timed with perf_counter in this process:

  lie_data.m1_0.us_per_call   lie_data on the integrator plant (no
                              disturbance channel), h = -x
  lie_data.m1_1.us_per_call   lie_data on ex3's disturbed-gain plant
                              dx = (u + (1 + x^2) d) dt, h = -x
  first_order_lie.m1_1.us_per_call
                              first_order_lie on the same plant: no
                              Hessian, no Ito terms
  ode.general.us_per_step     integrate_ode on ex3's closed loop
                              (x0 = -1.2, dt = 1e-3, T = 2) with its
                              closed-form control, u0 and worst-case d
                              as array callables
  ode.scalar.us_per_step      the same loop on integrate_ode_scalar
  ode.general_over_scalar     the ratio of the two
  ode.filter.us_per_step      ex3's loop with inverse_optimal_general
                              as the control: first_order_lie at every
                              stage
  ode.game.us_per_step        the same with worst_case_disturbance as
                              d, game-cert's shape of ex3: two
                              first_order_lie calls at every stage
  ode.io_general.us_per_call  inverse_optimal_general, the control of
                              ode.filter's loop, at one state of it
                              (x = -1.2)
  sde.p1.us_per_step          integrate_sde with one path on a scalar
                              Ornstein-Uhlenbeck plant (T = 0.5)
  probe.game.s                one optimality_probe of game-cert's shape:
                              the integrator plant dx = u dt, h = -x,
                              u0 = 1, alpha(h) = h, inverse_optimal_qp
                              (beta = 2) as u*, x0 = -1.1, the four
                              standard shapes at amplitudes -0.1 and
                              0.1, dt = 2e-3, T = 1, cost intro-min

The two ode records are checked equal bit for bit; a mismatch exits 1.
Timings depend on the machine and its load; compare two trees only
from runs taken side by side.
"""

import argparse
import json
import math
import os
import platform
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

import safefilt as sf  # noqa: E402
from safefilt.scenarios import (disturbed_gain_system,  # noqa: E402
                                integrator_system, neg_state_barrier)
from safefilt.systems import first_order_lie  # noqa: E402

BETA, LAM, ALPHA_GAIN = 2.0, 1.0, 12.0      # ex3-invopt's gains
LIE_CALLS = 20000
IO_CALLS = 5000


def best(fn, rounds):
    """The fastest of `rounds` calls of fn, in seconds."""
    times = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def lie_us(lie, sys_, rounds):
    bf = neg_state_barrier()
    x = np.array([-0.5])

    def calls():
        for _ in range(LIE_CALLS):
            lie(sys_, bf, x)
    return 1e6 * best(calls, rounds) / LIE_CALLS


def ex3_loop():
    """ex3-invopt's pieces: closed forms of u0, u*, d* and its spec."""
    def u0(x):
        return (BETA - LAM) * (1.0 + x * x) ** 2 - (x + 1.0)

    def r2inv(x, u0v):
        return max(0.0, u0v - ALPHA_GAIN * (-x)) + (1.0 + x * x) ** 2

    def u_star(x):
        u0v = u0(x)
        return u0v - BETA * r2inv(x, u0v)

    def d_star(x):
        return LAM * (1.0 + x * x)

    base = sf.DssfCbfSpec(disturbed_gain_system(), neg_state_barrier(),
                          sf.identity_k(), sf.linear_extended(ALPHA_GAIN),
                          lambda x, t: np.array([u0(x[0])]))
    iospec = sf.InverseOptimalSpec(
        base, BETA, LAM, sf.power_pair(2),
        R2=lambda x, u0v: np.array([[1.0 / r2inv(x[0], u0v[0])]]))
    return u0, u_star, d_star, iospec


def ode_numbers(rounds):
    u0, u_star, d_star, iospec = ex3_loop()
    base = iospec.base
    cfg = sf.SimConfig(dt=1e-3, T=2.0)
    x0 = np.array([-1.2])
    d_arr = lambda x, t: np.array([d_star(x[0])])
    out = {}

    def general():
        out["general"] = sf.integrate_ode(
            base.sys, base.bf, lambda x, t: np.array([u_star(x[0])]),
            base.u0, x0, d_arr, cfg)

    def scalar():
        out["scalar"] = sf.integrate_ode_scalar(
            lambda x, t: u_star(x) + (1.0 + x * x) * d_star(x), -1.2, cfg,
            h_fn=lambda x: -x, u_fn=lambda x, t: u_star(x),
            u0_fn=lambda x, t: u0(x), d_fn=lambda x, t: d_star(x))

    control = lambda x, t: sf.inverse_optimal_general(iospec, x, t)

    def filtered():
        sf.integrate_ode(base.sys, base.bf, control, base.u0, x0, d_arr, cfg)

    def game():
        sf.integrate_ode(base.sys, base.bf, control, base.u0, x0,
                         lambda x, t: sf.worst_case_disturbance(iospec, x),
                         cfg)

    def io_general():
        for _ in range(IO_CALLS):
            control(x0, 0.0)

    steps = cfg.n_steps
    g = 1e6 * best(general, rounds) / steps
    s = 1e6 * best(scalar, rounds) / steps
    f = 1e6 * best(filtered, rounds) / steps
    w = 1e6 * best(game, rounds) / steps
    a, b = out["general"], out["scalar"]
    same = all(np.array_equal(getattr(a, k), getattr(b, k))
               for k in ("times", "states", "controls", "nominal",
                         "disturbances", "h_values"))
    return {"ode.general.us_per_step": g, "ode.scalar.us_per_step": s,
            "ode.general_over_scalar": g / s,
            "ode.filter.us_per_step": f, "ode.game.us_per_step": w,
            "ode.io_general.us_per_call":
                1e6 * best(io_general, rounds) / IO_CALLS}, same


def sde_us(rounds):
    plant = sf.scalar_system(lambda x: -x, lambda x: 0.5, lambda x: 1.0)
    bf = sf.BarrierFunction(lambda x: 1.0 - x[0],
                            grad=lambda x: np.array([-1.0]))
    cov = sf.CovarianceSchedule(lambda t: np.eye(1), 1)
    u = np.array([0.1])
    cfg = sf.SimConfig(dt=1e-3, T=0.5, seed=3)
    run = lambda: sf.integrate_sde(plant, bf, lambda x, t: u,
                                   lambda x, t: u, np.array([0.2]), cov, cfg)
    return 1e6 * best(run, rounds) / cfg.n_steps


def probe_s(rounds):
    spec = sf.DssfCbfSpec(integrator_system(), neg_state_barrier(),
                          sf.identity_k(), sf.linear_extended(1.0),
                          lambda x, t: np.array([1.0]))
    setup = sf.ProbeSetup(
        spec.sys, spec.bf, lambda x, t: sf.inverse_optimal_qp(spec, 2.0, x, t),
        spec.u0, None, [-1.1], sf.CostSpec("intro-min"), +1)
    cfg = sf.SimConfig(dt=2e-3, T=1.0)
    return best(lambda: sf.optimality_probe(setup, cfg,
                                            amplitudes=(-0.1, 0.1)), rounds)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--rounds", type=int, default=5)
    args = p.parse_args(argv)
    if args.rounds < 1:
        p.error("--rounds must be >= 1")
    numbers = {
        "lie_data.m1_0.us_per_call": lie_us(sf.lie_data, integrator_system(),
                                            args.rounds),
        "lie_data.m1_1.us_per_call": lie_us(
            sf.lie_data, disturbed_gain_system(), args.rounds),
        "first_order_lie.m1_1.us_per_call": lie_us(
            first_order_lie, disturbed_gain_system(), args.rounds)}
    ode, same = ode_numbers(args.rounds)
    numbers.update(ode)
    numbers["sde.p1.us_per_step"] = sde_us(args.rounds)
    numbers["probe.game.s"] = probe_s(args.rounds)
    print(json.dumps({
        "environment": {"python": platform.python_version(),
                        "numpy": np.__version__,
                        "machine": platform.machine(),
                        "nproc": os.cpu_count()},
        "rounds": args.rounds, "general_equals_scalar": same,
        "metrics": {k: round(v, 3) if math.isfinite(v) else None
                    for k, v in numbers.items()}}, indent=1))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
