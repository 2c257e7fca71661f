"""scipy stays off the import path.

Importing safefilt and running any built-in loads no scipy module: the
trapezoid rule is numpy (certify.trapezoid, certify.cumulative_trapezoid,
equal to scipy's bit for bit), and only numeric_inverse (brentq) and the
quadrature branch of legendre_fenchel (quad) load scipy, at first call.
The module checks run in fresh interpreters, because this test process
imports scipy itself.
"""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import cumulative_trapezoid as scipy_cumulative
from scipy.integrate import trapezoid as scipy_trapezoid

import safefilt
from safefilt.certify import cumulative_trapezoid, trapezoid
from safefilt.scenarios import BUILTINS

SRC = os.path.dirname(os.path.dirname(os.path.abspath(safefilt.__file__)))

PRELUDE = ("import sys\n"
           "def scipy_modules():\n"
           "    return sorted(m for m in sys.modules "
           "if m.startswith('scipy'))\n")


def _fresh(code, tmp_path):
    """Run code in a new interpreter that imports safefilt from this
    checkout; returns the JSON it prints last."""
    env = dict(os.environ, PYTHONPATH=SRC)
    res = subprocess.run([sys.executable, "-c", PRELUDE + code],
                         cwd=tmp_path, env=env, capture_output=True,
                         text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout.strip().splitlines()[-1])


def test_import_and_every_builtin_load_no_scipy(tmp_path):
    code = (
        "import contextlib, io, json\n"
        "import safefilt, safefilt.cli\n"
        "seen = {'import': scipy_modules()}\n"
        "for bid in %r:\n"
        "    argv = ['run-builtin', bid, '--T', '0.01', '--out-dir', bid]\n"
        "    if bid == 'ex5-stoch':\n"
        "        argv += ['--paths', '20']\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        safefilt.cli.main(argv)\n"
        "    seen[bid] = scipy_modules()\n"
        "print(json.dumps(seen))\n" % (list(BUILTINS),))
    seen = _fresh(code, tmp_path)
    assert list(seen) == ["import"] + list(BUILTINS)
    assert all(mods == [] for mods in seen.values()), seen


def test_numeric_inverse_loads_scipy_at_first_call(tmp_path):
    code = (
        "import json, math\n"
        "from safefilt.comparison import numeric_inverse, INV_XTOL\n"
        "before = scipy_modules()\n"
        "fn = lambda r: r + 0.5 * math.sin(r)\n"
        "got = [numeric_inverse(fn, y) for y in (0.3, 2.0, 1e4)]\n"
        "loaded = 'scipy.optimize' in sys.modules\n"
        "from scipy.optimize import brentq\n"
        "his = (1.0, 2.0, 16384.0)\n"
        "want = [float(brentq(lambda r: fn(r) - y, 0.0, hi, xtol=INV_XTOL))\n"
        "        for y, hi in zip((0.3, 2.0, 1e4), his)]\n"
        "print(json.dumps([before, loaded, got, want]))\n")
    before, loaded, got, want = _fresh(code, tmp_path)
    assert before == [] and loaded
    assert got == want


def test_quadrature_transform_loads_scipy_at_first_call(tmp_path):
    code = (
        "import json, math\n"
        "from safefilt.comparison import LegendreFenchelPair, "
        "legendre_fenchel\n"
        "pair = LegendreFenchelPair(lambda r: math.cosh(r) - 1.0, math.sinh,\n"
        "                           name='cosh')\n"
        "closed = legendre_fenchel(LegendreFenchelPair(\n"
        "    lambda r: r * r, lambda r: 2.0 * r, lambda s: 0.5 * s), 1.0)\n"
        "before = scipy_modules()\n"
        "got = [legendre_fenchel(pair, r) for r in (0.25, 1.0, 3.0)]\n"
        "loaded = 'scipy.integrate' in sys.modules\n"
        "from scipy.integrate import quad\n"
        "want = [float(quad(pair.gamma_prime_inv, 0.0, r, limit=200)[0])\n"
        "        for r in (0.25, 1.0, 3.0)]\n"
        "print(json.dumps([closed, before, loaded, got, want]))\n")
    closed, before, loaded, got, want = _fresh(code, tmp_path)
    assert closed == 0.25
    assert before == [] and loaded
    assert got == want
    for r, v in zip((0.25, 1.0, 3.0), got):
        assert v == pytest.approx(r * math.asinh(r) - math.hypot(1.0, r)
                                  + 1.0, abs=1e-9)


def _bits(v):
    return np.asarray(v, dtype=float).view(np.uint64).tolist()


def _same(ours, theirs):
    assert np.asarray(ours).shape == np.asarray(theirs).shape
    assert _bits(ours) == _bits(theirs)


@st.composite
def _records(draw):
    n = draw(st.integers(min_value=1, max_value=60))
    steps = draw(st.lists(st.floats(min_value=1e-6, max_value=10.0),
                          min_size=n - 1, max_size=n - 1))
    t0 = draw(st.floats(min_value=-5.0, max_value=5.0))
    x = t0 + np.concatenate(([0.0], np.cumsum(steps)))
    y = np.array(draw(st.lists(st.floats(min_value=-1e6, max_value=1e6),
                               min_size=n, max_size=n)))
    return y, x


@given(rec=_records())
@settings(max_examples=200, deadline=None)
def test_trapezoid_rules_equal_scipy_bit_for_bit(rec):
    y, x = rec
    _same(trapezoid(y, x), scipy_trapezoid(y, x))
    _same(cumulative_trapezoid(y, x),
          scipy_cumulative(y, x, initial=0.0))


def test_one_sample_record():
    y, x = np.array([3.5]), np.array([0.25])
    assert trapezoid(y, x) == 0.0 == scipy_trapezoid(y, x)
    _same(cumulative_trapezoid(y, x), [0.0])
    _same(cumulative_trapezoid(y, x), scipy_cumulative(y, x, initial=0.0))


@pytest.mark.parametrize("y", [
    [0.0, 1.0, math.inf, 2.0],
    [0.0, -math.inf, 1.0, 2.0],
    [math.inf, 1.0, -math.inf, 0.5],
    [1.0, 2.0, 3.0, -math.inf],
])
def test_infinite_entries_equal_scipy(y):
    y = np.array(y)
    x = np.array([0.0, 0.1, 0.35, 0.4])
    with np.errstate(invalid="ignore"):
        _same(trapezoid(y, x), scipy_trapezoid(y, x))
        _same(cumulative_trapezoid(y, x),
              scipy_cumulative(y, x, initial=0.0))
