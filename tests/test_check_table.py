"""Every verdict is a row of one check table.

A runner's ScenarioResult holds its checks as rows (name, value, lo,
hi), and passed is their conjunction: lo <= value <= hi on every row,
so a NaN value fails its row. This file pins each built-in's and the
custom form's rows (name and bounds, in order) and report keys (in
order, "overall" last), and drives each row past its bound, and to NaN,
to see the verdict fail.
"""

import math

import pytest

from safefilt.scenarios import (BUILTINS, ScenarioResult, run_builtin,
                                run_config)

INF = math.inf

# name, lo, hi; a bound (key, c, a) reads c * report[key] + a
ROWS = {
    "intro-qp-optimal": [("cost_gap", -INF, 0.01)],
    "intro-sontag": [("cost_gap", -INF, 1e-3)],
    "ex1-dssf": [("dssf_min_margin", -1e-4, INF)],
    "blowup": [("escape_time", 0.45, 0.55)],
    "ex3-invopt": [("invariance_max", -INF, 1e-3),
                   ("cost_gap", -INF, 1e-3),
                   ("attenuation_lhs", -INF, ("attenuation_rhs", 1.0, 1e-3)),
                   ("hji_residual_max", -INF, 1e-9)],
    "ex4-invopt-qp": [("exact_invariance_max", -INF, 1e-3),
                      ("exact_gap", -INF, 1e-3),
                      ("attenuation_lhs", -INF,
                       ("attenuation_rhs", 1.0, 1e-3))],
    "ex5-stoch": [("mc_gap", -INF, ("mc_se", 3.0, 0.0)),
                  ("generator_margin_min", -1e-8, INF)],
    "ex6-nssf": [("all_paths_finite", True, INF),
                 ("display_gap_linear_gain", -INF, 1e-9),
                 ("nssf_hji_residual_max", -INF, 1e-9)],
    "proj-ball": [("h_min_classic", -1e-6, INF),
                  ("h_min_qp", -1e-8, INF),
                  ("h_min_optimal", -1e-8, INF),
                  ("boundary_agreement_gap", -INF, 1e-12),
                  ("eps_family_decreasing", True, INF),
                  ("optimal_invariance_max", -INF, 1e-3)],
    "sandwich-scalar": [("lower_margin_free", -1e-4, INF),
                        ("upper_margin_free", -1e-4, INF),
                        ("lower_margin_forced", -1e-4, INF),
                        ("upper_margin_forced", -1e-4, INF),
                        ("nominal_decay_margin_min", -1e-9, INF),
                        ("gain_separation_margin_min", -1e-9, INF),
                        ("filter_closed_form_gap", -INF, 1e-12)],
}

KEYS = {
    "intro-qp-optimal": ["cost_total", "cost_target", "cost_gap",
                         "invariance_max", "h_min"],
    "intro-sontag": ["cost_total", "cost_target", "invariance_max", "h_min"],
    "ex1-dssf": ["dssf_min_margin", "h_min", "x_max", "sup_d"],
    "blowup": ["escape_time", "escape_expected", "samples_kept", "h_min"],
    "ex3-invopt": ["beta", "lam", "cost_total", "cost_value",
                   "invariance_max", "attenuation_lhs", "attenuation_rhs",
                   "hji_residual_max", "condition_min"],
    "ex4-invopt-qp": ["exact_total", "exact_value", "exact_invariance_max",
                      "weighted_total", "weighted_invariance_drift",
                      "attenuation_lhs", "attenuation_rhs"],
    "ex5-stoch": ["mc_paths", "mc_mean", "mc_se", "mc_target",
                  "mc_gap_in_se", "generator_margin_min"],
    "ex6-nssf": ["paths", "all_paths_finite", "h_min_over_paths",
                 "worst_covariance_at_-1", "worst_covariance_min_eig",
                 "worst_covariance_psd", "display_gap_linear_gain",
                 "display_gap_sqrt_gain", "nssf_hji_residual_max"],
    "proj-ball": ["h_min_classic", "h_min_qp", "h_min_optimal",
                  "final_radius_classic", "boundary_agreement_gap",
                  "eps_family_sup_1", "eps_family_sup_0.5",
                  "eps_family_sup_0.1", "eps_family_sup_0.01",
                  "eps_family_decreasing", "optimal_invariance_max"],
    "sandwich-scalar": ["lower_margin_free", "upper_margin_free",
                        "lower_margin_forced", "upper_margin_forced",
                        "nominal_decay_margin_min",
                        "gain_separation_margin_min",
                        "filter_closed_form_gap"],
}

# rows whose value the report does not print
UNPRINTED = {"intro-sontag": {"cost_gap"}, "ex3-invopt": {"cost_gap"},
             "ex4-invopt-qp": {"exact_gap"}, "ex5-stoch": {"mc_gap"}}

CUSTOM = ("system = disturbed-gain\nx0 = -0.5\nu0 = const:1\n"
          "alpha = linear:2\nfilter = qp\nd = sin:0.5\nT = 1\n")
ESCAPING = ("system = integrator\nx0 = -1\nu0 = const:-1e7\n"
            "alpha = linear:1\nfilter = qp\nT = 1\n")
COST = "cost = qp-exact:2\n"
CUSTOM_ROWS = [("dssf_min_margin", -1e-4, INF)]
CUSTOM_KEYS = {
    (False, False): ["system", "filter", "h_min", "dssf_min_margin"],
    (False, True): ["system", "filter", "h_min", "dssf_min_margin",
                    "cost_total", "cost_invariance_max"],
    (True, False): ["system", "filter", "h_min", "dssf_min_margin",
                    "escape_time"],
    (True, True): ["system", "filter", "h_min", "dssf_min_margin",
                   "escape_time", "cost_total", "cost_invariance_max"],
}


def _short(bid):
    """A short horizon; ex5-stoch with few paths."""
    return {"T": 0.02, "paths": 20 if bid == "ex5-stoch" else None}


@pytest.fixture(scope="module")
def builtin_runs():
    return {bid: run_builtin(bid, _short(bid)) for bid in BUILTINS}


def _custom(tmp_path, escaped, cost):
    cfg = tmp_path / "loop.cfg"
    cfg.write_text((ESCAPING if escaped else CUSTOM) + (COST if cost else ""))
    return run_config(str(cfg))


def _bound(b, report):
    if isinstance(b, tuple):
        key, c, a = b
        return c * report[key] + a
    return b


def _pinned(rows, report):
    return [(name, _bound(lo, report), _bound(hi, report))
            for name, lo, hi in rows]


def test_every_builtin_has_pinned_rows():
    assert set(ROWS) == set(KEYS) == set(BUILTINS)


@pytest.mark.parametrize("bid", list(BUILTINS))
def test_builtin_rows_are_pinned(builtin_runs, bid):
    res = builtin_runs[bid]
    assert [(n, lo, hi) for n, _, lo, hi in res.checks] == _pinned(
        ROWS[bid], res.report)


@pytest.mark.parametrize("bid", list(BUILTINS))
def test_builtin_report_keys_are_pinned(builtin_runs, bid):
    assert list(builtin_runs[bid].report) == KEYS[bid] + ["overall"]


@pytest.mark.parametrize("bid", list(BUILTINS))
def test_a_printed_row_is_its_report_entry(builtin_runs, bid):
    res = builtin_runs[bid]
    for name, value, _, _ in res.checks:
        if name in UNPRINTED.get(bid, ()):
            assert name not in res.report
        else:
            assert res.report[name] is value


@pytest.mark.parametrize("escaped", [False, True])
@pytest.mark.parametrize("cost", [False, True])
def test_custom_rows_and_keys_are_pinned(tmp_path, escaped, cost):
    res = _custom(tmp_path, escaped, cost)
    assert [(n, lo, hi) for n, _, lo, hi in res.checks] == CUSTOM_ROWS
    assert list(res.report) == CUSTOM_KEYS[escaped, cost] + ["overall"]
    assert res.report["dssf_min_margin"] is res.checks[0][1]
    assert res.passed is (not escaped)


def _at_bounds(rows):
    """A result whose every row sits on one of its (inclusive) bounds."""
    res = ScenarioResult()
    for name, lo, hi in rows:
        res.check(name, lo if lo != -INF else hi, lo, hi)
    return res


def _cases():
    # the report values that the run-dependent bounds read
    report = {"attenuation_rhs": 0.25, "mc_se": 0.5}
    for bid, rows in ROWS.items():
        yield bid, _pinned(rows, report)
    yield "custom", CUSTOM_ROWS


@pytest.mark.parametrize("bid, rows", list(_cases()))
def test_any_row_past_its_bound_or_nan_fails(bid, rows):
    assert _at_bounds(rows).passed is True
    for i, (name, lo, hi) in enumerate(rows):
        past = (math.nextafter(hi, INF) if lo == -INF
                else math.nextafter(float(lo), -INF))
        for bad in (past, math.nan):
            res = _at_bounds(rows)
            res.checks[i] = (name, bad, lo, hi)
            assert res.passed is False, (name, bad)


def test_a_result_with_no_rows_passes_and_put_records_its_row():
    res = ScenarioResult()
    assert res.passed is True
    res.put("gap", 2.0, hi=1.0)
    res.check("unprinted", 0.0, lo=0.0)
    assert res.report == {"gap": 2.0}
    assert res.checks == [("gap", 2.0, -INF, 1.0),
                          ("unprinted", 0.0, 0.0, INF)]
    assert res.passed is False
