"""Every malformed config value is refused on its own line.

Each value of either config form is read by one reader, and a value it
cannot read is a config error that names the value's line: exit 2,
nothing written, and one stderr line "config error: line N: ...". A
missing key has no line to name, and SimConfig's checks of the merged
dt, T, seed and paths (which command-line overrides feed too) keep
their own text; neither is a malformed value and neither is covered
here.
"""

import pytest

from safefilt.cli import main

CUSTOM = {"system": "disturbed-gain", "x0": "-0.5", "u0": "const:1",
          "alpha": "linear:2", "rho": "linear:1", "filter": "qp",
          "d": "sin:0.5", "dt": "1e-3", "T": "1", "seed": "3",
          "cost": "qp-exact:2"}
SCENARIO = {"scenario": "blowup", "dt": "2e-3", "T": "1", "seed": "0",
            "paths": "1"}

CASES = [
    ("custom", "system", "bogus"),
    ("custom", "x0", "-0.5x"),
    ("custom", "x0", "nan"),
    ("custom", "x0", "inf"),
    ("custom", "u0", "linear:1"),
    ("custom", "u0", "const:one"),
    ("custom", "alpha", "warp:1"),
    ("custom", "alpha", "linear:-1"),
    ("custom", "alpha", "LINEAR:2"),
    ("custom", "alpha", "linear :2"),
    ("custom", "rho", "piecewise:1:3"),
    ("custom", "rho", "linear:x"),
    ("custom", "rho", "Power:2"),
    ("custom", "filter", "lqr"),
    ("custom", "filter", "io-qp:1.5"),
    ("custom", "filter", "io-qp:nan"),
    ("custom", "d", "sin:a"),
    ("custom", "d", "square:1"),
    ("custom", "dt", "1e-3s"),
    ("custom", "T", "one"),
    ("custom", "seed", "1.5"),
    ("custom", "cost", "maximal"),
    ("custom", "cost", "qp-exact:1"),
    ("custom", "cost", "qp-exact:inf"),
    ("scenario", "scenario", "warpdrive"),
    ("scenario", "dt", "2e-3x"),
    ("scenario", "T", "1..0"),
    ("scenario", "seed", "nan"),
    ("scenario", "paths", "2.5"),
]


@pytest.mark.parametrize("form, key, value", CASES,
                         ids=["%s-%s-%s" % case for case in CASES])
def test_malformed_value_is_refused_on_its_line(tmp_path, capsys, form,
                                                key, value):
    entries = dict(CUSTOM if form == "custom" else SCENARIO, **{key: value})
    # a comment and a blank line, so that lines and entries differ
    lines = ["# malformed %s" % key, ""] + ["%s = %s" % kv
                                          for kv in entries.items()]
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("\n".join(lines) + "\n")
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    assert main(["run", str(cfg), "--out-dir", str(out_dir)]) == 2
    line = lines.index("%s = %s" % (key, value)) + 1
    out, err = capsys.readouterr()
    assert out == "" and list(out_dir.iterdir()) == []
    assert err.startswith("config error: line %d: " % line)
    assert err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize("key, value, forms", [
    ("alpha", "warp:x", "linear:<c>, power:<p>[:<scale>], eps:<eps>, "
                        "piecewise:<a>:<b>"),
    ("d", "square:x", "none, const:<v>, sin:<amp>[:<freq>]"),
], ids=["alpha", "d"])
def test_an_unknown_tag_is_refused_with_its_forms(tmp_path, capsys, key,
                                                  value, forms):
    # alpha's tags are read by the same rule as d's: the tag before its
    # numbers, and a refusal that lists the forms the key accepts
    entries = dict(CUSTOM, **{key: value})
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("".join("%s = %s\n" % kv for kv in entries.items()))
    assert main(["run", str(cfg), "--out-dir", str(tmp_path / "out")]) == 2
    line = list(entries).index(key) + 1
    assert capsys.readouterr().err == (
        "config error: line %d: unknown %s %r (%s)\n"
        % (line, key, value, forms))


@pytest.mark.parametrize("form", ["custom", "scenario"])
def test_the_base_configs_run(tmp_path, capsys, form):
    entries = CUSTOM if form == "custom" else SCENARIO
    cfg = tmp_path / "good.cfg"
    cfg.write_text("".join("%s = %s\n" % kv for kv in entries.items()))
    assert main(["run", str(cfg), "--out-dir", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("key, value, number", [
    ("u0", "const:nan", "const"), ("u0", "const:inf", "const"),
    ("d", "const:-inf", "const"), ("d", "sin:nan", "amp"),
    ("d", "sin:0.5:inf", "freq"),
], ids=["u0-const-nan", "u0-const-inf", "d-const-minus-inf", "d-sin-nan",
        "d-sin-freq-inf"])
def test_a_non_finite_nominal_or_disturbance_is_refused(tmp_path, capsys,
                                                        key, value, number):
    # as x0 = nan is: a loop that starts from a NaN nominal or
    # disturbance escapes at its first step, so the value is refused on
    # its line before any loop runs
    entries = dict(CUSTOM, **{key: value})
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("".join("%s = %s\n" % kv for kv in entries.items()))
    out_dir = tmp_path / "out"
    assert main(["run", str(cfg), "--out-dir", str(out_dir)]) == 2
    line = list(entries).index(key) + 1
    out, err = capsys.readouterr()
    assert out == "" and not out_dir.exists()
    assert err == ("config error: line %d: bad gain in %r: %s must be a "
                   "finite number, got %s\n"
                   % (line, value, number, value.rsplit(":", 1)[1]))
