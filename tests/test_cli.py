"""Command-line front end: spec parsing, artifacts, and reference table."""

import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import one_short_line

import fuzzysumm
from fuzzysumm import (cli, parse_family_spec, parse_scheme_spec,
                       parse_weight_spec)
from fuzzysumm.cli import RunConfig, main, reference_rows, reproduce, run
from fuzzysumm.schemes import WeightSequence
from fuzzysumm.sequences import FuzzyFunctionSequence


class TestRunCommand:
    def test_writes_sorted_csv_and_json(self, tmp_path):
        rc = main(["run", "--family", "ex4.1", "--scheme", "classical",
                   "--weights", "const:1", "--theta", "1", "--modes", "ord,abs",
                   "--horizon", "512", "--out-dir", str(tmp_path)])
        assert rc == 0
        with open(tmp_path / "traces.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x", "mode", "theta", "n", "value"]
        body = [(float(r[0]), r[1], int(r[3])) for r in rows[1:]]
        assert body == sorted(body)
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["reports"][0]["membership"] == {"ord": True, "abs": False}

    def test_multiple_thetas(self, tmp_path):
        rc = main(["run", "--family", "ex3.1:M=1", "--scheme", "classical",
                   "--weights", "const:1", "--theta", "0.25,0.75",
                   "--modes", "abs", "--horizon", "1024",
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert [r["theta"] for r in report["reports"]] == [0.25, 0.75]

    def test_tauberian_mode_artifact(self, tmp_path):
        # the windowed means decay like log(n)/n, so the summability
        # hypothesis needs room before its tail settles under tolerance
        rc = main(["run", "--family", "harmonic", "--scheme", "classical",
                   "--weights", "const:1", "--modes", "tauberian",
                   "--horizon", "131072", "--out-dir", str(tmp_path)])
        assert rc == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["tauberian"]["hypotheses"]["all_pass"] is True

    def test_custom_artifact_paths(self, tmp_path):
        csv_path = tmp_path / "deep" / "t.csv"
        json_path = tmp_path / "deep" / "r.json"
        rc = main(["run", "--family", "ex4.1", "--modes", "ord",
                   "--horizon", "128", "--out-dir", str(tmp_path / "deep"),
                   "--csv", str(csv_path), "--json", str(json_path)])
        assert rc == 0
        assert csv_path.exists() and json_path.exists()

    def test_empty_invocation_prints_usage(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().out.lower()

    def test_bad_family_token_diagnosed(self, capsys):
        rc = main(["run", "--family", "exotic", "--horizon", "128",
                   "--modes", "abs"])
        assert rc == 2
        assert "exotic" in capsys.readouterr().err

    def test_bad_scheme_token_diagnosed(self, capsys):
        rc = main(["run", "--family", "ex4.1", "--scheme", "spiral",
                   "--horizon", "128", "--modes", "abs"])
        assert rc == 2
        assert "spiral" in capsys.readouterr().err

    def test_horizon_floor_enforced(self, capsys):
        rc = main(["run", "--family", "ex4.1", "--horizon", "32",
                   "--modes", "abs"])
        assert rc == 2
        assert "horizon" in capsys.readouterr().err

    @pytest.mark.parametrize("modes, horizon, named", [
        ("ord", "64", "const:1"),             # prefix sums up to gamma(32) = 2^32
        ("tauberian", "256", "lacunary:pow2"),  # gamma(64) = 2^64 overflows int64
    ])
    def test_oversized_windows_diagnosed(self, tmp_path, capsys, modes,
                                         horizon, named):
        rc = main(["run", "--family", "ex4.1", "--scheme", "lacunary:pow2",
                   "--modes", modes, "--horizon", horizon,
                   "--out-dir", str(tmp_path)])
        assert rc == 2
        assert named in capsys.readouterr().err

    def test_sp_stream_past_budget_diagnosed(self, tmp_path, capsys,
                                             monkeypatch):
        # floor(T_4096) = 4.1e9 indices: refused before the sp stream starts,
        # so no weight past the window totals' k = 4096 is evaluated
        values = WeightSequence.values

        def bounded(self, ks):
            assert int(max(ks)) <= 4096, "the sp stream started"
            return values(self, ks)

        monkeypatch.setattr(WeightSequence, "values", bounded)
        rc = main(["run", "--family", "ex4.1", "--weights", "const:1000000",
                   "--horizon", "4096", "--modes", "sp",
                   "--out-dir", str(tmp_path)])
        assert rc == 2
        assert "const:1e+06" in capsys.readouterr().err

    @pytest.mark.parametrize("weights, modes, named", [
        ("const:1e308", "abs", "const:1e+308"),  # T_2 = 1.6e309
        ("table", "abs", "w.txt"),               # rows of 1e308 sum to inf
        ("const:1e20", "sp", "const:1e+20"),     # floor(T_1) past int64
    ])
    def test_overflowing_totals_diagnosed(self, tmp_path, capsys, weights,
                                          modes, named):
        if weights == "table":
            path = tmp_path / "w.txt"
            path.write_text("1e308\n" * 64)
            weights = f"file:{path}"
        rc = main(["run", "--family", "ex3.2", "--scheme", "classical",
                   "--weights", weights, "--horizon", "64", "--modes", modes,
                   "--out-dir", str(tmp_path)])
        assert rc == 2
        assert named in capsys.readouterr().err

    def test_window_sum_past_float_range_diagnosed(self, tmp_path, capsys):
        # every window total is finite (T_4096 = 1.7e307); the sum of t*dev
        # over a window is not, and math.fsum raised OverflowError
        rc = main(["run", "--family", "ex3.2", "--scheme", "pow:2",
                   "--weights", "const:1e300", "--modes", "abs",
                   "--out-dir", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "triangular_growing" in err and "const:1e+300" in err
        assert "overflows a float" in err

    @pytest.mark.parametrize("m, named", [
        # the claimed limit is refused before any stream
        ("inf", "square_indicator(M=inf): the claimed limit (inf, 0.0, 0.0) "
                "at x=1 has a non-finite center or spread"),
        ("nan", "the claimed limit (nan, 0.0, 0.0) at x=1"),
        # M*W overflows on the sparse path
        ("1e308", "square_indicator(M=1e+308): a window sum over const:1 "
                  "weights overflows a float"),
    ])
    def test_bad_claimed_limit_named_without_warning(self, tmp_path, capsys,
                                                     m, named):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["run", "--family", f"ex3.1:M={m}", "--horizon", "64",
                       "--modes", "abs", "--out-dir", str(tmp_path)])
        assert rc == 2
        assert named in capsys.readouterr().err

    def test_empty_condition2_window_refused(self, tmp_path, capsys):
        # condition 2 at H = 4096 reads n = 512 .. 1024; row 700 is the
        # window [0, 700], whose ratio was once reported as Infinity
        path = tmp_path / "s.txt"
        path.write_text("".join("0 700\n" if n == 700 else f"1 {n}\n"
                                for n in range(1, 5000)))
        rc = main(["run", "--family", "ex4.1", "--scheme", f"file:{path}",
                   "--modes", "tauberian", "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert "empty weight window [0, 700]" in capsys.readouterr().err
        assert not (tmp_path / "out" / "report.json").exists()

    def test_lacunary_pow2_is_out_of_reach_of_run(self, tmp_path, capsys):
        # the horizon floor is 64 and the window at n = 64 ends at 2^64, so
        # every run of the scheme is refused; it serves the library only
        rc = main(["run", "--family", "ex3.1", "--scheme", "lacunary:pow2",
                   "--horizon", "64", "--modes", "abs",
                   "--out-dir", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: const:1: a walk over the weights up to "
            "k=18446744073709551616 exceeds the budget of 134217728 indices\n")
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("modes", ["sp", "tauberian"])
    @pytest.mark.parametrize("horizon", ["1024", "4096", "16384"])
    def test_lacunary_top_named_by_its_size(self, tmp_path, capsys, horizon,
                                            modes):
        # the top 2^horizon was printed digit by digit, and past 4300 digits
        # Python refused to print it, so the budget went unnamed
        rc = main(["run", "--family", "ex4.1", "--scheme", "lacunary:pow2",
                   "--weights", "recip5", "--horizon", horizon,
                   "--modes", modes, "--out-dir", str(tmp_path)])
        assert rc == 2
        assert one_short_line(capsys.readouterr().err, "budget")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RunConfig("ex4.1", "classical", "const:1", thetas=(1.5,))
        with pytest.raises(ValueError):
            RunConfig("ex4.1", "classical", "const:1", modes=("bogus",))

    @pytest.mark.parametrize("flag, value, named", [
        ("--theta", "", "theta"), ("--modes", ",", "modes"),
        ("--theta", "1,1", "theta"), ("--modes", "sp,sp", "modes"),
    ])
    def test_empty_or_repeated_lists_refused(self, tmp_path, capsys, flag,
                                             value, named):
        rc = main(["run", "--family", "ex3.2", "--horizon", "64", flag, value,
                   "--out-dir", str(tmp_path)])
        assert rc == 2
        assert f"{named} must list one or more distinct values" in \
            capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()


    @pytest.mark.parametrize("flag, value, named", [
        ("--grid", "1,2", "grid spec must be 'a,b,count', got '1,2'"),
        ("--grid", "a,2,5", "bad grid spec: 'a,2,5'"),
        ("--scheme", "pow:x", "bad power in scheme spec: 'pow:x'"),
        ("--scheme", "lambda:nope",
         "unknown lambda preset in scheme spec: 'lambda:nope'"),
        ("--weights", "const:x", "bad constant in weight spec: 'const:x'"),
        ("--family", "remark3", "family spec 'remark3' needs n=<value>"),
        # an infinite eps once exited 0, with sp reading 0 at every n
        ("--eps", "inf", "eps must lie in (0, inf), got inf"),
        ("--eps", "nan", "eps must lie in (0, inf), got nan"),
        ("--theta", "0.5,1.5", "theta must lie in (0, 1], got 1.5"),
    ])
    def test_bad_spec_refused_by_name(self, tmp_path, capsys, flag, value,
                                      named):
        argv = ["run", "--family", "ex4.1", "--horizon", "64", "--modes", "ord",
                "--out-dir", str(tmp_path), flag, value]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {named}\n"
        assert not (tmp_path / "report.json").exists()


class TestReproduceCommand:
    def test_single_group_filter(self, capsys):
        assert main(["reproduce", "--only", "ex4.1"]) == 0
        out = capsys.readouterr().out
        assert out.count("ex4.1") == 2
        assert "FAIL" not in out

    def test_unknown_group_rejected(self, capsys):
        assert main(["reproduce", "--only", "ex9.9"]) == 2
        assert "ex9.9" in capsys.readouterr().err

    def test_empty_group_rejected(self, capsys):
        # an empty --only was once read as no filter: all rows replayed
        assert main(["reproduce", "--only", ""]) == 2
        assert "unknown reference group: ''" in capsys.readouterr().err

    def test_small_horizon_warns_not_fails(self, capsys):
        # starving the asymptotics must downgrade rows to warnings
        rc = main(["reproduce", "--only", "ex3.1", "--horizon-cap", "64"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "WARN" in out or "ok" in out
        assert "FAIL" not in out

    @pytest.mark.parametrize("cap", [0, -3])
    def test_cap_below_one_refused(self, capsys, cap):
        # a cap of 0 was once read as no cap: the full table replayed silently
        assert main(["reproduce", "--horizon-cap", str(cap)]) == 2
        assert "horizon cap must be at least 1" in capsys.readouterr().err
        with pytest.raises(ValueError, match="horizon cap must be at least 1"):
            reproduce(horizon_cap=cap)

    @pytest.mark.parametrize("cap", [1, 3])
    def test_short_ladders_are_inconclusive(self, cap):
        # a ladder shorter than the verdict window settles no row
        assert reproduce(horizon_cap=cap, out=io.StringIO()) == 0

    @pytest.mark.parametrize("cap", [2 ** k for k in range(21)])
    def test_every_power_of_two_cap_contradicts_nothing(self, cap):
        assert reproduce(horizon_cap=cap, out=io.StringIO()) == 0

    @pytest.mark.parametrize("cap", [3 * 2 ** k for k in range(20)])
    def test_three_times_power_of_two_cap_contradicts_nothing(self, cap):
        assert reproduce(horizon_cap=cap, out=io.StringIO()) == 0

    def test_odd_cap_settles_every_row(self):
        # at a cap that is no power of 2 the ex3.1 and remark3 rows once
        # read inconclusive: their last rung was no doubling
        out = io.StringIO()
        assert reproduce(horizon_cap=12345, out=out) == 0
        assert "0 contradiction(s), 0 inconclusive" in out.getvalue()

    def test_contradiction_fails_the_replay(self, monkeypatch, capsys):
        rows = reference_rows()
        rows[6] = dataclasses.replace(rows[6], expect_member=False)  # ex4.1 ord
        monkeypatch.setattr(cli, "reference_rows", lambda: rows)
        assert reproduce() == 1
        out = capsys.readouterr().out
        assert out.count("FAIL") == 1 and "1 contradiction(s)" in out
        assert main(["reproduce"]) == 1

    def test_reference_table_is_complete(self):
        rows = reference_rows()
        assert {r.group for r in rows} == {"ex3.1", "ex3.2", "ex3.3", "ex4.1",
                                           "remark3"}
        assert len(rows) == 10


def test_reports_are_deterministic(tmp_path):
    # byte-identical artifacts across repeat runs of the same config
    blobs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        rc = main(["run", "--family", "ex3.2", "--scheme", "pow:2",
                   "--weights", "recip5", "--theta", "0.5,1", "--modes",
                   "sp,abs", "--horizon", "128", "--out-dir", str(out)])
        assert rc == 0
        blobs.append(((out / "traces.csv").read_bytes(),
                      (out / "report.json").read_bytes()))
    assert blobs[0] == blobs[1]


class TestArtifactWriters:
    """traces.csv carries csv.writer's bytes, and report.json reads back as
    the returned report with one verdict or trace record per line."""

    RUNS = pytest.mark.parametrize("config", [
        RunConfig("ex3.2", "pow:2", "recip5", thetas=(0.5, 1.0), horizon=128),
        RunConfig("ex3.2", "pow:2", "recip5", horizon=256,
                  modes=("ord", "tauberian")),
    ], ids=["sp,abs,ord", "ord,tauberian"])

    @staticmethod
    def written(config, tmp_path):
        result = run(dataclasses.replace(config, out_dir=str(tmp_path)))
        del result["artifacts"]
        return result

    @RUNS
    @pytest.mark.parametrize("numpy_x", [False, True])
    def test_csv_is_what_csv_writer_writes(self, tmp_path, monkeypatch, config,
                                           numpy_x):
        if numpy_x:  # csv writes a np.float64 as its digits, as str() does
            check_x = FuzzyFunctionSequence.check_x
            monkeypatch.setattr(FuzzyFunctionSequence, "check_x",
                                lambda seq, x: np.float64(check_x(seq, x)))
        result = self.written(config, tmp_path)
        rows = [(t["x"], t["mode"], t["theta"], n, v)
                for rep in result["reports"] for t in rep["traces"]
                for n, v in t["points"]]
        rows += [(t["x"], "tauberian", t["theta"], n, v)
                 for t in result.get("tauberian", {}).get("conclusion", {})
                 .get("per_x", []) for n, v in t["points"]]
        buf = io.StringIO(newline="")
        writer = csv.writer(buf)
        writer.writerow(["x", "mode", "theta", "n", "value"])
        writer.writerows(sorted(rows, key=lambda r: (r[0], r[1], r[3])))
        assert (tmp_path / "traces.csv").read_bytes() == buf.getvalue().encode()

    @RUNS
    def test_json_reads_back_as_the_report(self, tmp_path, config):
        result = self.written(config, tmp_path)
        with open(tmp_path / "report.json") as fh:
            assert json.load(fh) == json.loads(json.dumps(result))

    @RUNS
    def test_one_record_per_line(self, tmp_path, config):
        result = self.written(config, tmp_path)
        lines = {line.strip().rstrip(",") for line in
                 (tmp_path / "report.json").read_text().splitlines()}
        records = [r for rep in result["reports"]
                   for r in rep["verdicts"] + rep["traces"]]
        records += result.get("tauberian", {}).get("conclusion", {}).get("per_x", [])
        assert records
        assert all(json.dumps(r) in lines for r in records)

    @pytest.mark.parametrize("obj", [
        {"a": [1, 2.5, {"b": None, "c": [], "d": {}}], "e": True, "f": "g"},
        [[[["deep"]]]],
        [],
    ])
    def test_shallow_layout_is_indent_2(self, obj):
        assert cli._json_text(obj) == json.dumps(obj, indent=2)

    def test_non_finite_tokens_at_any_depth(self):
        obj = {"a": [math.nan, {"b": [{"c": [math.inf, -math.inf]}]}]}
        text = cli._json_text(obj)
        assert text == ('{\n  "a": [\n    NaN,\n    {\n      "b": [\n'
                        '        {"c": [Infinity, -Infinity]}\n      ]\n    }\n  ]\n}')
        assert json.dumps(json.loads(text)) == json.dumps(obj)


def test_run_function_returns_artifacts(tmp_path):
    config = RunConfig("ex3.2", "pow:2", "recip5", thetas=(1.0,),
                       eps=0.1, horizon=256, modes=("sp",),
                       out_dir=str(tmp_path))
    result = run(config)
    assert result["artifacts"]["csv"].endswith("traces.csv")
    assert result["reports"][0]["membership"]["sp"] in (True, None)


@pytest.mark.parametrize("family, scheme, weights, sparse, passes", [
    # largest checkpoint gamma(H); the profile sees only the squares
    pytest.param("ex3.2", "pow:2", "recip5", True, 5, id="ex3.2-pow:2-recip5"),
    # the same without the exception hook: every index
    pytest.param("ex3.2", "pow:2", "recip5", False, 5,
                 id="ex3.2-pow:2-recip5-dense"),
    # largest checkpoint floor(T_H); no hook; x-free with one claimed
    # limit, so the 5 points share one pass
    pytest.param("ex4.1", "classical", "harmonicplus", False, 1,
                 id="ex4.1-classical-harmonicplus"),
])
def test_run_streams_each_index_once_per_point(tmp_path, monkeypatch, family,
                                               scheme, weights, sparse, passes):
    """Each index is streamed once per distinct limit: once per point for
    an x-dependent family, once in all for an x-free one."""
    streamed = []

    def counting_family(spec):
        fam = parse_family_spec(spec)

        def profile(ks, x):
            streamed.append(len(ks))
            return fam.profile(ks, x)
        return dataclasses.replace(
            fam, profile=profile,
            exceptional=fam.exceptional if sparse else None)

    monkeypatch.setattr(cli, "parse_family_spec", counting_family)
    horizon = 256
    _, gamma = parse_scheme_spec(scheme).window(horizon)
    floor_t = math.floor(parse_weight_spec(weights).window_total(1, gamma))
    k_max = max(gamma, floor_t)
    for thetas in ((0.25, 1.0), (1.0,)):
        streamed.clear()
        run(RunConfig(family, scheme, weights, thetas=thetas, eps=0.1,
                      horizon=horizon, grid_spec="1,2,5",
                      modes=("sp", "abs", "ord"), out_dir=str(tmp_path)))
        assert sum(streamed) == passes * (math.isqrt(k_max) if sparse else k_max)


@pytest.mark.parametrize("weights, horizon, named", [
    # floor(T_4096) = 4.1e9: past the 2^27 walk budget
    ("const:1000000", "4096", "exceeds the budget of 134217728 indices"),
    # floor(T_4096) = 4.1e18: its 2e9 squares must not be listed first
    ("const:1e15", "4096", "exceeds the budget of 134217728 indices"),
    # the totals end at k = 64, the sp stream at floor(T_64) = 128
    ([2] * 64, "64", "ends at k=64"),
    # t_101 lies past every window but inside the sp stream, and 101 is
    # neither a square nor a cube
    ([2] * 100 + [-1] + [2] * 99, "64",
     "weight t_101 is not a finite positive number"),
])
@pytest.mark.parametrize("family", ["ex3.2", "ex3.3"])
def test_sparse_and_dense_paths_refuse_alike(tmp_path, monkeypatch, capsys,
                                             family, weights, horizon, named):
    if isinstance(weights, list):
        path = tmp_path / "w.txt"
        path.write_text("".join(f"{w}\n" for w in weights))
        weights = f"file:{path}"
    errors = []
    for parse in (parse_family_spec, lambda spec: dataclasses.replace(
            parse_family_spec(spec), exceptional=None)):
        monkeypatch.setattr(cli, "parse_family_spec", parse)
        rc = main(["run", "--family", family, "--scheme", "classical",
                   "--weights", weights, "--horizon", horizon, "--modes", "sp",
                   "--out-dir", str(tmp_path)])
        assert rc == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert named in errors[0]


@pytest.mark.parametrize("call", [
    'cli.run(cli.RunConfig("ex3.2", "pow:2", "recip5", (0.25, 1.0), 0.1, 256, '
    '"1,2,5", ("sp", "abs", "ord")))',
    'cli.run(cli.RunConfig("ex4.1", "lambda:half", "harmonicplus", (0.5, 1.0), '
    '0.1, 1 << 14, "1,2,5", ("sp", "abs", "ord")))',
    'fuzzysumm.tauberian_experiment(fuzzysumm.parse_family_spec("ex4.1"), None, '
    'fuzzysumm.parse_scheme_spec("classical"), '
    'fuzzysumm.parse_weight_spec("const:1"), fuzzysumm.uniform_grid(1, 2, 5), '
    'horizon=512, scan_horizon=256)',
], ids=["sparse", "dense", "tauberian"])
def test_runs_do_not_import_numpy_ma(tmp_path, call):
    # np.unique and np.union1d import numpy.ma on their first call in a
    # process, which every run would then pay for in time and memory;
    # numpy 1.x imports it with numpy itself (exit 3: nothing to test)
    src = str(Path(fuzzysumm.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = ("import sys\nimport numpy\nif 'numpy.ma' in sys.modules: sys.exit(3)\n"
            "import fuzzysumm\nfrom fuzzysumm import cli\n"
            f"{call}\nassert 'numpy.ma' not in sys.modules\n")
    rc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                        env=env).returncode
    if rc == 3:
        pytest.skip("import numpy itself imports numpy.ma")
    assert rc == 0
