"""Command-line front end: spec parsing, artifacts, and reference table."""

import csv
import dataclasses
import json
import math

import pytest

from fuzzysumm import cli, parse_family_spec, parse_scheme_spec, parse_weight_spec
from fuzzysumm.cli import RunConfig, main, reference_rows, reproduce, run


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

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RunConfig("ex4.1", "classical", "const:1", thetas=(1.5,))
        with pytest.raises(ValueError):
            RunConfig("ex4.1", "classical", "const:1", modes=("bogus",))


class TestReproduceCommand:
    def test_single_group_filter(self, capsys):
        assert main(["reproduce", "--only", "ex4.1"]) == 0
        out = capsys.readouterr().out
        assert out.count("ex4.1") == 2
        assert "FAIL" not in out

    def test_unknown_group_rejected(self, capsys):
        assert main(["reproduce", "--only", "ex9.9"]) == 2
        assert "ex9.9" in capsys.readouterr().err

    def test_small_horizon_warns_not_fails(self, capsys):
        # starving the asymptotics must downgrade rows to warnings
        rc = main(["reproduce", "--only", "ex3.1", "--horizon-cap", "64"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "WARN" in out or "ok" in out
        assert "FAIL" not in out

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


def test_run_function_returns_artifacts(tmp_path):
    config = RunConfig("ex3.2", "pow:2", "recip5", thetas=(1.0,),
                       eps=0.1, horizon=256, modes=("sp",),
                       out_dir=str(tmp_path))
    result = run(config)
    assert result["artifacts"]["csv"].endswith("traces.csv")
    assert result["reports"][0]["membership"]["sp"] in (True, None)


@pytest.mark.parametrize("family, scheme, weights", [
    ("ex3.2", "pow:2", "recip5"),           # largest checkpoint gamma(H)
    ("ex4.1", "classical", "harmonicplus"),  # largest checkpoint floor(T_H)
])
def test_run_streams_each_index_once_per_point(tmp_path, monkeypatch,
                                               family, scheme, weights):
    streamed = []

    def counting_family(spec):
        fam = parse_family_spec(spec)

        def profile(ks, x):
            streamed.append(len(ks))
            return fam.profile(ks, x)
        return dataclasses.replace(fam, profile=profile)

    monkeypatch.setattr(cli, "parse_family_spec", counting_family)
    horizon = 256
    _, gamma = parse_scheme_spec(scheme).window(horizon)
    floor_t = math.floor(parse_weight_spec(weights).window_total(1, gamma))
    for thetas in ((0.25, 1.0), (1.0,)):
        streamed.clear()
        run(RunConfig(family, scheme, weights, thetas=thetas, eps=0.1,
                      horizon=horizon, grid_spec="1,2,5",
                      modes=("sp", "abs", "ord"), out_dir=str(tmp_path)))
        assert sum(streamed) == 5 * max(gamma, floor_t)
