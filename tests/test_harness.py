import json
import math

import numpy as np
import pytest

from flowtracker_lab import harness
from flowtracker_lab.cli import main
from flowtracker_lab.errors import ConfigError, InvalidInputError
from flowtracker_lab.graphnet import process_from_dict


def small_config(**overrides):
    raw = {
        "name": "tiny",
        "process": {
            "n": 2,
            "pieces": [{"t": 0.0, "weights": [[0.0, 1.0], [1.0, 0.0]]}],
            "horizon": 5.0,
        },
        "dynamics": {"name": "averaging"},
        "family": {"kind": "mirror-pair", "params": {}, "box": [[-2.0], [2.0]]},
        "schedule": {"kind": "constant", "a0": 0.5},
        "init": {"x": [[0.0], [0.0]]},
        "t_end": 5.0,
        "h": 1e-2,
        "record_every": 0.05,
        "seed": 0,
        "checks": [],
    }
    raw.update(overrides)
    return raw


class TestParseConfig:
    def test_valid_round_trip(self):
        cfg = harness.parse_config(small_config())
        assert cfg.system.name == "averaging"
        assert cfg.family.kind == "mirror-pair"
        assert cfg.digest() == harness.parse_config(small_config()).digest()

    def test_digest_changes_with_config(self):
        a = harness.parse_config(small_config())
        b = harness.parse_config(small_config(t_end=4.0))
        assert a.digest() != b.digest()

    def test_missing_h(self):
        raw = small_config()
        del raw["h"]
        with pytest.raises(ConfigError):
            harness.parse_config(raw)

    def test_unknown_check(self):
        with pytest.raises(ConfigError):
            harness.parse_config(small_config(checks=["nope"]))

    def test_input_tracking_needs_full_resolution(self):
        with pytest.raises(ConfigError, match="record_every"):
            harness.parse_config(small_config(checks=["input-tracking"]))

    def test_misaligned_dwell_rejected(self):
        raw = small_config()
        raw["process"] = {
            "n": 2,
            "pieces": [
                {"t": 0.0, "weights": [[0.0, 1.0], [1.0, 0.0]]},
                {"t": 0.015, "weights": [[0.0, 1.0], [1.0, 0.0]]},
            ],
            "horizon": 5.0,
        }
        raw["h"] = 0.01
        with pytest.raises(ConfigError, match="grid"):
            harness.parse_config(raw)

    def test_family_agent_count_mismatch(self):
        raw = small_config()
        raw["family"] = {
            "kind": "huberized-quadratic",
            "params": {"centers": [[0.0], [1.0], [2.0]], "radius": 1.0},
        }
        with pytest.raises(ConfigError, match="agents"):
            harness.parse_config(raw)

    def test_random_init_is_seeded(self):
        raw = small_config(init={"random": {"seed": 5, "scale": 1.0}})
        a = harness.parse_config(raw)
        b = harness.parse_config(raw)
        assert np.array_equal(a.init_state, b.init_state)


    def test_init_aux_keys_come_from_the_systems_table(self):
        # the run's own blocks are read, and blocks only other systems have
        # and keys no system has are rejected
        cfg = harness.parse_config(
            small_config(
                dynamics={"name": "saddle-point"},
                init={"x": [[0.0], [0.0]], "w": [[0.5], [-0.5]]},
            )
        )
        assert cfg.system.split(cfg.init_state)[1]["w"].tolist() == [[0.5], [-0.5]]
        raw = small_config(init={"x": [[0.0], [0.0]], "q": 1.0})
        with pytest.raises(ConfigError, match="unknown init key 'q'"):
            harness.parse_config(raw)
        for name, block in (("averaging", "w"), ("spps", "w")):
            init = {"x": [[0.0], [0.0]], block: [0.0, 0.0]}
            raw = small_config(dynamics={"name": name}, init=init)
            with pytest.raises(ConfigError, match=f"no aux block '{block}'"):
                harness.parse_config(raw)


class TestRun:
    def test_artifacts_written(self, tmp_path):
        cfg = harness.parse_config(small_config(expectations=[
            {"kind": "y-limit", "value": [[0.2], [-0.2]], "tol": 0.05},
        ]))
        summary = harness.run(cfg, out_dir=tmp_path)
        names = {p.name for p in tmp_path.iterdir()}
        assert {"trajectory.csv", "report.json", "summary.json"} <= names
        assert summary.all_checks_passed
        data = json.loads((tmp_path / "summary.json").read_text())
        assert data["digest"] == cfg.digest()

    def test_reproducible_bytes(self, tmp_path):
        raw = small_config()
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        harness.run(harness.parse_config(raw), out_dir=a_dir)
        harness.run(harness.parse_config(raw), out_dir=b_dir)
        assert (a_dir / "trajectory.csv").read_bytes() == (b_dir / "trajectory.csv").read_bytes()
        sa = json.loads((a_dir / "summary.json").read_text())
        sb = json.loads((b_dir / "summary.json").read_text())
        assert sa["digest"] == sb["digest"]
        assert sa["y_limit"] == sb["y_limit"]

    def test_failing_expectation_reported(self):
        cfg = harness.parse_config(
            small_config(
                expectations=[{"kind": "y-abs-max", "max": 1e-6}],
            )
        )
        summary = harness.run(cfg)
        assert not summary.all_checks_passed

    def test_full_resolution_flag(self):
        cfg = harness.parse_config(small_config(checks=[], record_every=0.1), full_resolution=True)
        assert cfg.record_every == cfg.h
        summary = harness.run(cfg)
        assert summary.all_checks_passed  # no checks; just runs


# each preset's config digest, which hashes its raw dict
PRESET_DIGESTS = {
    "averaging-ergodic": "6057fb167a063e35",
    "counterexample": "abaca662257a6c6d",
    "counterexample-diminishing": "d6d825f6dd55c029",
    "pushsum-directed": "40f72fabd2442cfe",
    "saddlepoint-mincut": "036ebb450bdc4fb1",
    "spps-stationary": "f489340360a77981",
}


def _spoil(node):
    """Add a key to every dict and an item to every list of a raw config."""
    for value in list(node.values() if isinstance(node, dict) else node):
        if isinstance(value, (dict, list)):
            _spoil(value)
    if isinstance(node, dict):
        node["spoilt"] = True
    else:
        node.append(None)


class TestScenarios:
    @pytest.mark.parametrize("name", harness.scenario_names())
    def test_preset_is_pinned_and_built_afresh_by_each_call(self, name):
        # the CLI's --seed and sweep mutate what scenario_raw returns
        spoilt = harness.scenario_raw(name)
        _spoil(spoilt)
        assert "spoilt" in spoilt["family"]["params"] and "spoilt" in spoilt["process"]
        assert harness.scenario(name).digest() == PRESET_DIGESTS[name]

    def test_names_listed(self):
        names = harness.scenario_names()
        assert "counterexample" in names
        assert "pushsum-directed" in names
        assert "spps-stationary" in names

    def test_unknown_scenario_lists_options(self):
        with pytest.raises(InvalidInputError, match="counterexample"):
            harness.scenario("nope")

    def test_counterexample_preset_shape(self):
        raw = harness.scenario_raw("counterexample")
        assert raw["dynamics"]["name"] == "averaging"
        assert raw["schedule"] == {"kind": "constant", "a0": 0.5}

    def test_spps_preset_gain(self):
        raw = harness.scenario_raw("spps-stationary")
        assert raw["dynamics"]["a"] == 5.0

    def test_spps_preset_process_has_common_stationary(self):
        # every piece annihilates pi, which makes it a common stationary distribution
        raw = harness.scenario_raw("spps-stationary")
        proc = process_from_dict(raw["process"])
        pi = np.array([0.5, 0.3, 0.2])
        assert np.abs(proc.matrices @ pi).max() <= 1e-12

    @pytest.mark.parametrize("horizon, dwell", [(1.0, 0.5), (2.0, 0.3), (0.25, 1.0)])
    def test_shared_stationary_pieces_cover_the_horizon_and_share_pi(self, horizon, dwell):
        proc = process_from_dict(harness._shared_stationary_pieces(horizon, dwell))
        pi = np.array([0.5, 0.3, 0.2])
        assert len(proc.start_times) == math.ceil(horizon / dwell)
        assert np.allclose(proc.start_times, dwell * np.arange(len(proc.start_times)))
        assert proc.horizon == horizon
        assert np.abs(proc.matrices @ pi).max() <= 1e-12

    def test_spps_preset_process_is_weakly_exponentially_ergodic(self):
        from flowtracker_lab.flowcore import ergodicity_report

        raw = harness.scenario_raw("spps-stationary")
        report = ergodicity_report(process_from_dict(raw["process"]), h=0.01)
        assert report.weakly_exponentially_ergodic()
        assert 0.0 < report.rate < 1.0


class TestSweep:
    def test_empty_values(self):
        assert harness.sweep(small_config(), "schedule.a0", []) == []

    def test_invalid_path(self):
        with pytest.raises(ConfigError):
            harness.sweep(small_config(), "schedule.nope", [0.5])

    def test_non_numeric_path(self):
        with pytest.raises(ConfigError):
            harness.sweep(small_config(), "dynamics.name", [0.5])

    def test_sweep_writes_table(self, tmp_path):
        results = harness.sweep(
            small_config(t_end=5.0), "schedule.a0", [0.25, 0.5], out_dir=tmp_path
        )
        assert len(results) == 2
        table = (tmp_path / "sweep.csv").read_text().splitlines()
        assert table[0].startswith("schedule.a0,")
        assert len(table) == 3

    def test_close_values_get_their_own_directories(self, tmp_path):
        # both values print as 0.123457 with six significant digits
        values = [0.1234567, 0.1234568]
        harness.sweep(small_config(), "schedule.a0", values, out_dir=tmp_path)
        dirs = sorted(p for p in tmp_path.iterdir() if p.is_dir())
        assert [p.name for p in dirs] == [f"sweep_{v!r}" for v in values]
        names = [json.loads((p / "summary.json").read_text())["name"] for p in dirs]
        assert names == [f"tiny[schedule.a0={v}]" for v in values]


class TestGates:
    def test_check_flow_two_node(self, tmp_path):
        proc = process_from_dict(
            {
                "n": 2,
                "pieces": [{"t": 0.0, "weights": [[0.0, 1.0], [1.0, 0.0]]}],
                "horizon": 10.0,
            }
        )
        report, passed = harness.check_flow(proc, h=1e-3, out_dir=tmp_path)
        assert passed
        assert report.rate == pytest.approx(np.exp(-2.0), abs=1e-3)
        assert (tmp_path / "flow_report.json").exists()
        assert (tmp_path / "flow_distances.csv").exists()

    def test_check_flow_disconnected_fails(self):
        proc = process_from_dict(
            {
                "n": 2,
                "pieces": [{"t": 0.0, "weights": [[0.0, 0.0], [0.0, 0.0]]}],
                "horizon": 10.0,
            }
        )
        _, passed = harness.check_flow(proc, h=1e-2)
        assert not passed

    def test_check_schedule(self):
        report, valid = harness.check_schedule({"kind": "power-law", "a0": 1.0, "p": 1.0})
        assert valid and report["valid"]
        report, valid = harness.check_schedule({"kind": "constant", "a0": 0.5})
        assert not valid


class TestCli:
    def test_scenario_list(self, capsys):
        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        assert "counterexample" in out

    def test_run_config_file(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(small_config()))
        code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["all_checks_passed"]
        assert (tmp_path / "out" / "trajectory.csv").exists()

    def test_run_malformed_config_exit_2(self, tmp_path, capsys):
        raw = small_config()
        raw["process"]["pieces"].append({"t": 0.015, "weights": [[0.0, 1.0], [1.0, 0.0]]})
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(raw))
        code = main(["run", "--config", str(cfg_path)])
        assert code == 2
        err = json.loads(capsys.readouterr().out)
        assert err["kind"] == "config"

    def test_run_failing_check_exit_1(self, tmp_path, capsys):
        raw = small_config(expectations=[{"kind": "y-abs-max", "max": 1e-9}])
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        assert main(["run", "--config", str(cfg_path)]) == 1

    def test_check_schedule_inline(self, capsys):
        code = main(["check-schedule", "--schedule", '{"kind":"constant","a0":0.5}'])
        assert code == 1  # constant schedules are not valid step sizes
        report = json.loads(capsys.readouterr().out)
        assert report["integral_divergent"] is True
        assert report["square_integrable"] is False

    @pytest.mark.parametrize(
        "verb", [["run"], ["sweep", "--param", "schedule.a0", "--values", "0.5"]], ids=["run", "sweep"]
    )
    def test_scenario_and_config_together_exit_2(self, tmp_path, capsys, verb):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"name": 5}))
        args = [*verb, "--scenario", "counterexample", "--config", str(cfg_path)]
        assert main(args) == 2
        err = json.loads(capsys.readouterr().out)
        assert err["kind"] == "config"
        assert "--scenario" in err["error"] and "--config" in err["error"]

    def test_sweep_cli_writes_every_run(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(small_config()))
        out = tmp_path / "out"
        args = ["--param", "schedule.a0", "--values", "0.25,0.5", "--out", str(out)]
        assert main(["sweep", "--config", str(cfg_path), *args]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines] == ["schedule.a0=0.25", "schedule.a0=0.5"]
        assert all(line.endswith("[ok]") for line in lines)
        assert len((out / "sweep.csv").read_text().splitlines()) == 3
        dirs = sorted(p.name for p in out.iterdir() if p.is_dir())
        assert dirs == ["sweep_0.25", "sweep_0.5"]

    def test_check_flow_cli_not_ergodic_exit_1(self, tmp_path, capsys):
        proc = {
            "n": 2,
            "pieces": [{"t": 0.0, "weights": [[0.0, 0.0], [0.0, 0.0]]}],
            "horizon": 10.0,
        }
        path = tmp_path / "proc.json"
        path.write_text(json.dumps(proc))
        assert main(["check-flow", "--process", str(path), "--h", "0.01"]) == 1
        captured = capsys.readouterr()
        assert json.loads(captured.out)["weakly_exponentially_ergodic"] is False
        assert captured.err == "flow is NOT weakly exponentially ergodic\n"

    def test_check_schedule_file(self, tmp_path, capsys):
        path = tmp_path / "schedule.json"
        path.write_text(json.dumps({"kind": "power-law", "a0": 1.0, "p": 1.0}))
        assert main(["check-schedule", "--schedule", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["valid"] is True

    def test_check_flow_cli(self, tmp_path, capsys):
        proc = {
            "n": 2,
            "pieces": [{"t": 0.0, "weights": [[0.0, 1.0], [1.0, 0.0]]}],
            "horizon": 10.0,
        }
        path = tmp_path / "proc.json"
        path.write_text(json.dumps(proc))
        assert main(["check-flow", "--process", str(path)]) == 0

    @pytest.mark.parametrize(
        "piece_edit",
        [
            {"pieces": "oops"},
            {"pieces": [3]},
            {"pieces": [{"t": 0.0, "weights": "x"}]},
        ],
    )
    def test_check_flow_malformed_process_exit_2(self, tmp_path, capsys, piece_edit):
        proc = {"n": 2, "horizon": 10.0, **piece_edit}
        path = tmp_path / "proc.json"
        path.write_text(json.dumps(proc))
        assert main(["check-flow", "--process", str(path)]) == 2
        assert json.loads(capsys.readouterr().out)["kind"] == "config"

    @pytest.mark.parametrize(
        "edit",
        [
            {"process": {"n": 2, "pieces": "oops", "horizon": 5.0}},
            {"init": {"x": "ab"}},
            {"init": "ab"},
        ],
    )
    def test_run_malformed_process_or_init_exit_2(self, tmp_path, capsys, edit):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(small_config(**edit)))
        assert main(["run", "--config", str(cfg_path)]) == 2
        assert json.loads(capsys.readouterr().out)["kind"] == "config"

    def test_min_cut_window_beyond_24_agents(self, tmp_path):
        raw = small_config(
            process={
                "random": {
                    "n": 32,
                    "model": "directed-ring-rotate",
                    "dwell": 0.5,
                    "horizon": 3.0,
                    "seed": 5,
                }
            },
            family=None,
            init={"random": {"scale": 1.0}},
            t_end=3.0,
            checks=["min-cut-window"],
            check_params={"min-cut-window": {"T": 1.0, "beta": 0.1}},
        )
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        out = tmp_path / "out"
        with pytest.warns(UserWarning, match="non-weight-balanced"):
            assert main(["run", "--config", str(cfg_path), "--out", str(out)]) in (0, 1)
        check = json.loads((out / "report.json").read_text())["checks"]["min-cut-window"]
        # skip 1 + (k mod 31) is coprime to 32 for even k only, so each
        # window holds one strongly connected ring piece and one cut to 0
        assert 0.25 <= check["details"]["worst_window"] <= 0.75

    def test_seed_override(self, tmp_path, capsys):
        raw = small_config(init={"random": {"scale": 0.5}})
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        main(["run", "--config", str(cfg_path), "--seed", "1"])
        first = json.loads(capsys.readouterr().out)
        main(["run", "--config", str(cfg_path), "--seed", "2"])
        second = json.loads(capsys.readouterr().out)
        assert first["digest"] != second["digest"]
