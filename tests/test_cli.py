import json

import numpy as np
import pytest

from floqscat.cli import (
    ValidationError,
    build_model,
    canonical_json,
    main,
    run_scenario,
    run_sweep,
    validate_config,
)


def write_config(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return p


CORR_CFG = {
    "task": "correspondence",
    "model": {"builtin": "rabi", "delta": 0.0, "v": 1.0},
    "parameters": {"n_modes": 8, "steps_per_period": 128, "order": 4},
}


class TestValidation:
    def test_unknown_top_level_key(self):
        with pytest.raises(ValidationError, match="config.bogus"):
            validate_config({**CORR_CFG, "bogus": 1})

    def test_unknown_task(self):
        with pytest.raises(ValidationError, match="config.task"):
            validate_config({**CORR_CFG, "task": "frobnicate"})

    def test_missing_model(self):
        cfg = {k: v for k, v in CORR_CFG.items() if k != "model"}
        with pytest.raises(ValidationError, match="config.model"):
            validate_config(cfg)

    def test_unknown_parameter_key(self):
        cfg = {**CORR_CFG, "parameters": {"n_modes": 8, "wrong": 1}}
        with pytest.raises(ValidationError, match="parameters.wrong"):
            run_scenario(cfg)

    def test_model_spec_exclusive(self):
        with pytest.raises(ValidationError, match="exactly one"):
            build_model({"builtin": "rabi", "file": "x.json"})

    def test_lattice_support_validated(self):
        with pytest.raises(ValidationError, match="lattice"):
            build_model({"lattice": {"sites": 16, "support": [99]}})

    def test_exit_code_2_names_field(self, tmp_path, capsys):
        p = write_config(tmp_path, {**CORR_CFG, "parameters": {"n_modes": 8, "zzz": 0}})
        code = main(["--config", str(p), "--out", str(tmp_path)])
        assert code == 2
        assert "parameters.zzz" in capsys.readouterr().err


    def test_bool_rejected_for_int(self, tmp_path, capsys):
        p = write_config(tmp_path, {"task": "floquet-spectrum", "model": {"builtin": "rabi"},
                                    "parameters": {"n_modes": True}})
        assert main(["--config", str(p), "--out", str(tmp_path)]) == 2
        assert "parameters.n_modes" in capsys.readouterr().err

    def test_bool_rejected_for_float(self):
        with pytest.raises(ValidationError, match="model.delta"):
            build_model({"builtin": "rabi", "delta": False})

    def test_sweep_over_unknown_parameter_exit_2(self, tmp_path, capsys):
        cfg = {**CORR_CFG, "sweep": {"parameter": "n_mode", "values": [4, 8]}}
        p = write_config(tmp_path, cfg)
        assert main(["--config", str(p), "--out", str(tmp_path)]) == 2
        assert "parameters.n_mode" in capsys.readouterr().err

    def test_mode_cutoff_without_interior_states_exit_2(self, tmp_path, capsys):
        cfg = {
            "task": "bound-states",
            "model": {"lattice": {"sites": 40, "hopping": 1.0, "well_depth": -1.8,
                                  "drive_amp": 0.5, "support_width": 4}},
            "parameters": {"steps_per_period": 8, "order": 2, "n_modes": 2, "verify": False},
        }
        p = write_config(tmp_path, cfg)
        assert main(["--config", str(p), "--out", str(tmp_path)]) == 2
        assert "parameters.n_modes" in capsys.readouterr().err

    def test_scan_modes_below_mode_support(self):
        cfg = {"task": "bound-states",
               "model": {"lattice": {"sites": 40, "well_depth": -1.8, "drive_amp": 0.5}},
               "parameters": {"steps_per_period": 8, "order": 2, "scan_modes": 0}}
        with pytest.raises(ValidationError, match="parameters.scan_modes"):
            run_scenario(cfg)

    def test_wave_operators_floquet_modes_2_exit_2(self, tmp_path, capsys):
        cfg = {
            "task": "wave-operators",
            "model": {"lattice": {"sites": 256, "hopping": 1.0, "well_depth": -0.8,
                                  "drive_amp": 0.5, "support_width": 5}},
            "parameters": {"steps_per_period": 8, "order": 2, "floquet_modes": 2},
        }
        p = write_config(tmp_path, cfg)
        assert main(["--config", str(p), "--out", str(tmp_path)]) == 2
        assert "parameters.floquet_modes" in capsys.readouterr().err


    def test_nan_in_model_file_exit_2(self, tmp_path, capsys):
        from floqscat.model import model_to_json_dict, rabi_model

        doc = model_to_json_dict(rabi_model())
        doc["H0"][0][0][0] = float("nan")
        model_path = tmp_path / "nan-model.json"
        model_path.write_text(json.dumps(doc))
        p = write_config(tmp_path, {"task": "floquet-spectrum", "model": {"file": str(model_path)},
                                    "parameters": {"n_modes": 4}})
        assert main(["--config", str(p), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "model.file" in err and "H0" in err and "non-finite" in err

    def test_nan_float_field_exit_2(self, tmp_path, capsys):
        p = write_config(tmp_path, {"task": "floquet-spectrum",
                                    "model": {"builtin": "rabi", "delta": float("nan")},
                                    "parameters": {"n_modes": 4}})
        assert main(["--config", str(p), "--out", str(tmp_path)]) == 2
        assert "model.delta" in capsys.readouterr().err

    def test_average_window_out_of_range_exit_2(self, tmp_path, capsys):
        cfg = {"task": "wave-operators",
               "model": {"lattice": {"sites": 64, "well_depth": -0.8, "drive_amp": 0.5}},
               "parameters": {"steps_per_period": 8, "average_window": 2.0}}
        p = write_config(tmp_path, cfg)
        assert main(["--config", str(p), "--out", str(tmp_path)]) == 2
        assert "parameters.average_window" in capsys.readouterr().err


class TestRunScenario:
    def test_correspondence_constant_model(self, tmp_path):
        model_path = tmp_path / "const.json"
        from floqscat.model import PeriodicHamiltonian, save_model

        save_model(PeriodicHamiltonian(h0=np.diag([0.3, 1.2])), model_path)
        cfg = {
            "task": "correspondence",
            "model": {"file": str(model_path)},
            "parameters": {"n_modes": 4, "steps_per_period": 64, "order": 2},
        }
        report = run_scenario(cfg)
        assert report["results"]["max_match_distance"] < 1e-9

    def test_resolvent_check_scalar_free(self, tmp_path):
        model_path = tmp_path / "d1.json"
        from floqscat.model import PeriodicHamiltonian, save_model

        save_model(PeriodicHamiltonian(h0=np.zeros((1, 1))), model_path)
        cfg = {
            "task": "resolvent-check",
            "model": {"file": str(model_path)},
            "parameters": {"lambda": [0.0, 1.0], "n_t": 256},
        }
        report = run_scenario(cfg)
        val = report["results"]["r0_constant_value"][0]
        assert abs(complex(val[0], val[1]) - 1j) < 2e-6

    def test_wave_operators_free_ring(self):
        cfg = {
            "task": "wave-operators",
            "model": {"lattice": {"sites": 128, "hopping": 1.0,
                                  "well_depth": 0.0, "drive_amp": 0.0,
                                  "support": [64]}},
            "parameters": {"steps_per_period": 64, "order": 2, "n_max": 12},
        }
        report = run_scenario(cfg)
        res = report["results"]
        assert res["unitarity_defect"] <= 1e-12
        assert res["intertwining_defect"] <= 1e-12
        assert res["bound_states"] == []
        s = np.array(res["s_matrix"])
        s_c = s[..., 0] + 1j * s[..., 1]
        assert np.abs(s_c - np.eye(len(s_c))).max() <= 1e-12

    def test_monodromy_report(self):
        cfg = {
            "task": "monodromy",
            "model": {"builtin": "rabi"},
            "parameters": {"steps_per_period": 64, "order": 4},
        }
        report = run_scenario(cfg)
        assert report["results"]["unitarity_defect"] <= 1e-10
        assert len(report["results"]["quasi_energies"]) == 2


class TestReportEncoding:
    def test_booleans_written_as_json_booleans(self):
        payload = canonical_json({"confirmed": True, "flag": np.bool_(False), "count": 1})
        assert payload == '{"confirmed":true,"count":1,"flag":false}'

    def test_config_echo_keeps_booleans(self):
        cfg = {"task": "monodromy", "model": {"builtin": "rabi"},
               "parameters": {"steps_per_period": 16, "order": 2, "self_convergence": False}}
        report = run_scenario(cfg)
        assert report["config_echo"]["parameters"]["self_convergence"] is False
        assert '"self_convergence":false' in canonical_json(report)


class TestDeterminism:
    def test_rerun_identical_payload(self, tmp_path):
        p = write_config(tmp_path, CORR_CFG)
        code1 = main(["--config", str(p), "--out", str(tmp_path / "a")])
        code2 = main(["--config", str(p), "--out", str(tmp_path / "b")])
        assert code1 == code2 == 0
        a = (tmp_path / "a" / "cfg.report.json").read_bytes()
        b = (tmp_path / "b" / "cfg.report.json").read_bytes()
        assert a == b

    def test_seeded_probes_deterministic(self, tmp_path):
        cfg = {
            "task": "wave-operators",
            "model": {"lattice": {"sites": 128, "hopping": 1.0,
                                  "well_depth": 0.0, "drive_amp": 0.0,
                                  "support": [64]}},
            "parameters": {"steps_per_period": 64, "order": 2, "n_max": 12},
        }
        p = write_config(tmp_path, cfg)
        main(["--config", str(p), "--out", str(tmp_path / "a"), "--seed", "42"])
        main(["--config", str(p), "--out", str(tmp_path / "b"), "--seed", "42"])
        a = (tmp_path / "a" / "cfg.report.json").read_bytes()
        b = (tmp_path / "b" / "cfg.report.json").read_bytes()
        assert a == b

    def test_echoed_config_revalidates(self, tmp_path):
        report = run_scenario(CORR_CFG)
        echoed = report["config_echo"]
        report2 = run_scenario(echoed)
        assert report2["results"] == report["results"]
        assert report2["config_sha256"] == report["config_sha256"]


class TestSweep:
    def test_correspondence_sweep_monotone(self, tmp_path):
        cfg = {**CORR_CFG, "sweep": {"parameter": "n_modes", "values": [8, 16, 32]}}
        rows = run_sweep(cfg)
        assert [r["status"] for r in rows] == ["ok"] * 3
        # headline matching distance column decreases monotonically
        vals = [r["headline_value"] for r in rows]
        assert vals[0] > vals[1] > vals[2]

    def test_monodromy_step_sweep_order_ratios(self):
        cfg = {
            "task": "monodromy",
            "model": {"builtin": "rabi"},
            "parameters": {"order": 4},
            "sweep": {"parameter": "steps_per_period", "values": [64, 128, 256]},
        }
        rows = run_sweep(cfg)
        diffs = [r["headline_value"] for r in rows]
        for ratio in (diffs[0] / diffs[1], diffs[1] / diffs[2]):
            assert 0.8 * 16 <= ratio <= 1.2 * 16

    def test_block_q_eta_sweep_monotone(self):
        cfg = {
            "task": "resolvent-check",
            "model": {"builtin": "fleet-d3"},
            "parameters": {"n_t": 64, "n_modes": 8},
            "sweep": {"parameter": "eta", "values": [4.0, 16.0, 64.0, 256.0]},
        }
        rows = run_sweep(cfg)
        vals = [r["headline_value"] for r in rows]
        assert vals[0] > vals[1] > vals[2] > vals[3]

    def test_failed_row_marked_sweep_continues(self):
        cfg = {
            "task": "floquet-spectrum",
            "model": {"builtin": "fleet-d3"},
            "parameters": {},
            "sweep": {"parameter": "n_modes", "values": [1, 8]},
        }
        rows = run_sweep(cfg)  # n_modes=1 below mode support: fails, continues
        assert rows[0]["status"].startswith("failed")
        assert rows[1]["status"] == "ok"

    def test_sweep_csv_written(self, tmp_path):
        cfg = {**CORR_CFG, "sweep": {"parameter": "n_modes", "values": [4, 8]}}
        p = write_config(tmp_path, cfg, "sw.json")
        code = main(["--config", str(p), "--out", str(tmp_path)])
        assert code == 0
        text = (tmp_path / "sw.sweep.csv").read_text()
        header = text.splitlines()[0].split(",")
        assert header[:4] == ["parameter", "value", "headline", "headline_value"]
        assert len(text.splitlines()) == 3


class TestExitCodes:
    def test_numerical_failure_exit_3(self, tmp_path, capsys):
        # horizon too short for convergence on a small ring with a deep well
        cfg = {
            "task": "wave-operators",
            "model": {"lattice": {"sites": 64, "hopping": 1.0, "well_depth": -2.0,
                                  "drive_amp": 0.5, "support_width": 5}},
            "parameters": {"steps_per_period": 32, "order": 2, "n_max": 8,
                           "floquet_modes": 2},
        }
        p = write_config(tmp_path, cfg)
        code = main(["--config", str(p), "--out", str(tmp_path)])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_detector_disagreement_exit_3(self, tmp_path, capsys):
        # a coarse monodromy misplaces the bound phase against the mode space
        cfg = {
            "task": "bound-states",
            "model": {"lattice": {"sites": 40, "hopping": 1.0, "well_depth": -1.8,
                                  "drive_amp": 0.5, "support_width": 4}},
            "parameters": {"steps_per_period": 8, "order": 2, "n_modes": 8, "verify": False},
        }
        p = write_config(tmp_path, cfg)
        assert main(["--config", str(p), "--out", str(tmp_path)]) == 3
        assert "not reproduced by the mode-space spectrum" in capsys.readouterr().err

    def test_null_scan_nonconvergence_exit_3(self, tmp_path, capsys, monkeypatch):
        import floqscat.resolvent as resolvent

        monkeypatch.setattr(resolvent, "INVERSE_ITERATION_MAXITER", 1)
        cfg = {
            "task": "bound-states",
            "model": {"lattice": {"sites": 40, "hopping": 1.0, "well_depth": -1.8,
                                  "drive_amp": 0.5, "support_width": 4}},
            "parameters": {"steps_per_period": 64, "n_modes": 8, "scan_modes": 4},
        }
        p = write_config(tmp_path, cfg)
        assert main(["--config", str(p), "--out", str(tmp_path)]) == 3
        assert "did not settle" in capsys.readouterr().err

    def test_jobs_fan_out(self, tmp_path):
        p1 = write_config(tmp_path, CORR_CFG, "one.json")
        p2 = write_config(tmp_path, {**CORR_CFG, "parameters": {"n_modes": 4}}, "two.json")
        code = main(["--config", str(p1), "--config", str(p2),
                     "--out", str(tmp_path), "--jobs", "2"])
        assert code == 0
        assert (tmp_path / "one.report.json").exists()
        assert (tmp_path / "two.report.json").exists()
