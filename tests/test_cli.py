import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import floqscat
import floqscat.resolvent as resolvent
from floqscat.cli import (
    RUNNERS,
    NonFiniteError,
    ValidationError,
    _jsonable,
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

    @pytest.mark.parametrize("n_modes", [1, 2])
    def test_correspondence_cutoff_without_interior_states_exit_2(self, tmp_path, capsys,
                                                                  n_modes):
        # n_modes <= EDGE_BLOCKS: every Rabi mode-space state is an edge state
        cfg = {**CORR_CFG, "parameters": {**CORR_CFG["parameters"], "n_modes": n_modes}}
        p = write_config(tmp_path, cfg)
        assert main(["--config", str(p), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "parameters.n_modes" in err and "Traceback" not in err

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

    def test_wave_operators_form_no_power_of_theta(self, monkeypatch):
        # Theta^{+-n_max} acts through the monodromy's eigenbasis: no L x L power
        monkeypatch.setattr(np.linalg, "matrix_power", lambda *a, **kw: pytest.fail("power"))
        cfg = {
            "task": "wave-operators",
            "model": {"lattice": {"sites": 256, "well_depth": -0.8, "drive_amp": 0.5}},
            "parameters": {"steps_per_period": 64, "order": 4, "floquet_modes": 4},
        }
        res = run_scenario(cfg)["results"]
        assert res["converged_fraction"] == 1.0
        assert res["time_averaged_agreement"] <= 1e-3

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

    def test_report_written_as_the_walked_dump(self, tmp_path):
        # write_report serializes once; its bytes equal json.dump of the report
        # walked by _jsonable again, and a non-finite value is still refused
        import floqscat.cli as cli

        report = run_scenario(CORR_CFG)
        cli.write_report(report, tmp_path / "r.json")
        with open(tmp_path / "walked.json", "w") as f:
            json.dump(_jsonable(report), f, sort_keys=True, indent=2, allow_nan=False)
            f.write("\n")
        assert (tmp_path / "r.json").read_bytes() == (tmp_path / "walked.json").read_bytes()
        with pytest.raises(ValueError, match="JSON compliant"):
            cli.write_report({**report, "results": {"x": float("nan")}}, tmp_path / "nan.json")

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

    @pytest.mark.parametrize("task, params, sweep", [
        # a list value, and a failed row's status "... expected one of (2, 4)"
        ("resolvent-check", {"n_t": 16, "n_modes": 4},
         {"parameter": "lambda", "values": [[0.5, 1.0]]}),
        ("monodromy", {"steps_per_period": 16}, {"parameter": "order", "values": [3, 4]}),
    ])
    def test_sweep_csv_field_with_comma_quoted(self, tmp_path, task, params, sweep):
        cfg = {"task": task, "model": {"builtin": "rabi"}, "parameters": params, "sweep": sweep}
        p = write_config(tmp_path, cfg, "sw.json")
        assert main(["--config", str(p), "--out", str(tmp_path)]) == 0
        with open(tmp_path / "sw.sweep.csv", newline="") as f:
            table = list(csv.reader(f))
        assert [len(row) for row in table] == [6] * (1 + len(sweep["values"]))
        assert [row[1] for row in table[1:]] == [str(v) for v in sweep["values"]]


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

    def test_non_unitary_monodromy_exit_3(self, tmp_path, monkeypatch):
        # check_unitary's NonUnitaryError is a numerical failure, not a crash
        import floqscat.cli as cli
        import floqscat.propagation as propagation

        monkeypatch.setattr(propagation, "period_operator",
                            lambda h, *args: 1.001 * np.eye(h.dim, dtype=complex))
        cfg = {"task": "monodromy", "model": {"builtin": "rabi"},
               "parameters": {"steps_per_period": 8, "order": 2, "self_convergence": False}}
        path, code, message = cli._run_one(str(write_config(tmp_path, cfg)), str(tmp_path), None)
        assert (path, code) == (None, 3)
        assert message.startswith("numerical failure") and "not unitary" in message

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

    def test_taylor_plan_above_the_ceiling_exit_2(self, tmp_path):
        # rejected when the stepper is planned, not after half a minute of steps
        import time

        import floqscat.cli as cli

        cfg = {"task": "monodromy", "model": {"builtin": "rabi", "v": 1e6},
               "parameters": {"steps_per_period": 8, "order": 2, "self_convergence": False}}
        begin = time.perf_counter()
        path, code, message = cli._run_one(str(write_config(tmp_path, cfg)), str(tmp_path), None)
        assert time.perf_counter() - begin < 1.0
        assert (path, code) == (None, 2)
        assert "parameters.steps_per_period" in message


class TestWindowRouteReport:
    def test_report_matches_the_dense_route(self, monkeypatch):
        # every field of a 256-site wave-operators report, with Theta from the
        # window block and with Theta stepped on the whole ring
        import floqscat.propagation as propagation
        from report_diff import report_differences

        cfg = {"task": "wave-operators",
               "model": {"lattice": {"sites": 256, "hopping": 1.0, "well_depth": -0.8,
                                     "drive_amp": 0.5, "support_width": 5}},
               "parameters": {"steps_per_period": 64, "order": 4, "translates": 2,
                              "average_window": 1.0, "floquet_modes": 3}}
        routes, inner = set(), propagation.window_block

        def spy(h, *args):   # also called on the segment, which is stepped whole
            block = inner(h, *args)
            routes.add((h.dim, block is not None))
            return block

        monkeypatch.setattr(propagation, "window_block", spy)
        shipped = run_scenario(cfg, seed=1)
        assert routes == {(256, True), (5 + 4 * 19, False)}
        monkeypatch.setattr(propagation, "window_block", lambda *args: None)
        dense = run_scenario(cfg, seed=1)
        diffs = report_differences(shipped, dense)   # ints, bools and strings equal
        assert max(diffs.values()) <= 1e-11, diffs
        assert "report.results.s_matrix" in diffs
        assert [b["multiplicity"] for b in shipped["results"]["bound_states"]] == \
            [b["multiplicity"] for b in dense["results"]["bound_states"]]


class TestCollidingProbes:
    def test_ring_scatter_seed_407_passes_criterion_7(self):
        # the probe jitter at seed 407 puts two packets on one ring index, so
        # the free orbit's columns repeat; the S-matrix basis must still span it
        from floqscat.scattering import make_probes

        cfg = {"task": "wave-operators",
               "model": {"lattice": {"sites": 256, "hopping": 1.0, "well_depth": -0.8,
                                     "drive_amp": 0.5, "support_width": 5}},
               "parameters": {"steps_per_period": 64, "order": 4, "translates": 2,
                              "average_window": 1.0, "floquet_modes": 3}}
        phi = make_probes(build_model(cfg["model"]), rng=np.random.default_rng(407)).vectors
        assert (np.abs(phi.conj().T @ phi) - np.eye(phi.shape[1])).max() >= 1 - 1e-12
        res = run_scenario(cfg, seed=407)["results"]
        assert res["converged_fraction"] >= 0.9
        assert res["isometry_defect"] <= 1e-3
        assert res["unitarity_defect"] <= 5e-3
        assert res["intertwining_defect"] <= 5e-3


DRIVEN_RING = {"lattice": {"sites": 40, "hopping": 1.0, "well_depth": -1.8,
                           "drive_amp": 0.5, "support_width": 4}}


class TestModeCutoff:
    @pytest.mark.parametrize("task, model, params, field", [
        ("floquet-spectrum", {"builtin": "rabi"}, {"n_modes": 0}, "n_modes"),
        ("correspondence", {"builtin": "rabi"}, {"n_modes": 0, "steps_per_period": 16},
         "n_modes"),
        ("bound-states", DRIVEN_RING, {"n_modes": 0, "steps_per_period": 8}, "n_modes"),
        ("wave-operators", DRIVEN_RING, {"floquet_modes": 0, "steps_per_period": 8},
         "floquet_modes"),
    ])
    def test_cutoff_below_mode_support_exit_2(self, tmp_path, capsys, task, model, params,
                                              field):
        p = write_config(tmp_path, {"task": task, "model": model, "parameters": params})
        assert main(["--config", str(p), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"parameters.{field}" in err and "mode support" in err
        # swept, the same cutoff fails its row only, naming the field
        [row] = run_sweep({"task": task, "model": model, "parameters": params,
                           "sweep": {"parameter": field, "values": [0]}})
        assert row["status"].startswith("failed") and f"parameters.{field}" in row["status"]

    def test_cutoff_of_other_field_rejects_sweep(self):
        cfg = {"task": "correspondence", "model": {"builtin": "rabi"},
               "parameters": {"n_modes": 0, "steps_per_period": 16},
               "sweep": {"parameter": "order", "values": [2, 4]}}
        with pytest.raises(ValidationError, match="parameters.n_modes"):
            run_sweep(cfg)


class TestMultiConfig:
    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_written_reports_listed_when_one_fails(self, tmp_path, capsys, jobs):
        bad = write_config(tmp_path, {**CORR_CFG, "parameters": {"n_modes": 0}}, "bad.json")
        good = write_config(tmp_path, {**CORR_CFG, "parameters": {"n_modes": 4}}, "good.json")
        binary = tmp_path / "binary.json"   # not UTF-8: a BOM of UTF-16
        binary.write_bytes(b"\xff\xfe{}")
        code = main(["--config", str(bad), "--config", str(good), "--config", str(binary),
                     "--out", str(tmp_path), "--jobs", jobs])
        out, err = capsys.readouterr()
        assert code == 2
        assert out.split() == [str(tmp_path / "good.report.json")]
        assert (tmp_path / "good.report.json").exists()
        assert "parameters.n_modes" in err
        assert "cannot read config" in err and "Traceback" not in err

    def test_largest_code_wins(self, tmp_path, capsys):
        bad = write_config(tmp_path, {**CORR_CFG, "parameters": {"n_modes": 0}}, "bad.json")
        failing = write_config(tmp_path, {
            "task": "bound-states", "model": DRIVEN_RING,
            "parameters": {"steps_per_period": 8, "order": 2, "n_modes": 8, "verify": False},
        }, "failing.json")
        code = main(["--config", str(failing), "--config", str(bad), "--out", str(tmp_path),
                     "--jobs", "2"])
        assert code == 3
        err = capsys.readouterr().err
        assert "not reproduced by the mode-space spectrum" in err and "parameters.n_modes" in err


class TestStrictJson:
    def test_every_config_report_parses_as_strict_json(self, tmp_path):
        configs = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))
        assert len(configs) == 8
        args = [arg for c in configs for arg in ("--config", str(c))]
        assert main([*args, "--out", str(tmp_path)]) == 0

        def reject(constant):
            raise ValueError(f"non-finite constant {constant}")

        reports = sorted(tmp_path.glob("*.json"))
        assert len(reports) == 6
        for report in reports:
            json.loads(report.read_text(), parse_constant=reject)
        tables = sorted(tmp_path.glob("*.csv"))   # sweep rows run through the same check
        assert len(tables) == 2 and all("non-finite" not in t.read_text() for t in tables)

    def test_non_finite_value_exit_3_names_key_path(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setitem(RUNNERS, "floquet-spectrum",
                            lambda model, params, rng: {"gaps": {"last": [0.5, np.inf]}})
        cfg = {"task": "floquet-spectrum", "model": {"builtin": "rabi"},
               "parameters": {"n_modes": 4}}
        p = write_config(tmp_path, cfg)
        assert main(["--config", str(p), "--out", str(tmp_path)]) == 3
        assert "non-finite value inf at results.gaps.last[1]" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.report.json"))

    def test_non_finite_array_entry_named(self):
        table = np.ones((2, 2), complex)
        table[1, 0] = complex(3.0, np.nan)   # [re, im] pairs: the imaginary part is index 1
        with pytest.raises(NonFiniteError, match=r"nan at results\.table\[1\]\[0\]\[1\]"):
            _jsonable({"table": table}, "results")
        assert _jsonable({"ok": np.array([1.0, -2.5])}) == {"ok": [1.0, -2.5]}


class TestImportGraph:
    @staticmethod
    def loaded_after_import(modules):
        """Which of `modules` a fresh interpreter has loaded after `import floqscat.cli`."""
        src = str(Path(floqscat.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run(
            [sys.executable, "-c",
             f"import sys, floqscat.cli; print([m in sys.modules for m in {modules!r}])"],
            env=env, capture_output=True, text=True, check=True)
        return out.stdout.strip()

    def test_cli_import_leaves_scipy_optimize_unloaded(self):
        assert self.loaded_after_import(["scipy.optimize"]) == "[False]"

    def test_cli_import_leaves_arpack_unloaded(self):
        # eigsh is imported by the bound-state cross-check's ARPACK branch only
        assert self.loaded_after_import(["scipy.sparse.linalg"]) == "[False]"


class TestMemory:
    """A wave-operators run holds each L x L array once, and only while it is read."""

    RING_SCATTER = {"task": "wave-operators",
                    "model": {"lattice": {"sites": 256, "hopping": 1.0, "well_depth": -0.8,
                                          "drive_amp": 0.5, "support_width": 5}},
                    "parameters": {"steps_per_period": 64, "order": 4, "translates": 2,
                                   "average_window": 1.0, "floquet_modes": 3}}

    def test_ring_scatter_peak_and_holdings(self, monkeypatch):
        import tracemalloc

        import floqscat.cli as cli
        from floqscat.propagation import PropagatorSchedule, _with_block, period_operator

        seen = {"model": [], "mono": [], "waves": []}

        def keep(name, make):
            def spy(*args, **kwargs):
                out = make(*args, **kwargs)
                seen[name].append(out)
                return out
            return spy

        monkeypatch.setattr(cli, "build_model", keep("model", cli.build_model))
        monkeypatch.setattr(cli, "monodromy", keep("mono", cli.monodromy))
        monkeypatch.setattr(cli, "stroboscopic_wave_op", keep("waves", cli.stroboscopic_wave_op))
        tracemalloc.start()
        try:
            run_scenario(self.RING_SCATTER, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        sites = 256
        side = sites * sites * 16          # one L x L complex matrix, in bytes
        assert peak <= 11 * side

        [model], [mono], waves = seen["model"], seen["mono"], seen["waves"]
        assert set(vars(model.free_eig)) == {"values", "vectors"}     # no adjoint kept
        assert len(waves) == 2
        for w in waves:
            blocks = [v for v in vars(w).values()
                      if isinstance(v, np.ndarray) and v.ndim == 2 and sites in v.shape]
            assert [b.shape for b in blocks] == [(sites, w.probe_set.count)]
            assert not any(isinstance(v, list) for v in vars(w).values())
        # on the window route Theta is formed when read, with the bits it was
        # diagonalized with
        assert mono.window is not None and mono.theta is None
        theta = mono.operator
        assert theta.tobytes() == _with_block(model.free_period, mono.window,
                                              mono.block).tobytes()
        assert theta.tobytes() == period_operator(model, 0.0,
                                                  PropagatorSchedule(64, 4)).tobytes()


class TestBoundStateScenario:
    def test_scan_operators_built_once_per_scenario(self, monkeypatch):
        built = []
        floquet_operator = resolvent.floquet_operator
        monkeypatch.setattr(resolvent, "floquet_operator",
                            lambda *args: built.append(args) or floquet_operator(*args))
        cfg = {"task": "bound-states",
               "model": {"lattice": {"sites": 40, "hopping": 1.0, "well_depth": -1.7,
                                     "drive_amp": 0.45, "support_width": 3}},
               "parameters": {"steps_per_period": 256, "n_modes": 8, "scan_modes": 4}}
        results = run_scenario(cfg)["results"]
        assert results["n_bound"] == 2
        assert all(v["confirmed"] for v in results["verdicts"])
        # one K per cutoff: the scan's cross-check at n_modes, the verdicts at scan_modes
        assert [n for _, n in built] == [8, 4]


RABI = {"builtin": "rabi"}
RING_64 = {"lattice": {"sites": 64, "well_depth": -0.8, "drive_amp": 0.5}}


class TestOneMonodromyPerScenario:
    @pytest.mark.parametrize("task, model, params", [
        ("monodromy", RABI, {"steps_per_period": 16}),
        ("correspondence", RABI, {"steps_per_period": 16, "n_modes": 4}),
        ("wave-operators", {"lattice": {"sites": 128, "well_depth": 0.0, "drive_amp": 0.0,
                                        "support": [64]}},
         {"steps_per_period": 16, "order": 2, "n_max": 12}),
        ("bound-states", {"lattice": {"sites": 40, "well_depth": -1.7, "drive_amp": 0.45,
                                      "support_width": 3}},
         {"steps_per_period": 256, "n_modes": 8, "scan_modes": 4}),
    ])
    def test_theta_built_once_at_the_start(self, monkeypatch, task, model, params):
        # every floqscat module that holds monodromy() reaches the spy
        import floqscat.propagation as propagation

        starts, monodromy = [], propagation.monodromy

        def spy(h, s=0.0, *args, **kwargs):
            starts.append(s)
            return monodromy(h, s, *args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("floqscat") and getattr(module, "monodromy", None) is monodromy:
                monkeypatch.setattr(module, "monodromy", spy)
        run_scenario({"task": task, "model": model, "parameters": {**params, "start": 0.25}})
        assert starts == [0.25]

    @pytest.mark.parametrize("start, reduced", [(1e17, 0.0), (1.25, 0.25)])
    def test_start_taken_mod_one(self, start, reduced):
        # Theta(s) has period 1 in s; stepped from 1e17, s + 1/2 == s would give I
        def results(s):
            cfg = {"task": "monodromy", "model": RABI,
                   "parameters": {"steps_per_period": 16, "start": s}}
            return run_scenario(cfg)["results"]

        assert results(start) == results(reduced)


class TestFieldTables:
    @pytest.mark.parametrize("task, model, params, field", [
        ("monodromy", RABI, {"steps_per_period": 4}, "parameters.steps_per_period"),
        ("monodromy", RABI, {"steps_per_period": -8}, "parameters.steps_per_period"),
        ("monodromy", RABI, {"order": 3}, "parameters.order"),
        ("resolvent-check", RABI, {"lambda": [2.0, 1.0], "n_t": 0}, "parameters.n_t"),
        ("resolvent-check", RABI, {"lambda": [2.0, 1.0], "n_modes": -1}, "parameters.n_modes"),
        ("resolvent-check", RABI, {"eta": 0.0}, "parameters.eta"),
        ("resolvent-check", RABI, {"eta": 1000.0}, "parameters.eta"),
        # a cutoff of 0 truncates the Rabi drive away (block_q_norm would read 0.0)
        ("resolvent-check", RABI, {"lambda": [2.0, 1.0], "n_modes": 0}, "parameters.n_modes"),
        ("resolvent-check", RABI, {"lambda": [2.0, 1.0], "eta": 1.0}, "parameters.lambda"),
        ("resolvent-check", RABI, {"lambda": [2.0, float("nan")]}, "parameters.lambda[1]"),
        ("resolvent-check", RABI, {"lambda": [2.0, 10**400]}, "parameters.lambda[1]"),
        ("wave-operators", RING_64, {"steps_per_period": 8, "n_max": 100}, "parameters.n_max"),
        ("wave-operators", RING_64, {"steps_per_period": 8, "n_max": 0}, "parameters.n_max"),
        ("wave-operators", RING_64, {"steps_per_period": 8, "translates": -1},
         "parameters.translates"),
        ("monodromy", {"lattice": 5}, {}, "model.lattice"),
        ("bound-states", {"lattice": {"sites": 40, "support": [1.5]}}, {},
         "model.lattice.support[0]"),
        ("wave-operators", {"lattice": {"sites": 64, "hopping": 0.0}}, {"steps_per_period": 8},
         "model.lattice.hopping"),
        ("wave-operators", {"lattice": {"sites": 64, "hopping": 0.0}},
         {"steps_per_period": 8, "n_max": 3}, "model.lattice.hopping"),
        ("floquet-spectrum", {"builtin": "fleet-d3", "delta": 5.0, "v": -3.0}, {"n_modes": 2},
         "model.delta"),
        # the default n_max, the horizon 64 / (8 x 1e-9), is above the iterate ceiling
        ("wave-operators", {"lattice": {"sites": 64, "hopping": 1e-9}}, {"steps_per_period": 8},
         "parameters.n_max"),
        ("wave-operators", {"lattice": {"sites": 64, "hopping": 1e-4}},
         {"steps_per_period": 8, "n_max": 2**12 + 1}, "parameters.n_max"),
    ])
    def test_invalid_input_exit_2_names_field(self, tmp_path, capsys, task, model, params, field):
        p = write_config(tmp_path, {"task": task, "model": model, "parameters": params})
        assert main(["--config", str(p), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"'{field}'" in err and "Traceback" not in err
        assert not list(tmp_path.glob("*.report.json"))

    def test_output_path_type_exit_2(self, tmp_path, capsys):
        p = write_config(tmp_path, {**CORR_CFG, "output": {"path": 5}})
        assert main(["--config", str(p), "--out", str(tmp_path)]) == 2
        assert "config.output.path" in capsys.readouterr().err

    def test_model_file_not_an_object_exit_2(self, tmp_path, capsys):
        model_path = tmp_path / "list-model.json"
        model_path.write_text(json.dumps(["dim", "H0", "modes", "label"]))
        p = write_config(tmp_path, {"task": "floquet-spectrum", "model": {"file": str(model_path)},
                                    "parameters": {"n_modes": 2}})
        assert main(["--config", str(p), "--out", str(tmp_path)]) == 2
        assert "model.file" in capsys.readouterr().err

    def test_negative_seed_exit_2(self, tmp_path, capsys):
        p = write_config(tmp_path, CORR_CFG)
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(p), "--out", str(tmp_path), "--seed", "-1"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err

    def test_defaults_filled_from_model(self):
        from floqscat.cli import PARAMETERS, parse
        from floqscat.scattering import wrap_horizon

        model = build_model(RING_64)
        params = parse({"translates": 1}, PARAMETERS["wave-operators"], "parameters", model)
        assert params == {"steps_per_period": 512, "order": 4, "start": 0.0,
                          "n_max": wrap_horizon(model), "translates": 1,
                          "average_window": 1.0, "floquet_modes": 8}

    def test_iterate_ceiling(self):
        # a horizon of 8e9 iterates: refused by default, an explicit n_max within the
        # ceiling accepted
        from floqscat.cli import MAX_ITERATES, PARAMETERS, ValueRangeError, parse

        table, model = PARAMETERS["wave-operators"], build_model({"lattice": {"sites": 64,
                                                                             "hopping": 1e-9}})
        with pytest.raises(ValueRangeError, match="iterate ceiling"):
            parse({}, table, "parameters", model)
        assert parse({"n_max": MAX_ITERATES}, table, "parameters", model)["n_max"] == MAX_ITERATES

    def test_int_accepted_as_float(self):
        from floqscat.cli import PARAMETERS, parse

        params = parse({"lambda": [2, 1]}, PARAMETERS["resolvent-check"], "parameters",
                       build_model(RABI))
        assert params["lambda"] == [2.0, 1.0] and all(type(x) is float for x in params["lambda"])

    def test_table_reads_library_bounds(self):
        from floqscat.cli import PARAMETERS, ValueRangeError, parse
        from floqscat.propagation import MIN_STEPS, ORDERS, PropagatorSchedule

        table, model = PARAMETERS["monodromy"], build_model(RABI)
        for steps, order in ((MIN_STEPS - 1, ORDERS[0]), (MIN_STEPS, max(ORDERS) + 1)):
            with pytest.raises(ValueError):
                PropagatorSchedule(steps, order)
            with pytest.raises(ValueRangeError):
                parse({"steps_per_period": steps, "order": order}, table, "parameters", model)
        parse({"steps_per_period": MIN_STEPS, "order": ORDERS[0]}, table, "parameters", model)

    @pytest.mark.parametrize("task, model, params, field, value", [
        ("wave-operators", RING_64, {"steps_per_period": 8}, "average_window", 2.0),
        ("wave-operators", RING_64, {"steps_per_period": 8}, "n_max", 100),
        ("resolvent-check", RABI, {"n_t": 16}, "eta", 0.0),
        ("monodromy", RABI, {}, "order", 3),
    ])
    def test_swept_range_complaint_fails_its_row(self, task, model, params, field, value):
        [row] = run_sweep({"task": task, "model": model, "parameters": params,
                           "sweep": {"parameter": field, "values": [value]}})
        assert row["status"].startswith("failed") and f"parameters.{field}" in row["status"]

    def test_sweep_continues_past_failed_row(self):
        rows = run_sweep({"task": "monodromy", "model": RABI, "parameters": {"order": 2},
                          "sweep": {"parameter": "steps_per_period", "values": [4, 16]}})
        assert rows[0]["status"].startswith("failed: invalid field 'parameters.steps_per_period'")
        assert rows[1]["status"] == "ok"

    def test_swept_type_error_stops_sweep(self):
        with pytest.raises(ValidationError, match="parameters.steps_per_period"):
            run_sweep({"task": "monodromy", "model": RABI, "parameters": {},
                       "sweep": {"parameter": "steps_per_period", "values": [16, "many"]}})


class TestDenseSideCeiling:
    @pytest.mark.parametrize("model, params, field", [
        # a 64-site lattice at the default n_t = 256: grid matrices of side 16384
        ({"lattice": {"sites": 64, "well_depth": -1.0, "drive_amp": 0.5}}, {"eta": 1.0},
         "parameters.n_t"),
        # block_q of side (2 * 5000 + 1) * 2
        (RABI, {"eta": 1.0, "n_t": 16, "n_modes": 5000}, "parameters.n_modes"),
    ])
    def test_above_the_ceiling_exit_2(self, tmp_path, monkeypatch, model, params, field):
        # rejected when the parameters are read, before any dense matrix is allocated
        # (the runner, which would allocate gigabytes, must not be reached)
        import time

        import floqscat.cli as cli

        def unreachable(*args):
            raise AssertionError("the resolvent-check runner was reached")

        monkeypatch.setitem(cli.RUNNERS, "resolvent-check", unreachable)
        cfg = {"task": "resolvent-check", "model": model, "parameters": params}
        begin = time.perf_counter()
        path, code, message = cli._run_one(str(write_config(tmp_path, cfg)), str(tmp_path), None)
        assert time.perf_counter() - begin < 1.0
        assert (path, code) == (None, 2)
        assert field in message and str(resolvent.MAX_DENSE_SIDE) in message

    @pytest.mark.parametrize("task", ["floquet-spectrum", "correspondence"])
    def test_dense_mode_space_above_the_ceiling_exit_2(self, tmp_path, monkeypatch, task):
        # the dense K of side (2 * 5000 + 1) * 2 is refused before build_floquet runs
        import floqscat.cli as cli

        def unreachable(*args):
            raise AssertionError(f"the {task} runner was reached")

        monkeypatch.setitem(cli.RUNNERS, task, unreachable)
        cfg = {"task": task, "model": RABI, "parameters": {"n_modes": 5000}}
        path, code, message = cli._run_one(str(write_config(tmp_path, cfg)), str(tmp_path), None)
        assert (path, code) == (None, 2)
        assert "parameters.n_modes" in message and str(resolvent.MAX_DENSE_SIDE) in message
        table, model = cli.PARAMETERS[task], build_model(RABI)
        side = resolvent.MAX_DENSE_SIDE // 2        # rabi's fiber has d = 2
        cli.parse({"n_modes": (side - 1) // 2}, table, "parameters", model)
        with pytest.raises(cli.ValueRangeError):
            cli.parse({"n_modes": side // 2}, table, "parameters", model)

    def test_ceiling_admits_its_own_side(self):
        from floqscat.cli import PARAMETERS, ValueRangeError, parse

        table, model = PARAMETERS["resolvent-check"], build_model(RABI)
        side = resolvent.MAX_DENSE_SIDE
        parse({"eta": 1.0, "n_t": side // 2, "n_modes": (side // 2 - 1) // 2}, table,
              "parameters", model)
        for params in ({"eta": 1.0, "n_t": side // 2 + 1}, {"eta": 1.0, "n_modes": side // 4}):
            with pytest.raises(ValueRangeError):
                parse(params, table, "parameters", model)


class TestLocalizationWindow:
    """A localization window that holds LOCALIZATION_SCORE of the ring would score
    every state, an evenly spread one too, as bound."""

    @pytest.mark.parametrize("task", ["bound-states", "wave-operators"])
    @pytest.mark.parametrize("lattice, field", [
        ({"sites": 12, "support_width": 5}, "model.lattice.support_width"),
        ({"sites": 16, "support": [15, 0, 1, 2, 3, 4, 5]}, "model.lattice.support"),
    ])
    def test_window_covering_the_ring_exit_2(self, tmp_path, capsys, task, lattice, field):
        cfg = {"task": task, "parameters": {"steps_per_period": 16},
               "model": {"lattice": {**lattice, "well_depth": -1.0, "drive_amp": 0.5}}}
        assert main(["--config", str(write_config(tmp_path, cfg)), "--out", str(tmp_path)]) == 2
        assert f"'{field}'" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.report.json"))

    def test_narrower_window_runs(self):
        # 5 + 2 * 4 = 13 sites of 16 is under 90 %
        cfg = {"task": "bound-states", "parameters": {"steps_per_period": 64, "verify": False},
               "model": {"lattice": {"sites": 16, "support_width": 5, "well_depth": -1.0}}}
        assert run_scenario(cfg)["results"]["n_bound"] >= 1


def _scenario(task, sites, support, **params):
    lattice = {"sites": sites, "well_depth": -2.0 if task == "bound-states" else -0.8,
               "drive_amp": 0.5, "support": support}
    return run_scenario({"task": task, "model": {"lattice": lattice},
                         "parameters": params})["results"]


class TestTranslationCovariance:
    """Translating the well across site 0 leaves the reports where they were."""

    def test_bound_states_across_site_0(self):
        params = {"steps_per_period": 128, "n_modes": 12, "scan_modes": 6}
        wrapped = _scenario("bound-states", 64, [63, 0, 1], **params)
        centred = _scenario("bound-states", 64, [31, 32, 33], **params)
        assert wrapped["n_bound"] == centred["n_bound"] == 2
        for a, b in zip(wrapped["bound_states"], centred["bound_states"]):
            assert abs(a["quasi_energy"] - b["quasi_energy"]) <= 1e-12
        for a, b in zip(wrapped["verdicts"], centred["verdicts"]):
            assert a["confirmed"] and b["confirmed"]
            for field in ("candidate", "refined", "smin_extrapolated", "residual"):
                assert abs(a[field] - b[field]) <= 1e-12, field
            assert np.abs(np.subtract(a["smin_ladder"], b["smin_ladder"])).max() <= 1e-12

    def test_wave_operators_across_site_0(self):
        params = {"steps_per_period": 64, "floquet_modes": 3}
        wrapped = _scenario("wave-operators", 256, [254, 255, 0, 1, 2], **params)
        centred = _scenario("wave-operators", 256, list(range(126, 131)), **params)
        # s_matrix and unitarity_defect are left out: the orbit basis behind them
        # makes a rank decision that round-off in the free period moves
        for field in ("converged_fraction", "final_gap_max", "isometry_defect",
                      "intertwining_defect", "time_averaged_agreement", "orthogonality_defect"):
            assert abs(wrapped[field] - centred[field]) <= 1e-12, field
        assert len(wrapped["bound_states"]) == len(centred["bound_states"])
        for a, b in zip(wrapped["bound_states"], centred["bound_states"]):
            assert abs(a["quasi_energy"] - b["quasi_energy"]) <= 1e-12
