import dataclasses
import inspect
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from gaugemech import bundle, cli, codegen, dynamics, groupoid, liealg, poisson, poisson_groupoid, semidirect
from gaugemech.report import _fmt, csv_lines, dump_json

import builders


def run(args):
    return cli.main(args)


def small_verify_scenario(tmp_path, group_doc=None):
    doc = {
        "name": "tiny",
        "kind": "verify",
        "seed": 99,
        "group": group_doc if group_doc is not None else "so3",
        "bundle": {
            "kind": "TrivialProduct",
            "group": group_doc if group_doc is not None else "so3",
            "base_box": [[-1.0, 1.0], [-1.0, 1.0]],
            "connection": {"A": [[[], [[-0.2, [0, 1]]], []], [[[0.3, [1, 0]]], [], []]]},
        },
        "suites": ["liealg.validate", "bundle.action", "bundle.momentum"],
    }
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(doc))
    return path


class TestVerify:
    def test_builtin_scenario_passes(self, tmp_path):
        code = run(["verify", "se3-verify", "--out", str(tmp_path)])
        assert code == cli.EXIT_PASS
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["pass"] is True
        assert report["failures"] == []

    def test_scenario_file(self, tmp_path):
        path = small_verify_scenario(tmp_path)
        assert run(["verify", str(path), "--out", str(tmp_path / "out")]) == cli.EXIT_PASS

    def test_flipped_structure_constants_exit_2(self, tmp_path, capsys):
        # so3 with every constant's sign flipped describes the opposite algebra, consistent with itself: its basis does not
        doc = builders.spec_to_json(liealg.so3())
        doc["structure"] = [[i, j, k, -c] for i, j, k, c in doc["structure"]]
        path = small_verify_scenario(tmp_path, group_doc=doc)
        assert run(["verify", str(path), "--out", str(tmp_path / "out")]) == cli.EXIT_CONFIG_ERROR
        assert "'structure' of group 'so3' differs from the constants its basis gives by 2" in capsys.readouterr().err
        assert not (tmp_path / "out" / "report.json").exists()

    def test_basis_not_closed_under_commutators_exit_2(self, tmp_path, capsys):
        # e1 and e2 of so3 without e3 = [e1, e2]
        doc = builders.spec_to_json(liealg.so3()) | {"dim": 2, "structure": []}
        doc["basis"] = doc["basis"][:2]
        path = small_verify_scenario(tmp_path, group_doc=doc)
        assert run(["verify", str(path), "--out", str(tmp_path / "out")]) == cli.EXIT_CONFIG_ERROR
        assert "'basis' of group 'so3' is not closed under commutators: they leave its span by 1" in capsys.readouterr().err

    @pytest.mark.parametrize("scale", [1.0, 2.0])
    def test_rho_that_is_not_an_action_by_automorphisms_exits_2(self, tmp_path, capsys, scale):
        # se3-verify with its rho generators doubled: the basis of H is no Lie algebra (commutators 0.8 off its span)
        doc = builders.sd_to_json(semidirect.so3_r3())
        doc["rho"] = (scale * np.array(doc["rho"])).tolist()
        path = tmp_path / "sd.json"
        path.write_text(json.dumps(cli.BUILTIN_SCENARIOS["se3-verify"] | {"semidirect": doc}))
        code = run(["verify", str(path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        if scale == 1.0:
            assert code == cli.EXIT_PASS and err == ""
        else:
            assert code == cli.EXIT_CONFIG_ERROR
            assert "'rho' does not act by automorphisms: the commutators of sd:so3|r3 leave its span by 0.8" in err
            assert "Traceback" not in err and not (tmp_path / "out" / "report.json").exists()

    def test_dependent_basis_exit_2(self, tmp_path, capsys):
        # heisenberg3 with e3 := e1
        doc = builders.spec_to_json(liealg.heisenberg3())
        doc["basis"][2] = doc["basis"][0]
        path = small_verify_scenario(tmp_path, group_doc=doc)
        assert run(["verify", str(path), "--out", str(tmp_path / "out")]) == cli.EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert "'basis' matrices of group 'heisenberg3' are linearly dependent (rank 2 of 3)" in err
        assert "Traceback" not in err

    def test_inline_so3_writes_the_builtin_report(self, tmp_path):
        # the inline document of so3, structure included, runs as the built-in name does
        assert run(["verify", str(small_verify_scenario(tmp_path)), "--out", str(tmp_path / "builtin")]) == cli.EXIT_PASS
        path = small_verify_scenario(tmp_path, group_doc=builders.spec_to_json(liealg.so3()))
        assert run(["verify", str(path), "--out", str(tmp_path / "inline")]) == cli.EXIT_PASS
        assert (tmp_path / "inline" / "report.json").read_bytes() == (tmp_path / "builtin" / "report.json").read_bytes()

    def test_spec_files_by_path(self, tmp_path):
        # the group and the bundle are read from files named relative to the scenario
        (tmp_path / "rot.json").write_text(json.dumps(builders.spec_to_json(liealg.so3())))
        path = small_verify_scenario(tmp_path, group_doc="rot.json")
        doc = json.loads(path.read_text())
        (tmp_path / "bundle.json").write_text(json.dumps(doc["bundle"]))
        path.write_text(json.dumps(doc | {"bundle": "bundle.json"}))
        assert run(["verify", str(path), "--out", str(tmp_path / "out")]) == cli.EXIT_PASS
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert [s["suite"] for s in report["suites"]][:1] == ["bundle.action[TrivialProduct[so3]]"]

    def test_missing_scenario_exit_2(self, tmp_path):
        assert run(["verify", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == cli.EXIT_CONFIG_ERROR

    def test_missing_group_file_exit_2(self, tmp_path):
        doc = {
            "name": "broken-ref",
            "kind": "verify",
            "seed": 1,
            "group": "no-such-file.json",
            "suites": ["liealg.validate"],
        }
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc))
        assert run(["verify", str(path), "--out", str(tmp_path)]) == cli.EXIT_CONFIG_ERROR

    def test_semidirect_name_refs(self, tmp_path):
        sd_doc = builders.sd_to_json(semidirect.so3_r3())
        sd_doc["K"], sd_doc["N"] = "so3", "r3"
        doc = {"name": "sd-names", "kind": "verify", "seed": 1, "semidirect": sd_doc, "suites": ["semidirect.spec"]}
        path = tmp_path / "sd.json"
        path.write_text(json.dumps(doc))
        assert run(["verify", str(path), "--out", str(tmp_path / "ok")]) == cli.EXIT_PASS
        sd_doc["N"] = "r33x"
        path.write_text(json.dumps(doc))
        assert run(["verify", str(path), "--out", str(tmp_path / "bad")]) == cli.EXIT_CONFIG_ERROR

    def test_unknown_suite_exit_2(self, tmp_path):
        doc = {"name": "x", "kind": "verify", "seed": 1, "group": "so3", "suites": ["frobnicate"]}
        path = tmp_path / "x.json"
        path.write_text(json.dumps(doc))
        assert run(["verify", str(path), "--out", str(tmp_path)]) == cli.EXIT_CONFIG_ERROR

    def test_tol_scale_loosens(self, tmp_path):
        # on a base box 100 wide, anchor_pullback's finite differences read about 4e-9 against 1e-9
        path = small_verify_scenario(tmp_path)
        doc = json.loads(path.read_text())
        doc["bundle"]["base_box"] = [[-50.0, 50.0], [-50.0, 50.0]]
        path.write_text(json.dumps(doc | {"suites": ["bundle.anchor_pullback"]}))
        assert run(["verify", str(path), "--out", str(tmp_path / "a")]) == cli.EXIT_CHECK_FAILURE
        assert run(["verify", str(path), "--tol-scale", "1e6", "--out", str(tmp_path / "b")]) == cli.EXIT_PASS

    def test_tol_scale_leaves_flags_alone(self, tmp_path):
        # so3-leaves at mu0 = (0, 0, 1e4) fails membership_equivalence: a flag (residual 1 against 0.5) that no scale may pass
        scenario = cli.BUILTIN_SCENARIOS["so3-leaves"]
        path = tmp_path / "far-orbit.json"
        path.write_text(json.dumps(scenario | {"leaves": scenario["leaves"] | {"mu0": [0.0, 0.0, 1e4]}}))
        for scale in ("1", "2", "1e6"):
            out = tmp_path / scale
            assert run(["leaves", str(path), "--tol-scale", scale, "--out", str(out)]) == cli.EXIT_CHECK_FAILURE
            checks = {c["name"]: c for s in json.loads((out / "report.json").read_text())["suites"] for c in s["checks"]}
            assert checks["membership_equivalence"] == {"name": "membership_equivalence", "residual": 1.0, "tol": 0.5, "pass": False}
            assert checks["pi_sigma_surjective"]["tol"] == 1e-11 * float(scale)

    @pytest.mark.parametrize("scale", ["inf", "-inf", "nan", "0", "-1"])
    @pytest.mark.parametrize("name", ["so3-trivial-bundle", "heavy-top-lagrange"])
    def test_tol_scale_must_be_positive_and_finite(self, tmp_path, capsys, name, scale):
        kind = cli.BUILTIN_SCENARIOS[name]["kind"]
        assert run([kind, name, f"--tol-scale={scale}", "--out", str(tmp_path)]) == cli.EXIT_CONFIG_ERROR
        assert capsys.readouterr().err.startswith("configuration error: '--tol-scale'")
        assert not (tmp_path / "report.json").exists()


class TestLeaves:
    def test_so3_leaves(self, tmp_path):
        assert run(["leaves", "so3-leaves", "--out", str(tmp_path)]) == cli.EXIT_PASS
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["orbit_dim"] == 2
        assert report["leaf_dim"] == 6
        assert (tmp_path / "leaf_points.csv").exists()

    def test_zero_orbit(self, tmp_path):
        assert run(["leaves", "so3-zero-leaf", "--out", str(tmp_path)]) == cli.EXIT_PASS
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["orbit_dim"] == 0
        assert report["leaf_dim"] == 4  # J^{-1}(0)/G = T*(P/G)

    def test_u1_magnetic_reports_closedness(self, tmp_path):
        assert run(["leaves", "u1-magnetic", "--out", str(tmp_path)]) == cli.EXIT_PASS
        report = json.loads((tmp_path / "report.json").read_text())
        assert "magnetic_closedness_residual" in report

    def test_leaves_samples_default_to_20_for_both_suites(self, tmp_path):
        # without 'samples' the leaf and the magnetic suites both take the one default
        scenario = cli.BUILTIN_SCENARIOS["u1-magnetic"]
        path = tmp_path / "u1.json"
        path.write_text(json.dumps(scenario | {"leaves": {k: v for k, v in scenario["leaves"].items() if k != "samples"}}))
        assert run(["leaves", str(path), "--out", str(tmp_path / "out")]) == cli.EXIT_PASS
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        leaf, magnetic = report["suites"]
        assert (leaf["suite"].split("[")[0], leaf["membership_trials"]) == ("poisson.leaf", 20)
        assert (magnetic["suite"].split("[")[0], magnetic["trials"]) == ("poisson.magnetic", 20)

    @pytest.mark.parametrize("name", ["so3-leaves", "so3-zero-leaf", "u1-magnetic"])
    def test_leaf_points_csv_is_per_value_17g(self, tmp_path, name):
        # %.17g reads back to the same float, so formatting the values read back one at a time
        # gives the file again only if the writer formatted every value as %.17g
        assert run(["leaves", name, "--out", str(tmp_path)]) == cli.EXIT_PASS
        header, *lines, last = (tmp_path / "leaf_points.csv").read_bytes().decode("utf-8").split("\n")
        assert header.startswith("m1,") and last == "" and lines
        for line in lines:
            assert line.count(",") == header.count(",")
            assert line == ",".join("%.17g" % float(v) for v in line.split(","))

    def test_leaf_point_draws_do_not_scale_with_the_sample_count(self, tmp_path, monkeypatch):
        # the leaf points' bases and rho are each drawn once as a block, so doubling the points makes the same generator calls
        calls = builders.counted_streams(monkeypatch, cli)
        scenario = cli.BUILTIN_SCENARIOS["so3-zero-leaf"]
        drawn = []
        for n in (7, 14):
            path = tmp_path / f"leaves{n}.json"
            path.write_text(json.dumps(scenario | {"leaves": scenario["leaves"] | {"orbit_samples": 20, "samples": n}}))
            calls.clear()
            assert run(["leaves", str(path), "--out", str(tmp_path / str(n))]) == cli.EXIT_PASS
            assert len((tmp_path / str(n) / "leaf_points.csv").read_text().splitlines()) == 1 + n
            drawn.append(list(calls))
        assert drawn[0] == drawn[1] and drawn[0]

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_csv_lines_formats_each_value_as_17g(self, newline):
        # leaf_points.csv and trajectory.csv format their bodies through report.csv_lines
        specials = [-0.0, 0.0, float("inf"), -float("inf"), float("nan"), 5e-324, -2.2250738585072009e-308, 0.1, -1e300, 1 / 3]
        rows = np.array(specials + specials[::-1]).reshape(4, 5)
        lines = csv_lines(rows, newline)
        assert lines == "".join(",".join("%.17g" % v for v in row) + newline for row in rows.tolist())
        assert lines.startswith(f"-0,0,inf,-inf,nan{newline}4.9406564584124654e-324,-2.2250738585072009e-308,")

    def test_report_floats_pass_through_unchanged(self):
        # 10,000 random bit patterns of finite doubles, then both zeros and subnormals: _fmt returns each as it is,
        # and the report's JSON reads back the same bits
        bits = np.random.default_rng(67).integers(0, 2**64, 10_100, dtype=np.uint64, endpoint=False)
        values = bits.view(np.float64)
        values = np.concatenate([values[np.isfinite(values)][:10_000], [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308]])
        out = _fmt(values.tolist())
        assert all(type(v) is float for v in out)
        assert np.array(out).view(np.uint64).tolist() == values.view(np.uint64).tolist()
        assert np.array(json.loads(dump_json(out))).view(np.uint64).tolist() == values.view(np.uint64).tolist()
        assert _fmt([np.nan, np.inf, -np.inf]) == ["nan", "inf", "-inf"]


class TestSimulate:
    def test_heavy_top_lagrange(self, tmp_path):
        assert run(["simulate", "heavy-top-lagrange", "--out", str(tmp_path)]) == cli.EXIT_PASS
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["drift"]["Pi3"] <= 1e-6
        assert 12.0 <= report["convergence"]["ratio"] <= 20.0
        header = (tmp_path / "trajectory.csv").read_text().splitlines()[0]
        assert header.startswith("time,x1")
        assert "Pi3" in header
        assert (tmp_path / "trajectory.meta.json").exists()

    def test_free_top_flat_momentum_norm(self, tmp_path):
        assert run(["simulate", "heavy-top-free", "--out", str(tmp_path)]) == cli.EXIT_PASS
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["drift"]["|Pi|^2"] <= 1e-6

    def test_divergent_scenario_exit_3(self, tmp_path):
        doc = {
            "name": "blowup",
            "kind": "simulate",
            "seed": 5,
            "simulate": {
                "model": "heavy_top",
                "inertia": [1e-9, 2e-9, 3e-9],
                "mgl": 1e9,
                "axis": [0.0, 0.0, 1.0],
                "x0": [1e6, 2e6, -1e6, 1e6, 1e6, 1e6],
                "h": 1e3,
                "n_steps": 2000,
            },
        }
        path = tmp_path / "blowup.json"
        path.write_text(json.dumps(doc))
        with np.errstate(over="ignore", invalid="ignore"):
            code = run(["simulate", str(path), "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_DIVERGENCE
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["divergence_step"] >= 1

    def test_divergence_exits_with_one_line_and_no_warnings(self, tmp_path, capsys):
        doc = json.loads(json.dumps(cli.BUILTIN_SCENARIOS["heavy-top-lagrange"]))
        doc["simulate"]["h"] = 5.0
        doc["simulate"]["x0"] = [100.0 * v for v in doc["simulate"]["x0"]]
        path = tmp_path / "blowup.json"
        path.write_text(json.dumps(doc))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(["simulate", str(path), "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_DIVERGENCE
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        step = json.loads((tmp_path / "out" / "report.json").read_text())["divergence_step"]
        err = capsys.readouterr().err
        assert err == f"simulation diverged: non-finite state at step {step}; see report.json\n"


OUTPUT_FILES = {
    "verify": {"report.json"},
    "leaves": {"report.json", "leaf_points.csv"},
    "simulate": {"report.json", "trajectory.csv", "trajectory.meta.json"},
}


@pytest.mark.parametrize("name", sorted(cli.BUILTIN_SCENARIOS))
def test_builtin_scenario_runs_clean(tmp_path, name):
    kind = cli.BUILTIN_SCENARIOS[name]["kind"]
    assert run([kind, name, "--out", str(tmp_path)]) == cli.EXIT_PASS
    assert {f.name for f in tmp_path.iterdir()} == OUTPUT_FILES[kind]
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["pass"] is True
    assert report.get("failures", []) == []


_SO3_JSON = builders.spec_to_json(liealg.so3())
# an inline so3 whose first structure coefficient is infinite
_SO3_INF = _SO3_JSON | {"structure": [_SO3_JSON["structure"][0][:3] + [float("inf")]] + _SO3_JSON["structure"][1:]}
# the inline so3 x| r3 with one rho generator entry NaN
_SD_NAN_RHO = builders.sd_to_json(semidirect.so3_r3())
_SD_NAN_RHO["rho"][0][0][1] = float("nan")


def _sd_rho_entry(value):
    """The inline so3 x| r3 with one rho generator entry replaced."""
    doc = builders.sd_to_json(semidirect.so3_r3())
    doc["rho"][0][0][1] = value
    return doc


@pytest.mark.parametrize("name, key, value", [
    ("heavy-top-lagrange", "x0", [0.8, -0.3, 0.6]),
    ("heavy-top-lagrange", "h", -1e-3),
    ("heavy-top-lagrange", "n_steps", 0),
    ("heavy-top-lagrange", "inertia", [1.0, 0.0, 0.5]),
    ("heavy-top-lagrange", "axis", [0.0, 1.0]),
    ("so3-leaves", "mu0", [0.0, 1.0]),
    ("so3-leaves", "mu0", None),
    ("u1-magnetic", "chi", [1.0, 2.0]),
    ("so3-leaves", "samples", "x"),
    ("so3-leaves", "samples", 0),
    ("so3-leaves", "orbit_samples", 0),
    ("so3-leaves", "orbit_samples", 2.5),
    ("so3-trivial-bundle", "connection", {"A": [[[[0.1, [4, 0]]], [], []], [[], [], []]]}),
    ("so3-trivial-bundle", "connection", {"A": [[[], [], []], [[], [], []], [[[0.1, [0, 0]]], [], []]]}),
    ("so3-trivial-bundle", "group", _SO3_JSON | {"basis": _SO3_JSON["basis"][:2]}),
    ("so3-trivial-bundle", "group", _SO3_JSON | {"dim": "three"}),
    ("se3-verify", "semidirect", {"K": "so3", "N": "r3", "rho": [[0.0] * 4] * 3}),
    ("so3-trivial-bundle", "connection", {"A": [5]}),
    ("so3-trivial-bundle", "connection", {"A": [[5]]}),
    ("so3-trivial-bundle", "connection", {"A": [[[[0.1, [1]]], [], []]]}),
    ("so3-leaves", "base_box", [[1.0, -1.0], [-1.0, 1.0]]),
    ("so3-trivial-bundle", "base_box", [[0.0, 0.0], [-1.0, 1.0]]),
    ("so3-leaves", "group", _SO3_INF),
    ("heisenberg-verify", "group", _SO3_INF),
    ("so3-trivial-bundle", "seed", "x"),
    ("so3-trivial-bundle", "seed", 1.5),
    ("so3-trivial-bundle", "seed", True),
    ("so3-leaves", "leaves", 5),
    ("heavy-top-lagrange", "simulate", 5),
    ("so3-leaves", "base_box", 5),
    ("u1-magnetic", "connection", {"A": [[[[float("nan"), [0, 1]]]], [[[0.5, [1, 0]]]]]}),
    ("u1-magnetic", "connection", {"A": [[[[float("inf"), [0, 1]]]], [[[0.5, [1, 0]]]]]}),
    ("heisenberg-verify", "suites", 5),
    ("heisenberg-verify", "suites", [["bundle.action"]]),
    ("heisenberg-verify", "suites", "bundle.action"),
    ("se3-verify", "semidirect", _SD_NAN_RHO),
    ("so3-leaves", "base_box", [[-1e308, 1e308], [-1.0, 1.0]]),
    ("so3-leaves", "base_box", [[-1e300, 1e300], [-1.0, 1.0]]),
    ("so3-trivial-bundle", "base_box", [[-1e300, 1e300], [-1.0, 1.0]]),
    ("so3-trivial-bundle", "connection", [1, 2]),
    ("so3-trivial-bundle", "connection", {"A": [[[], [[-0.2, [0, 1.5]]], []], [[], [], []]]}),
    ("so3-trivial-bundle", "connection", {"A": [[[], [[-0.2, [0, float("inf")]]], []], [[], [], []]]}),
    ("so3-trivial-bundle", "base_box", [[-1e100, 1e100], [-1.0, 1.0]]),
    ("u1-magnetic", "connection", {"A": [[[["0.5", [0, 1]]]], [[[0.5, [1, 0]]]]]}),
    ("u1-magnetic", "connection", {"A": [[[[-0.5, [0, 1]]]], [[[True, [1, 0]]]]]}),
    ("u1-magnetic", "connection", {"A": [[[[-10**400, [0, 1]]]], [[[0.5, [1, 0]]]]]}),
    ("so3-trivial-bundle", "group", _SO3_JSON | {"structure": _SO3_JSON["structure"] + [[0, 1, 3, 1.0]]}),
    ("so3-trivial-bundle", "group", _SO3_JSON | {"structure": _SO3_JSON["structure"] + [[0, 1, -1, 1.0]]}),
    ("so3-trivial-bundle", "group", _SO3_JSON | {"structure": _SO3_JSON["structure"] + [[0, 1, 2.9, 1.0]]}),
    ("so3-trivial-bundle", "group", _SO3_JSON | {"dim": 3.7}),
    ("heavy-top-lagrange", "mgl", float("nan")),
    ("heavy-top-lagrange", "mgl", float("inf")),
    ("heavy-top-lagrange", "mgl", "1"),
    ("heavy-top-lagrange", "mgl", True),
    ("heavy-top-lagrange", "h", True),
    ("heavy-top-lagrange", "convergence_check", "no"),
    ("heavy-top-lagrange", "x0", [True, -0.3, 0.6, 0.2, 0.1, 0.9]),
    ("so3-trivial-bundle", "group", _SO3_JSON | {"structure": [_SO3_JSON["structure"][0][:3] + [True]] + _SO3_JSON["structure"][1:]}),
    ("so3-trivial-bundle", "group", _SO3_JSON | {"structure": [_SO3_JSON["structure"][0][:3] + ["1.0"]] + _SO3_JSON["structure"][1:]}),
    ("so3-trivial-bundle", "group", _SO3_JSON | {"basis": [[str(x) for x in row] for row in _SO3_JSON["basis"]]}),
    ("heavy-top-lagrange", "inertia", [1e-320, 1.0, 0.5]),
    ("so3-trivial-bundle", "base_box", [[-1.0, "0.5"], [-1.0, 1.0]]),
    ("so3-trivial-bundle", "base_box", [[False, 1.0], [-1.0, 1.0]]),
    ("so3-leaves", "base_box", [[-1.0, True], [-1.0, 1.0]]),
    ("so3-leaves", "groupoid_action", "no"),
    ("se3-verify", "semidirect", _sd_rho_entry("0.5")),
    ("se3-verify", "semidirect", _sd_rho_entry(True)),
    ("so3-trivial-bundle", "connection", {"A": [[{}, [], []], [[], [], []]]}),
    ("so3-trivial-bundle", "group", _SO3_JSON | {"name": 5}),
    ("so3-trivial-bundle", "suites", []),
    ("heisenberg-verify", "connection", {"A": [[[], [[1e308, [0, 0]]], []], [[[0.3, [1, 0]]], [], []]]}),
    ("so3-trivial-bundle", "name", 5),
    ("so3-leaves", "name", ["so3-leaves"]),
    ("heavy-top-lagrange", "name", None),
    ("heavy-top-lagrange", "model", 5),
    ("heavy-top-lagrange", "model", "pendulum"),
    ("so3-leaves", "chi", [1.0, 0.0, 0.0]),
    ("heavy-top-lagrange", "n_steps", 10**12),
])
def test_malformed_scenario_exits_2(tmp_path, capsys, name, key, value):
    doc = json.loads(json.dumps(cli.BUILTIN_SCENARIOS[name]))
    # a top-level or bundle field is replaced in place (a leaves run reads its group from
    # the bundle); any other field goes into the section of the scenario's kind
    top = key in doc and not (doc["kind"] == "leaves" and key == "group")
    section = doc if top else doc["bundle"] if key in doc.get("bundle", {}) else doc[doc["kind"]]
    section[key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert run([doc["kind"], str(path), "--out", str(tmp_path / "out")]) == cli.EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and repr(key) in err
    assert not (tmp_path / "out" / "report.json").exists()


def _negate_j2(monkeypatch):
    j2 = groupoid.j2
    monkeypatch.setattr(groupoid, "j2", lambda b, el: -j2(b, el))


def _scale_quot_rep_shift(monkeypatch):
    # the gauge shift vert(alpha_p(v)) that quot_rep subtracts from both legs, scaled by 1 + 1e-4
    quot_rep = groupoid.quot_rep
    monkeypatch.setattr(groupoid, "quot_rep", lambda b, el: groupoid.VBElement(el.p, el.q, el.x - (1 + 1e-4) * (el.x - quot_rep(b, el).x)))


def _a_star_into_b_slot(monkeypatch):
    a_star = bundle.BundleSpec.a_star

    def mutant(self, base, rho):
        rep = a_star(self, base, rho).rep
        b = np.zeros_like(rep.b)
        b[..., : self.d] = rep.a
        return bundle.QuotientClass(bundle.CotangentSample(rep.point, np.zeros_like(rep.a), b))

    monkeypatch.setattr(bundle.BundleSpec, "a_star", mutant)


def _drop_chain_rule(monkeypatch):
    # invariant_lift's fiber block du is the coadjoint chain rule; without it the lift is not G-invariant
    monkeypatch.setattr(liealg.LieGroupSpec, "coadjoint_chain_rule", lambda self, trans, grad, b: np.zeros_like(b))


def _flip_lie_part(monkeypatch):
    # the Lie part <b, [db G, db F]> of cotangent_bracket, the only bracket of g the poisson suites take
    bracket = liealg.LieGroupSpec.bracket
    monkeypatch.setattr(liealg.LieGroupSpec, "bracket", lambda self, x, y: -bracket(self, x, y))


def _symmetric_bivector_part(monkeypatch):
    bivector = poisson.PoissonSpace.bivector
    monkeypatch.setattr(poisson.PoissonSpace, "bivector", lambda self, x: bivector(self, x) + 1e-9 * np.eye(self.dim))


def _non_jacobi_structure(monkeypatch):
    # [e0, e1] gains 0.5 e0: still antisymmetric, but the cyclic sum over (e0, e1, e2) no longer vanishes
    lie_poisson = poisson.lie_poisson

    def mutant(group):
        broken = group.structure.copy()
        broken[0, 1, 0] += 0.5
        broken[1, 0, 0] -= 0.5
        return dataclasses.replace(lie_poisson(group), linear=broken)

    monkeypatch.setattr(poisson, "lie_poisson", mutant)


@pytest.mark.parametrize("name, mutate, suites, killed_by", [
    ("so3-trivial-bundle", _negate_j2, ["groupoid.ses"], ["groupoid.ses[duzyVdual]:i2_star_duality"]),
    ("heisenberg-verify", _negate_j2, ["groupoid.ses"], ["groupoid.ses[duzyVdual]:i2_star_duality"]),
    ("so3-trivial-bundle", _scale_quot_rep_shift, ["groupoid.ses"], ["groupoid.ses[duzyVtrojka]:composite_zero"]),
    ("so3-trivial-bundle", _a_star_into_b_slot, ["bundle.dual_sequence"], ["bundle.dual_sequence[TrivialProduct[so3]]:composite_zero"]),
    ("se3-verify", _a_star_into_b_slot, ["semidirect.reduced_sequence"], ["semidirect.reduced_sequence[sd:so3|r3]:composite_zero"]),
    ("so3-trivial-bundle", _drop_chain_rule, ["poisson.dual_pair"],
     ["poisson.dual_pair[TrivialProduct[so3]]:polarity", "poisson.dual_pair[TrivialProduct[so3]]:quotient_matches_lift"]),
    ("heisenberg-verify", _drop_chain_rule, ["poisson.dual_pair"],
     ["poisson.dual_pair[TrivialProduct[heisenberg3]]:polarity", "poisson.dual_pair[TrivialProduct[heisenberg3]]:quotient_matches_lift"]),
    ("so3-trivial-bundle", _flip_lie_part, ["poisson.dual_pair"], ["poisson.dual_pair[TrivialProduct[so3]]:quotient_matches_lift"]),
    ("heisenberg-verify", _flip_lie_part, ["poisson.dual_pair"], ["poisson.dual_pair[TrivialProduct[heisenberg3]]:quotient_matches_lift"]),
    ("so3-trivial-bundle", _symmetric_bivector_part, ["poisson.properties"], ["poisson.bracket_properties[so3*]:antisymmetry",
     "poisson.bracket_properties[T*R2]:antisymmetry", "poisson.bracket_properties[T*P/G[TrivialProduct[so3]]]:antisymmetry"]),
    ("so3-trivial-bundle", _non_jacobi_structure, ["poisson.jacobi"], ["poisson.jacobi:lie_poisson", "poisson.jacobi:quotient"]),
], ids=["j2-negated-so3", "j2-negated-heisenberg", "quot-rep-shift-scaled", "a-star-into-b-slot", "a-star-into-b-slot-se3", "chain-rule-dropped-so3",
        "chain-rule-dropped-heisenberg", "lie-part-flipped-so3", "lie-part-flipped-heisenberg", "symmetric-bivector-part",
        "non-jacobi-structure"])
def test_mutant_fails_builtin_checks(tmp_path, monkeypatch, name, mutate, suites, killed_by):
    # the exact-sequence checks read the maps they name, so a wrong map fails them; only the touched suites run
    mutate(monkeypatch)
    path = tmp_path / "mutant.json"
    path.write_text(json.dumps(cli.BUILTIN_SCENARIOS[name] | {"suites": suites}))
    assert run(["verify", str(path), "--out", str(tmp_path)]) == cli.EXIT_CHECK_FAILURE
    failures = json.loads((tmp_path / "report.json").read_text())["failures"]
    assert set(killed_by) <= set(failures), failures


def _heisenberg_with_coefficient(tmp_path, coefficient, suites=None):
    """heisenberg-verify with its A[0][1] coefficient (0.2 in the built-in) replaced."""
    doc = json.loads(json.dumps(cli.BUILTIN_SCENARIOS["heisenberg-verify"]))
    doc["bundle"]["connection"]["A"][0][1] = [[coefficient, [0, 0]]]
    if suites is not None:
        doc["suites"] = suites
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("coefficient", [1e3, 1e4, 1e12, 1e50])
def test_large_connection_coefficient_keeps_every_sequence_exact(tmp_path, coefficient):
    # every sequence is exact for any connection, far inside the load bound; the rank rule equilibrates
    # before it cuts, so a coefficient that spreads the singular values does not read as a lost rank
    assert run(["verify", str(_heisenberg_with_coefficient(tmp_path, coefficient)), "--out", str(tmp_path)]) == cli.EXIT_PASS


@pytest.mark.parametrize("coefficient", [0.2, 1e3, 1e4, 1e8, 1e12, 1e50])
def test_zeroed_i2_column_fails_at_every_coefficient(tmp_path, monkeypatch, coefficient):
    # no equilibration may hide a real defect: I2 with its last column zeroed is not injective at any scale
    i2_matrix = groupoid._i2_matrix
    monkeypatch.setattr(groupoid, "_i2_matrix", lambda b, p: i2_matrix(b, p) * (np.arange(b.n) < b.n - 1))
    path = _heisenberg_with_coefficient(tmp_path, coefficient, suites=["groupoid.ses"])
    assert run(["verify", str(path), "--out", str(tmp_path)]) == cli.EXIT_CHECK_FAILURE
    failures = json.loads((tmp_path / "report.json").read_text())["failures"]
    assert {"groupoid.ses[duzyVtrojka]:first_map_injective", "groupoid.ses[duzyVtrojka]:image_equals_kernel"} <= set(failures), failures


@pytest.mark.parametrize("width", [1e4, 1e8])
def test_wide_base_box_keeps_the_rank_checks(tmp_path, width):
    # so3-trivial-bundle on [-width, width] x [-1, 1]: the rank flags and im = ker hold; the run still
    # fails residual checks with absolute tolerances (anchor_pullback, the FD bracket checks), not asserted here
    doc = json.loads(json.dumps(cli.BUILTIN_SCENARIOS["so3-trivial-bundle"]))
    doc["bundle"]["base_box"] = [[-width, width], [-1.0, 1.0]]
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    run(["verify", str(path), "--out", str(tmp_path)])
    failures = json.loads((tmp_path / "report.json").read_text())["failures"]
    rank_checks = [f for f in failures if f.split(":")[1].startswith(("core_dim", "rank_ambiguity")) or f.endswith(
        ("_injective", "_surjective")) or (f.startswith("groupoid.ses[") and f.endswith(":image_equals_kernel"))]
    assert rank_checks == []


@pytest.mark.parametrize("row, name", [(0, "heavy-top-lagrange"), (1, "heavy-top-lagrange"), (2, "heavy-top-lagrange"),
                                       (3, "heavy-top-free"), (4, "heavy-top-free"), (5, "heavy-top-lagrange")])
def test_sign_flipped_field_term_fails_a_drift_check(tmp_path, monkeypatch, row, name):
    # the first term of one component of the heavy-top field, negated in the row builder and so in
    # every stage of the compiled step: the flow is no longer Hamiltonian for the Lie-Poisson
    # bracket, so a conserved quantity drifts
    field_source = codegen._field_source

    def mutant(space, hamiltonian, ys):
        lines, rows = field_source(space, hamiltonian, ys)
        rows[row] = "-" + rows[row]
        return lines, rows

    monkeypatch.setattr(codegen, "_field_source", mutant)
    assert run(["simulate", name, "--out", str(tmp_path)]) == cli.EXIT_CHECK_FAILURE
    report = json.loads((tmp_path / "report.json").read_text())
    assert any(v > report["drift_tol"] for v in report["drift"].values()), report["drift"]


def test_simulate_compiles_one_step_for_every_step_size(tmp_path, monkeypatch):
    # the run at h, and the convergence check's runs at h = 8e-3 and 4e-3, share one compiled step
    compile_, names = codegen._compile, []

    def counting(name, *args, **kwargs):
        names.append(name)
        return compile_(name, *args, **kwargs)

    monkeypatch.setattr(codegen, "_compile", counting)
    calls = []
    integrate = dynamics.integrate
    monkeypatch.setattr(dynamics, "integrate", lambda *args, **kwargs: calls.append(args[3]) or integrate(*args, **kwargs))
    assert run(["simulate", "heavy-top-lagrange", "--out", str(tmp_path)]) == cli.EXIT_PASS
    assert len(calls) == 3 and len(set(calls)) == 3, calls
    assert names.count("step") == 1, names


def test_non_orthogonal_rotation_exp_fails_a_check(tmp_path, monkeypatch):
    # so3 inverts by the transpose, which is exact only on rotations: an exp off SO(3) must not pass
    rodrigues = liealg.rodrigues
    monkeypatch.setattr(liealg, "rodrigues", lambda a: (1 + 1e-6) * rodrigues(a))
    assert run(["verify", "so3-trivial-bundle", "--out", str(tmp_path)]) == cli.EXIT_CHECK_FAILURE
    failures = json.loads((tmp_path / "report.json").read_text())["failures"]
    assert "liealg.validate[so3]:exp_lands_in_group" in failures
    assert any(f.startswith("bundle.") for f in failures)


def test_suite_exception_becomes_failed_check(tmp_path, monkeypatch):
    registry = cli._suite_registry

    def with_faulty_suite():
        suites = registry()

        def boom(ctx, seed):
            raise RuntimeError("injected fault")

        suites["groupoid.cores"] = boom
        return suites

    monkeypatch.setattr(cli, "_suite_registry", with_faulty_suite)
    assert run(["verify", "heisenberg-verify", "--out", str(tmp_path)]) == cli.EXIT_CHECK_FAILURE
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["failures"] == ["groupoid.cores:suite_error"]
    suites = {s["suite"]: s for s in report["suites"]}
    (check,) = suites["groupoid.cores"]["checks"]
    assert check["info"] == {"error": "RuntimeError", "message": "injected fault"}
    # every other suite of the scenario ran after the fault and still reports its checks
    assert "poisson.dual_pair[TrivialProduct[heisenberg3]]" in suites
    assert sum(len(s["checks"]) for s in suites.values()) > 20


def test_leaves_suite_exception_becomes_failed_check(tmp_path, monkeypatch):
    # a fault inside the groupoid action suite becomes its one failed check; the leaf suite and the leaf points still come out
    def boom(*args, **kwargs):
        raise RuntimeError("injected fault")

    monkeypatch.setattr(poisson_groupoid, "_graph_isotropy", boom)
    assert run(["leaves", "so3-leaves", "--out", str(tmp_path)]) == cli.EXIT_CHECK_FAILURE
    report = json.loads((tmp_path / "report.json").read_text())
    assert "poisson.groupoid_action:suite_error" in report["failures"]
    suites = {s["suite"]: s for s in report["suites"]}
    (check,) = suites["poisson.groupoid_action"]["checks"]
    assert check["info"] == {"error": "RuntimeError", "message": "injected fault"}
    assert "poisson.leaf[TrivialProduct[so3]|orbit(so3)]" in suites
    assert (tmp_path / "leaf_points.csv").exists()


def test_huge_mu0_fails_checks_without_suite_error(tmp_path):
    # at |mu0| near the float limit every leaves suite still runs to its checks; the failures are residuals
    # against absolute tolerances, not a fault
    doc = json.loads(json.dumps(cli.BUILTIN_SCENARIOS["so3-leaves"]))
    doc["leaves"]["mu0"] = [1e308, 0.0, 1.0]
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    with np.errstate(over="ignore", invalid="ignore"):
        assert run(["leaves", str(path), "--out", str(tmp_path / "out")]) == cli.EXIT_CHECK_FAILURE
    failures = json.loads((tmp_path / "out" / "report.json").read_text())["failures"]
    assert failures and not [f for f in failures if f.endswith(":suite_error")], failures
    assert (tmp_path / "out" / "leaf_points.csv").exists()


ARROW_ELEMENT = "g2 @ G.inverse(g1)"


@pytest.mark.parametrize("wrong", ["np.broadcast_to(G.identity(), g1.shape)", "G.inverse(g1) @ g2"], ids=["identity", "g1-inverse-g2"])
def test_wrong_arrow_element_fails_orbit_connectivity(tmp_path, monkeypatch, wrong):
    # the suite with the arrow's group element w = g2 g1^-1 replaced in its source: the arrow's target then
    # misses the second leaf point, and only orbit_connectivity can see it
    source = inspect.getsource(poisson_groupoid.groupoid_action_suite)
    assert source.count(ARROW_ELEMENT) == 1
    namespace = dict(vars(poisson_groupoid))
    exec(compile(source.replace(ARROW_ELEMENT, wrong), poisson_groupoid.__file__, "exec"), namespace)
    monkeypatch.setattr(poisson_groupoid, "groupoid_action_suite", namespace["groupoid_action_suite"])
    assert run(["leaves", "so3-leaves", "--out", str(tmp_path)]) == cli.EXIT_CHECK_FAILURE
    failures = json.loads((tmp_path / "report.json").read_text())["failures"]
    assert failures == ["poisson.groupoid_action[TrivialProduct[so3]]:orbit_connectivity"], failures


def test_non_character_chi_exits_before_any_suite(tmp_path, monkeypatch):
    # chi is refused when it is read, so no leaves suite runs on a scenario that will exit 2
    def no_suite(*args, **kwargs):
        raise AssertionError("a leaves suite ran before chi was checked")

    for module, suite in ((poisson, "coadjoint_orbit"), (poisson, "leaf_structure"), (poisson_groupoid, "groupoid_action_suite"), (poisson, "magnetic_term")):
        monkeypatch.setattr(module, suite, no_suite)
    doc = json.loads(json.dumps(cli.BUILTIN_SCENARIOS["so3-leaves"]))
    doc["leaves"].update(chi=[1.0, 0.0, 0.0], groupoid_action=True)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert run(["leaves", str(path), "--out", str(tmp_path / "out")]) == cli.EXIT_CONFIG_ERROR


class TestDeterminism:
    @pytest.mark.parametrize("name", ["heisenberg-verify", "so3-trivial-bundle", "se3-verify",
                                      "so3-leaves", "so3-zero-leaf", "u1-magnetic"])
    def test_repeated_runs_byte_identical(self, tmp_path, name):
        kind = cli.BUILTIN_SCENARIOS[name]["kind"]
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run([kind, name, "--out", str(out)]) == cli.EXIT_PASS
        for file in ["report.json"] + (["leaf_points.csv"] if kind == "leaves" else []):
            assert (a / file).read_bytes() == (b / file).read_bytes()

    def test_inline_semidirect_writes_builtin_report(self, tmp_path):
        # the conjugator's closed form is read off the rho generators, so so3 x| r3 given inline
        # takes the same path as the built-in and writes the same bytes
        doc = json.loads(json.dumps(cli.BUILTIN_SCENARIOS["se3-verify"])) | {"semidirect": builders.sd_to_json(semidirect.so3_r3())}
        path = tmp_path / "inline.json"
        path.write_text(json.dumps(doc))
        assert run(["verify", "se3-verify", "--out", str(tmp_path / "builtin")]) == cli.EXIT_PASS
        assert run(["verify", str(path), "--out", str(tmp_path / "inline")]) == cli.EXIT_PASS
        assert (tmp_path / "inline" / "report.json").read_bytes() == (tmp_path / "builtin" / "report.json").read_bytes()

    def test_seed_override_changes_report(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run(["verify", "heisenberg-verify", "--out", str(a)])
        run(["verify", "heisenberg-verify", "--seed", "123", "--out", str(b)])
        ra = json.loads((a / "report.json").read_text())
        rb = json.loads((b / "report.json").read_text())
        assert ra["seed"] != rb["seed"]

    def test_list_builtins(self, capsys):
        assert run(["--list-builtins"]) == cli.EXIT_PASS
        out = capsys.readouterr().out
        for name in ("so3-trivial-bundle", "heavy-top-lagrange", "u1-magnetic"):
            assert name in out
