import dataclasses
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from gaugemech import bundle, cli, groupoid, liealg, poisson, semidirect


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

    def test_corrupted_structure_constants_exit_1(self, tmp_path):
        doc = liealg.spec_to_json(liealg.so3())
        doc["structure"] = [[i, j, k, 0.7 * c] for i, j, k, c in doc["structure"][:3]] + doc["structure"][3:]
        path = small_verify_scenario(tmp_path, group_doc=doc)
        code = run(["verify", str(path), "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_CHECK_FAILURE
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["pass"] is False
        assert any("antisymmetry" in f or "structure_vs_commutator" in f for f in report["failures"])

    def test_spec_files_by_path(self, tmp_path):
        # the group and the bundle are read from files named relative to the scenario
        (tmp_path / "rot.json").write_text(json.dumps(liealg.spec_to_json(liealg.so3())))
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
        sd_doc = semidirect.sd_to_json(semidirect.so3_r3())
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
        doc = liealg.spec_to_json(liealg.so3())
        doc["structure"] = [[i, j, k, c + 1e-9] for i, j, k, c in doc["structure"]]
        path = small_verify_scenario(tmp_path, group_doc=doc)
        assert run(["verify", str(path), "--out", str(tmp_path / "a")]) == cli.EXIT_CHECK_FAILURE
        assert run(["verify", str(path), "--tol-scale", "1e6", "--out", str(tmp_path / "b")]) == cli.EXIT_PASS


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


_SO3_JSON = liealg.spec_to_json(liealg.so3())
# an inline so3 whose first structure coefficient is infinite
_SO3_INF = _SO3_JSON | {"structure": [_SO3_JSON["structure"][0][:3] + [float("inf")]] + _SO3_JSON["structure"][1:]}
# the inline so3 x| r3 with one rho generator entry NaN
_SD_NAN_RHO = semidirect.sd_to_json(semidirect.so3_r3())
_SD_NAN_RHO["rho"][0][0][1] = float("nan")


def _sd_rho_entry(value):
    """The inline so3 x| r3 with one rho generator entry replaced."""
    doc = semidirect.sd_to_json(semidirect.so3_r3())
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

    def mutant(group, name=""):
        broken = group.structure.copy()
        broken[0, 1, 0] += 0.5
        broken[1, 0, 0] -= 0.5
        return dataclasses.replace(lie_poisson(group, name), linear=broken)

    monkeypatch.setattr(poisson, "lie_poisson", mutant)


@pytest.mark.parametrize("name, mutate, suites, killed_by", [
    ("so3-trivial-bundle", _negate_j2, ["groupoid.ses"], ["groupoid.ses[duzyVdual]:i2_star_duality"]),
    ("heisenberg-verify", _negate_j2, ["groupoid.ses"], ["groupoid.ses[duzyVdual]:i2_star_duality"]),
    ("so3-trivial-bundle", _scale_quot_rep_shift, ["groupoid.ses"], ["groupoid.ses[duzyVtrojka]:composite_zero"]),
    ("so3-trivial-bundle", _a_star_into_b_slot, ["bundle.dual_sequence", "groupoid.ses"],
     ["bundle.dual_sequence[TrivialProduct[so3]]:iota_after_a_zero", "groupoid.ses[Adual]:composite_zero"]),
    ("so3-trivial-bundle", _drop_chain_rule, ["poisson.dual_pair"],
     ["poisson.dual_pair[TrivialProduct[so3]]:polarity", "poisson.dual_pair[TrivialProduct[so3]]:quotient_matches_lift"]),
    ("heisenberg-verify", _drop_chain_rule, ["poisson.dual_pair"],
     ["poisson.dual_pair[TrivialProduct[heisenberg3]]:polarity", "poisson.dual_pair[TrivialProduct[heisenberg3]]:quotient_matches_lift"]),
    ("so3-trivial-bundle", _flip_lie_part, ["poisson.dual_pair"], ["poisson.dual_pair[TrivialProduct[so3]]:quotient_matches_lift"]),
    ("heisenberg-verify", _flip_lie_part, ["poisson.dual_pair"], ["poisson.dual_pair[TrivialProduct[heisenberg3]]:quotient_matches_lift"]),
    ("so3-trivial-bundle", _symmetric_bivector_part, ["poisson.properties"], ["poisson.bracket_properties[so3*]:antisymmetry",
     "poisson.bracket_properties[T*R2]:antisymmetry", "poisson.bracket_properties[T*P/G[TrivialProduct[so3]]]:antisymmetry"]),
    ("so3-trivial-bundle", _non_jacobi_structure, ["poisson.jacobi"], ["poisson.jacobi:lie_poisson", "poisson.jacobi:quotient"]),
], ids=["j2-negated-so3", "j2-negated-heisenberg", "quot-rep-shift-scaled", "a-star-into-b-slot", "chain-rule-dropped-so3",
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


@pytest.mark.parametrize("row, name", [(0, "heavy-top-lagrange"), (1, "heavy-top-lagrange"), (2, "heavy-top-lagrange"),
                                       (3, "heavy-top-free"), (4, "heavy-top-free"), (5, "heavy-top-lagrange")])
def test_sign_flipped_field_term_fails_a_drift_check(tmp_path, monkeypatch, row, name):
    # the first term of one component of the compiled heavy-top field, negated: the flow is no
    # longer Hamiltonian for the Lie-Poisson bracket, so a conserved quantity drifts
    compile_ = poisson._compile

    def mutant(fn_name, lines, namespace):
        if fn_name == "field":  # the last line is "return [v0, v1, ...]"
            rows = lines[-1].removeprefix("return [").removesuffix("]").split(", ")
            rows[row] = "-" + rows[row]
            lines = lines[:-1] + [f"return [{', '.join(rows)}]"]
        return compile_(fn_name, lines, namespace)

    monkeypatch.setattr(poisson, "_compile", mutant)
    assert run(["simulate", name, "--out", str(tmp_path)]) == cli.EXIT_CHECK_FAILURE
    report = json.loads((tmp_path / "report.json").read_text())
    assert any(v > report["drift_tol"] for v in report["drift"].values()), report["drift"]


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


def test_leaves_suite_exception_becomes_failed_check(tmp_path):
    # at |mu0| near the float limit the rotation angle of the coadjoint transport overflows
    # inside the groupoid action suite; the leaf suite and the leaf points still come out
    doc = json.loads(json.dumps(cli.BUILTIN_SCENARIOS["so3-leaves"]))
    doc["leaves"]["mu0"] = [1e308, 0.0, 1.0]
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    with np.errstate(over="ignore", invalid="ignore"):
        assert run(["leaves", str(path), "--out", str(tmp_path / "out")]) == cli.EXIT_CHECK_FAILURE
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert "poisson.groupoid_action:suite_error" in report["failures"]
    suites = {s["suite"]: s for s in report["suites"]}
    (check,) = suites["poisson.groupoid_action"]["checks"]
    assert check["info"]["error"] == "LieDomainError"
    assert "poisson.leaf[TrivialProduct[so3]|orbit(so3)]" in suites
    assert (tmp_path / "out" / "leaf_points.csv").exists()


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
