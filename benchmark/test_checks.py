"""Each correctness check of the benchmark rejects a corrupted output.

Run from the root of the repository:

    python3 -m pytest -q benchmark/test_checks.py
"""

import copy
import importlib
import json
import os
import sys
from types import SimpleNamespace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402

KZ = SimpleNamespace(**{layer: importlib.import_module(f"koszulity.{layer}")
                        for layer in run.LAYERS})


def run_instance(workload, inst):
    return workload.run(KZ, wl.fresh(inst))


def corrupt_one_entry(dims):
    bad = dict(dims)
    key = max(bad)
    bad[key] += 1
    return bad


def test_inverse_series_of_exterior_and_polynomial():
    assert checks.inverse_series([1, 1], 4) == [1, -1, 1, -1, 1]
    # 1 / (1 + 3t + 3t^2 + t^3) = (1 + t)^-3
    assert checks.inverse_series([1, 3, 3, 1], 3) == [1, -3, 6, -10]
    assert checks.series_product([0, 1], [1, -1, 1], 2) == [0, 1, -1]


@pytest.fixture(scope="module")
def graph_case():
    sweep = wl.GraphSweep()
    triangle = next(i for i in sweep.setup(KZ, 0)
                    if i.label == "4v:[(0, 1), (0, 2), (1, 2)]")
    return sweep, triangle, run_instance(sweep, triangle)


def test_graph_sweep_passes_then_rejects_a_changed_entry(graph_case):
    sweep, inst, out = graph_case
    assert sweep.check(KZ, inst.data, out) == []
    for key in ("alg", "mod"):
        bad = dict(out, **{key: corrupt_one_entry(out[key])})
        assert any("Euler-Hilbert" in p for p in sweep.check(KZ, inst.data, bad))


@pytest.mark.parametrize("key", ["alg_verdict", "mod_verdict"])
def test_graph_sweep_rejects_a_flipped_verdict(graph_case, key):
    sweep, inst, out = graph_case
    bad = dict(out, **{key: not out[key]})
    assert any("graph criterion" in p for p in sweep.check(KZ, inst.data, bad))


def test_graph_sweep_round_needs_all_64_small_graphs():
    sweep = wl.GraphSweep()
    insts = sweep.setup(KZ, 0)
    assert sweep.check_round(insts) == []
    missing = next(i for i in insts if i.label.startswith("4v:"))
    assert sweep.check_round([i for i in insts if i is not missing]) != []


def test_dense_tor_rejects_changed_entries():
    dense = wl.DenseTor()
    inst = next(i for i in dense.setup(KZ, 0) if i.label == "n=3 r=1 super l=3 #0")
    out = run_instance(dense, inst)
    assert dense.check(KZ, inst.data, out) == []
    bad = {"alg": corrupt_one_entry(out["alg"])}
    problems = dense.check(KZ, inst.data, bad)
    assert any("Euler-Hilbert" in p for p in problems)
    assert any("resolution engine" in p for p in problems)
    # a table that keeps the Euler characteristic but has a wrong H_(2,2)
    shifted = dict(out["alg"])
    shifted[(2, 2)] -= 1
    shifted[(0, 2)] = shifted.get((0, 2), 0) + 1
    problems = dense.check(KZ, inst.data, {"alg": shifted})
    assert not any("Euler-Hilbert" in p for p in problems)
    assert any("H_(2,2)" in p for p in problems)


@pytest.fixture(scope="module")
def model_case():
    models = wl.PaperModels()
    inst = next(i for i in models.setup(KZ, 0) if i.label.startswith("local symplectic dim=2"))
    return models, inst, run_instance(models, inst)


def test_paper_models_rejects_a_non_koszul_check(model_case):
    models, inst, out = model_case
    assert models.check(KZ, inst.data, out) == []
    result = json.loads(out["check_out"])
    result["verdict"] = "non-koszul"
    bad = dict(out, check_code=1, check_out=json.dumps(result))
    problems = models.check(KZ, inst.data, bad)
    assert any("verdict" in p for p in problems)
    assert any("exited 1" in p for p in problems)


def test_paper_models_rejects_an_off_strand_module_entry(model_case):
    models, inst, out = model_case
    bad = copy.deepcopy(out)
    bad["plus"][(1, 1)] = 1
    assert any("off the strand" in p for p in models.check(KZ, inst.data, bad))


def test_run_refuses_a_directory_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = run.main(["--workload", "dense-tor", "--seed", "0", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""
