import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import oracles
import reswitch
from reswitch import cli, graphs
from reswitch.errors import InvalidInputError


def gen(tmp_path, name="inst.txt", n=12, extra=8, seed=7, **flags):
    path = tmp_path / name
    argv = ["generate", "--n", str(n), "--extra", str(extra), "--seed", str(seed),
            "--output", str(path)]
    for k, v in flags.items():
        argv += [f"--{k.replace('_', '-')}", str(v)]
    assert cli.main(argv) == 0
    return path


def run_json(argv, out_path):
    assert cli.main(argv + ["--output", str(out_path)]) == 0
    with open(out_path) as fh:
        return json.load(fh)


# --- generation ---------------------------------------------------------------

def test_generate_is_deterministic(tmp_path):
    a = gen(tmp_path, "a.txt").read_bytes()
    b = gen(tmp_path, "b.txt").read_bytes()
    assert a == b
    c = gen(tmp_path, "c.txt", seed=8).read_bytes()
    assert c != a


def test_generate_renders_the_instance_once(tmp_path, monkeypatch, capsys):
    # One instance_text call gives both the file and the printed digest,
    # which is the digest of the instance read back.
    calls = []
    render = graphs.instance_text
    monkeypatch.setattr(graphs, "instance_text", lambda *args: calls.append(1) or render(*args))
    path = gen(tmp_path, n=15, extra=9)
    assert len(calls) == 1
    printed = capsys.readouterr().out.split("digest=")[1].strip()
    assert printed == cli.instance_digest(*graphs.read_instance(path))


def test_generated_instance_is_valid(tmp_path):
    g, d, q = graphs.read_instance(gen(tmp_path, n=15, extra=9))
    assert graphs.validate(g) == []
    assert g.m == 14 + 9
    assert abs(d.sum()) < 1e-12
    assert np.linalg.norm(d) == pytest.approx(1.0)
    assert q == cli.default_budget(g)


def test_generate_simple_graphs_have_distinct_pairs():
    g, _ = cli.generate_instance(10, 20, seed=1)
    pairs = [(i, j) for (i, j, _) in g.edges]
    assert len(set(pairs)) == len(pairs)


def test_generate_multigraph_allows_parallels():
    g, _ = cli.generate_instance(3, 5, seed=1, multigraph=True)
    pairs = [(i, j) for (i, j, _) in g.edges]
    assert len(set(pairs)) < len(pairs)


def test_generate_rejects_impossible_extra(tmp_path, capsys):
    # n = 2 has no node pair off the tree, not even for a multigraph. A
    # negative seed, non-finite or reversed weight bounds and a budget below
    # the backbone are refused before anything is written.
    out = tmp_path / "x.txt"
    for argv in (["--n", "3", "--extra", "10"], ["--n", "2", "--extra", "1", "--multigraph"],
                 ["--n", "10", "--extra", "5", "--seed", "-1"],
                 ["--n", "10", "--extra", "5", "--weight-lo", "nan"],
                 ["--n", "10", "--extra", "5", "--weight-hi", "inf"],
                 ["--n", "10", "--extra", "5", "--weight-lo", "3", "--weight-hi", "1"],
                 ["--n", "10", "--extra", "5", "--q", "-3"]):
        rc = cli.main(["generate", *argv, "--output", str(out)])
        assert rc == 2, argv
        assert "invalid input" in capsys.readouterr().err
        assert not out.exists(), argv


def test_default_budget_splits_free_edges():
    g, _ = cli.generate_instance(10, 8, seed=0)
    assert cli.default_budget(g) == 9 + 4
    tree, _ = cli.generate_instance(10, 0, seed=0)
    assert cli.default_budget(tree) == 9


@pytest.mark.parametrize("args, kwargs, digest", [
    ((12, 8), dict(seed=7),
     "b620626af2807686f1fe3cb847b6988b01027bcf01e11b4b2def2e68c7d1ddcb"),
    ((200, 300), dict(seed=3, demand="gauss"),
     "8660f86abe356660ca646e88a18a45d5d1c4d61759e579ef690e708878f7a398"),
    ((3000, 6000), dict(seed=1, multigraph=True),
     "d9af7a3af17882a4bd6da190f70c589ed72cf6b099332510b52fb525fcc0bbf9"),
])
def test_generated_instances_are_pinned(tmp_path, args, kwargs, digest):
    g, d = cli.generate_instance(*args, **kwargs)
    q = cli.default_budget(g)
    assert cli.instance_digest(g, d, q) == digest
    graphs.write_instance(tmp_path / "inst.txt", g, d, q)
    assert cli.instance_digest(*graphs.read_instance(tmp_path / "inst.txt")) == digest


@pytest.mark.parametrize("n, extra, multigraph", [
    (2, 0, False), (12, 8, False), (40, 700, False), (30, 406, False),  # 406: complete graph
    (25, 60, True), (300, 900, True)])
def test_generator_matches_one_pair_at_a_time_reference(n, extra, multigraph):
    for seed, demand in [(0, "pair"), (17, "gauss")]:
        g, d = cli.generate_instance(n, extra, seed, demand=demand, multigraph=multigraph)
        g_ref, d_ref = oracles.generate_instance_loop(n, extra, seed, demand=demand,
                                                      multigraph=multigraph)
        assert graphs.instance_text(g, d, 1) == graphs.instance_text(g_ref, d_ref, 1)


def test_digest_tracks_budget():
    g, d = cli.generate_instance(8, 4, seed=0)
    assert cli.instance_digest(g, d, 9) != cli.instance_digest(g, d, 10)


# --- solve / round / certify / enumerate chain -----------------------------------

def test_solve_round_certify_enumerate_chain(tmp_path):
    inst = gen(tmp_path, n=12, extra=8, seed=7)
    sol = run_json(["solve", "--input", str(inst), "--alpha", "0.1"],
                   tmp_path / "sol.json")
    rec = sol["record"]
    assert rec["schema_version"] == 1
    assert rec["kind"] == "solve"
    assert rec["certificate"]["certified"] is True
    assert rec["certificate"]["bound_factor"] == pytest.approx(1.1)
    assert len(rec["switch_vector"]) == rec["m"]
    assert set(sol) == {"record", "timing", "timestamp"}

    rnd = run_json(["round", "--input", str(inst), "--solution",
                    str(tmp_path / "sol.json"), "--repeats", "4", "--seed", "3"],
                   tmp_path / "round.json")
    draws = rnd["record"]["draws"]
    assert [dr["seed"] for dr in draws] == [3, 4, 5, 6]
    assert all(dr["edges_on"] <= rnd["record"]["q"] for dr in draws)
    assert rnd["record"]["rng_algorithm"] == "pcg64"

    cert = run_json(["certify", "--input", str(inst), "--solution",
                     str(tmp_path / "sol.json"), "--alpha", "0.1"],
                    tmp_path / "cert.json")
    # certifying the solved point reproduces the solve-time certificate
    assert cert["record"]["certificate"]["gap"] == pytest.approx(
        rec["certificate"]["gap"], abs=1e-12)
    assert cert["record"]["certificate"]["phi_value"] == pytest.approx(
        rec["certificate"]["phi_value"], abs=1e-12)

    enum = run_json(["enumerate", "--input", str(inst)], tmp_path / "enum.json")
    assert enum["record"]["instance_digest"] == rec["instance_digest"]
    # a sound certificate puts the fractional value within 1+alpha of optimal
    assert rec["phi_fractional"] <= 1.1 * enum["record"]["best_phi"] + 1e-9


def test_certify_defaults_to_backbone(tmp_path):
    inst = gen(tmp_path, n=8, extra=2, seed=2, q=7)
    doc = run_json(["certify", "--input", str(inst)], tmp_path / "c.json")
    # q equals the backbone size, so the backbone point is trivially optimal
    assert doc["record"]["certificate"]["certified"] is True
    assert doc["record"]["certificate"]["gap"] <= 1e-12


def test_certify_rejects_an_over_budget_point(tmp_path, capsys):
    inst = gen(tmp_path, n=40, extra=60, seed=5)  # m = 99, q = 69
    sol = tmp_path / "all_on.json"
    sol.write_text(json.dumps({"record": {"switch_vector": [1.0] * 99}}))
    assert cli.main(["certify", "--input", str(inst), "--solution", str(sol)]) == 2
    assert "above the budget q=69" in capsys.readouterr().err


def test_nan_switch_vector_exits_2(tmp_path, capsys):
    # json reads NaN, and every comparison with NaN is false, so a NaN entry
    # once passed the range check: round drew too few edges and certify
    # failed inside the solver.
    inst = gen(tmp_path, n=12, extra=8, seed=3)
    g, _, _ = graphs.read_instance(inst)
    sol = tmp_path / "nan.json"
    s = np.where(g.backbone_mask, 1.0, np.nan)
    sol.write_text(json.dumps({"record": {"switch_vector": s.tolist()}}))
    for cmd in ("round", "certify"):
        assert cli.main([cmd, "--input", str(inst), "--solution", str(sol)]) == 2, cmd
        assert "switch entries must lie in [0, 1]" in capsys.readouterr().err, cmd


@pytest.mark.parametrize("argv", [["solve", "--input", "i.txt"],
                                  ["round", "--input", "i.txt", "--solution", "s.json"],
                                  ["certify", "--input", "i.txt"],
                                  ["bench", "--sizes", "30:45"]], ids=lambda a: a[0])
def test_no_subcommand_takes_a_preconditioner(capsys, argv):
    with pytest.raises(SystemExit) as info:
        cli.main(argv + ["--preconditioner", "auto"])
    assert info.value.code == 2
    assert "unrecognized arguments: --preconditioner auto" in capsys.readouterr().err


def test_solve_takes_no_seed(tmp_path, capsys):
    # solve draws nothing, so a seed would only be copied into its record.
    inst = gen(tmp_path, n=8, extra=4, seed=1)
    with pytest.raises(SystemExit) as info:
        cli.main(["solve", "--input", str(inst), "--seed", "1"])
    assert info.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
    assert "seed" not in run_json(["solve", "--input", str(inst)],
                                  tmp_path / "sol.json")["record"]


@pytest.mark.parametrize("cmd", ["round", "certify"])
def test_round_and_certify_take_no_iteration_cap(tmp_path, capsys, cmd):
    # --max-iterations caps Frank-Wolfe, which neither of them runs.
    inst = gen(tmp_path, n=8, extra=4, seed=1)
    sol = tmp_path / "sol.json"
    run_json(["solve", "--input", str(inst), "--max-iterations", "7"], sol)
    with pytest.raises(SystemExit) as info:
        cli.main([cmd, "--input", str(inst), "--solution", str(sol), "--max-iterations", "7"])
    assert info.value.code == 2
    assert "unrecognized arguments: --max-iterations 7" in capsys.readouterr().err


def test_round_respects_budget_with_custom_q(tmp_path):
    inst = gen(tmp_path, n=10, extra=8, seed=4)
    run_json(["solve", "--input", str(inst)], tmp_path / "sol.json")
    doc = run_json(["round", "--input", str(inst), "--solution",
                    str(tmp_path / "sol.json"), "--q", "11", "--repeats", "3"],
                   tmp_path / "r.json")
    assert doc["record"]["q"] == 11
    assert all(dr["edges_on"] == 11 for dr in doc["record"]["draws"])


def test_round_rejects_budget_below_backbone(tmp_path, capsys):
    inst = gen(tmp_path, n=8, extra=4, seed=1)  # 7 backbone edges
    run_json(["solve", "--input", str(inst)], tmp_path / "sol.json")
    rc = cli.main(["round", "--input", str(inst), "--solution", str(tmp_path / "sol.json"),
                   "--q", "3"])
    assert rc == 2
    assert "below the backbone size 7" in capsys.readouterr().err


# --- exit codes --------------------------------------------------------------------

def test_missing_input_exits_2(tmp_path, capsys):
    assert cli.main(["solve", "--input", str(tmp_path / "nope.txt")]) == 2
    assert "invalid input" in capsys.readouterr().err


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    for raw, culprit in [({"n": 8, "extras": 3}, "extras"),
                         ({"n": 10, "extra": 5, "alpha": "0.1"}, "alpha"),
                         ({"n": 10, "extra": 5, "repeats": 0}, "repeats"),
                         # The solver path and the step rule are not options.
                         ({"n": 10, "extra": 5, "preconditioner": "auto"}, "preconditioner"),
                         ({"n": 10, "extra": 5, "step_rule": "monotone_guard"},
                          "step_rule")]:
        cfg.write_text(json.dumps(raw))
        assert cli.main(["experiment", "--config", str(cfg)]) == 2
        assert culprit in capsys.readouterr().err


@pytest.mark.parametrize("command", ["round", "bench", "experiment"])
def test_negative_seed_exits_2(tmp_path, capsys, command):
    out = tmp_path / "out.json"
    if command == "round":
        inst = gen(tmp_path, n=8, extra=4, seed=1)
        run_json(["solve", "--input", str(inst)], tmp_path / "sol.json")
        argv = ["round", "--input", str(inst), "--solution", str(tmp_path / "sol.json"),
                "--seed", "-1"]
    elif command == "bench":
        argv = ["bench", "--sizes", "10:20", "--seed", "-2"]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 10, "extra": 5, "seed": -1}))
        argv = ["experiment", "--config", str(cfg)]
    capsys.readouterr()
    assert cli.main(argv + ["--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert json.loads(err)["error"] == "invalid input"
    assert "nonnegative" in json.loads(err)["detail"]
    assert not out.exists()


def test_round_zero_repeats_exits_2(tmp_path, capsys):
    inst = gen(tmp_path, n=8, extra=4, seed=1)
    run_json(["solve", "--input", str(inst)], tmp_path / "sol.json")
    assert cli.main(["round", "--input", str(inst), "--solution",
                     str(tmp_path / "sol.json"), "--repeats", "0"]) == 2
    assert "repeats" in capsys.readouterr().err


@pytest.mark.parametrize("edges, demand", [
    ("1 2 1.0 1\n2 3 1.0 1\n1 3 inf 0", "0.5 0.0 -0.5"),   # off-backbone weight
    ("1 2 1.0 1\n2 3 1.0 1\n1 3 1.0 0", "0.5 nan -0.5"),   # demand entry
    ("1 2 inf 1\n2 3 1.0 1\n1 3 1.0 0", "0.5 0.0 -0.5"),   # backbone weight
])
def test_non_finite_input_exits_2(tmp_path, capsys, edges, demand):
    inst = tmp_path / "inst.txt"
    inst.write_text(f"3 3 3\n{edges}\n{demand}\n")
    assert cli.main(["solve", "--input", str(inst)]) == 2
    assert "finite" in capsys.readouterr().err


def test_unbalanced_demand_exits_2_when_its_square_overflows(tmp_path, capsys):
    # d @ d overflows here, and the zero-sum check still sees the 1e150.
    inst = tmp_path / "inst.txt"
    inst.write_text("3 3 3\n1 2 1.0 1\n2 3 1.0 1\n1 3 1.0 0\n1e155\n1e150\n-1e155\n")
    assert cli.main(["solve", "--input", str(inst)]) == 2
    assert "sum to zero" in capsys.readouterr().err


def test_instance_without_nodes_exits_2(tmp_path, capsys):
    inst = tmp_path / "empty.txt"
    inst.write_text("0 0 0\n")
    for cmd in ("solve", "certify", "enumerate"):
        assert cli.main([cmd, "--input", str(inst)]) == 2, cmd
        assert "graph has no nodes" in capsys.readouterr().err, cmd


def test_overflowed_phi_is_not_certified(tmp_path):
    # phi = d^T L_s^+ d overflows to inf at every switch vector of these
    # rings, on the dense kernel (3 nodes) and on CG (65 nodes).
    small = tmp_path / "inst.txt"
    small.write_text("3 3 3\n1 2 1.0 1\n2 3 1.0 1\n1 3 1.0 0\n1e155\n0\n-1e155\n")
    large = tmp_path / "ring65.txt"
    d = np.zeros(65)
    d[0], d[-1] = 1e155, -1e155
    graphs.write_instance(large, oracles.ring(65), d, 65)
    for inst in (small, large):
        records = {cmd: run_json([cmd, "--input", str(inst)],
                                 tmp_path / f"{cmd}.json")["record"]
                   for cmd in ("solve", "certify")}
        for cmd, record in records.items():
            cert = record["certificate"]
            assert cert["certified"] is False and cert["phi_value"] == np.inf, (inst, cmd)
        # Frank-Wolfe stops at its first step, where neither phi is finite.
        assert records["solve"]["iterations"] == 1, inst


def test_small_conductances_certify_in_their_own_units(tmp_path):
    # Every weight times 1e-9, 1e-12 or 1e-15: the dense kernel grounds
    # node 0 and shifts no entry, so each run certifies, and its phi,
    # scaled back, is the unit-scale instance's.
    base = gen(tmp_path, "base.txt", n=40, extra=30, seed=3, demand="gauss")
    g, d, q = graphs.read_instance(base)

    def phis(inst, tag):
        sol = tmp_path / f"sol{tag}.json"
        records = [run_json(["solve", "--input", str(inst)], sol)["record"],
                   run_json(["certify", "--input", str(inst), "--solution", str(sol)],
                            tmp_path / f"cert{tag}.json")["record"]]
        for record in records:
            assert record["certificate"]["certified"] is True, (inst, record["kind"])
        best = run_json(["enumerate", "--input", str(inst)], tmp_path / f"enum{tag}.json")
        return np.array([*(r["certificate"]["phi_value"] for r in records),
                         best["record"]["best_phi"]])

    ref = phis(base, "")
    for scale in (1e-9, 1e-12, 1e-15):
        inst = tmp_path / f"scaled{scale}.txt"
        graphs.write_instance(inst, graphs.Graph(g.n, g.ei, g.ej, scale * g.w,
                                                 g.backbone_mask), d, q)
        assert_allclose(phis(inst, scale) * scale, ref, rtol=1e-12, atol=0)


@pytest.mark.parametrize("n, extra", [(40, 30), (200, 120)])
@pytest.mark.parametrize("scale", [1e200, 1e-155])
def test_weights_far_from_one_certify_the_unit_scale_phi(tmp_path, capsys, n, extra, scale):
    # Every weight times 1e200 or 1e-155, where w * delta^2 computed as it
    # reads under- or overflows: the gradient squares delta scaled by a
    # power of two, and the search scales its weights, so solve and
    # certify reach the unit-scale phi, scaled back, with no warning, and
    # no interval excludes the oracle's phi at the solution. Each run
    # certifies or exits 3.
    base = gen(tmp_path, "base.txt", n=n, extra=extra, seed=3, demand="gauss")
    g, d, q = graphs.read_instance(base)
    inst = tmp_path / "scaled.txt"
    scaled = graphs.Graph(g.n, g.ei, g.ej, scale * g.w, g.backbone_mask)
    graphs.write_instance(inst, scaled, d, q)
    unit = run_json(["solve", "--input", str(base)], tmp_path / "unit.json")["record"]
    capsys.readouterr()
    sol = tmp_path / "sol.json"
    runs = [["solve", "--input", str(inst), "--output", str(sol)],
            ["certify", "--input", str(inst), "--solution", str(sol),
             "--output", str(tmp_path / "cert.json")]]
    if n == 40:
        runs.append(["enumerate", "--input", str(inst), "--output", str(tmp_path / "enum.json")])
    for argv in runs:
        rc = cli.main(argv)
        assert rc in (0, 3), argv
        assert "Warning" not in capsys.readouterr().err, argv
        if rc == 3:
            continue
        record = json.loads(Path(argv[-1]).read_text())["record"]
        if argv[0] == "enumerate":
            best = record["best_phi"]
            s = np.asarray(record["best_switch_vector"])
            assert_allclose(best, oracles.phi(scaled, s, d), rtol=1e-9)
            continue
        cert = record["certificate"]
        assert cert["certified"] is True, argv
        truth = oracles.phi(scaled, np.asarray(json.loads(sol.read_text())["record"]
                                               ["switch_vector"]), d)
        assert cert["lower_bound"] * (1 - 1e-9) <= truth <= cert["upper_bound"] * (1 + 1e-9)
        assert_allclose(cert["phi_value"] * scale, unit["certificate"]["phi_value"],
                        rtol=1e-8)


def test_enumerate_on_tiny_weights_warns_of_nothing(tmp_path, capsys):
    # A triangle of 1e-300 weights: the search's squares stay in range, so
    # enumerate finishes without a warning, at the oracle's phi, 2e300 / 3.
    path = tmp_path / "triangle.txt"
    path.write_text("3 3 3\n1 2 1e-300 1\n2 3 1e-300 1\n1 3 1e-300 0\n1\n0\n-1\n")
    record = run_json(["enumerate", "--input", str(path)], tmp_path / "enum.json")["record"]
    assert "Warning" not in capsys.readouterr().err
    g, d, _ = graphs.read_instance(path)
    assert_allclose(record["best_phi"], oracles.phi(g, np.ones(3), d), rtol=1e-9)
    assert_allclose(record["best_phi"], 2e300 / 3, rtol=1e-12)


def test_conductances_beyond_double_precision_exit_3(tmp_path, capsys):
    # A backbone path 1e-300, 1e300, 1 with a switchable 1e300 edge between
    # its ends. At the backbone indicator the demand crosses the path, so
    # phi is the sum of its resistances, about 1e300; the 1e-300 edge is
    # lost beside the 1e300 in the diagonal entry they share. The residual
    # on L itself sees the loss, so certify exits 3 rather than report an
    # interval that excludes phi.
    path = tmp_path / "path.txt"
    path.write_text("4 4 4\n1 2 1e-300 1\n2 3 1e300 1\n3 4 1.0 1\n1 4 1e300 0\n"
                    "1\n0\n0\n-1\n")
    assert cli.main(["certify", "--input", str(path)]) == 3
    assert "numerical failure" in capsys.readouterr().err
    # Every weight 1e308: each diagonal entry overflows, and every
    # subcommand that solves exits 3, with no warning from the residual.
    triangle = tmp_path / "triangle.txt"
    triangle.write_text("3 3 3\n1 2 1e308 1\n2 3 1e308 1\n1 3 1e308 0\n0.5\n0\n-0.5\n")
    for cmd in ("solve", "certify", "enumerate"):
        assert cli.main([cmd, "--input", str(triangle)]) == 3, cmd
        err = capsys.readouterr().err
        assert "numerical failure" in err and "Warning" not in err, cmd


def test_enumeration_cap_exits_4(tmp_path, capsys):
    # 24 identical parallel free edges and q = |T| + 12: every configuration
    # ties, so no bound prunes and the search passes its node cap
    inst = tmp_path / "ties.txt"
    g = graphs.make_graph(2, [(0, 1, 1.0)] * 25, [0])
    graphs.write_instance(inst, g, np.array([1.0, -1.0]), 1 + 12)
    assert cli.main(["enumerate", "--input", str(inst)]) == 4
    assert "cap exceeded" in capsys.readouterr().err


def test_enumerate_thirty_free_edges_between_bounds(tmp_path):
    # n = 40 with 30 free edges, 2^30 configurations: the exact optimum lies
    # between the certified lower bound phi - gap and every rounded draw
    inst = gen(tmp_path, n=40, extra=30, seed=3)
    g, _, q = graphs.read_instance(inst)
    enum = run_json(["enumerate", "--input", str(inst)], tmp_path / "enum.json")["record"]
    sol = run_json(["solve", "--input", str(inst), "--alpha", "0.05"],
                   tmp_path / "sol.json")["record"]
    rnd = run_json(["round", "--input", str(inst), "--solution", str(tmp_path / "sol.json"),
                    "--repeats", "8", "--repair", "trim_and_fill"],
                   tmp_path / "round.json")["record"]
    best = enum["best_phi"]
    cert = sol["certificate"]
    assert best >= (cert["phi_value"] - cert["gap"]) * (1 - 1e-12)
    assert all(best <= dr["phi"] * (1 + 1e-12) for dr in rnd["draws"])
    assert sum(enum["best_switch_vector"]) == q


def test_resample_exhaustion_exits_3(tmp_path, capsys):
    inst = gen(tmp_path, n=10, extra=8, seed=1)
    g, d, q = graphs.read_instance(inst)
    sol = tmp_path / "ones.json"
    sol.write_text(json.dumps({"record": {"switch_vector": [1.0] * g.m}}))
    rc = cli.main(["round", "--input", str(inst), "--solution", str(sol),
                   "--repair", "resample", "--max-resamples", "0"])
    assert rc == 3
    assert "numerical failure" in capsys.readouterr().err


def test_solution_without_switch_vector_exits_2(tmp_path, capsys):
    # Valid JSON of the wrong shape is invalid input, not a traceback.
    inst = gen(tmp_path, n=8, extra=2, seed=1)
    sol = tmp_path / "empty.json"
    for doc in ({"record": {}}, [1, 2], "switch_vector", {"record": 1},
                {"switch_vector": ["a"]}, {"switch_vector": {"a": 1}},
                {"switch_vector": [[1.0], [1.0, 0.0]]}, {"switch_vector": [10 ** 400]}):
        sol.write_text(json.dumps(doc))
        assert cli.main(["round", "--input", str(inst), "--solution", str(sol)]) == 2, doc
        assert "invalid input" in capsys.readouterr().err


@pytest.mark.parametrize("reader", ["instance", "config", "solution"])
def test_non_ascii_input_file_exits_2(tmp_path, capsys, reader):
    # Every reader opens its file as ASCII; a byte beyond it is invalid input.
    inst = gen(tmp_path, n=8, extra=2, seed=1)
    bad = tmp_path / "bad"
    if reader == "instance":
        bad.write_bytes(b"# caf\xc3\xa9\n" + inst.read_bytes())
        argv = ["solve", "--input", str(bad)]
    elif reader == "config":
        bad.write_bytes(b'{"n": 8, "extra": 2, "demand": "caf\xc3\xa9"}')
        argv = ["experiment", "--config", str(bad)]
    else:
        run_json(["solve", "--input", str(inst)], tmp_path / "sol.json")
        bad.write_bytes(b"\xff" + (tmp_path / "sol.json").read_bytes())
        argv = ["round", "--input", str(inst), "--solution", str(bad)]
    assert cli.main(argv) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "invalid input" and "ascii" in err["detail"]


# --- output formats and replay --------------------------------------------------------

def test_csv_output_matches_json_record(tmp_path):
    inst = gen(tmp_path, n=10, extra=6, seed=5)
    doc = run_json(["solve", "--input", str(inst)], tmp_path / "sol.json")
    assert cli.main(["solve", "--input", str(inst), "--format", "csv",
                     "--output", str(tmp_path / "sol.csv")]) == 0
    with open(tmp_path / "sol.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    row = rows[0]
    rec = doc["record"]
    assert int(row["n"]) == rec["n"]
    assert float(row["phi_fractional"]) == pytest.approx(rec["phi_fractional"])
    assert float(row["certificate.gap"]) == pytest.approx(rec["certificate"]["gap"])
    assert row["certificate.certified"] == "True"
    assert "switch_vector" not in row  # lists stay out of the flat table
    assert any(c.startswith("timing.") for c in row)


def test_experiment_records_replay_bitwise():
    cfg = cli.ExperimentConfig(n=11, extra=7, seed=9, q=13, alpha=0.2, repeats=3,
                               enumerate_baseline=True)
    a = cli.run_experiment(cfg)
    b = cli.run_experiment(cfg)
    assert json.dumps(a["record"], sort_keys=True) == \
        json.dumps(b["record"], sort_keys=True)


def test_experiment_matches_solve_then_round(tmp_path):
    inst = gen(tmp_path, n=12, extra=8, seed=7)
    sol = run_json(["solve", "--input", str(inst), "--alpha", "0.2"],
                   tmp_path / "sol.json")["record"]
    rnd = run_json(["round", "--input", str(inst), "--solution", str(tmp_path / "sol.json"),
                    "--repeats", "3", "--seed", "3"], tmp_path / "round.json")["record"]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"input_path": str(inst), "alpha": 0.2, "seed": 3,
                                    "repeats": 3}))
    exp = run_json(["experiment", "--config", str(cfg_path)], tmp_path / "exp.json")["record"]
    for key in ("phi_fractional", "certificate", "iterations"):
        assert exp[key] == sol[key]
    for key in ("rounded_phi_mean", "rounded_phi_min", "rounded_phi_max"):
        assert exp[key] == rnd[key]
    assert exp["repairs_total"] == sum(dr["repairs"] for dr in rnd["draws"])


def test_experiment_refuses_generation_keys_beside_an_instance_file(tmp_path, capsys):
    # The file fixes the graph and the demand, so a key that would generate
    # them is refused rather than ignored; seed and q still apply.
    inst = gen(tmp_path, n=12, extra=8, seed=7)
    cfg_path = tmp_path / "cfg.json"
    generating = {"n": 50, "extra": 7, "weight_lo": 3.0, "weight_hi": 4.0,
                  "demand": "gauss", "multigraph": True}
    for keys in [[key] for key in generating] + [sorted(generating)]:
        cfg_path.write_text(json.dumps({"input_path": str(inst),
                                        **{key: generating[key] for key in keys}}))
        assert cli.main(["experiment", "--config", str(cfg_path)]) == 2, keys
        assert f"config keys {keys} describe a generated instance" in \
            capsys.readouterr().err, keys
    cfg_path.write_text(json.dumps({"input_path": str(inst), "seed": 3, "q": 13}))
    rec = run_json(["experiment", "--config", str(cfg_path)], tmp_path / "exp.json")["record"]
    assert rec["seed"] == 3 and rec["q"] == 13


def test_experiment_command_end_to_end(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    out_path = tmp_path / "out.json"
    cfg_path.write_text(json.dumps({
        "n": 10, "extra": 7, "seed": 2, "alpha": 0.25, "repeats": 2,
        "enumerate_baseline": True,
    }))
    assert cli.main(["experiment", "--config", str(cfg_path),
                     "--output", str(out_path)]) == 0
    rec = json.loads(out_path.read_text())["record"]
    assert rec["kind"] == "experiment"
    if rec["certificate"]["certified"]:
        # the certified iterate sits within 1+alpha of the fractional optimum,
        # which the binary optimum can never beat
        assert rec["fractional_over_best"] <= 1.25 + 1e-9
    assert rec["rounded_min_over_best"] >= 1.0 - 1e-9
    assert rec["rounded_phi_min"] <= rec["rounded_phi_max"]


def test_bench_reports_per_iteration_times(tmp_path, capsys):
    out = tmp_path / "bench.json"
    rc = cli.main(["bench", "--sizes", "30:45,40:60", "--iters", "2", "--alpha", "0.001",
                   "--output", str(out)])
    assert rc == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if "s/iteration" in l]
    assert len(lines) == 2
    docs = json.loads(out.read_text())
    assert [d["record"]["m"] for d in docs] == [45, 60]
    assert all(d["timing"]["per_iteration_s"] >= 0.0 for d in docs)
    assert all("per_iteration_s" not in d["record"] for d in docs)


@pytest.mark.parametrize("sizes", ["30x45", "30:abc"])
def test_bench_rejects_malformed_sizes(capsys, sizes):
    assert cli.main(["bench", "--sizes", sizes]) == 2
    assert "invalid input" in capsys.readouterr().err


def test_every_cli_default_lives_in_the_config():
    # An option that is a config field defaults to None, so the config's
    # default applies; --multigraph, a store_true flag, defaults to False.
    fields = cli.ExperimentConfig.__dataclass_fields__
    ap = cli.build_parser()
    (subs,) = [a for a in ap._actions if a.dest == "command"]
    checked = 0
    for name, p in subs.choices.items():
        for action in p._actions:
            if action.dest in fields and action.dest != "multigraph":
                assert action.default is None, (name, action.dest, action.default)
                checked += 1
    assert checked > 30
    args = ap.parse_args(["solve", "--input", "x"])
    assert cli._config_from_args(args) == cli.ExperimentConfig(input_path="x")


def test_config_file_round_trip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n": 6, "extra": 2, "alpha": 0.5}))
    cfg = cli.ExperimentConfig.from_file(path)
    assert cfg.n == 6 and cfg.extra == 2 and cfg.alpha == 0.5
    assert cfg.repair == "trim_and_fill"  # defaults fill the rest


def test_generate_demand_kinds():
    _, d_pair = cli.generate_instance(9, 3, seed=3, demand="pair")
    assert np.sum(d_pair != 0.0) == 2
    _, d_gauss = cli.generate_instance(9, 3, seed=3, demand="gauss")
    assert np.sum(d_gauss != 0.0) > 2
    with pytest.raises(InvalidInputError):
        cli.generate_instance(9, 3, seed=3, demand="uniform")


def test_every_export_resolves():
    for name in reswitch.__all__:
        assert hasattr(reswitch, name), name
    namespace = {}
    exec("from reswitch import *", namespace)
    assert set(reswitch.__all__) <= set(namespace)


def test_module_entry_point_runs_without_a_runpy_warning():
    # `python -m reswitch.cli` warns when importing the package has already
    # loaded reswitch.cli; the package must not import its CLI.
    src = str(Path(reswitch.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "reswitch.cli", "--help"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "usage" in proc.stdout
