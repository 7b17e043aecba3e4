import hashlib
import json
import os

import pytest

from stabring import _kernels, words
from stabring import kcomplex as kc
from stabring import pipeline
from stabring.cli import main as cli_main
from stabring.kcomplex import build_kcomplex
from stabring.modules import GradedModule, regular_module
from stabring.ring import GradedRing
from stabring.pipeline import (ConfigError, PipelineConfig, emit_report,
                               render_summary, run_pipeline)

from conftest import BATTERY_SPECS, verdict_of


def small_config(**overrides):
    base = dict(group={"kind": "cyclic", "order": 2}, n_max=3, p_max=2,
                well_definedness_samples=50)
    base.update(overrides)
    return PipelineConfig(**base)


def test_config_validation():
    with pytest.raises(ConfigError, match="n_max"):
        PipelineConfig(group={"kind": "cyclic", "order": 2}, n_max=0, p_max=1)
    with pytest.raises(ConfigError, match="unknown config fields"):
        PipelineConfig.from_dict({"group": {}, "n_max": 1, "p_max": 1, "bogus": 2})
    for removed in ("depth", "threads", "backend", "cache_dir", "state_cap"):
        with pytest.raises(ConfigError, match="unknown config fields"):
            PipelineConfig.from_dict({"group": {}, "n_max": 1, "p_max": 1, removed: 2})
    with pytest.raises(ConfigError, match="seed must be >= 0"):
        small_config(seed=-1)
    with pytest.raises(ConfigError, match="well_definedness_samples must be >= 1"):
        small_config(well_definedness_samples=-3)
    with pytest.raises(ConfigError, match="well_definedness_samples must be >= 1"):
        small_config(well_definedness_samples=0)
    for name, value in (("n_max", "3"), ("p_max", 1.0), ("seed", None),
                        ("well_definedness_samples", 2.5)):
        with pytest.raises(ConfigError, match=f"{name} must be an integer"):
            small_config(**{name: value})


def test_trivial_group_all_verdicts_never_fail(reports):
    rep = reports["trivial"]
    assert rep.failure is None
    assert all(v["status"] != "fail" for v in rep.verdicts)
    assert rep.counts == [1, 1, 1, 1, 1]


def test_c2_report_counts_and_stability(reports):
    rep = reports["C2"]
    assert rep.counts == [1, 2, 2, 2, 2]
    assert rep.stability["stable_within_window"] is True
    assert verdict_of(rep, "sp_oracle_match")["status"] == "pass"
    assert verdict_of(rep, "stable_count")["status"] == "pass"


def test_minimal_window_runs():
    report = run_pipeline(small_config(n_max=1, p_max=1, well_definedness_samples=30))
    assert report.failure is None
    assert all(v["status"] != "fail" for v in report.verdicts)


def test_failed_stage_is_reported():
    config = small_config(group={"kind": "cyclic", "order": 0})
    report = run_pipeline(config)
    assert report.failure is not None
    assert report.failure["stage"] == "load-group"
    assert report.exit_code == 1


def test_state_cap_failure_keeps_partial_results(monkeypatch):
    # the orbit kernel's one state guard is the memory budget; C8's degree-2
    # states need 0.5 MiB, over a budget of 0.25 MiB
    monkeypatch.setattr(_kernels, "memory_budget", lambda: 2 ** 18)
    report = run_pipeline(PipelineConfig(group={"kind": "cyclic", "order": 8},
                                         n_max=3, p_max=0))
    assert report.failure is not None
    assert report.failure["stage"] == "orbits"
    assert "memory budget" in report.failure["error"]
    assert report.group["order"] == 8  # load stage result retained


def test_determinism_cold_and_warm_cache(tmp_path):
    words._move_images.cache_clear()
    cold = run_pipeline(small_config())
    assert words._move_images.cache_info().currsize > 0
    warm = run_pipeline(small_config())  # reuses the in-process move tables
    assert cold.to_json() == warm.to_json()
    d_cold, d_warm = tmp_path / "cold", tmp_path / "warm"
    emit_report(cold, str(d_cold))
    emit_report(warm, str(d_warm))
    assert (d_cold / "report.json").read_bytes() == (d_warm / "report.json").read_bytes()


def test_lambda_consistency_failure_is_reported(monkeypatch):
    monkeypatch.setattr(GradedModule, "consistency_failures",
                        lambda self: [(0, 0, (0, 0, 0, 0))])
    report = run_pipeline(small_config(n_max=2, p_max=1))
    assert report.failure["stage"] == "modules"
    assert "lambda consistency failed" in report.failure["error"]
    assert report.exit_code == 1
    assert report.counts and not report.homology  # the ring stage's results are kept


def test_dump_matrices_error_is_reported(tmp_path):
    # out_dir names a regular file, so the matrices directory cannot be made
    afile = tmp_path / "afile"
    afile.write_text("")
    report = run_pipeline(small_config(n_max=1, p_max=0, out_dir=str(afile),
                                       dump_matrices=True))
    assert report.failure["stage"] == "dump-matrices"
    assert report.exit_code == 1
    assert report.counts and not report.homology  # the ring stage's results are kept


# SHA-256 of every matrix file that `stabring run --dump-matrices` writes
DUMPED_MATRICES = {
    ("S3", 3, 2): {
        "d_p1_n1.txt": "5daf01fff2049af2e5f8f208e5bbb6bce0174a6a2c85dbc149124c398a4956ba",
        "d_p1_n2.txt": "cbfac90338284bfeb19c5f78d51b7d266d607739f5824125e80fa9faadc77376",
        "d_p1_n3.txt": "eebecb7d9177be873a6b286a7874363c995adcfdca0252f25179bb9a6a43b3c5",
        "d_p2_n2.txt": "9f5953cc2f9561bbc6aadfac72e0df35eb44e377b5ceaa2a486ad2f852ad1d40",
        "d_p2_n3.txt": "929f065fd7fc99a4a1d647266bf94682b476a0b10c1b4e004cea3932ba0f1506",
        "d_p3_n3.txt": "1300bf7c43e2f909f9fa0f0c9026fc9ccedcc1f7311c40e64df1250f3a294726",
    },
    ("C2xC2", 4, 3): {
        "d_p1_n1.txt": "67ec73d97078f6228d020f294dd9b852e9f33925db12133c401ae3d147368ce2",
        "d_p1_n2.txt": "72a869d4d98e9f3ace90e1be51778fdb68cd010617e731e0c7c72206c7a2814c",
        "d_p1_n3.txt": "1913b5401e49e8dc6390b5339bc98665bb6d37035e093cd780f434643846ba90",
        "d_p1_n4.txt": "1913b5401e49e8dc6390b5339bc98665bb6d37035e093cd780f434643846ba90",
        "d_p2_n2.txt": "401875976c5a58c9cb91953d95180f7af1804fa8090d5e24a52dbe5b14c5c6b4",
        "d_p2_n3.txt": "a9b237cfe327efc4e1d83c50af3cb351043fb76107daee1765cd44bfa07d8e43",
        "d_p2_n4.txt": "c6c1f53fd246a5ebb6b3f8f4dc3bfcb8bfc668dd5075f6c45e50293d76bbbe52",
        "d_p3_n3.txt": "026c763b1fb231291803ab8bb3e80b8f7020e47ee09977a7d1cee450485ca205",
        "d_p3_n4.txt": "f2ba28e05ea014b9c345013bd724848e8712e75640c450a75bf147d881e5ed7c",
        "d_p4_n4.txt": "874ad3af0f8d5eb96e763c4f8d1617228495d470be0d8b826f2fd0e7cacc18fa",
    },
}


def test_dumped_differentials_are_pinned(tmp_path):
    for (name, n_max, p_max), want in DUMPED_MATRICES.items():
        out = tmp_path / name
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps({"group": BATTERY_SPECS[name], "n_max": n_max,
                                        "p_max": p_max}))
        cli_main(["run", "--config", str(cfg_path), "--out", str(out), "--dump-matrices"])
        got = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in (out / "matrices").iterdir()}
        assert got == want, name


def test_annihilation_verdict_names_the_first_failing_pair(monkeypatch, rings):
    # one chain-map check per degree-1 class gives the witness of the loop
    # over every pair, whichever class fails
    ring = rings["S3"]
    K = build_kcomplex(regular_module(ring), 2, 2)
    order = ring.G.order
    for bad in [None] + list(range(ring.basis_size(1))):
        calls = []

        def fake(K, g, h):
            calls.append((g, h))
            return ring.class_index(1, (g, h)) != bad, (g, h)

        first = next(((g, h) for g in range(order) for h in range(order)
                      if not fake(K, g, h)[0]), None)
        calls.clear()
        monkeypatch.setattr(kc, "right_mult_is_chain_map", fake)
        verdict = pipeline._annihilation_verdict(K, True)
        if first is None:
            assert verdict["status"] == "pass"
            assert len(calls) == ring.basis_size(1)
        else:
            assert verdict["status"] == "fail"
            assert verdict["witness"] == (f"right multiplication by ({first[0]},{first[1]}) "
                                          f"is not a chain map at {first}")
            assert len(calls) == bad + 1


def test_orbit_stage_runs_the_kernel_at_degrees_one_and_two(monkeypatch):
    degrees = []
    kernel = pipeline.enumerate_orbits
    monkeypatch.setattr(pipeline, "enumerate_orbits",
                        lambda G, n, moves: degrees.append(n) or kernel(G, n, moves))
    report = run_pipeline(small_config(n_max=4, p_max=0, well_definedness_samples=10))
    assert report.failure is None
    assert degrees == [1, 2]
    assert report.counts == [1, 2, 2, 2, 2]
    # perfbench/run.py reads these stage names from Report.timings
    assert {"orbits", "ring"} <= set(report.timings)


def test_emit_report_files(tmp_path, reports):
    rep = reports["C2"]
    files = emit_report(rep, str(tmp_path))
    names = {os.path.basename(f) for f in files}
    assert names == {"report.json", "homology.csv", "counts.csv", "summary.txt"}
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["schema_version"] == 4
    assert "timings" not in payload
    rows = (tmp_path / "homology.csv").read_text().strip().splitlines()
    assert len(rows) - 1 == len(rep.homology)
    assert "verdicts:" in (tmp_path / "summary.txt").read_text()


def test_summary_contains_timings(reports):
    text = render_summary(reports["C2"])
    assert "timings (s):" in text


def test_cli_run_exit_codes(tmp_path):
    cfg = {"group": {"kind": "cyclic", "order": 2}, "n_max": 2, "p_max": 1,
           "well_definedness_samples": 20}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    code = cli_main(["run", "--config", str(cfg_path), "--out", str(out),
                     "--dump-moves", "--dump-matrices"])
    assert code in (0, 2)
    assert (out / "report.json").exists()
    assert (out / "moves_n1.json").exists()
    dumped = list((out / "matrices").glob("d_p*_n*.txt"))
    assert dumped
    from stabring.zlinalg import IntMatrix
    for path in dumped:
        text = path.read_text()
        assert IntMatrix.from_text(text).to_text() == text, path.name


def test_cli_dump_moves_writes_one_manifest_per_degree(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"group": {"kind": "cyclic", "order": 3},
                                    "n_max": 3, "p_max": 0,
                                    "well_definedness_samples": 10}))
    out = tmp_path / "out"
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(out),
                     "--dump-moves"]) in (0, 2)
    report = json.loads((out / "report.json").read_text())
    names = sorted(path.name for path in out.glob("moves_n*.json"))
    assert names == ["moves_n1.json", "moves_n2.json", "moves_n3.json"]
    for n in (1, 2, 3):
        manifest = json.loads((out / f"moves_n{n}.json").read_text())
        assert manifest["n"] == n
        assert len(manifest["moves"]) == 3 * n - 1
        assert manifest["hash"] == report["moveset_hashes"][str(n)]


def test_cli_orbits_and_oracle(tmp_path, capsys):
    spec = json.dumps({"kind": "cyclic", "order": 3})
    assert cli_main(["orbits", "--group", spec, "--n", "1"]) == 0
    out = capsys.readouterr().out
    assert "2 orbits" in out
    spec_path = tmp_path / "g.json"
    spec_path.write_text(spec)
    assert cli_main(["oracle", "--group", str(spec_path), "--n", "1"]) == 0
    out = capsys.readouterr().out
    assert "stable orbit-count prediction" in out and ": 2" in out


def test_cli_bad_config_returns_one(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"group": {"kind": "cyclic", "order": 2}}))
    assert cli_main(["run", "--config", str(cfg_path)]) == 1


def run_cli_config(tmp_path, capsys, **fields):
    """Exit code and stderr of ``stabring run`` on a small C2 config plus fields."""
    cfg = {"group": {"kind": "cyclic", "order": 2}, "n_max": 2, "p_max": 1, **fields}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code = cli_main(["run", "--config", str(cfg_path)])
    return code, capsys.readouterr().err


def test_cli_refuses_a_non_string_out_dir(tmp_path, capsys):
    code, err = run_cli_config(tmp_path, capsys, out_dir=5, dump_matrices=True)
    assert code == 1
    assert "out_dir must be a string path, got 5" in err


def test_cli_refuses_dump_matrices_without_out_dir(tmp_path, capsys):
    code, err = run_cli_config(tmp_path, capsys, dump_matrices=True)
    assert code == 1
    assert "dump_matrices needs out_dir" in err
    with pytest.raises(ConfigError, match="dump_matrices must be true or false"):
        small_config(dump_matrices="yes", out_dir=str(tmp_path))


def test_cli_refuses_dump_moves_without_out_dir(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"group": {"kind": "cyclic", "order": 2},
                                    "n_max": 2, "p_max": 1}))
    assert cli_main(["run", "--config", str(cfg_path), "--dump-moves"]) == 1
    captured = capsys.readouterr()
    assert "--dump-moves needs out_dir or --out" in captured.err
    assert not captured.out  # refused before the pipeline runs
    assert os.listdir(tmp_path) == ["cfg.json"]


def test_cli_refuses_a_config_naming_cache_dir(tmp_path, capsys):
    # the orbit cache and its cap are gone; a config that still names them is
    # an error, not silence
    for name, value in (("cache_dir", ".stabring-cache"), ("cache_dir", 7),
                        ("state_cap", 2 ** 32)):
        code, err = run_cli_config(tmp_path, capsys, **{name: value})
        assert code == 1
        assert f"unknown config fields: ['{name}']" in err


def test_config_echo_excludes_threads(reports):
    # only the fields that decide the results are echoed: no threads, no depth
    payload = reports["C2"].canonical_payload()
    assert set(payload["config"]) == {"n_max", "p_max", "seed", "well_definedness_samples"}


def test_well_definedness_fails_on_a_wrong_product_entry(rings):
    # class_index folds handle classes through product(k, 1), so the sampled
    # move images are what test that table: one wrong product(2, 1) entry,
    # not the least entry of its class, is caught
    ring = rings["S3"]
    config = PipelineConfig(group=BATTERY_SPECS["S3"], n_max=3, p_max=0)
    assert pipeline._well_definedness_verdict(ring, config)["status"] == "pass"
    steps = list(ring.steps)
    steps[2] = steps[2].copy()
    steps[2][-1, -1] = (steps[2][-1, -1] + 1) % ring.basis_size(3)
    wrong = GradedRing(ring.G, ring.n_max, ring.pair_class, steps, ring.moves_by_degree)
    assert [wrong.rep(3, j) for j in range(8)] == [ring.rep(3, j) for j in range(8)]
    verdict = pipeline._well_definedness_verdict(wrong, config)
    assert verdict["status"] == "fail"
    assert verdict["witness"].startswith("product mismatch")
