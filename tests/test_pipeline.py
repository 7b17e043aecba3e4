import hashlib
import json
import os
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest

from stabring import _kernels, oracle, words
from stabring import kcomplex as kc
from stabring import pipeline
from stabring import cli
from stabring.cli import main as cli_main
from stabring.kcomplex import HProfileRow, build_kcomplex
from stabring.modules import GradedModule, regular_module
from stabring.ring import GradedRing, RingError, StabilityProfile
from stabring.zlinalg import HomologyGroup, IntMatrix
from stabring.pipeline import (ConfigError, PipelineConfig, emit_report,
                               render_summary, run_pipeline)

from conftest import BATTERY_SPECS, BATTERY_WINDOWS, verdict_of
from reference_snf import from_dense, from_text, to_text


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


def ring_mutants(ring):
    """Rings with one entry of product(m, 1) or of product(1, m) changed, for
    every m >= 1 the window allows: the last entry of each step table and
    entry [1, 0] of each left product table past product(1, 1).  A
    step-table change that leaves a class unused is no ring, and is skipped."""
    for k in range(1, ring.n_max):
        steps = list(ring.steps)
        steps[k] = steps[k].copy()
        steps[k][-1, -1] = (steps[k][-1, -1] + 1) % ring.basis_size(k + 1)
        try:
            yield f"product({k}, 1)", GradedRing(ring.G, ring.n_max, ring.pair_class, steps)
        except RingError:
            continue
    for m in range(2, ring.n_max):
        mutated = GradedRing(ring.G, ring.n_max, ring.pair_class, ring.steps)
        table = ring.product(1, m).copy()
        table[1, 0] = (table[1, 0] + 1) % ring.basis_size(m + 1)
        mutated._products[1, m] = table  # read before any product(1, m + 1) is built
        yield f"product(1, {m})", mutated


def first_ring_failures(ring):
    """By loops over m, a, j, c in order: the first (m, a, j, c) with
    a.(j.c) != (a.j).c and the first (m, a, j) with a.(U j) != U(a.j), or None."""
    P = ring.product
    assoc = u = None
    for m in range(ring.n_max - 1):
        for a in range(ring.basis_size(1)):
            for j in range(ring.basis_size(m)):
                if u is None and P(1, m + 1)[a, P(1, m)[0, j]] != P(1, m + 1)[0, P(1, m)[a, j]]:
                    u = (m, a, j)
                for c in range(ring.basis_size(1)):
                    if assoc is None and (P(1, m + 1)[a, P(m, 1)[j, c]]
                                          != P(m + 1, 1)[P(1, m)[a, j], c]):
                        assoc = (m, a, j, c)
    return assoc, u


def test_annihilation_verdict_names_the_first_failing_pair(rings):
    """The verdict compares product tables of the ring, not maps on K(R).  On
    one-entry ring mutants of S3 and C4 its witness is the first failing
    (m, a, j, c) of the loops, and the K-level reference agrees: right
    multiplication by the class c is first not a chain map at the spot
    (p, n) = (1, m + 1), which reads R_m."""
    failed = 0
    for name in ("S3", "C4"):
        cases = [("true", rings[name]), *ring_mutants(rings[name])]
        for label, ring in cases:
            K = build_kcomplex(regular_module(ring), 2, ring.n_max)
            chain = [kc.right_mult_is_chain_map(K, *ring.rep(1, c))
                     for c in range(ring.basis_size(1))]
            assoc, _ = first_ring_failures(ring)
            verdict = pipeline._annihilation_verdict(ring, True)
            if label == "true":
                assert assoc is None and all(ok for ok, _ in chain), name
                assert verdict["status"] == "pass", name
                continue
            m, _, _, c = assoc
            assert verdict["status"] == "fail", (name, label)
            assert verdict["witness"] == ("right multiplication is not a chain map: "
                                          f"a.(j.c) != (a.j).c at (m, a, j, c) = {assoc}")
            assert chain[c] == (False, (1, m + 1)), (name, label, assoc)
            assert all(wit[1] >= m + 1 for ok, wit in chain if not ok), (name, label)
            failed += 1
    assert failed == 8  # 3 mutants of S3, 5 of C4


def test_u_verdict_fails_with_the_k_level_check_on_ring_mutants(rings):
    """The U verdict compares product tables of the ring; on the same mutants
    it fails exactly with ``kcomplex.u_commutes_with_d``, whose first failing
    spot (1, m + 1) reads the first failing (m, a, j) of the loops.  S3's
    product(2, 1) mutant leaves every left product table, and so U, as it
    was; only the annihilation verdict fails there."""
    failed = 0
    for name in ("S3", "C4"):
        for label, ring in [("true", rings[name]), *ring_mutants(rings[name])]:
            K = build_kcomplex(regular_module(ring), 2, ring.n_max)
            _, u = first_ring_failures(ring)
            verdict = pipeline._u_commutes_verdict(ring)
            if u is None:
                assert verdict["status"] == "pass" and kc.u_commutes_with_d(K) == (True, None)
                continue
            assert (verdict["status"], verdict["witness"]) == (
                "fail", f"a.(U j) != U(a.j) at (m, a, j) = {u}"), (name, label)
            assert kc.u_commutes_with_d(K) == (False, (1, u[0] + 1)), (name, label)
            failed += 1
    assert failed == 7  # all but S3's product(2, 1)


def moved_entry(K, key, pos):
    """K with entry ``pos`` of d[key] moved to the next row free in its column."""
    mat = K.d[key]
    taken = set(mat.row[mat.col == mat.col[pos]].tolist())
    row = mat.row.copy()
    row[pos] = next(x % mat.rows for x in range(row[pos] + 1, row[pos] + mat.rows)
                    if x % mat.rows not in taken)
    d = {**K.d, key: IntMatrix.from_triplets(mat.rows, mat.cols, row, mat.col, mat.val)}
    return kc.KComplex(module=K.module, ring=K.ring, p_max=K.p_max, n_max=K.n_max, d=d)


def test_top_differential_mutants_fail_without_the_k_level_chain_map_check(rings):
    """d_{K.p_max} is the one differential where the K-level chain-map check
    could see what the ring comparison cannot.  Every sign flip and moved
    entry there fails the K-level homotopy identity, whose spot
    p = K.p_max - 1 gathers every column of d_{K.p_max}, and with it the
    annihilation verdict given that outcome; that includes every mutant the
    chain-map check caught.  The pipeline's homotopy verdict reads the ring,
    not K, so mutants of K are caught here by the K-level reference, and
    ``build_kcomplex`` is held to its column rule by the loop references."""
    from reference_kcomplex import flip_signs, homotopy_check_all
    mutants = caught = 0
    for name, p_built in (("S3", 2), ("C4", 2), ("C2xC2", 3)):
        ring = rings[name]
        K = build_kcomplex(regular_module(ring), p_built, ring.n_max)
        for n in range(K.p_max, K.n_max + 1):
            key = (K.p_max, n)
            nnz = K.d[key].nnz
            for pos in sorted({0, nnz // 2, nnz - 1}):
                for cx in (flip_signs(K, key, pos), moved_entry(K, key, pos)):
                    mutants += 1
                    caught += any(not kc.right_mult_is_chain_map(cx, *ring.rep(1, c))[0]
                                  for c in range(ring.basis_size(1)))
                    homotopy_ok, _ = homotopy_check_all(cx)
                    assert not homotopy_ok, (name, key, pos)
                    verdict = pipeline._annihilation_verdict(ring, homotopy_ok)
                    assert verdict["status"] == "fail", (name, key, pos)
    assert mutants == caught == 42, (mutants, caught)


def pair_class_mutant(ring):
    """The ring with its first pair of nontrivial commutator that is not the
    least pair of its class moved into class 0, the class of (e, e), whose
    boundary value is e; None when every commutator is trivial."""
    G = ring.G
    g, h = np.divmod(np.arange(G.order ** 2), G.order)
    least = np.unique(ring.pair_class, return_index=True)[1]
    moved = [r for r in np.flatnonzero(G.commutator(g, h) != G.identity).tolist()
             if r not in least and ring.pair_class[r] != 0]
    if not moved:
        return None
    pair_class = ring.pair_class.copy()
    pair_class[moved[0]] = 0
    return GradedRing(G, ring.n_max, pair_class, ring.steps)


def homotopy_cases(rings):
    """(group, label, ring): every ring of ``rings``, the ``ring_mutants`` of
    each with two or more degree-1 classes, and the ``pair_class_mutant`` of
    each where there is one."""
    for name, ring in rings.items():
        yield name, "true", ring
        if ring.basis_size(1) > 1:
            for label, mutated in ring_mutants(ring):
                yield name, label, mutated
        mutated = pair_class_mutant(ring)
        if mutated is not None:
            yield name, "pair class", mutated


def test_homotopy_verdict_is_sound_against_the_k_level_reference(rings):
    """The ring-level homotopy verdict against the K-level identity
    (``reference_kcomplex.homotopy_check_all``) on K(R) with p_max = n_max,
    which has every spot the identity reads, on the fixture rings and C8
    (n <= 3) and their mutants.  Both pass on every true ring.  Wherever the
    verdict passes the K-level check passes, that is, wherever the K-level
    check fails the verdict fails.  (A) and (B) are only sufficient, but no
    case here fails the verdict and passes the K-level check: the two agree
    on all 34 cases, 15 of which fail."""
    from reference_kcomplex import homotopy_check_all
    from stabring.groups import load_group
    from stabring.ring import build_ring

    failed = cases = 0
    only_ring = []
    every = {**rings, "C8": build_ring(load_group({"kind": "cyclic", "order": 8}), 3)}
    for name, label, ring in homotopy_cases(every):
        verdict = pipeline._homotopy_verdict(ring)
        k_ok, _ = homotopy_check_all(build_kcomplex(regular_module(ring), ring.n_max,
                                                    ring.n_max))
        if label == "true":
            assert verdict["status"] == "pass" and k_ok, name
        assert k_ok or verdict["status"] == "fail", (name, label)
        if k_ok and verdict["status"] == "fail":
            only_ring.append((name, label, verdict["witness"]))
        cases += 1
        failed += not k_ok
    assert only_ring == []
    assert (cases, failed) == (34, 15)


def test_homotopy_verdict_names_the_first_failing_pair(rings):
    """The verdict reads the ring's product tables, not K(R): on the ring
    mutants of S3 and C4 and S3's pair-class mutant its witness names the
    identity and its first failing x, (m, a, j) or (m, x, j), x a pair of G^2;
    C4's product(k, 1) mutants pass it, as they pass the K-level check.  Its
    statement is the one the pinned reports hold."""
    split = "(B) bd(a . j) != bd(a) bd(j) at (m, a, j) = "
    moved = "(A) [x^(bd(j)^-1)] . j != j . [x] at (m, x, j) = "
    want = {
        ("S3", "product(1, 1)"): split + "(1, 6, 6)",
        ("S3", "product(2, 1)"): moved + "(2, (1, 3), 7)",
        ("S3", "product(1, 2)"): moved + "(2, (0, 1), 0)",
        ("S3", "pair class"): "(B) c(x) != bd([x]) at x = (1, 4)",
        ("C4", "product(1, 2)"): moved + "(2, (0, 1), 0)",
        ("C4", "product(1, 3)"): moved + "(3, (0, 1), 0)",
    }
    got = {}
    for name, label, ring in homotopy_cases({name: rings[name] for name in ("S3", "C4")}):
        verdict = pipeline._homotopy_verdict(ring)
        assert verdict["statement"] == ("S d + d S equals right multiplication by the "
                                        "prepended class, exactly")
        if verdict["status"] == "fail":
            got[name, label] = verdict["witness"]
        else:
            assert verdict["witness"] is None
    assert got == want
    # class 5 of S3's R_2 has boundary value 4, not e: with product(1, 2)[1, 5]
    # changed, (A) first fails at the first pair x whose conjugate
    # x^(bd(5)^-1), not x itself, lies in class 1
    ring = rings["S3"]
    assert words.boundary_eval(ring.G, ring.rep(2, 5)) == 4
    mutated = GradedRing(ring.G, ring.n_max, ring.pair_class, ring.steps)
    table = ring.product(1, 2).copy()
    table[1, 5] = (table[1, 5] + 1) % ring.basis_size(3)
    mutated._products[1, 2] = table
    assert pipeline._homotopy_verdict(mutated)["witness"] == moved + "(2, (0, 2), 5)"
    assert ring.pair_class[0 * ring.G.order + 1] == 1


def test_a_d_squared_mutant_fails_the_run_at_the_homology_stage(monkeypatch):
    """The homology stage multiplies out every composite d_{p-1} d_p of the
    run once and fails the run on a nonzero one, naming its first entry, so
    the d_squared_zero verdict is not reached; kc.verify_d_squared finds the
    same composite.  One sign flipped in d_{1,3}, d_{2,3} or d_{2,2} of S3
    (n <= 3, p <= 2) gives this failure, as it did when the verdict
    multiplied the composites again."""
    from reference_kcomplex import mutant

    real = kc.build_kcomplex
    for key, want in {(1, 3): "d_out . d_in != 0: entry (6,92) = -2",
                      (2, 3): "d_out . d_in != 0: entry (3,126) = -2",
                      (2, 2): "d_out . d_in != 0: entry (3,18) = -2"}.items():
        built = []
        monkeypatch.setattr(kc, "build_kcomplex",
                            lambda M, p, n: built.append(mutant(real(M, p, n), key)) or built[-1])
        report = run_pipeline(small_config(group=BATTERY_SPECS["S3"], n_max=3, p_max=2,
                                           well_definedness_samples=10))
        assert report.failure == {"stage": "homology", "error": want}, key
        assert report.verdicts == [] and report.homology == [] and report.exit_code == 1
        assert not kc.verify_d_squared(built[0])[0], key


def test_import_and_run_load_no_scipy_and_no_new_module(tmp_path):
    """``import stabring`` leaves scipy, OpenSSL's ``_hashlib``, ``numpy.random``
    and ``numpy.ma`` unloaded, pipeline runs import nothing, and the ``run``
    (with both dumps), ``orbits`` and ``oracle`` commands load none of those
    four either (argparse may load ``locale`` for its messages)."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    code = textwrap.dedent("""\
        import contextlib, io, sys

        def unwanted():
            return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'
                          or m in ('_hashlib', 'numpy.random', 'numpy.ma'))

        import stabring
        from stabring.cli import main
        from stabring.pipeline import PipelineConfig, run_pipeline
        print(unwanted())
        before = set(sys.modules)
        S3 = {'kind': 'perm', 'generators': [[[1, 2]], [[1, 2, 3]]]}
        for group, n_max, p_max in (({'kind': 'cyclic', 'order': 2}, 2, 1),
                                    ({'kind': 'cyclic', 'order': 8}, 3, 0), (S3, 3, 2)):
            report = run_pipeline(PipelineConfig(group=group, n_max=n_max, p_max=p_max))
            assert report.failure is None, report.failure
        print(sorted(set(sys.modules) - before))
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [main(['run', '--config', sys.argv[1], '--dump-moves', '--dump-matrices']),
                     main(['orbits', '--group', '{"kind": "cyclic", "order": 3}', '--n', '2']),
                     main(['oracle', '--group', '{"kind": "cyclic", "order": 4}', '--n', '2'])]
        assert codes[0] in (0, 2) and codes[1:] == [0, 0], codes  # 2: inconclusive
        print(unwanted())
        """)
    config = os.path.join(root, "configs", "klein-four.json")
    proc = subprocess.run([sys.executable, "-c", code, config], capture_output=True,
                          text=True, cwd=tmp_path, timeout=300,
                          env={**os.environ, "PYTHONPATH": os.path.join(root, "src")})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "[]", "[]"], proc.stdout
    assert (tmp_path / "out" / "matrices" / "d_p1_n1.txt").is_file()
    assert (tmp_path / "out" / "moves_n1.json").is_file()


def test_order_thirteen_runs_every_stage():
    # the bar oracle stops at the subgroup cap (16), not at order 12
    report = run_pipeline(small_config(group={"kind": "cyclic", "order": 13}, n_max=2,
                                       p_max=0, well_definedness_samples=10))
    assert report.failure is None
    assert len(report.verdicts) == 12
    assert report.oracle["bar_h1"] == {"free_rank": 0, "torsion": [13]}


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


def test_oracles_run_the_bar_complex_once_per_subgroup(monkeypatch):
    # C8 has 4 subgroups; G's own H1 and H2 come from the same pass that
    # sums |H2| over the subgroups, so G is not computed twice
    calls, bar = [], oracle.bar_homology

    def counted(G):
        calls.append(G.order)
        return bar(G)

    monkeypatch.setattr(oracle, "bar_homology", counted)
    if hasattr(pipeline, "bar_homology"):  # a pipeline that imports it calls it directly
        monkeypatch.setattr(pipeline, "bar_homology", counted)
    report = run_pipeline(small_config(group={"kind": "cyclic", "order": 8}, n_max=3,
                                       p_max=0, well_definedness_samples=10))
    assert report.failure is None
    assert len(calls) == 4
    assert sorted(calls) == [1, 2, 4, 8]
    assert report.oracle["stable_count_prediction"] == 4


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
    for path in dumped:
        text = path.read_text()
        assert to_text(from_text(text)) == text, path.name


def test_cli_dump_moves_writes_one_manifest_per_degree(tmp_path, monkeypatch):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"group": {"kind": "cyclic", "order": 3},
                                    "n_max": 3, "p_max": 0,
                                    "well_definedness_samples": 10}))
    out = tmp_path / "out"
    # the manifests need no group, so the pipeline's load is the only one
    loads = []
    load = pipeline.load_group
    monkeypatch.setattr(pipeline, "load_group", lambda spec: loads.append(spec) or load(spec))
    monkeypatch.setattr(cli, "load_group", lambda spec: loads.append(spec) or load(spec))
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(out),
                     "--dump-moves"]) in (0, 2)
    assert len(loads) == 1
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
    # a negative genus is refused before any output, abelian or not
    s3 = json.dumps({"kind": "perm", "generators": [[[1, 2]], [[1, 2, 3]]]})
    for group in (spec, s3):
        assert cli_main(["oracle", "--group", group, "--n", "-3"]) == 1
        out, err = capsys.readouterr()
        assert "H1 =" not in out and "--n must be >= 0, got -3" in err


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


def test_cli_refuses_a_config_that_is_not_an_object(tmp_path, capsys):
    # a list or a number once crashed, and a string was read as its characters
    for i, data in enumerate(([{"x": 1}], 5, "abc")):
        cfg_path = tmp_path / f"cfg{i}.json"
        cfg_path.write_text(json.dumps(data))
        for extra in ([], ["--out", str(tmp_path / "out"), "--dump-matrices"]):
            assert cli_main(["run", "--config", str(cfg_path), *extra]) == 1
            err = capsys.readouterr().err
            assert f"error: config must be a JSON object, got {type(data).__name__}" in err
    assert not (tmp_path / "out").exists()


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
    moves = {n: words.compile_moves(n, ring.G) for n in (1, 2, 3)}
    assert pipeline._well_definedness_verdict(ring, moves, config)["status"] == "pass"
    steps = list(ring.steps)
    steps[2] = steps[2].copy()
    steps[2][-1, -1] = (steps[2][-1, -1] + 1) % ring.basis_size(3)
    wrong = GradedRing(ring.G, ring.n_max, ring.pair_class, steps)
    assert [wrong.rep(3, j) for j in range(8)] == [ring.rep(3, j) for j in range(8)]
    verdict = pipeline._well_definedness_verdict(wrong, moves, config)
    assert verdict["status"] == "fail"
    assert verdict["witness"].startswith("product mismatch")


def test_well_definedness_spans_chunks_in_bounded_memory(rings):
    # more samples than one chunk: S3 still passes, the wrong product(2, 1)
    # entry still fails, and the allocation peak stays that of one chunk
    ring = rings["S3"]
    moves = {n: words.compile_moves(n, ring.G) for n in (1, 2, 3)}
    chunk = pipeline.WELL_DEFINEDNESS_CHUNK
    assert PipelineConfig.well_definedness_samples <= chunk <= 10_000

    def verdict(ring, samples):
        config = PipelineConfig(group=BATTERY_SPECS["S3"], n_max=3, p_max=0,
                                well_definedness_samples=samples)
        tracemalloc.start()
        try:
            return (pipeline._well_definedness_verdict(ring, moves, config),
                    tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()

    one, one_peak = verdict(ring, chunk)
    many, many_peak = verdict(ring, 4 * chunk + 100)
    assert one["status"] == many["status"] == "pass"
    assert many["witness"] == f"{4 * chunk + 100} randomized representative pairs"
    assert many_peak < 1.25 * one_peak
    steps = list(ring.steps)
    steps[2] = steps[2].copy()
    steps[2][-1, -1] = (steps[2][-1, -1] + 1) % ring.basis_size(3)
    wrong = GradedRing(ring.G, ring.n_max, ring.pair_class, steps)
    failed = verdict(wrong, 2 * chunk + 100)[0]
    assert failed["status"] == "fail"
    assert failed["witness"].startswith("product mismatch")


def synthetic_profile(n_max: int, a_r: int, stable: bool = True, bad_steps=()):
    """A stability profile with U bijective except at the steps in bad_steps."""
    return StabilityProfile(
        counts=(1,) * (n_max + 1), u_injective=tuple(n not in bad_steps for n in range(n_max)),
        u_surjective=(True,) * n_max, deg_u=1, deg_r_u=-1, deg_rbar=a_r, a_r=a_r,
        a_tilde_r=max(1, a_r), stable_within_window=stable)


def homology_rows(n_max: int, nonzero=()):
    """h_profile rows at p <= 1 with H_0(0) = Z and Z at every (p, n) in nonzero."""
    return [HProfileRow(p=p, n=n, certified=True,
                        homology=HomologyGroup(free_rank=int((p, n) in {(0, 0), *nonzero})))
            for p in (0, 1) for n in range(p, n_max + 1)]


def bound_verdicts(profile, rows, n_max):
    return {v["check"]: (v["status"], v["witness"])
            for v in pipeline._bound_verdicts(profile, rows, n_max)}


def test_bound_verdicts_decide_every_branch():
    uncertified = "window too small to certify A(R)"
    # the window does not certify stability: nothing is decided
    assert bound_verdicts(synthetic_profile(6, 0, stable=False), homology_rows(6), 6) == {
        "hp_degree_bound": ("inconclusive", uncertified),
        "u_iso_threshold": ("inconclusive", "h0/h1 or A(R) not certified by the window"),
        "q0_threshold": ("inconclusive", uncertified)}
    # A(R) = 0: the thresholds are max(h0, h1) + 1 and A~(R) + 2 = 3
    assert bound_verdicts(synthetic_profile(6, 0), homology_rows(6), 6) == {
        "hp_degree_bound": ("pass", None),
        "u_iso_threshold": ("pass", "verified for n in [1, 2, 3, 4, 5]"),
        "q0_threshold": ("pass", "verified for n in [3, 4, 5]")}
    assert bound_verdicts(synthetic_profile(6, 0), homology_rows(6, [(1, 2)]), 6) == {
        "hp_degree_bound": ("pass", None),
        "u_iso_threshold": ("pass", "verified for n in [3, 4, 5]"),
        "q0_threshold": ("pass", "verified for n in [3, 4, 5]")}
    # U fails to be bijective inside the window
    assert bound_verdicts(synthetic_profile(6, 0, bad_steps=(4,)), homology_rows(6), 6) == {
        "hp_degree_bound": ("pass", None),
        "u_iso_threshold": ("fail", "U not bijective at [4]"),
        "q0_threshold": ("fail", "U not bijective at [4]")}
    # H_1 nonzero at the window's top degree: h1 is not certified, so only the
    # q = 0 threshold, which does not read it, is decided
    assert bound_verdicts(synthetic_profile(6, 0), homology_rows(6, [(1, 6)]), 6) == {
        "hp_degree_bound": ("fail", "violations at [(1, 6)]"),
        "u_iso_threshold": ("inconclusive", "h0/h1 or A(R) not certified by the window"),
        "q0_threshold": ("pass", "verified for n in [3, 4, 5]")}
    # A(R) = 1: the thresholds 6 and 9 lie past the window's last step
    assert bound_verdicts(synthetic_profile(6, 1), homology_rows(6), 6) == {
        "hp_degree_bound": ("pass", None),
        "u_iso_threshold": ("inconclusive", "threshold 6 exceeds window 6"),
        "q0_threshold": ("inconclusive", "threshold 9 exceeds window 6")}


REPORT_SHA256 = {
    ("C2", 4, 3): "a29c25e2cd2fef26b1571c8a8fc9774a0de43178e9a0857e223563e084768a09",
    ("S3", 3, 2): "454a25a9df2e0013d0431d8d79d7d8d755dee3c08ad79c9e2c1ed57d9b996742",
    ("C4", 12, 1): "420d7772497fc86fcaa4615af3e503239c58f4ada114f276a637c7fe69c68673",
}


def test_report_json_is_pinned(reports):
    # pins every statement and witness string, not only the statuses
    for (name, n_max, p_max), want in REPORT_SHA256.items():
        report = (reports[name] if (n_max, p_max) == BATTERY_WINDOWS[name] else
                  run_pipeline(PipelineConfig(group=BATTERY_SPECS[name], n_max=n_max,
                                              p_max=p_max)))
        assert hashlib.sha256(report.to_json().encode()).hexdigest() == want, name


def test_pipeline_calls_no_k_level_chain_map_check(monkeypatch):
    """The U, homotopy and annihilation verdicts read only the ring: with the
    K-level checks made to raise, the pinned reports of S3 (n <= 3, p <= 2)
    and C2 (n <= 4, p <= 3) come out unchanged."""
    def refuse(*args):
        raise AssertionError("the pipeline called a K-level chain-map check")

    monkeypatch.setattr(kc, "right_mult_is_chain_map", refuse)
    monkeypatch.setattr(kc, "u_commutes_with_d", refuse)
    monkeypatch.setattr(kc, "_homotopy_failures", refuse)
    for name in ("S3", "C2"):
        n_max, p_max = BATTERY_WINDOWS[name]
        report = run_pipeline(PipelineConfig(group=BATTERY_SPECS[name], n_max=n_max,
                                             p_max=p_max))
        assert report.failure is None, name
        assert hashlib.sha256(report.to_json().encode()).hexdigest() == \
            REPORT_SHA256[name, n_max, p_max], name
        for check in ("u_commutes_with_d", "homotopy_identity", "homology_annihilation"):
            assert verdict_of(report, check)["status"] == "pass", (name, check)


def test_lemma_battery_makes_no_smith_form(monkeypatch, rings):
    """The battery counts components: with Smith forms and chain homology made
    to raise, its verdict still passes on every battery ring."""
    from stabring import modules, zlinalg

    def refuse(*args):
        raise AssertionError("the lemma battery made a Smith form")

    assert not hasattr(modules, "smith_normal_form") and not hasattr(modules, "chain_homology")
    monkeypatch.setattr(zlinalg, "smith_normal_form", refuse)
    monkeypatch.setattr(zlinalg, "chain_homology", refuse)
    for name, ring in rings.items():
        assert pipeline._lemma_battery_verdict(ring)["status"] == "pass", name


def test_dumped_matrices_equal_the_per_entry_text(tmp_path, monkeypatch):
    """``_dump_matrices`` writes a piece of ``_kernels.CHUNK`` entries at a
    time by array arithmetic: with pieces of 7 entries, every file equals the
    reference's per-entry text, on matrices with no entry, one entry and
    entries up to +-(2^63 - 1), and a matrix two keys share is in both files."""
    from types import SimpleNamespace

    rng = np.random.default_rng(5)
    top = 2 ** 63 - 1
    vals = np.concatenate((rng.integers(-12, 12, 40), [top, -top, 1, -1, 10, -10, 99, 100]))
    vals = vals[vals != 0]
    big = IntMatrix.from_triplets(10 ** 12, 7, rng.integers(0, 10 ** 12, len(vals)),
                                  rng.integers(0, 7, len(vals)), vals)
    mats = [IntMatrix(0, 3), IntMatrix(4, 5), from_dense([[0, -3]]), big]
    d = {(1, n): mat for n, mat in enumerate(mats)}
    d[2, 9] = big
    monkeypatch.setattr(_kernels, "CHUNK", 7)
    pipeline._dump_matrices(SimpleNamespace(d=d), str(tmp_path))
    for (p, n), mat in d.items():
        assert (tmp_path / "matrices" / f"d_p{p}_n{n}.txt").read_text() == to_text(mat), (p, n)
    assert big.nnz > 3 * 7
