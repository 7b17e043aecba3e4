"""One measured sample, run in a fresh interpreter by ``perfbench/run.py``.

    python3 perfbench/child.py <pipeline|trace> <root> <spawn_monotonic> <mem_limit> <job-json>

``pipeline`` calls ``run_pipeline`` once with tracing off. ``trace`` drives
each layer's public functions in the order ``run_pipeline`` calls them, with
spans around those calls, and then calls ``run_pipeline`` once more to check
against. Either mode prints one JSON object as its last line.
The process runs under an address-space limit, so a memory blow-up ends the
sample with a ``MemoryError`` instead of an OOM kill.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import tracemalloc
from contextlib import contextmanager


class Tracer:
    """Spans kept in memory: name, start, end and the enclosing span's id."""

    def __init__(self):
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name: str, **attrs):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._stack[-1] if self._stack else None, **attrs}
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)


def homology_rows(rows) -> list:
    """Report.homology layout, so traced and untraced results compare directly."""
    return [{"p": r.p, "n": r.n, "free_rank": r.homology.free_rank,
             "torsion": list(r.homology.torsion), "certified": r.certified}
            for r in rows]


def run_untraced(job: dict, spawn: float) -> dict:
    from stabring import PipelineConfig, run_pipeline

    config = PipelineConfig(group=job["group"], n_max=job["n_max"],
                            p_max=job["p_max"], seed=job["seed"])
    t0 = time.monotonic()
    report = run_pipeline(config)
    wall = time.monotonic() - t0
    timings = dict(report.timings)
    setup_part = timings.get("load-group", 0.0) + timings.get("moves", 0.0)
    return {
        "setup_s": (t0 - spawn) + setup_part,
        "solve_s": wall - setup_part,
        "pipeline_wall_s": wall,
        "timings": timings,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "report": json.loads(report.to_json()),
    }


# run_pipeline stages that the traced drive replays call for call.
STAGES = ("orbits", "ring", "modules", "kcomplex", "homology", "oracles")


def _knobs(config) -> dict:
    # Mirror run_pipeline's move-search depth while the config still has one,
    # so removing that knob needs no edit here.
    return {"depth": config.depth} if hasattr(config, "depth") else {}


def run_traced(job: dict, workdir: str) -> dict:
    from stabring import (PipelineConfig, bar_homology, build_kcomplex,
                          build_ring, cache_load, cache_store, compile_moves,
                          delta_and_bounds, derive_module, enumerate_orbits,
                          kc_homology, load_group, regular_module,
                          sp_orbit_oracle, stable_count_prediction)
    from stabring.kcomplex import (HProfileRow, homotopy_check, right_mult_is_chain_map,
                                   u_commutes_with_d, verify_d_squared)
    from stabring.oracle import abelianization_invariants
    from stabring.words import moveset_hash

    config = PipelineConfig(group=job["group"], n_max=job["n_max"],
                            p_max=job["p_max"], seed=job["seed"])
    knobs = _knobs(config)
    n_max = config.n_max
    tr = Tracer()
    m = {}
    checks = {}

    with tr.span("load-group"):
        G = load_group(config.group)
    with tr.span("moves"):
        moves = {n: compile_moves(n, G, **knobs) for n in range(1, n_max + 1)}
    m["words.moves_s"] = tr.total("moves")
    m["words.moves_top"] = len(moves[n_max])

    with tr.span("orbits"):
        tables = {}
        for n in range(n_max + 1):
            with tr.span("orbits.enumerate", n=n):
                tables[n] = enumerate_orbits(G, n, moves.get(n, ()))
    states = sum(G.order ** (2 * n) for n in range(1, n_max + 1))
    m["orbits.kernel_s"] = tr.total("orbits.enumerate")
    m["orbits.edges"] = sum(G.order ** (2 * n) * len(moves[n]) for n in range(1, n_max + 1))
    m["orbits.states_per_s"] = states / m["orbits.kernel_s"]

    # Probes outside the stage spans: allocation peak of the top-degree kernel
    # call alone, and a store/load round trip of its table.
    top = tables[n_max]
    tracemalloc.start()
    again = enumerate_orbits(G, n_max, moves[n_max])
    m["orbits.peak_alloc_mb"] = tracemalloc.get_traced_memory()[1] / 2 ** 20
    tracemalloc.stop()
    checks["orbit table repeats"] = bool((again.orbit_id == top.orbit_id).all())
    del again
    path = os.path.join(workdir, "orbits_top.hwot")
    with tr.span("orbits.cache_store"):
        cache_store(top, path)
    with tr.span("orbits.cache_load"):
        loaded = cache_load(path, expect_group_hash=G.hash(),
                            expect_moveset_hash=top.moveset_hash)
    os.remove(path)
    m["orbits.cache_store_s"] = tr.total("orbits.cache_store")
    m["orbits.cache_load_s"] = tr.total("orbits.cache_load")
    checks["orbit cache round trip"] = bool(
        (loaded.orbit_id == top.orbit_id).all() and (loaded.reps == top.reps).all())
    del loaded

    with tr.span("ring"):
        ring = build_ring(G, n_max, tables=tables, **knobs)
    with tr.span("ring.profile"):
        profile = ring.stability_profile()
    m["ring.build_s"] = tr.total("ring")
    m["ring.profile_s"] = tr.total("ring.profile")

    with tr.span("modules"):
        R = regular_module(ring)
    with tr.span("modules.consistency"):
        checks["lambda consistency"] = n_max < 2 or not R.consistency_failures()
    m["modules.regular_s"] = tr.total("modules")
    m["modules.consistency_s"] = tr.total("modules.consistency")

    p_built = min(config.p_max + 1, n_max)
    with tr.span("kcomplex"):
        K = build_kcomplex(R, p_built, n_max)
    m["kcomplex.build_s"] = tr.total("kcomplex")
    m["kcomplex.d_nnz"] = sum(d.nnz for d in K.d.values())

    spots = []
    rows = []
    rank_in = {}
    with tr.span("homology"):
        for p in range(p_built):
            for n in range(p, n_max + 1):
                with tr.span("zlinalg.spot", p=p, n=n) as sp:
                    hom = kc_homology(K, p, n)
                rows.append(HProfileRow(p=p, n=n, homology=hom,
                                        certified=n < n_max or hom.is_zero))
                d_in = K.d_matrix(p + 1, n)
                # rank(d_in) = dim K_p(n) - rank(d_out) - free rank, and d_out at
                # (p, n) is d_in of the spot (p - 1, n) computed just before.
                rank_in[p, n] = d_in.rows - rank_in.get((p - 1, n), 0) - hom.free_rank
                spots.append({"p": p, "n": n, "rows": d_in.rows, "cols": d_in.cols,
                              "nnz": d_in.nnz, "rank": rank_in[p, n],
                              "torsion": list(hom.torsion),
                              "seconds": sp["end"] - sp["start"]})
    m["zlinalg.homology_s"] = tr.total("zlinalg.spot")
    m["zlinalg.max_spot_s"] = max(s["seconds"] for s in spots)
    m["zlinalg.max_spot_nnz"] = max(s["nnz"] for s in spots)
    m["zlinalg.spots"] = len(spots)

    oracle = {}
    with tr.span("oracles"):
        with tr.span("oracle.bar"):
            bh = bar_homology(G)
        oracle["bar_h1"] = {"free_rank": bh["H1"].free_rank, "torsion": list(bh["H1"].torsion)}
        oracle["bar_h2"] = {"free_rank": bh["H2"].free_rank, "torsion": list(bh["H2"].torsion)}
        oracle["abelianization"] = list(abelianization_invariants(G))
        oracle["stable_count_prediction"] = stable_count_prediction(G)
        # On a nonabelian group this span times only the abelian test, which
        # is all the pipeline's transvection-oracle step does there.
        with tr.span("oracle.sp"):
            if G.is_abelian:
                oracle["sp_counts"] = [1] + [sp_orbit_oracle(G, n)
                                             for n in range(1, n_max + 1)]
    m["oracle.bar_s"] = tr.total("oracle.bar")
    m["oracle.sp_s"] = tr.total("oracle.sp")

    pairs = [(g, h) for g in range(G.order) for h in range(G.order)]
    with tr.span("kcomplex.d_squared"):
        checks["d_squared_zero"] = verify_d_squared(K)[0]
    with tr.span("kcomplex.u_commute"):
        checks["u_commutes_with_d"] = u_commutes_with_d(K)[0]
    with tr.span("kcomplex.homotopy"):
        checks["homotopy_identity"] = all(homotopy_check(K, g, h)[0] for g, h in pairs)
    with tr.span("kcomplex.rmult_chain"):
        checks["right_mult_chain_maps"] = all(
            right_mult_is_chain_map(K, g, h)[0] for g, h in pairs)
    with tr.span("modules.lemma"):
        bounds = []
        for recipe in [("R",), ("Rbar",), ("RU",), ("shift", 1), ("trunc", 1)]:
            db = delta_and_bounds(derive_module(ring, recipe))
            bounds.append(db.a_bound_ok and db.tensor_bound_ok)
        checks["lemma_bounds"] = all(bounds)
    m["kcomplex.d_squared_s"] = tr.total("kcomplex.d_squared")
    m["kcomplex.u_commute_s"] = tr.total("kcomplex.u_commute")
    m["kcomplex.homotopy_s"] = tr.total("kcomplex.homotopy")
    m["kcomplex.rmult_chain_s"] = tr.total("kcomplex.rmult_chain")
    m["modules.lemma_s"] = tr.total("modules.lemma")

    return {
        "metrics": m,
        "stage_s": {s["name"]: s["end"] - s["start"] for s in tr.spans
                    if s["parent"] is None and s["name"] in STAGES},
        "spans": tr.spans,
        "spots": spots,
        "checks": checks,
        "results": {
            "counts": [t.count for t in tables.values()],
            "profile_counts": list(profile.counts),
            "moveset_hashes": {str(n): moveset_hash(mv) for n, mv in moves.items()},
            "homology": homology_rows(rows),
            "oracle": oracle,
        },
    }


def main(argv) -> int:
    mode, root, spawn, mem_limit, job = argv
    limit = int(mem_limit)
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    sys.path.insert(0, os.path.join(root, "src"))
    job = json.loads(job)
    if mode == "pipeline":
        out = run_untraced(job, float(spawn))
    elif mode == "trace":
        out = run_traced(job, job["workdir"])
        # The untraced run comes second and finds the move search cached
        # in-process, so only its solve stages compare with the traced ones.
        out["untraced"] = run_untraced(job, float(spawn))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
