"""Benchmark the hot orbit kernels: numba on-the-fly union-find vs. the
vectorized numpy/scipy connected-components fallback.

Run:  python benchmarks/bench_kernels.py [--repeat 3]

The numba path is also what STABRING_BACKEND=numba (or auto) selects in the
pipeline; the numpy path is the pure-fallback used when numba is unavailable.
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from stabring import _kernels
from stabring.groups import load_group
from stabring.oracle import transvection_vectors
from stabring.orbits import enumerate_orbits
from stabring.words import compile_moves

WORKLOADS = [
    ("C4  n=3 moves", {"kind": "cyclic", "order": 4}, 3, "moves"),
    ("C3  n=4 moves", {"kind": "cyclic", "order": 3}, 4, "moves"),
    ("C2xC2 n=3 moves", {"kind": "product",
                         "factors": [{"kind": "cyclic", "order": 2},
                                     {"kind": "cyclic", "order": 2}]}, 3, "moves"),
    ("C4  n=3 transvections", {"kind": "cyclic", "order": 4}, 3, "transvections"),
    ("C2  n=5 transvections", {"kind": "cyclic", "order": 2}, 5, "transvections"),
    ("C3  n=5 transvections", {"kind": "cyclic", "order": 3}, 5, "transvections"),
    ("C4  n=4 transvections", {"kind": "cyclic", "order": 4}, 4, "transvections"),
]


def run_once(G, n, kind, backend):
    if kind == "moves":
        moves = compile_moves(n, G)
        t0 = time.perf_counter()
        table = enumerate_orbits(G, n, moves, backend=backend)
        return time.perf_counter() - t0, table.count
    vecs = transvection_vectors(n)
    n_states = G.order ** (2 * n)
    t0 = time.perf_counter()
    parents = _kernels.transvection_orbit_parents(
        G.table, G.inverse, 2 * n, G.order, vecs, n_states, backend=backend)
    return time.perf_counter() - t0, len(np.unique(parents))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()

    backends = ["numpy"] + (["numba"] if _kernels.HAS_NUMBA else [])
    if "numba" in backends:
        # trigger JIT compilation outside the timed region
        G = load_group({"kind": "cyclic", "order": 2})
        run_once(G, 1, "moves", "numba")
        run_once(G, 1, "transvections", "numba")

    print(f"{'workload':<24} {'states':>9} " +
          " ".join(f"{b + ' (s)':>12}" for b in backends) + f" {'orbits':>7}")
    for label, spec, n, kind in WORKLOADS:
        G = load_group(spec)
        n_states = G.order ** (2 * n)
        times = {}
        counts = set()
        for b in backends:
            best = min(run_once(G, n, kind, b) for _ in range(args.repeat))
            times[b], count = best
            counts.add(count)
        assert len(counts) == 1, f"backends disagree on {label}"
        row = " ".join(f"{times[b]:>12.3f}" for b in backends)
        print(f"{label:<24} {n_states:>9} {row} {counts.pop():>7}")
    if len(backends) == 2:
        print("\n(best of", args.repeat, "runs; both backends must report the "
              "same orbit counts)")


if __name__ == "__main__":
    main()
