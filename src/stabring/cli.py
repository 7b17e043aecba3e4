"""Command-line interface: run the full pipeline, enumerate orbits, or query
the homology oracles.

Exit codes for ``run``: 0 all verdicts pass, 2 some inconclusive, 1 any
failure or error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .groups import load_group
from .oracle import sp_orbit_counts, subgroup_bar_homology, subgroup_h2_sum
from .orbits import enumerate_orbits
from .pipeline import (ConfigError, PipelineConfig, emit_report, render_summary,
                       run_pipeline)
from .words import (compile_moves, enumerate_stabilizing_automorphisms,
                    moveset_manifest)


def _load_spec(arg: str) -> dict:
    """Group spec from inline JSON or a path to a JSON file.  Text that opens
    an object or an array is inline, so a spec of the wrong type reaches
    ``load_group``, which names what a spec must be."""
    text = arg
    if not arg.lstrip().startswith(("{", "[")):
        with open(arg) as fh:
            text = fh.read()
    return json.loads(text)


def _cmd_run(args) -> int:
    with open(args.config) as fh:
        data = json.load(fh)
    # anything but an object is left to from_dict, which refuses it by its type
    if isinstance(data, dict):
        if args.out is not None:
            data["out_dir"] = args.out
        if args.dump_matrices:
            data["dump_matrices"] = True
    config = PipelineConfig.from_dict(data)
    if args.dump_moves and not config.out_dir:
        raise ConfigError("--dump-moves needs out_dir or --out to write the manifests to")
    report = run_pipeline(config)
    print(render_summary(report), end="")
    if config.out_dir:
        written = emit_report(report, config.out_dir)
        if args.dump_moves:
            # the pipeline's moves are these, so the manifest hashes equal the report's
            for n in range(1, config.n_max + 1):
                moves = enumerate_stabilizing_automorphisms(n)
                path = os.path.join(config.out_dir, f"moves_n{n}.json")
                with open(path, "w") as fh:
                    json.dump(moveset_manifest(n, moves), fh, indent=2, sort_keys=True)
                written.append(path)
        print("wrote: " + ", ".join(written))
    return report.exit_code


def _cmd_orbits(args) -> int:
    G = load_group(_load_spec(args.group))
    moves = compile_moves(args.n, G)
    table = enumerate_orbits(G, args.n, moves)
    sizes = table.orbit_sizes()
    print(f"group {G.name} (order {G.order}), n = {args.n}: {table.count} orbits")
    for o in range(table.count):
        print(f"  orbit {o}: size {int(sizes[o])}, representative {table.rep_tuple(o)}")
    return 0


def _cmd_oracle(args) -> int:
    if args.n < 0:
        raise ValueError(f"--n must be >= 0, got {args.n}")
    G = load_group(_load_spec(args.group))
    homology = subgroup_bar_homology(G)
    bh = homology[-1]  # G's own
    print(f"group {G.name} (order {G.order})")
    print(f"  H1 = {bh['H1']}")
    print(f"  H2 = {bh['H2']}")
    print(f"  stable orbit-count prediction (sum of |H2| over subgroups): "
          f"{subgroup_h2_sum(homology)}")
    if G.is_abelian and args.n:
        for n, count in enumerate(sp_orbit_counts(G, args.n)[1:], start=1):
            print(f"  symplectic orbit count at n = {n}: {count}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="stabring",
        description="Hurwitz-orbit rings, Koszul-type complexes and their "
                    "stabilization invariants for a finite group")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the full pipeline from a config file")
    p_run.add_argument("--config", required=True, help="path to a JSON config")
    p_run.add_argument("--out", default=None, help="report output directory")
    p_run.add_argument("--dump-moves", action="store_true",
                       help="also write the move-set manifests (needs an output directory)")
    p_run.add_argument("--dump-matrices", action="store_true",
                       help="write the differential matrices as text triplets")
    p_run.set_defaults(fn=_cmd_run)

    p_orb = sub.add_parser("orbits", help="enumerate orbits of G^(2n)")
    p_orb.add_argument("--group", required=True, help="group spec JSON (inline or path)")
    p_orb.add_argument("--n", type=int, required=True)
    p_orb.set_defaults(fn=_cmd_orbits)

    p_or = sub.add_parser("oracle", help="bar homology and stable-count oracles")
    p_or.add_argument("--group", required=True, help="group spec JSON (inline or path)")
    p_or.add_argument("--n", type=int, default=0,
                      help="also print symplectic orbit counts up to this genus (abelian)")
    p_or.set_defaults(fn=_cmd_oracle)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
