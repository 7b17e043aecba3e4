"""Stage x workload table (seconds, median over samples) from benchmark output.

    python3 perfbench/table.py [perfbench/out/*-trace0.json ...]

Reads the records ``run.py`` writes; with no arguments, every untraced record
in ``perfbench/out``. Prints a Markdown table in the layout of the ROADMAP
Baseline, plus set-up, solve, peak RSS and the per-spot SNF records of any
traced record.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

OUT = Path(__file__).resolve().parent / "out"


def main(argv) -> int:
    paths = [Path(p) for p in argv] or sorted(OUT.glob("*.json"))
    records = [json.loads(p.read_text()) for p in paths]
    samples, spots, env = {}, {}, None
    for rec in records:
        env = rec.get("environment", env)
        if rec.get("spots"):
            spots[rec["workload"]] = rec["spots"]
        if rec["trace"]:
            continue
        samples.setdefault(rec["workload"], []).extend(
            s for s in rec["samples"] if "timings" in s)
    if not samples:
        print("no untraced records", file=sys.stderr)
        return 1
    names = sorted(samples)
    stages = list(dict.fromkeys(k for w in names for s in samples[w] for k in s["timings"]))

    def med(w, fn):
        return statistics.median(fn(s) for s in samples[w])

    rows = [(st, "s", lambda s, st=st: s["timings"].get(st, 0.0)) for st in stages]
    rows += [
        ("outside stages", "s",
         lambda s: s["pipeline_wall_s"] - sum(s["timings"].values())),
        ("run_pipeline total", "s", lambda s: s["pipeline_wall_s"]),
        ("setup_s", "s", lambda s: s["setup_s"]),
        ("solve_s", "s", lambda s: s["solve_s"]),
        ("peak RSS", "MB", lambda s: s["peak_rss_mb"]),
    ]
    if env:
        print(f"Machine: {env['nproc']} cores, Python {env['python']}, numpy {env['numpy']}, "
              f"scipy {env['scipy']}, numba importable: {env['numba_importable']}.")
    print("Samples: " + ", ".join(f"{w} {len(samples[w])}" for w in names) + "\n")
    print("| stage | " + " | ".join(names) + " |")
    print("|---|" + "---|" * len(names))
    for label, unit, fn in rows:
        print(f"| {label} | " + " | ".join(f"{med(w, fn):.3f} {unit}" for w in names) + " |")
    for w, recs in sorted(spots.items()):
        print(f"\n{w} spots (p, n, rows x cols, nnz, rank, torsion, SNF s):")
        for sp in recs:
            print("  {p} {n} {rows}x{cols} {nnz} {rank} {torsion} {seconds:.3f}".format(**sp))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
