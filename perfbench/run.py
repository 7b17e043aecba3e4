"""End-to-end and per-layer benchmark of ``run_pipeline``.

    python3 perfbench/run.py --workload c8-ring-n3 --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --self-test
    python3 perfbench/table.py            # stage x workload table from perfbench/out

Closed loop, one client: each sample is one fresh interpreter (``child.py``)
that runs the workload once, and the next starts only after it has ended.
With ``--trace 0`` samples repeat while another fits in ``--seconds`` (at
least one), and the last output line carries the end-to-end metrics:

* ``setup_s``: cold interpreter to compiled move sets (import plus the
  ``load-group`` and ``moves`` stages); the move search is only cached
  in-process, so a CLI user pays it on every run.
* ``solve_s``: the rest of ``run_pipeline``, compiled moves to a verified report.
* ``peak_rss_mb``: peak resident memory of the sample's process.

Each is the median over the run's samples. ``attempted``/``failed`` count
samples; a sample fails if it raises, breaks the memory limit, records a
stage failure or a failing verdict, or misses the correctness gate
(``expected.json``). The error rate is failed / attempted.

With ``--trace 1`` the run makes one traced sample (``child.py trace``), which
also runs the pipeline untraced; it checks that the traced layer results
equal the untraced report, which must pass the gate, and reports the
per-layer metrics. ``trace.overhead_s`` is the traced minus the untraced time
of the solve stages the traced drive replays call for call.

Every run also writes its full record (machine, samples, stage timings,
spans, per-spot SNF records) to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

S3 = {"kind": "perm", "generators": [[[1, 2]], [[1, 2, 3]]]}

# Each window loads a different layer; see BENCHMARK.json for why.
WORKLOADS = {
    "c8-ring-n3": {"group": {"kind": "cyclic", "order": 8}, "n_max": 3, "p_max": 0},
    "s3-n3p2": {"group": S3, "n_max": 3, "p_max": 2},
    # self-test window only: seconds per sample, every layer runs
    "c2-n2p1": {"group": {"kind": "cyclic", "order": 2}, "n_max": 2, "p_max": 1},
}

END_TO_END = {"setup_s": "s", "solve_s": "s", "peak_rss_mb": "MB"}

# Report.timings stages reported per layer, from the untraced run in the traced
# sample. Its move search is cached in-process by then (words.moves_s is the
# cold one), and load-group and modules round to 0.000-0.002 s in the report
# (modules.regular_s times the same call).
PIPELINE_STAGES = ("orbits", "ring", "kcomplex", "homology", "oracles", "verdicts")
PER_LAYER_UNITS = {
    "words.moves_s": "s", "words.moves_top": "count",
    "orbits.kernel_s": "s", "orbits.edges": "count", "orbits.states_per_s": "1/s",
    "orbits.peak_alloc_mb": "MB", "orbits.cache_store_s": "s",
    "orbits.cache_load_s": "s",
    "oracle.sp_s": "s", "oracle.bar_s": "s",
    "ring.build_s": "s", "ring.profile_s": "s",
    "modules.regular_s": "s", "modules.consistency_s": "s", "modules.lemma_s": "s",
    "kcomplex.build_s": "s", "kcomplex.d_nnz": "count", "kcomplex.d_squared_s": "s",
    "kcomplex.u_commute_s": "s", "kcomplex.homotopy_s": "s",
    "kcomplex.rmult_chain_s": "s",
    "zlinalg.homology_s": "s", "zlinalg.max_spot_s": "s",
    "zlinalg.max_spot_nnz": "count", "zlinalg.spots": "count",
    **{f"pipeline.{s}_s": "s" for s in PIPELINE_STAGES},
    "trace.overhead_s": "s",
}

RUN_LIMIT_S = 170.0  # a run must end within 180 s


def memory_limit() -> int:
    """Address-space cap for a sample: 70% of physical memory."""
    return int(0.7 * os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE"))


def environment() -> dict:
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None
    return {"nproc": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": version("numpy"), "scipy": version("scipy"),
            "numba_importable": importlib.util.find_spec("numba") is not None,
            "mem_limit_bytes": memory_limit()}


def child_env() -> dict:
    return {k: v for k, v in os.environ.items()
            if k not in ("STABRING_BACKEND", "STABRING_CACHE")}


def run_child(mode: str, job: dict, deadline: float) -> dict:
    """One sample in a fresh interpreter; never raises for a failed sample."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        return {"ok": False, "errors": ["no time left for the sample"]}
    spawn = time.monotonic()
    cmd = [sys.executable, str(HERE / "child.py"), mode, str(ROOT), repr(spawn),
           str(memory_limit()), json.dumps(job)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout,
                              env=child_env(), cwd=ROOT)
    except subprocess.TimeoutExpired:
        return {"ok": False, "errors": [f"{mode} sample timed out after {timeout:.0f} s"]}
    elapsed = time.monotonic() - spawn
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"ok": False, "duration_s": elapsed,
                "errors": [f"{mode} sample exited {proc.returncode}: {tail[0]}"]}
    out = json.loads(lines[-1])
    out.update(ok=True, errors=[], duration_s=elapsed)
    return out


def gate(report: dict, expected: dict) -> list:
    """Differences from the recorded seed results. A verdict may move from
    inconclusive to pass; one that passed must still pass; none may fail."""
    errors = []
    if report.get("failure"):
        errors.append(f"stage failure: {report['failure']}")
    for key in ("counts", "homology"):
        if report.get(key) != expected[key]:
            errors.append(f"{key} differ from the recorded results")
    oracle = report.get("oracle", {})
    for key, value in expected["oracle"].items():  # a new oracle value is no error
        if oracle.get(key) != value:
            errors.append(f"oracle {key} differs from the recorded result")
    got = {v["check"]: v["status"] for v in report.get("verdicts", [])}
    for check, status in got.items():
        if status == "fail":
            errors.append(f"verdict {check} fails")
    for check, status in expected["verdicts"].items():
        if check not in got:
            errors.append(f"verdict {check} missing")
        elif status == "pass" and got[check] != "pass":
            errors.append(f"verdict {check} is {got[check]}, was pass")
    return errors


def trace_agreement(traced: dict, report: dict) -> list:
    """The traced sample's layer results must equal the untraced report."""
    errors = [f"traced check failed: {name}"
              for name, ok in traced["checks"].items() if not ok]
    res = traced["results"]
    for key in ("counts", "moveset_hashes", "homology", "oracle"):
        if res[key] != report[key]:
            errors.append(f"traced {key} differ from the untraced report")
    if res["profile_counts"] != report["counts"]:
        errors.append("traced stability profile counts differ from the report")
    return errors


def measure(name: str, seed: int, seconds: float, trace: bool, expected: dict,
            workdir: Path) -> dict:
    job = {**WORKLOADS[name], "seed": seed, "workdir": str(workdir)}
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    samples = []
    if not trace:
        while True:
            s = run_child("pipeline", job, deadline)
            if s["ok"]:
                s["errors"] = gate(s["report"], expected)
            samples.append(s)
            elapsed = time.monotonic() - start
            if elapsed + s.get("duration_s", 0.0) > seconds or not s["ok"]:
                break
        good = [s for s in samples if "solve_s" in s]
        metrics = {k: statistics.median(s[k] for s in good) for k in END_TO_END} if good else {}
        units = END_TO_END
        extra = {}
    else:
        s = run_child("trace", job, deadline)
        samples = [s]
        metrics, extra = {}, {}
        if s["ok"]:
            base = s.pop("untraced")
            s["errors"] = gate(base["report"], expected) + trace_agreement(s, base["report"])
            metrics = dict(s["metrics"])
            for stage in PIPELINE_STAGES:
                metrics[f"pipeline.{stage}_s"] = base["timings"][stage]
            metrics["trace.overhead_s"] = sum(
                s["stage_s"][st] - base["timings"][st] for st in s["stage_s"])
            extra = {"untraced_timings": base["timings"], "spans": s.pop("spans"),
                     "spots": s["spots"]}
        units = PER_LAYER_UNITS
    failed = sum(1 for s in samples if s["errors"] or not s["ok"])
    return {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
            "attempted": len(samples), "failed": failed, "samples": samples,
            "metrics": {k: {"value": metrics[k], "unit": u}
                        for k, u in units.items() if k in metrics},
            "missing": [k for k in units if k not in metrics], **extra}


def load_expected() -> dict:
    with open(HERE / "expected.json") as fh:
        return json.load(fh)


def record_expected(name: str, seed: int) -> None:
    """Write the seed results of a workload into expected.json."""
    s = run_child("pipeline", {**WORKLOADS[name], "seed": seed}, time.monotonic() + 900)
    if not s["ok"]:
        raise SystemExit(s["errors"][0])
    rep = s["report"]
    if rep.get("failure") or any(v["status"] == "fail" for v in rep["verdicts"]):
        raise SystemExit(f"{name}: refusing to record a failing report")
    path = HERE / "expected.json"
    data = load_expected() if path.exists() else {}
    data[name] = {"counts": rep["counts"], "homology": rep["homology"],
                  "oracle": rep["oracle"],
                  "verdicts": {v["check"]: v["status"] for v in rep["verdicts"]}}
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def summarize(result: dict) -> None:
    print(f"workload {result['workload']} seed {result['seed']} trace {result['trace']}: "
          f"{result['attempted']} attempted, {result['failed']} failed, "
          f"error_rate {result['failed'] / result['attempted']:.3f}")
    for s in result["samples"]:
        for err in s["errors"]:
            print(f"  error: {err}")
    for k, v in result["metrics"].items():
        print(f"  {k} = {v['value']:.6g} {v['unit']}")
    for spot in result.get("spots", []):
        print("  spot p={p} n={n} {rows}x{cols} nnz={nnz} rank={rank} "
              "torsion={torsion} {seconds:.3f} s".format(**spot))


def self_test(workdir: Path) -> int:
    """Tiny window through the untraced path, the traced path and the gate;
    a wrong expectation must count as a failed sample."""
    name = "c2-n2p1"
    expected = load_expected()[name]
    ok = True
    for trace in (False, True):
        res = measure(name, 1, 0.0, trace, expected, workdir)
        summarize(res)
        ok &= res["failed"] == 0 and not res["missing"]
    wrong = {**expected, "counts": expected["counts"][:-1] + [expected["counts"][-1] + 1]}
    res = measure(name, 1, 0.0, False, wrong, workdir)
    summarize(res)
    ok &= res["failed"] == res["attempted"] == 1
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[w for w in WORKLOADS if w != "c2-n2p1"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--record", metavar="WORKLOAD", choices=list(WORKLOADS),
                    help="store the seed results of a workload as the gate")
    args = ap.parse_args(argv)
    # SystemExit unwinds through subprocess.run, which kills and reaps the sample.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "stabring" / "__init__.py").is_file():
        print(f"no stabring sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.record:
        record_expected(args.record, args.seed)
        return 0
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        if args.self_test:
            return self_test(workdir)
        if not args.workload:
            ap.error("--workload is required")
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                         load_expected()[args.workload], workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["environment"] = environment()
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(result, fh, indent=1)
    summarize(result)
    if result["missing"]:
        print(f"no measurement for {result['missing']}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
