"""Pipeline orchestration: configuration, staged execution, verdict
assembly, and report emission."""

from __future__ import annotations

import csv
import functools
import io
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import kcomplex as kc
from .groups import _is_int, load_group, subgroup_closure
from .modules import delta_and_bounds, derive_module, regular_module
from .oracle import (abelianization_invariants, bar_homology,
                     sp_orbit_counts, stable_count_prediction)
from .orbits import enumerate_orbits
from .ring import local_ring
from .words import boundary_eval, compile_moves, moveset_hash


class ConfigError(ValueError):
    """Raised on invalid pipeline configuration."""


class StageError(RuntimeError):
    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


SCHEMA_VERSION = 4


@dataclass
class PipelineConfig:
    group: dict
    n_max: int
    p_max: int
    out_dir: str | None = None
    seed: int = 0
    well_definedness_samples: int = 1000
    dump_matrices: bool = False

    def __post_init__(self):
        for name in ("n_max", "p_max", "seed", "well_definedness_samples"):
            value = getattr(self, name)
            if not _is_int(value):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if self.n_max < 1:
            raise ConfigError("n_max must be >= 1")
        if self.p_max < 0:
            raise ConfigError("p_max must be >= 0")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.well_definedness_samples < 1:
            raise ConfigError("well_definedness_samples must be >= 1")
        if self.out_dir is not None and not isinstance(self.out_dir, str):
            raise ConfigError(f"out_dir must be a string path, got {self.out_dir!r}")
        if not isinstance(self.dump_matrices, bool):
            raise ConfigError(f"dump_matrices must be true or false, got {self.dump_matrices!r}")
        if self.dump_matrices and not self.out_dir:
            raise ConfigError("dump_matrices needs out_dir to write the matrices to")

    @classmethod
    def from_dict(cls, data: dict) -> "PipelineConfig":
        known = {f for f in cls.__dataclass_fields__}
        extra = set(data) - known
        if extra:
            raise ConfigError(f"unknown config fields: {sorted(extra)}")
        if "group" not in data or "n_max" not in data or "p_max" not in data:
            raise ConfigError("config needs group, n_max and p_max")
        return cls(**data)


@dataclass
class Report:
    schema_version: int = SCHEMA_VERSION
    group: dict = field(default_factory=dict)
    config: dict = field(default_factory=dict)
    moveset_hashes: dict = field(default_factory=dict)
    counts: list = field(default_factory=list)
    stability: dict = field(default_factory=dict)
    ring_summary: dict = field(default_factory=dict)
    homology: list = field(default_factory=list)
    oracle: dict = field(default_factory=dict)
    verdicts: list = field(default_factory=list)
    failure: dict | None = None
    timings: dict = field(default_factory=dict)

    @property
    def exit_code(self) -> int:
        if self.failure or any(v["status"] == "fail" for v in self.verdicts):
            return 1
        if any(v["status"] == "inconclusive" for v in self.verdicts):
            return 2
        return 0

    def canonical_payload(self) -> dict:
        """Everything except timings; byte-identical across runs of one config."""
        return {
            "schema_version": self.schema_version,
            "group": self.group,
            "config": self.config,
            "moveset_hashes": self.moveset_hashes,
            "counts": self.counts,
            "stability": self.stability,
            "ring_summary": self.ring_summary,
            "homology": self.homology,
            "oracle": self.oracle,
            "verdicts": self.verdicts,
            "failure": self.failure,
        }

    def to_json(self) -> str:
        return json.dumps(self.canonical_payload(), sort_keys=True, indent=2) + "\n"


def _verdict(check, statement, status, witness=None):
    return {"check": check, "statement": statement, "status": status,
            "witness": witness}


def _well_definedness_verdict(ring, config: PipelineConfig) -> dict:
    """Randomized representative independence of the product and the homotopy
    prepend map: different orbit representatives give identical classes."""
    G = ring.G
    rng = np.random.default_rng(config.seed)
    moves_at = {n: ring.moves_by_degree[n] for n in range(1, ring.n_max + 1)}
    # the generated subgroup depends only on the set of entries
    closure = functools.lru_cache(maxsize=None)(lambda entries: subgroup_closure(G, entries))
    samples = config.well_definedness_samples
    for _ in range(samples):
        if ring.n_max >= 2:
            m_deg = int(rng.integers(1, ring.n_max))
            n_deg = int(rng.integers(1, ring.n_max - m_deg + 1))
        else:
            m_deg, n_deg = 1, 0  # window too small for a two-factor product
        v = tuple(int(x) for x in rng.integers(0, G.order, size=2 * m_deg))
        w = tuple(int(x) for x in rng.integers(0, G.order, size=2 * n_deg))
        mv = moves_at[m_deg][int(rng.integers(0, len(moves_at[m_deg])))]
        v2 = mv.apply(G, v)
        if n_deg:
            mw = moves_at[n_deg][int(rng.integers(0, len(moves_at[n_deg])))]
            w2 = mw.apply(G, w)
            base = ring.class_index(m_deg + n_deg, v + w)
            alt = ring.class_index(m_deg + n_deg, v2 + w2)
            if base != alt:
                return _verdict(
                    "well_definedness",
                    "product and homotopy classes are independent of representatives",
                    "fail", f"product mismatch for v={v}, w={w}, move images v'={v2}, w'={w2}")
        # the homotopy conjugator only sees the evaluated boundary, which must
        # be constant on orbits (same for the generated subgroup)
        if boundary_eval(G, v2) != boundary_eval(G, v):
            return _verdict("well_definedness", "boundary value is orbit-constant",
                            "fail", f"boundary changed along a move at v={v}")
        if closure(frozenset(v2)) != closure(frozenset(v)):
            return _verdict("well_definedness", "generated subgroup is orbit-constant",
                            "fail", f"generated subgroup changed along a move at v={v}")
    return _verdict("well_definedness",
                    "product and homotopy classes are independent of representatives",
                    "pass", f"{samples} randomized representative pairs")


def _annihilation_verdict(K, homotopy_ok: bool) -> dict:
    """Right multiplication kills homology.  It is a chain map, and the
    homotopy identity d S + S d = Rmult on the same spots gives Rmult z = d(S z)
    for every cycle z, so no cycle needs checking on its own."""
    statement = "right multiplication by every degree-1 class kills every computed homology class"
    # right multiplication reads only the class of (g, h), and each class's
    # representative is its least pair, so the first failing class names the
    # first failing pair
    for c in range(K.ring.basis_size(1)):
        g, h = K.ring.rep(1, c)
        ok, wit = kc.right_mult_is_chain_map(K, g, h)
        if not ok:
            return _verdict("homology_annihilation", statement, "fail",
                            f"right multiplication by ({g},{h}) is not a chain map at {wit}")
    if not homotopy_ok:
        return _verdict("homology_annihilation", statement, "fail",
                        "homotopy identity failed, annihilation unproven")
    return _verdict("homology_annihilation", statement, "pass",
                    "chain-map + homotopy identities exact")


def _lemma_battery_verdict(ring) -> dict:
    """Generation/degree lemmas on the derived-module battery."""
    from .modules import deg_of, generated_in_degrees_upto, h0

    statement = ("generation lemma, tensor degree bound and A <= delta + A(R) "
                 "hold on derived modules")
    recipes = [("R",), ("Rbar",), ("RU",), ("shift", 1), ("trunc", 1)]
    for recipe in recipes:
        M = derive_module(ring, recipe)
        db = delta_and_bounds(M)
        if not db.a_bound_ok:
            return _verdict("lemma_battery", statement, "fail",
                            f"A(M) > delta(M) + A(R) for {M.name}")
        if not db.tensor_bound_ok:
            return _verdict("lemma_battery", statement, "fail",
                            f"tensor degree bound fails for {M.name}")
        a = deg_of(h0(M))
        gen_at_a = generated_in_degrees_upto(M, a) if a >= 0 else True
        gen_below = generated_in_degrees_upto(M, a - 1) if a >= 0 else False
        if not gen_at_a or (a >= 0 and gen_below):
            return _verdict("lemma_battery", statement, "fail",
                            f"H0-degree/generation equivalence fails for {M.name}")
    return _verdict("lemma_battery", statement, "pass",
                    f"{len(recipes)} derived modules checked")


def _dump_matrices(K, out_dir: str) -> None:
    """Write every differential as text triplets to out_dir/matrices."""
    mat_dir = os.path.join(out_dir, "matrices")
    os.makedirs(mat_dir, exist_ok=True)
    for (p, n), mat in sorted(K.d.items()):
        with open(os.path.join(mat_dir, f"d_p{p}_n{n}.txt"), "w") as fh:
            fh.write(mat.to_text())


def run_pipeline(config: PipelineConfig) -> Report:
    """load -> moves -> orbits -> ring -> modules -> K-complex -> oracles -> verdicts.

    Any stage error is recorded with its stage name; earlier results stay in
    the report.
    """
    report = Report()
    report.config = {
        "n_max": config.n_max, "p_max": config.p_max, "seed": config.seed,
        "well_definedness_samples": config.well_definedness_samples,
    }
    timings = report.timings

    def stage(name, fn):
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception as exc:
            report.failure = {"stage": name, "error": str(exc)}
            raise StageError(name, exc) from exc
        finally:
            timings[name] = round(time.perf_counter() - t0, 3)
        return out

    try:
        G = stage("load-group", lambda: load_group(config.group))
        report.group = {"name": G.name, "order": G.order, "hash": G.hash()}

        moves_by_degree = stage("moves", lambda: {
            n: compile_moves(n, G) for n in range(1, config.n_max + 1)})
        report.moveset_hashes = {str(n): moveset_hash(m) for n, m in moves_by_degree.items()}

        # the kernel runs at degrees 1 and 2; the ring builds the rest from them
        tables = stage("orbits", lambda: {
            n: enumerate_orbits(G, n, moves_by_degree[n])
            for n in range(1, min(2, config.n_max) + 1)})

        ring = stage("ring", lambda: local_ring(G, config.n_max, tables, moves_by_degree))
        profile = ring.stability_profile()
        report.counts = list(profile.counts)
        report.stability = {
            "counts": list(profile.counts),
            "u_injective": list(profile.u_injective),
            "u_surjective": list(profile.u_surjective),
            "deg_u": profile.deg_u,
            "deg_r_u": profile.deg_r_u,
            "deg_rbar": profile.deg_rbar,
            "a_r": profile.a_r,
            "a_tilde_r": profile.a_tilde_r,
            "stable_within_window": profile.stable_within_window,
        }
        report.ring_summary = ring.summary()

        def _modules():
            R = regular_module(ring)
            if config.n_max >= 2:  # degree-2 orbit relations exist only from there
                bad = R.consistency_failures()
                if bad:
                    raise ValueError(f"lambda consistency failed: {bad[0]}")
            return R
        R = stage("modules", _modules)

        p_built = min(config.p_max + 1, config.n_max)
        K = stage("kcomplex", lambda: kc.build_kcomplex(R, p_built, config.n_max))
        if config.dump_matrices:
            stage("dump-matrices", lambda: _dump_matrices(K, config.out_dir))

        rows = stage("homology", lambda: kc.h_profile(K))
        report.homology = [
            {"p": r.p, "n": r.n, "free_rank": r.homology.free_rank,
             "torsion": list(r.homology.torsion), "certified": r.certified}
            for r in rows]

        def _oracles():
            out = {}
            bh = bar_homology(G)
            out["bar_h1"] = {"free_rank": bh["H1"].free_rank, "torsion": list(bh["H1"].torsion)}
            out["bar_h2"] = {"free_rank": bh["H2"].free_rank, "torsion": list(bh["H2"].torsion)}
            out["abelianization"] = list(abelianization_invariants(G))
            out["stable_count_prediction"] = stable_count_prediction(G)
            if G.is_abelian:
                out["sp_counts"] = sp_orbit_counts(G, config.n_max)
            return out
        report.oracle = stage("oracles", _oracles)

        def _verdicts():
            verdicts = []
            ok_dd, wit = kc.verify_d_squared(K)
            verdicts.append(_verdict(
                "d_squared_zero", "the differential composes to zero at every spot",
                "pass" if ok_dd else "fail",
                None if ok_dd else f"first offender (p, n, column) = {wit}"))

            ok_du, wit_du = kc.u_commutes_with_d(K)
            verdicts.append(_verdict(
                "u_commutes_with_d", "the degree-raising operator commutes with the differential",
                "pass" if ok_du else "fail", None if ok_du else f"spot {wit_du}"))

            homotopy_ok = True
            hom_wit = None
            for g in range(G.order):
                for h in range(G.order):
                    ok, w = kc.homotopy_check(K, g, h)
                    if not ok:
                        homotopy_ok, hom_wit = False, (g, h, w)
                        break
                if not homotopy_ok:
                    break
            verdicts.append(_verdict(
                "homotopy_identity",
                "S d + d S equals right multiplication by the prepended class, exactly",
                "pass" if homotopy_ok else "fail",
                None if homotopy_ok else f"(g, h, spot) = {hom_wit}"))

            verdicts.append(_annihilation_verdict(K, homotopy_ok))
            verdicts.extend(kc.bound_checks(profile, rows, config.n_max))

            if G.is_abelian:
                sp = report.oracle["sp_counts"]
                mism = [n for n in range(config.n_max + 1) if profile.counts[n] != sp[n]]
                verdicts.append(_verdict(
                    "sp_oracle_match",
                    "orbit counts match the symplectic transvection oracle",
                    "fail" if mism else "pass",
                    f"mismatch at degrees {mism}" if mism else
                    f"equal for all n <= {config.n_max}"))
            else:
                verdicts.append(_verdict(
                    "sp_oracle_match",
                    "orbit counts match the symplectic transvection oracle",
                    "inconclusive", "oracle applies to abelian groups only"))

            pred = report.oracle["stable_count_prediction"]
            top = profile.counts[-1]
            if not profile.stable_within_window:
                verdicts.append(_verdict(
                    "stable_count", "stable orbit count matches the subgroup H2 sum",
                    "inconclusive", "stability not certified by the window"))
            elif G.is_abelian:
                verdicts.append(_verdict(
                    "stable_count", "stable orbit count matches the subgroup H2 sum",
                    "pass" if top == pred else "fail",
                    f"observed {top}, predicted {pred}"))
            else:
                verdicts.append(_verdict(
                    "stable_count", "stable orbit count matches the subgroup H2 sum",
                    "inconclusive",
                    f"observed {top}, unrefined prediction {pred}: surjective classes "
                    "split further by the boundary value in the commutator subgroup"))

            orc = report.oracle
            h1_match = (orc["bar_h1"]["free_rank"] == 0
                        and orc["bar_h1"]["torsion"] == orc["abelianization"])
            verdicts.append(_verdict(
                "bar_h1_abelianization",
                "bar-complex H1 equals the abelianization from the Cayley table",
                "pass" if h1_match else "fail",
                f"H1 {orc['bar_h1']}, abelianization {orc['abelianization']}"))

            verdicts.append(_well_definedness_verdict(ring, config))
            verdicts.append(_lemma_battery_verdict(ring))
            return verdicts
        report.verdicts = stage("verdicts", _verdicts)
    except StageError:
        pass
    return report


def emit_report(report: Report, out_dir: str) -> list:
    """Write report.json (canonical), CSV tables, and a text summary."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    path = os.path.join(out_dir, "report.json")
    with open(path, "w") as fh:
        fh.write(report.to_json())
    written.append(path)
    path = os.path.join(out_dir, "homology.csv")
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["group", "module", "p", "n", "free_rank", "torsion", "certified"])
        for row in report.homology:
            w.writerow([report.group.get("name"), "R", row["p"], row["n"],
                        row["free_rank"], ";".join(map(str, row["torsion"])),
                        row["certified"]])
    written.append(path)
    path = os.path.join(out_dir, "counts.csv")
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["group", "n", "orbit_count"])
        for n, c in enumerate(report.counts):
            w.writerow([report.group.get("name"), n, c])
    written.append(path)
    path = os.path.join(out_dir, "summary.txt")
    with open(path, "w") as fh:
        fh.write(render_summary(report))
    written.append(path)
    return written


def render_summary(report: Report) -> str:
    buf = io.StringIO()
    g = report.group
    buf.write(f"group {g.get('name')} (order {g.get('order')})\n")
    buf.write(f"orbit counts by degree: {report.counts}\n")
    st = report.stability
    if st:
        buf.write(f"A(R) = {st['a_r']}, A~(R) = {st['a_tilde_r']}, "
                  f"stable within window: {st['stable_within_window']}\n")
    buf.write("verdicts:\n")
    for v in report.verdicts:
        buf.write(f"  [{v['status']:>12}] {v['check']}: {v['statement']}\n")
        if v.get("witness"):
            buf.write(f"               witness: {v['witness']}\n")
    if report.failure:
        buf.write(f"FAILED at stage {report.failure['stage']}: {report.failure['error']}\n")
    if report.timings:
        buf.write("timings (s):\n")
        for k, v in report.timings.items():
            buf.write(f"  {k}: {v}\n")
    return buf.getvalue()
