"""Pipeline orchestration: configuration, staged execution, every verdict record
(exact chain checks on K(R): d^2 = 0 from the homology stage, and dU = Ud,
right multiplication and the prepend homotopy from identities of the ring's
product tables that imply them; the oracles; the paper's degree bounds), and
report emission."""

from __future__ import annotations

import csv
import io
import json
import os
import shutil
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import _kernels
from . import kcomplex as kc
from .groups import _is_int, generated_subgroups, load_group
from .modules import (delta_and_bounds, derive_module, generated_in_degrees_upto,
                      regular_module, ring_parts)
from .oracle import (abelianization_invariants, sp_orbit_counts, subgroup_bar_homology,
                     subgroup_h2_sum)
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
        for name, least in (("n_max", 1), ("p_max", 0), ("seed", 0),
                            ("well_definedness_samples", 1)):
            value = getattr(self, name)
            if not _is_int(value):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            if value < least:
                raise ConfigError(f"{name} must be >= {least}")
        if self.out_dir is not None and not isinstance(self.out_dir, str):
            raise ConfigError(f"out_dir must be a string path, got {self.out_dir!r}")
        if not isinstance(self.dump_matrices, bool):
            raise ConfigError(f"dump_matrices must be true or false, got {self.dump_matrices!r}")
        if self.dump_matrices and not self.out_dir:
            raise ConfigError("dump_matrices needs out_dir to write the matrices to")

    @classmethod
    def from_dict(cls, data: dict) -> "PipelineConfig":
        if not isinstance(data, dict):
            raise ConfigError(f"config must be a JSON object, got {type(data).__name__}")
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
        payload = asdict(self)
        del payload["timings"]
        return payload

    def to_json(self) -> str:
        return json.dumps(self.canonical_payload(), sort_keys=True, indent=2) + "\n"


def _verdict(check, statement, status, witness=None):
    return {"check": check, "statement": statement, "status": status,
            "witness": witness}


# Samples per chunk of the well-definedness verdict: its arrays, at most the
# (2 chunk, |G|, |G|) booleans of a closure round, grow with this, not the sample count.
WELL_DEFINEDNESS_CHUNK = 1024


def _moved_samples(rng, G, moves, k: int, deg: int):
    """k random G-tuples of degree deg, and their images under one random move
    each, evaluated per move on all the rows that drew it."""
    v = rng.integers(0, G.order, size=(k, 2 * deg))
    pick = rng.integers(0, len(moves), size=k)
    v2 = np.empty_like(v)
    for i in _kernels.distinct(pick).tolist():
        v2[pick == i] = moves[i].evaluate(G, v[pick == i])
    return v, v2


def _well_definedness_verdict(ring, moves_at: dict, config: PipelineConfig) -> dict:
    """Randomized representative independence of the product and the homotopy
    prepend map: different orbit representatives give identical classes.
    ``moves_at[n]`` is the move set of degree n.  Per chunk of samples, the
    degrees (m, n) of every sample are drawn first, then each (m, n) bucket's
    tuples and moves as arrays; a failure names the bucket's first failing sample."""
    G = ring.G
    rng = _kernels.Draws(config.seed)
    samples = config.well_definedness_samples
    statement = "product and homotopy classes are independent of representatives"
    for start in range(0, samples, WELL_DEFINEDNESS_CHUNK):
        size = min(WELL_DEFINEDNESS_CHUNK, samples - start)
        if ring.n_max >= 2:
            m_deg = rng.integers(1, ring.n_max, size=size)
            n_deg = rng.integers(1, ring.n_max - m_deg + 1)
        else:  # window too small for a two-factor product
            m_deg, n_deg = np.ones(size, dtype=np.int64), np.zeros(size, dtype=np.int64)
        buckets, counts = np.unique(m_deg * ring.n_max + n_deg, return_counts=True)
        for bucket, k in zip(buckets.tolist(), counts.tolist()):
            m, n = divmod(bucket, ring.n_max)
            v, v2 = _moved_samples(rng, G, moves_at[m], k, m)
            if n:
                w, w2 = _moved_samples(rng, G, moves_at[n], k, n)
                base = ring.class_index(m + n, np.concatenate([v, w], axis=1))
                alt = ring.class_index(m + n, np.concatenate([v2, w2], axis=1))
                bad = np.flatnonzero(base != alt)
                if len(bad):
                    v, w, v2, w2 = (tuple(x[bad[0]].tolist()) for x in (v, w, v2, w2))
                    return _verdict("well_definedness", statement, "fail",
                                    f"product mismatch for v={v}, w={w}, move images v'={v2}, w'={w2}")
            # the homotopy conjugator only sees the evaluated boundary, which must
            # be constant on orbits (same for the generated subgroup)
            bad = np.flatnonzero(boundary_eval(G, v2) != boundary_eval(G, v))
            if len(bad):
                return _verdict("well_definedness", "boundary value is orbit-constant", "fail",
                                f"boundary changed along a move at v={tuple(v[bad[0]].tolist())}")
            masks = generated_subgroups(G, np.concatenate([v, v2]))
            bad = np.flatnonzero((masks[:k] != masks[k:]).any(axis=1))
            if len(bad):
                return _verdict("well_definedness", "generated subgroup is orbit-constant",
                                "fail", "generated subgroup changed along a move at "
                                f"v={tuple(v[bad[0]].tolist())}")
    return _verdict("well_definedness", statement, "pass",
                    f"{samples} randomized representative pairs")


def _first_ring_failure(ring, sides, stop=None) -> tuple | None:
    """The first (m, index) in index order, 0 <= m < stop (n_max - 1 unless
    given), where the two tables ``sides(ring.product, m)`` differ.  A term of
    d on K(R) sends (t, j) to (t minus a pair, a . j), and at p = 1 every
    degree-1 class is an a, so a map of the class part commutes with d iff it
    commutes with each a on R_m."""
    for m in range(ring.n_max - 1 if stop is None else stop):
        bad = np.argwhere(np.not_equal(*sides(ring.product, m)))
        if len(bad):
            return (m, *bad[0].tolist())


def _u_commutes_verdict(ring) -> dict:
    """dU = Ud, as a . (U j) = U(a . j) for all degree-1 a and classes j."""
    bad = _first_ring_failure(ring, lambda P, m: (P(1, m + 1)[:, P(1, m)[0]],
                                                  P(1, m + 1)[0][P(1, m)]))
    return _verdict("u_commutes_with_d",
                    "the degree-raising operator commutes with the differential",
                    "fail" if bad else "pass", bad and f"a.(U j) != U(a.j) at (m, a, j) = {bad}")


def _homotopy_verdict(ring) -> dict:
    """S d + d S = Rmult on K(R), from two identities of the product tables.
    Write [x] for the class of a pair x, c(x) for its commutator, x^y for
    y^-1 x y, and bd(j) for the boundary value of class j, read off its
    representative:

    (A) [x^(bd(j)^-1)] . j = j . [x] for every pair x and class j of R_m, m < n_max;
    (B) c(x) = bd([x]) for every pair x, and bd(a . j) = bd(a) bd(j) for every
        degree-1 class a and class j of R_m, m <= n_max - 2.

    They give the identity at every spot (p, n), n < n_max.  Take a basis
    element t (x) j of K_p(n), t = (t_1, ..., t_p), j of R_m, m = n - p; let
    c(t) be the product of the c(t_i), tau = c(t) bd(j), and d_i the product
    of the c(t_k), k > i.  Then S(t (x) j) = (x^(tau^-1), t) (x) j, and the
    term i of d(t (x) j) is (-1)^(i-1) (t minus t_i) (x) j_i, j_i = [t_i^(d_i)] . j.
    - The k = 1 term of d S conjugates the new first pair by c(t), and
      tau^-1 c(t) = bd(j)^-1, so it is t (x) [x^(bd(j)^-1)] . j, which (A)
      makes t (x) j . [x], the whole of Rmult(t (x) j).
    - The k = i + 1 >= 2 term of d S is (-1)^i (x^(tau^-1), t minus t_i) (x) j_i,
      its conjugator d_i as in d(t (x) j).  The term i of S d is
      (-1)^(i-1) (x^(tau_i^-1), t minus t_i) (x) j_i, tau_i = c(t minus t_i) bd(j_i).
      By (B), bd(j_i) = c(t_i^(d_i)) bd(j) = d_i^-1 c(t_i) d_i bd(j), and
      c(t minus t_i) = c(t_1) ... c(t_(i-1)) d_i, so tau_i = tau and the two
      terms cancel.  Here p >= 1, so m <= n_max - 2.
    - At p = 0 there is no S d and no k >= 2 term: d S is its k = 1 term.
    So (A) and (B) are sufficient, not necessary: only the k >= 2 terms need
    (B), and a complex built to p_max = 1 has none.
    A failure names the identity and its first failing x or (m, a, j) of (B),
    checked first, or (m, x, j) of (A)."""
    G = ring.G
    table, inverse = G.table, G.inverse
    g, h = np.divmod(np.arange(G.order ** 2), G.order)
    bd = [ring.boundary_values(m) for m in range(ring.n_max + 1)]  # bd[m][j]

    def conjugated_class(m):  # [x^(bd(j)^-1)], shape (pairs, |R_m|)
        b, b_inv = bd[m][None, :], inverse[bd[m]][None, :]
        return ring.pair_class[table[table[b, g[:, None]], b_inv] * G.order
                               + table[table[b, h[:, None]], b_inv]]

    pair = np.flatnonzero(G.commutator(g, h) != bd[1][ring.pair_class])[:1].tolist()
    split = _first_ring_failure(ring, lambda P, m: (bd[m + 1][P(1, m)],
                                                    table[bd[1][:, None], bd[m][None, :]]))
    moved = _first_ring_failure(ring, lambda P, m: (
        P(1, m)[conjugated_class(m), np.arange(ring.basis_size(m))],
        P(m, 1)[:, ring.pair_class].T), stop=ring.n_max)
    if pair:
        witness = f"(B) c(x) != bd([x]) at x = {divmod(pair[0], G.order)}"
    elif split:
        witness = f"(B) bd(a . j) != bd(a) bd(j) at (m, a, j) = {split}"
    elif moved:
        m, x, j = moved
        witness = f"(A) [x^(bd(j)^-1)] . j != j . [x] at (m, x, j) = {(m, divmod(x, G.order), j)}"
    else:
        witness = None
    return _verdict("homotopy_identity",
                    "S d + d S equals right multiplication by the prepended class, exactly",
                    "fail" if witness else "pass", witness)


def _annihilation_verdict(ring, homotopy_ok: bool) -> dict:
    """Right multiplication kills homology: it is a chain map, as a.(j.c) = (a.j).c,
    and the homotopy identity d S + S d = Rmult on the same spots, which
    ``_homotopy_verdict`` derives from the product tables (``homotopy_ok``),
    gives Rmult z = d(S z) for every cycle z, so no cycle needs checking on
    its own.  Both rest on K being built by its column rule, which the tests
    check against the per-basis-element reference."""
    statement = "right multiplication by every degree-1 class kills every computed homology class"
    bad = _first_ring_failure(ring, lambda P, m: (P(1, m + 1)[:, P(m, 1)], P(m + 1, 1)[P(1, m)]))
    if bad:
        return _verdict("homology_annihilation", statement, "fail", "right multiplication is "
                        f"not a chain map: a.(j.c) != (a.j).c at (m, a, j, c) = {bad}")
    if not homotopy_ok:
        return _verdict("homology_annihilation", statement, "fail",
                        "homotopy identity failed, annihilation unproven")
    return _verdict("homology_annihilation", statement, "pass",
                    "chain-map + homotopy identities exact")


def _lemma_battery_verdict(ring) -> dict:
    """Generation/degree lemmas on the derived-module battery."""
    statement = ("generation lemma, tensor degree bound and A <= delta + A(R) "
                 "hold on derived modules")
    recipes = [("R",), ("Rbar",), ("RU",), ("shift", 1), ("trunc", 1)]
    parts = ring_parts(ring)
    for recipe in recipes:
        M = derive_module(ring, recipe)
        db = delta_and_bounds(M, parts)
        if not db.a_bound_ok:
            return _verdict("lemma_battery", statement, "fail",
                            f"A(M) > delta(M) + A(R) for {M.name}")
        if not db.tensor_bound_ok:
            return _verdict("lemma_battery", statement, "fail",
                            f"tensor degree bound fails for {M.name}")
        # H0 is top in degree a iff M is generated up to degree a, not below it
        a = db.deg_h0
        if a >= 0 and (not generated_in_degrees_upto(M, a)
                       or generated_in_degrees_upto(M, a - 1)):
            return _verdict("lemma_battery", statement, "fail",
                            f"H0-degree/generation equivalence fails for {M.name}")
    return _verdict("lemma_battery", statement, "pass",
                    f"{len(recipes)} derived modules checked")


def _bound_verdicts(profile, rows: list, n_max: int) -> list:
    """The degree bound h_p(R) <= p + A(R) + 1 and the two thresholds past which
    U: R_n -> R_{n+1} is an isomorphism, on the ``kcomplex.h_profile`` rows."""
    a_r = profile.a_r
    stable = profile.stable_within_window
    nonzero = [r for r in rows if not r.homology.is_zero]
    bad = [(r.p, r.n) for r in nonzero if r.n > r.p + a_r + profile.deg_u]
    if not stable:
        status, witness = "inconclusive", "window too small to certify A(R)"
    elif bad:
        status, witness = "fail", f"violations at {bad}"
    else:
        status, witness = "pass", None
    verdicts = [_verdict("hp_degree_bound", "h_p(R) <= p + A(R) + 1 for every computed p",
                         status, witness)]

    # h_p: top degree of nonvanishing H_p (-1 if none); H_0 or H_1 nonvanishing
    # at the window's top degree may go on above it, leaving h0/h1 uncertified
    h = {p: max((r.n for r in nonzero if r.p == p), default=-1) for p in (0, 1)}
    saturated = any(r.p in (0, 1) and r.n == n_max for r in nonzero)
    rules = [
        ("u_iso_threshold", "max(h0, h1) + 5 A(R) + 1",
         max(h[0], h[1], 0) + 5 * a_r + 1, stable and not saturated,
         "h0/h1 or A(R) not certified by the window"),
        ("q0_threshold", "A~(R) + 6 A(R) + 2",
         profile.a_tilde_r + 6 * a_r + 2, stable,
         "window too small to certify A(R)"),
    ]
    for name, rule, threshold, certified, reason in rules:
        in_window = list(range(threshold, n_max))
        bad = [n for n in in_window if not profile.u_bijective[n]]
        if not certified:
            status, witness = "inconclusive", reason
        elif not in_window:
            status, witness = "inconclusive", f"threshold {threshold} exceeds window {n_max}"
        elif bad:
            status, witness = "fail", f"U not bijective at {bad}"
        else:
            status, witness = "pass", f"verified for n in {in_window}"
        verdicts.append(_verdict(
            name, "U: R_n -> R_{n+1} is an isomorphism for n >= " + rule, status, witness))
    return verdicts


def _triplet_lines(row, col, val) -> bytes:
    """The lines "row col val" of int64 arrays as ASCII, by arithmetic on whole
    arrays: a column of characters per sign, digit place and separator."""
    chars, kept = [], []
    for x, end in ((row, " "), (col, " "), (val, "\n")):
        q, places = np.abs(x), [(ord(end), True)]
        for place in range(len(str(int(q.max(initial=0))))):  # units first, which 0 fills
            rest = q // 10
            places.append((q - rest * 10 + ord("0"), (q > 0) | (place == 0)))
            q = rest
        for char, keep in [(ord("-"), x < 0)] + places[::-1]:
            chars.append(np.broadcast_to(np.asarray(char).astype(np.uint8), len(x)))
            kept.append(np.broadcast_to(keep, len(x)))
    return np.compress(np.stack(kept, axis=1).ravel(), np.stack(chars, axis=1).ravel()).tobytes()


def _dump_matrices(K, out_dir: str) -> None:
    """Write every differential to out_dir/matrices as the line "rows cols
    nnz", then "row col value" per entry, ``_kernels.CHUNK`` entries at a
    time.  A matrix that several keys share is written once and copied."""
    mat_dir = os.path.join(out_dir, "matrices")
    os.makedirs(mat_dir, exist_ok=True)
    shared = {}
    for key, mat in K.d.items():
        shared.setdefault(id(mat), []).append(key)
    for keys in shared.values():
        mat = K.d[keys[0]]
        first, *rest = (os.path.join(mat_dir, f"d_p{p}_n{n}.txt") for p, n in keys)
        with open(first, "wb") as fh:
            fh.write(f"{mat.rows} {mat.cols} {mat.nnz}\n".encode())
            for at in range(0, mat.nnz, _kernels.CHUNK):
                fh.write(_triplet_lines(*(a[at:at + _kernels.CHUNK]
                                          for a in (mat.row, mat.col, mat.val))))
        for path in rest:
            shutil.copyfile(first, path)


def run_pipeline(config: PipelineConfig) -> Report:
    """load -> moves -> orbits -> ring -> modules -> K-complex -> oracles -> verdicts.

    Any stage error is recorded with its stage name; earlier results stay in
    the report.
    """
    report = Report()
    report.config = {name: getattr(config, name)
                     for name in ("n_max", "p_max", "seed", "well_definedness_samples")}

    def stage(name, fn):
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception as exc:
            report.failure = {"stage": name, "error": str(exc)}
            raise StageError(name, exc) from exc
        finally:
            report.timings[name] = round(time.perf_counter() - t0, 3)
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

        ring = stage("ring", lambda: local_ring(G, config.n_max, tables))
        profile = ring.stability_profile()
        report.counts = list(profile.counts)
        report.stability = profile.as_dict()
        report.ring_summary = {**ring.summary(), "moveset_hashes": report.moveset_hashes}

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
            homology = subgroup_bar_homology(G)
            bh = homology[-1]  # G's own
            out["bar_h1"] = {"free_rank": bh["H1"].free_rank, "torsion": list(bh["H1"].torsion)}
            out["bar_h2"] = {"free_rank": bh["H2"].free_rank, "torsion": list(bh["H2"].torsion)}
            out["abelianization"] = list(abelianization_invariants(G))
            out["stable_count_prediction"] = subgroup_h2_sum(homology)
            if G.is_abelian:
                out["sp_counts"] = sp_orbit_counts(G, config.n_max)
            return out
        report.oracle = stage("oracles", _oracles)

        def _verdicts():
            # the homology stage multiplied out every composite d_{p-1} d_p
            # that kc.verify_d_squared reads, and fails the run on a nonzero one
            verdicts = [_verdict("d_squared_zero",
                                 "the differential composes to zero at every spot",
                                 "pass", None)]

            verdicts.append(_u_commutes_verdict(ring))

            verdicts.append(_homotopy_verdict(ring))
            verdicts.append(_annihilation_verdict(ring, verdicts[-1]["status"] == "pass"))
            verdicts.extend(_bound_verdicts(profile, rows, config.n_max))

            sp = report.oracle.get("sp_counts")  # abelian groups only
            if sp is None:
                status, witness = "inconclusive", "oracle applies to abelian groups only"
            elif sp != list(profile.counts):
                mism = [n for n in range(config.n_max + 1) if profile.counts[n] != sp[n]]
                status, witness = "fail", f"mismatch at degrees {mism}"
            else:
                status, witness = "pass", f"equal for all n <= {config.n_max}"
            verdicts.append(_verdict(
                "sp_oracle_match", "orbit counts match the symplectic transvection oracle",
                status, witness))

            pred = report.oracle["stable_count_prediction"]
            top = profile.counts[-1]
            if not profile.stable_within_window:
                status, witness = "inconclusive", "stability not certified by the window"
            elif G.is_abelian:
                status = "pass" if top == pred else "fail"
                witness = f"observed {top}, predicted {pred}"
            else:
                status = "inconclusive"
                witness = (f"observed {top}, unrefined prediction {pred}: surjective classes "
                           "split further by the boundary value in the commutator subgroup")
            verdicts.append(_verdict(
                "stable_count", "stable orbit count matches the subgroup H2 sum",
                status, witness))

            orc = report.oracle
            h1_match = orc["bar_h1"] == {"free_rank": 0, "torsion": orc["abelianization"]}
            verdicts.append(_verdict(
                "bar_h1_abelianization",
                "bar-complex H1 equals the abelianization from the Cayley table",
                "pass" if h1_match else "fail",
                f"H1 {orc['bar_h1']}, abelianization {orc['abelianization']}"))

            verdicts.append(_well_definedness_verdict(ring, moves_by_degree, config))
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
