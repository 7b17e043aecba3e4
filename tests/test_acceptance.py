"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Battery: trivial, C2, C3, C4, the Klein four-group, and the order-6
nonabelian group.  Windows: n <= 4, p <= 3 for |G| <= 4; n <= 3, p <= 2 for
order 6.  All checks are exact (zero tolerance); threshold checks may be
inconclusive when the window cannot certify them, but must never fail.

Threshold tier: low-p windows large enough to settle bounds the battery
leaves inconclusive, where a pass is required: C2 at n <= 10 and C3 and C4 at
n <= 12, p <= 1, for both thresholds, and S3 at n <= 4, p <= 1 for stability
and the degree bound.
"""

import time

import pytest

from conftest import ABELIAN_BATTERY, BATTERY_SPECS, HOPF_H2_FIXTURES, verdict_of

BATTERY = tuple(BATTERY_SPECS)
_T0 = time.monotonic()


def _announce(num, desc, ok):
    print(f"\nACCEPTANCE {num:02d} [{'PASS' if ok else 'FAIL'}] {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_01_exact_complex(reports):
    ok = all(verdict_of(reports[g], "d_squared_zero")["status"] == "pass"
             for g in BATTERY)
    elapsed = time.monotonic() - _T0
    ok = ok and elapsed < 900
    _announce(1, f"d.d = 0 on every spot, every battery group "
                 f"(suite at {elapsed:.0f}s < 900s)", ok)


def test_criterion_02_homotopy_identity(reports):
    ok = all(verdict_of(reports[g], "homotopy_identity")["status"] == "pass"
             for g in BATTERY)
    _announce(2, "S d + d S = right multiplication, exact, all (g,h), all spots", ok)


def test_criterion_03_homology_annihilation(reports):
    ok = all(verdict_of(reports[g], "homology_annihilation")["status"] == "pass"
             for g in BATTERY)
    _announce(3, "right multiplication kills every computed homology class", ok)


def test_criterion_04_degree_bound(reports):
    ok = True
    for g in BATTERY:
        v = verdict_of(reports[g], "hp_degree_bound")
        if reports[g].stability["stable_within_window"]:
            ok = ok and v["status"] == "pass"
        else:
            ok = ok and v["status"] != "fail"
    _announce(4, "h_p(R) <= p + A(R) + 1 wherever the window certifies A(R)", ok)


def test_criterion_05_symplectic_oracle(reports):
    pinned = {"C2": (1, 2), "C3": (1, 2), "C4": (1, 3)}
    ok = True
    for g in ABELIAN_BATTERY:
        ok = ok and verdict_of(reports[g], "sp_oracle_match")["status"] == "pass"
    for g, (n, want) in pinned.items():
        ok = ok and reports[g].counts[n] == want
    ok = ok and reports["C2xC2"].counts[2] == 6
    _announce(5, "orbit counts equal the symplectic oracle (C2:2, C3:2, C4:3, "
                 "Klein n=2:6)", ok)


def test_criterion_06_stable_count_oracle(reports):
    pinned = {"trivial": 1, "C2": 2, "C3": 2, "C4": 3, "C2xC2": 6}
    ok = True
    for g, want in pinned.items():
        rep = reports[g]
        ok = ok and rep.oracle["stable_count_prediction"] == want
        ok = ok and rep.stability["stable_within_window"]
        ok = ok and rep.counts[-1] == want
        ok = ok and verdict_of(rep, "stable_count")["status"] == "pass"
    ok = ok and verdict_of(reports["S3"], "stable_count")["status"] != "fail"
    _announce(6, "stable orbit count equals the subgroup H2 sum where certified", ok)


def test_criterion_07_bar_oracle_self_consistency(reports, groups):
    from stabring.oracle import bar_homology
    ok = True
    for g in BATTERY:
        rep = reports[g]
        ok = ok and verdict_of(rep, "bar_h1_abelianization")["status"] == "pass"
        h2 = bar_homology(groups[g])["H2"]
        ok = ok and h2.free_rank == 0 and h2.torsion == HOPF_H2_FIXTURES[g]
    _announce(7, "bar H2 matches the Hopf fixtures; H1 equals the abelianization", ok)


def test_criterion_08_u_stabilization_consistency(reports):
    ok = True
    for g in BATTERY:
        rep = reports[g]
        prof = rep.stability
        a_r = prof["a_r"]
        bij = [i and s for i, s in zip(prof["u_injective"], prof["u_surjective"])]
        if prof["stable_within_window"]:
            for n in range(a_r + 1, len(bij)):
                ok = ok and bij[n]
        for check in ("u_iso_threshold", "q0_threshold"):
            ok = ok and verdict_of(rep, check)["status"] in ("pass", "inconclusive")
    _announce(8, "U is a basis bijection for observed n >= A(R) + 1; threshold "
                 "verdicts pass or are inconclusive, never fail", ok)


def test_criterion_09_well_definedness(reports):
    ok = True
    for g in BATTERY:
        v = verdict_of(reports[g], "well_definedness")
        ok = ok and v["status"] == "pass" and "1000" in (v["witness"] or "")
    _announce(9, "1000 randomized representative pairs per group: products and "
                 "homotopy data representative-independent", ok)


def test_criterion_10_lemma_battery(reports):
    ok = all(verdict_of(reports[g], "lemma_battery")["status"] == "pass"
             for g in BATTERY)
    _announce(10, "generation equivalence, tensor degree bound, and "
                  "A <= delta + A(R) hold on all derived modules", ok)


def test_criterion_11_determinism(tmp_path_factory):
    from stabring.pipeline import PipelineConfig, emit_report, run_pipeline
    cfg = dict(group=BATTERY_SPECS["C3"], n_max=3, p_max=2,
               well_definedness_samples=100)
    first = run_pipeline(PipelineConfig(**cfg))
    second = run_pipeline(PipelineConfig(**cfg))
    d_first = tmp_path_factory.mktemp("first")
    d_second = tmp_path_factory.mktemp("second")
    emit_report(first, str(d_first))
    emit_report(second, str(d_second))
    ok = all((d_first / name).read_bytes() == (d_second / name).read_bytes()
             for name in ("report.json", "homology.csv", "counts.csv"))
    _announce(11, "byte-identical JSON reports and CSV tables from two cold runs", ok)


# report.homology of every battery group as (p, n, free rank, torsion,
# certified), one line per p.  C4 and C2xC2 reach their d_{4,4} only through
# the unit-pivot rounds in tier 1, so these rows pin what the per-block
# eliminator alone computed for them.
BATTERY_HOMOLOGY = {
    "trivial": [
        (0, 0, 1, (), True), (0, 1, 0, (), True), (0, 2, 0, (), True), (0, 3, 0, (), True),
        (0, 4, 0, (), True),
        (1, 1, 0, (), True), (1, 2, 0, (), True), (1, 3, 0, (), True), (1, 4, 0, (), True),
        (2, 2, 1, (), True), (2, 3, 0, (), True), (2, 4, 0, (), True),
        (3, 3, 0, (), True), (3, 4, 0, (), True)],
    "C2": [
        (0, 0, 1, (), True), (0, 1, 0, (), True), (0, 2, 0, (), True), (0, 3, 0, (), True),
        (0, 4, 0, (), True),
        (1, 1, 2, (), True), (1, 2, 1, (), True), (1, 3, 0, (), True), (1, 4, 0, (), True),
        (2, 2, 11, (), True), (2, 3, 2, (), True), (2, 4, 0, (), True),
        (3, 3, 40, (), True), (3, 4, 11, (), False)],
    "C3": [
        (0, 0, 1, (), True), (0, 1, 0, (), True), (0, 2, 0, (), True), (0, 3, 0, (), True),
        (0, 4, 0, (), True),
        (1, 1, 7, (), True), (1, 2, 1, (), True), (1, 3, 0, (), True), (1, 4, 0, (), True),
        (2, 2, 66, (), True), (2, 3, 7, (), True), (2, 4, 0, (), True),
        (3, 3, 590, (), True), (3, 4, 66, (), False)],
    "C4": [
        (0, 0, 1, (), True), (0, 1, 0, (), True), (0, 2, 0, (), True), (0, 3, 0, (), True),
        (0, 4, 0, (), True),
        (1, 1, 13, (), True), (1, 2, 3, (), True), (1, 3, 0, (), True), (1, 4, 0, (), True),
        (2, 2, 214, (), True), (2, 3, 41, (), True), (2, 4, 0, (), True),
        (3, 3, 3414, (), True), (3, 4, 668, (), False)],
    "C2xC2": [
        (0, 0, 1, (), True), (0, 1, 0, (), True), (0, 2, 0, (), True), (0, 3, 0, (), True),
        (0, 4, 0, (), True),
        (1, 1, 11, (), True), (1, 2, 9, (), True), (1, 3, 0, (), True), (1, 4, 0, (), True),
        (2, 2, 191, (), True), (2, 3, 115, (), True), (2, 4, 0, (), True),
        (3, 3, 3021, (), True), (3, 4, 1904, (), False)],
    "S3": [
        (0, 0, 1, (), True), (0, 1, 0, (), True), (0, 2, 0, (), True), (0, 3, 0, (), True),
        (1, 1, 29, (), True), (1, 2, 16, (), True), (1, 3, 0, (), True),
        (2, 2, 1068, (), True), (2, 3, 524, (3,), False)],
}


def test_battery_homology_rows_are_pinned(reports):
    for g in BATTERY:
        got = [(r["p"], r["n"], r["free_rank"], tuple(r["torsion"]), r["certified"])
               for r in reports[g].homology]
        assert got == BATTERY_HOMOLOGY[g], g


@pytest.fixture(scope="module")
def threshold_reports():
    from stabring.pipeline import PipelineConfig, run_pipeline
    return {name: run_pipeline(PipelineConfig(group=BATTERY_SPECS[name], n_max=n, p_max=1))
            for name, n in (("C2", 10), ("C3", 12), ("C4", 12), ("S3", 4))}


def _settles_both_thresholds(rep) -> bool:
    ok = rep.stability["stable_within_window"]
    for check in ("u_iso_threshold", "q0_threshold"):
        ok = ok and verdict_of(rep, check)["status"] == "pass"
    return ok


def test_threshold_tier_c2_settles_both_thresholds(threshold_reports):
    _announce(12, "C2 at n <= 10, p <= 1: U is an isomorphism past the threshold "
                  "and the q = 0 threshold holds",
              _settles_both_thresholds(threshold_reports["C2"]))


def test_threshold_tier_c3_and_c4_settle_both_thresholds(threshold_reports):
    _announce(14, "C3 and C4 at n <= 12, p <= 1: U is an isomorphism past the "
                  "threshold and the q = 0 threshold holds",
              all(_settles_both_thresholds(threshold_reports[g]) for g in ("C3", "C4")))


def test_threshold_tier_s3_certifies_stability(threshold_reports):
    rep = threshold_reports["S3"]
    ok = (rep.stability["stable_within_window"]
          and verdict_of(rep, "hp_degree_bound")["status"] == "pass")
    _announce(13, "S3 at n <= 4, p <= 1: stability certified and h_p(R) <= p + A(R) + 1", ok)
