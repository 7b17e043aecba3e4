"""Shared fixtures: the battery groups and cached pipeline artifacts.

Move-set enumeration and pipeline runs are expensive; everything heavy is
computed once per session and shared.
"""

from __future__ import annotations

import pytest

from stabring.groups import load_group
from stabring.pipeline import PipelineConfig, run_pipeline
from stabring.ring import build_ring

BATTERY_SPECS = {
    "trivial": {"kind": "cyclic", "order": 1},
    "C2": {"kind": "cyclic", "order": 2},
    "C3": {"kind": "cyclic", "order": 3},
    "C4": {"kind": "cyclic", "order": 4},
    "C2xC2": {"kind": "product", "factors": [{"kind": "cyclic", "order": 2},
                                             {"kind": "cyclic", "order": 2}]},
    "S3": {"kind": "perm", "generators": [[[1, 2]], [[1, 2, 3]]]},
}

# acceptance windows: n <= 4, p <= 3 for |G| <= 4; n <= 3, p <= 2 for order 6
BATTERY_WINDOWS = {
    "trivial": (4, 3),
    "C2": (4, 3),
    "C3": (4, 3),
    "C4": (4, 3),
    "C2xC2": (4, 3),
    "S3": (3, 2),
}

ABELIAN_BATTERY = ("trivial", "C2", "C3", "C4", "C2xC2")

# Known H2 values for the battery groups, cross-checked by hand via Hopf's
# formula on two-generator presentations.
HOPF_H2_FIXTURES = {
    "trivial": (),
    "C2": (),
    "C3": (),
    "C4": (),
    "C2xC2": (2,),
    "S3": (),
}


@pytest.fixture(scope="session")
def groups():
    return {name: load_group(spec) for name, spec in BATTERY_SPECS.items()}


@pytest.fixture(scope="session")
def rings(groups):
    """Graded rings at the acceptance windows, one per battery group."""
    out = {}
    for name, G in groups.items():
        n_max, _ = BATTERY_WINDOWS[name]
        out[name] = build_ring(G, n_max)
    return out


@pytest.fixture(scope="session")
def reports(groups):
    """Full pipeline reports at the acceptance windows."""
    out = {}
    for name in BATTERY_SPECS:
        n_max, p_max = BATTERY_WINDOWS[name]
        config = PipelineConfig(group=BATTERY_SPECS[name], n_max=n_max, p_max=p_max,
                                well_definedness_samples=1000)
        out[name] = run_pipeline(config)
    return out


def verdict_of(report, check: str) -> dict:
    for v in report.verdicts:
        if v["check"] == check:
            return v
    raise KeyError(f"no verdict {check!r} in report")


# Small nonabelian groups past the battery: the dihedral group of order 8,
# the quaternion group (its regular representation: 1..8 stand for
# 1, -1, i, -i, j, -j, k, -k) and the alternating group on four points.
EXTRA_SPECS = {
    "D4": {"kind": "perm", "generators": [[[1, 2, 3, 4]], [[1, 3]]]},
    "Q8": {"kind": "perm", "generators": [[[1, 3, 2, 4], [5, 7, 6, 8]],
                                          [[1, 5, 2, 6], [3, 8, 4, 7]]]},
    "A4": {"kind": "perm", "generators": [[[1, 2, 3]], [[1, 2], [3, 4]]]},
}

# The group layer's cross-checks against its loop references: the battery,
# the groups above, and the largest abelian groups under the subgroup cap.
CROSS_CHECK_SPECS = {**BATTERY_SPECS, **EXTRA_SPECS,
                     "C8": {"kind": "cyclic", "order": 8},
                     "C16": {"kind": "cyclic", "order": 16},
                     "C2^4": {"kind": "product", "factors": [{"kind": "cyclic", "order": 2}] * 4}}
