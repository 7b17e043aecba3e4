"""Exact computation of Hurwitz-orbit rings, Koszul-type complexes and their
stabilization invariants for finite groups."""

from .groups import FiniteGroup, GroupError, enumerate_subgroups, load_group
from .kcomplex import (KComplex, build_kcomplex, h_profile, homotopy_check,
                       kc_homology, verify_d_squared)
from .modules import (GradedModule, delta_and_bounds, derive_module,
                      graded_tensor, h0, regular_module)
from .oracle import bar_homology, sp_orbit_oracle, stable_count_prediction
from .orbits import OrbitTable, cache_load, cache_store, enumerate_orbits
from .pipeline import PipelineConfig, Report, emit_report, run_pipeline
from .ring import GradedRing, build_ring
from .words import (MarkedAutomorphism, boundary_word, compile_moves,
                    enumerate_stabilizing_automorphisms, reduce_word)
from .zlinalg import HomologyGroup, IntMatrix, chain_homology, smith_normal_form

__version__ = "0.1.0"

__all__ = [
    "FiniteGroup", "GroupError", "enumerate_subgroups", "load_group",
    "KComplex", "build_kcomplex", "h_profile", "homotopy_check",
    "kc_homology", "verify_d_squared",
    "GradedModule", "delta_and_bounds", "derive_module", "graded_tensor",
    "h0", "regular_module",
    "bar_homology", "sp_orbit_oracle", "stable_count_prediction",
    "OrbitTable", "cache_load", "cache_store", "enumerate_orbits",
    "PipelineConfig", "Report", "emit_report", "run_pipeline",
    "GradedRing", "build_ring",
    "MarkedAutomorphism", "boundary_word", "enumerate_stabilizing_automorphisms",
    "compile_moves", "reduce_word",
    "HomologyGroup", "IntMatrix", "chain_homology", "smith_normal_form",
    "__version__",
]
