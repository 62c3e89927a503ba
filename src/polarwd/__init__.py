"""Exact weight distributions of polar codes and decreasing monomial codes."""

from .codespec import (
    CodeSpec,
    FreezeConstraint,
    dual_spec,
    from_bhattacharyya_bec,
    from_rm,
    from_unfrozen_set,
    pac_spec,
    profile,
    spec_from_json,
)
from .coset import CosetCache
from .engine import estimate_cost, wef_auto, wef_direct, wef_lta
from .monomials import (
    Monomial,
    max_mixing_factor,
    max_mixing_factor_rate_half,
    single_shift_le,
)
from .oracle import brute_force_wef
from .wef import WeightEnumerator, macwilliams

__all__ = [
    "CodeSpec",
    "CosetCache",
    "FreezeConstraint",
    "Monomial",
    "WeightEnumerator",
    "brute_force_wef",
    "dual_spec",
    "estimate_cost",
    "from_bhattacharyya_bec",
    "from_rm",
    "from_unfrozen_set",
    "macwilliams",
    "max_mixing_factor",
    "max_mixing_factor_rate_half",
    "pac_spec",
    "profile",
    "single_shift_le",
    "spec_from_json",
    "wef_auto",
    "wef_direct",
    "wef_lta",
]
