"""Exact cup homology of closed 3-manifolds from the triple cup product form."""

from .forms import (
    FormError,
    ThreeForm,
    builtin_family,
    connected_sum,
    mapping_torus,
    parse_form,
    reduce_mod_p,
    serialize_form,
    surface_circle,
    torus3,
    trivial,
)
from .homology import (
    AbelianGroup,
    CupHomologyResult,
    cup_homology,
    h_mod_p,
    h_rank,
    k_p,
    mod_p_degree_dims,
    uct_check,
)
from .combinatorics import bounds_report, euler_sum, lower_bound_L, verify_identities
from .cup_complex import boundary_rows, verify_d_squared
from .geography import check_reducible_constraints, geography_scan
from .oracles import field_homology_oracle, surface_circle_expected, surface_circle_group

__all__ = [
    "AbelianGroup",
    "CupHomologyResult",
    "FormError",
    "ThreeForm",
    "boundary_rows",
    "bounds_report",
    "builtin_family",
    "check_reducible_constraints",
    "connected_sum",
    "cup_homology",
    "euler_sum",
    "field_homology_oracle",
    "geography_scan",
    "h_mod_p",
    "h_rank",
    "k_p",
    "lower_bound_L",
    "mapping_torus",
    "mod_p_degree_dims",
    "parse_form",
    "reduce_mod_p",
    "serialize_form",
    "surface_circle",
    "surface_circle_expected",
    "surface_circle_group",
    "torus3",
    "trivial",
    "uct_check",
    "verify_d_squared",
    "verify_identities",
]
