"""Quantitative coarse geometry of block operators on finite metric spaces.

The package models finite metric spaces carrying finite-dimensional
fibers, block operators between them, and the propagation / quasi-
locality calculus that makes unitaries between such spaces remember the
underlying geometry: sign-selection bounds, concentration witnesses,
extraction of coarse equivalences, covering unitaries, the low-degree
upgrade of approximate supports, and the outer roundtrip that splits a
unitary into a covering part and a small-window remainder.
"""

__version__ = "0.1.0"

from .spaces import FiniteMetricSpace, from_edge_list, path_space
from .maps import (
    EquivalenceReport,
    PointMap,
    certify_equivalence,
    closeness,
    compose,
    greedy_net,
    identity_map,
    voronoi_partition,
)
from .operators import (
    BlockOperator,
    FiberedSpace,
    identity_operator,
    random_band_unitary,
    spectral_norm,
    supported_distance_upper,
)
from .signs import greedy_signs
from .locality import (
    LocalityReport,
    Witness,
    approximability_window,
    quasi_locality_violation,
)
from .concentration import ConcentrationWitness, concentration_witness
from .extraction import (
    ExtractionReport,
    MinimalRadiusError,
    corner_norm_table,
    extract_map,
    extract_pair,
    minimal_radius,
)
from .covering import (
    CoveringPlan,
    OuterReport,
    UpgradeResult,
    covering_unitary,
    outer_roundtrip,
    upgrade_trick,
)
from .fixtures import halving_map, noisy_covering_unitary, standard_pair
from .serialize import (
    load_map,
    load_space,
    read_operator,
    report_bytes,
    save_map,
    save_space,
    write_operator,
    write_report,
)

__all__ = [
    "__version__",
    "FiniteMetricSpace", "from_edge_list", "path_space",
    "PointMap", "EquivalenceReport", "identity_map", "closeness", "compose",
    "certify_equivalence", "greedy_net", "voronoi_partition",
    "FiberedSpace", "BlockOperator", "identity_operator", "spectral_norm",
    "random_band_unitary", "supported_distance_upper",
    "greedy_signs",
    "LocalityReport", "Witness", "quasi_locality_violation", "approximability_window",
    "ConcentrationWitness", "concentration_witness",
    "ExtractionReport", "MinimalRadiusError", "corner_norm_table",
    "minimal_radius", "extract_map", "extract_pair",
    "CoveringPlan", "UpgradeResult", "OuterReport", "covering_unitary",
    "upgrade_trick", "outer_roundtrip",
    "halving_map", "standard_pair", "noisy_covering_unitary",
    "read_operator", "write_operator",
    "load_space", "save_space", "load_map", "save_map",
    "report_bytes", "write_report",
]
