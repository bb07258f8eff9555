"""Irreducible matrix units for the algebra of partially transposed permutation
operators, and spectra of the twirled ideal generators."""

from .partitions import (
    Partition,
    StandardTableau,
    BratteliPath,
    add_box,
    common_removals,
    count_semistandard_tableaux,
    dim_irrep,
    enumerate_partitions,
    enumerate_standard_tableaux,
    multiplicity,
    partition,
    remove_box,
    schur_weyl_partitions,
)
from .symgroup import (
    IrrepMatrix,
    Permutation,
    PrirIndex,
    enumerate_group,
    prir_map,
    restriction_block_check,
    young_orthogonal_rep,
)
from .tensorspace import (
    DenseOperator,
    V_generator,
    V_outer_pair,
    bell_projector,
    embed_operator,
    partial_trace,
    partial_transpose,
    permutation_operator,
    sandwich_reduce,
)
from .matrix_units import E_unit, MatrixUnitE, branching_expand, embed_left, embed_right, partial_trace_E, young_projector
from .ideal_units import (
    ABCoefficients,
    BMatrix,
    B_matrix,
    GUnit,
    G_sub,
    G_top,
    ab_general,
    has_second_ideal,
    second_ideal_blocks,
    UnitSystem,
    singularity_condition,
    unit_system,
)
from .spectra import SpectrumTable, analytic_levels, analytic_overlaps, rho, rho_apply, rho_eigenvalues, spectrum_table

__version__ = "0.1.0"
