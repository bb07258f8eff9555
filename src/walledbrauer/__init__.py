"""Irreducible matrix units for the algebra of partially transposed permutation
operators, and spectra of the twirled ideal generators.

The public names are resolved on first use (PEP 562), so importing the
package, or one layer of it, loads only that layer and what it imports:
``import walledbrauer.cli`` loads no numpy, and the brute spectra load no
unit construction.  The value types are plain classes, not
``dataclasses``: each names its fields once, in ``__slots__``, and their
base ``partitions.Frozen`` holds the one constructor and repr, so importing
a layer generates and compiles no code.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in (
        (
            "partitions",
            (
                "Partition",
                "StandardTableau",
                "add_box",
                "common_removals",
                "dim_irrep",
                "enumerate_partitions",
                "enumerate_standard_tableaux",
                "multiplicity",
                "partition",
                "remove_box",
                "schur_weyl_partitions",
            ),
        ),
        (
            "symgroup",
            (
                "Permutation",
                "enumerate_group",
                "prir_map",
                "young_orthogonal_rep",
            ),
        ),
        (
            "tensorspace",
            (
                "DenseOperator",
                "V_generator",
                "embed_operator",
                "partial_trace",
                "partial_transpose",
                "permutation_operator",
            ),
        ),
        (
            "matrix_units",
            ("E_unit", "embed_left", "embed_right"),
        ),
        (
            "ideal_units",
            (
                "BMatrix",
                "B_matrix",
                "GUnit",
                "G_sub",
                "G_top",
                "ab_general",
                "second_ideal_blocks",
                "UnitSystem",
                "singularity_condition",
                "unit_system",
            ),
        ),
        ("spectra", ("SpectrumTable", "analytic_overlaps", "rho_apply", "rho_eigenvalues", "spectrum_table")),
    )
    for name in names
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
