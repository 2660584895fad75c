"""Weighted convolution algebras on finite groups: Gelfand pair detection,
spherical functions, the weighted spherical Fourier transform and multipliers."""

from .errors import (
    BiInvarianceError,
    DegenerateSpectrumError,
    InputSpecError,
    NotAutomorphismError,
    NotGelfandError,
    NotInvolutiveError,
    PreconditionError,
    SizeLimitError,
    WGelfandError,
)
from .fourier import (
    extract_symbol,
    injectivity_check,
    is_multiplier,
    multiplier_from_kernel,
    multiplier_from_spec,
    verify_commutation,
)
from .groups import (
    DoubleCosetPartition,
    GroupAutomorphism,
    GroupTable,
    build_group_from_generators,
    check_automorphism,
    cyclic_group,
    dihedral_group,
    double_cosets,
    group_from_spec,
    group_from_table,
    inversion_automorphism,
    subgroup_from_spec,
    symmetric_group,
    symmetric_group_generators,
    automorphism_from_spec,
    validate_group,
)
from .hecke import (
    StructureConstants,
    check_rap_condition,
    hecke_structure_constants,
)
from .spherical import (
    SphericalSet,
    enumerate_spherical,
)
from .weighted import (
    bi_invariance_witness,
    theta_invariant,
    weight_from_spec,
)

__version__ = "0.1.0"
