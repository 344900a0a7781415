"""Numerical calculus for right-linear quaternionic operators.

Quaternion and matrix algebra, spherical spectra, slice-quadrature
functional calculus and Riesz projections, strong-irreducibility
decisions, and grid discretizations of two worked integral-operator
examples with their factorizations T = (W + K) S.
"""

from .quaternion import (
    Quaternion,
    ImaginaryUnit,
    Sphere,
    UNIT_I,
    UNIT_J,
    UNIT_K,
    sphere_of,
    circularize,
    slice_embed,
)
from .qmatrix import (
    QMatrix,
    CartesianParts,
    cartesian,
    chi,
    chi_inv,
    extend,
    modulus,
    normal_eigensystem,
    op_norm,
    plus_eigenbasis,
    polar,
    positive_sqrt,
    restrict,
    slice_split,
)
from .spectrum import (
    SphericalSpectrum,
    SResolventSample,
    SpectrumProximityError,
    delta,
    s_resolvent,
    spherical_spectrum,
)
from .scalculus import (
    Circle,
    Contour,
    PartitionError,
    RegularityError,
    RieszPair,
    SeparationError,
    build_contour,
    calc_adjoint_check,
    func_calc,
    riesz_decompose,
    riesz_projection,
)
from .irreducibility import (
    StrongIrreducibilityReport,
    complex_strongly_irreducible,
    extension_irreducibility_check,
    is_strongly_irreducible,
)
from .discretize import (
    ExampleBundle,
    grid_points,
    kernel_op,
    mult_op,
    paper_example,
    volterra_norm,
    volterra_op,
)
from .verify import run_all, default_tolerances

__version__ = "0.1.0"
