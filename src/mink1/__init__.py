"""Cohomogeneity-one isometry groups of 3-dimensional Minkowski space.

Constructs the sixteen classified symmetry families, analyzes their
orbits (dimension, causal character, orbit class), certifies the proper
/ nonproper dichotomy with growth witnesses, and classifies arbitrary
subalgebras of the infinitesimal isometry algebra into the catalog.
"""

__version__ = "0.1.0"

from .algebra import (
    AlgebraElement,
    SubalgebraSpec,
    adjoint,
    adjoint_spec,
    bracket,
    is_ideal,
    is_subalgebra,
    kernel_of_l,
    linear_part,
)
from .catalog import (CATALOG_IDS, CatalogEntry, build, expected_orbit, expected_orbits,
                      list_catalog)
from .classify import (
    Classification,
    Rejection,
    classify,
    classify_stack,
    signature,
    standardize_linear,
)
from .minkowski import (
    BOOST,
    E1,
    E2,
    E3,
    ETA,
    NULL_MINUS,
    NULL_PLUS,
    NULL_ROTATION,
    ROTATION,
    Motion,
    apply,
    causal_character,
    compose,
    exp_element,
    generator_class,
    inner,
    invert,
    so12_check,
)
from .orbits import (
    OrbitReport,
    eq1_norm,
    orbit_causal,
    orbit_class,
    orbit_dimension,
    orbit_normal,
    orbit_report,
    sample_orbit,
    shape_operator,
    stabilizer_algebra,
    tangent_basis,
)
from .properness import (
    NonpropernessWitness,
    make_witness,
    recovery_test,
    stabilizer_compactness,
    verdict,
)
