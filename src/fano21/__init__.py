"""Combinatorial representations of the Frobenius group of order 21.

Subpackages cover permutation groups (:mod:`fano21.perms`), Steiner
triple systems (:mod:`fano21.steiner`), Fano plane orientations
(:mod:`fano21.orient`), rotation-system embeddings of K7
(:mod:`fano21.embed`), the STS(15)/KTS(15) #61 (:mod:`fano21.kirkman`),
octonions (:mod:`fano21.octonion`), and machine certificates for every
verified statement (:mod:`fano21.certificates`).
"""

from .perms import Perm, PermGroup, affine_group, classify_order21, compose, generate_group
from .steiner import (
    TripleSystem,
    all_fano_planes,
    are_orthogonal,
    common_automorphism_group,
    cyclic_sts,
    fano_b1,
    fano_b2,
    is_isomorphic,
    isomorphisms,
    negate_sts,
    orthogonal_mates,
    validate_sts,
)
from .orient import (
    OrientedFano,
    all_circuits,
    all_orientations,
    derived_plane,
    orientation_from_mate,
    oriented_automorphism_group,
    qr_orientation,
    validate_orientation,
)
from .embed import (
    RotationSystem,
    classical_rotation,
    classify_triangular,
    color_automorphism_group,
    embedding_isomorphisms,
    euler_characteristic,
    isomorphism_flag,
    trace_faces,
    triangular_completions,
    two_coloring,
    validate_rotation,
)
from .kirkman import (
    kts_automorphism_group,
    parallel_classes,
    sts15_61,
    sts15_from_pair,
    sts_automorphism_group15,
)
from .octonion import Octonion, cartan_table, is_algebra_automorphism, multiply

__version__ = "0.1.0"
