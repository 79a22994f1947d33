"""Exact combinatorics, chain complexes and integer homology of the half cube."""

from .complexes import BoundaryMatrix, CellComplex, build_complex, euler_characteristic
from .faces import FaceLattice, build_face_lattice
from .homology import HomologyProfile, homology_of
from .linalg import smith_normal_form
from .morse import MorseMatching, build_matching, check_acyclic, unpaired_census
from .symmetry import SignedPermutation, homology_action, orbits
from .triangle import TriangleTable, predicted_betti, triangle_recurrence

__version__ = "0.1.0"

__all__ = [
    "BoundaryMatrix",
    "CellComplex",
    "FaceLattice",
    "HomologyProfile",
    "MorseMatching",
    "SignedPermutation",
    "TriangleTable",
    "build_complex",
    "build_face_lattice",
    "build_matching",
    "check_acyclic",
    "euler_characteristic",
    "homology_action",
    "homology_of",
    "orbits",
    "predicted_betti",
    "smith_normal_form",
    "triangle_recurrence",
    "unpaired_census",
    "__version__",
]
