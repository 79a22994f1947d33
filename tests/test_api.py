import halfcube

PUBLIC_API = [
    "BoundaryMatrix",
    "CellComplex",
    "FaceLattice",
    "HomologyProfile",
    "MorseMatching",
    "SignedPermutation",
    "TriangleTable",
    "__version__",
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
]


def test_public_api_is_pinned():
    # a face is its key: the vertex, mask and descriptor classes are test
    # oracles, not exports.  Every exported name resolves
    assert sorted(halfcube.__all__) == PUBLIC_API
    names = {}
    exec("from halfcube import *", names)
    assert set(PUBLIC_API) <= set(names)
