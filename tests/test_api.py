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


def test_second_routes_are_gone():
    # matrices compare with == and list their triplets in ``entries``; a
    # matching's pairs are its keys; ``coords_of`` reads any batch of cycles
    from halfcube.symmetry import HomologyBasis

    for cls, name in (
        (halfcube.BoundaryMatrix, "to_text"),
        (halfcube.BoundaryMatrix, "from_text"),
        (halfcube.MorseMatching, "to_text"),
        (HomologyBasis, "coords"),
    ):
        assert not hasattr(cls, name), (cls.__name__, name)
