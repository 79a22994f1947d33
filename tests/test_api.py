import os
import pickle
import subprocess
import sys

import pytest

import halfcube
from halfcube import linalg, morse, symmetry

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
    # matching's pairs are its keys; ``cell_dim`` finds a cell or raises;
    # ``coords_of`` reads any batch of cycles
    from halfcube.symmetry import HomologyBasis

    for cls, name in (
        (halfcube.BoundaryMatrix, "to_text"),
        (halfcube.BoundaryMatrix, "from_text"),
        (halfcube.MorseMatching, "to_text"),
        (halfcube.MorseMatching, "paired_keys"),
        (halfcube.CellComplex, "has_cell"),
        (HomologyBasis, "coords"),
    ):
        assert not hasattr(cls, name), (cls.__name__, name)


def test_cli_import_loads_no_dataclasses_or_inspect():
    # every run pays its imports: ``dataclasses`` alone pulls in ``inspect``,
    # ``ast``, ``dis`` and ``tokenize``.  Compared with the fresh process's own
    # starting modules, so whatever ``site`` preloads does not count
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = (
        "import sys; before = set(sys.modules); import halfcube.cli; "
        "print(*sorted(set(sys.modules) - before))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    added = set(out.stdout.split())
    assert "halfcube.cli" in added, added
    assert not added & {"dataclasses", "inspect"}, sorted(added)


def _records():
    cx = halfcube.build_complex(4, 3)
    matching = halfcube.build_matching(cx)
    report = halfcube.orbits(4)
    return [
        halfcube.triangle_recurrence(3),
        halfcube.homology_of(cx),
        matching,
        morse.check_acyclic(matching),
        report.orbits[1][0],
        report,
        linalg.SmithForm((1, 2)),
        symmetry.SignedPermutation.identity(4),
        cx.matrices()[0],
    ]


def test_records_cannot_be_modified():
    records = _records()
    assert [type(r).__name__ for r in records] == [
        "TriangleTable",
        "HomologyProfile",
        "MorseMatching",
        "AcyclicityCertificate",
        "Orbit",
        "OrbitReport",
        "SmithForm",
        "SignedPermutation",
        "BoundaryMatrix",
    ]
    for record in records:
        fields = getattr(record, "_fields", None) or halfcube.BoundaryMatrix.__slots__
        for name in (*fields, "added"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
    # a matrix pickles, rebuilt through from_columns without its eliminations
    matrix = records[-1]
    assert pickle.loads(pickle.dumps(matrix)) == matrix


def test_records_are_tuples_but_a_boundary_matrix_is_not():
    # the declared contract: a record equals the plain tuple of its fields,
    # unpacks and orders; a matrix compares with matrices only
    *records, matrix = _records()
    for record in records:
        assert isinstance(record, tuple) and record == tuple(record), type(record).__name__
    perm, signs = symmetry.SignedPermutation.identity(2)
    assert (perm, signs) == ((0, 1), (1, 1))
    orbit = records[4]
    assert orbit < orbit._replace(size=orbit.size + 1)
    assert matrix != (matrix.degree, matrix.nrows, matrix.ncols, matrix.rows, matrix.signs)
