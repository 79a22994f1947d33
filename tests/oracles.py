"""Independent brute-force references the tests check the library against.

Everything here works from first principles on explicit vertex sets; none
of it reuses the descriptor arithmetic under test, except reference_orbits,
which moves faces by their descriptors (act_on_face) to check the
vertex-table orbits of halfcube.symmetry, and face_from_vertices, which
rebuilds a descriptor through the clique classification of halfcube.core.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd


def even_bits(n):
    return [b for b in range(1 << n) if b.bit_count() % 2 == 0]


def graph_neighbors(n):
    """Adjacency of the distance-2 graph on the even vertices."""
    vs = even_bits(n)
    idx = {b: i for i, b in enumerate(vs)}
    nbr = {b: set() for b in vs}
    for i, a in enumerate(vs):
        for b in vs[i + 1:]:
            if (a ^ b).bit_count() == 2:
                nbr[a].add(b)
                nbr[b].add(a)
    return vs, idx, nbr


def brute_force_cliques(n, size):
    """All cliques of the given size, as frozensets of vertex bits."""
    vs, _, nbr = graph_neighbors(n)
    out = set()

    def grow(clique, candidates, want):
        if want == 0:
            out.add(frozenset(clique))
            return
        for v in sorted(candidates):
            grow(clique + [v], {u for u in candidates if u > v and u in nbr[v]}, want - 1)

    grow([], set(vs), size)
    return out


def extends_to_larger_clique(n, clique_bits):
    """Does this clique extend by one more mutually adjacent vertex?"""
    vs, _, nbr = graph_neighbors(n)
    members = set(clique_bits)
    for v in vs:
        if v in members:
            continue
        if all(v in nbr[u] for u in members):
            return True
    return False


def dense_rank(rows):
    """Rank over Q by plain fraction Gaussian elimination."""
    a = [[Fraction(x) for x in row] for row in rows]
    nr = len(a)
    nc = len(a[0]) if nr else 0
    rank = 0
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(nr):
            if i != r and a[i][c]:
                f = a[i][c] / a[r][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
        rank += 1
    return rank


def dense_rank_mod(rows, p):
    a = [[x % p for x in row] for row in rows]
    nr = len(a)
    nc = len(a[0]) if nr else 0
    rank = 0
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = pow(a[r][c], p - 2, p)
        for i in range(nr):
            if i != r and a[i][c]:
                m = (-a[i][c] * inv) % p
                a[i] = [(x + m * y) % p for x, y in zip(a[i], a[r])]
        r += 1
        rank += 1
    return rank


def dense_det(rows):
    """Determinant of a square integer matrix by fraction Gaussian elimination."""
    a = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for c in range(len(a)):
        piv = next((i for i in range(c, len(a)) if a[i][c]), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        for i in range(c + 1, len(a)):
            f = a[i][c] / a[c][c]
            a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return int(det)


def invariant_factors(rows):
    """Nonzero invariant factors from the determinantal divisors.

    The k-th determinantal divisor d_k is the gcd of all k x k minors, and
    the k-th invariant factor is d_k / d_(k-1); the number of minors grows
    fast, so this is for matrices of a few rows and columns.
    """
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    out = []
    prev = 1
    for k in range(1, min(nr, nc) + 1):
        d = 0
        for rs in combinations(range(nr), k):
            for cs in combinations(range(nc), k):
                d = gcd(d, dense_det([[rows[i][j] for j in cs] for i in rs]))
        if d == 0:
            break
        out.append(d // prev)
        prev = d
    return out


def triplets_to_dense(nrows, ncols, trip):
    out = [[0] * ncols for _ in range(nrows)]
    for r, c, v in trip:
        out[r][c] += v
    return out


def dense_mat_mul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def dense_transforms(st, nrows, ncols):
    """(factors, U, Uinv, V, Vinv) of a sparse SmithTransforms, the transforms as dense lists.

    The rows of U and Vinv and the columns of Uinv and V are sparse
    vectors {index: value}, one per position of D.
    """

    def rows(vectors, size):
        return [[vec.get(j, 0) for j in range(size)] for vec in vectors]

    def columns(vectors, size):
        return [[vec.get(i, 0) for vec in vectors] for i in range(size)]

    return st.factors, rows(st.U, nrows), columns(st.Uinv, nrows), columns(st.V, ncols), rows(st.Vinv, ncols)


def reference_orbits(n, extended=False):
    """Face orbits per dimension by breadth-first closure of descriptor images.

    Each orbit is (smallest key, size, kind), with kind "mixed" for an orbit
    of several kinds; orbits are listed in the order of their smallest key.
    """
    from halfcube.faces import build_face_lattice
    from halfcube.symmetry import (
        SpecialReflection4,
        act_on_face,
        coxeter_generators,
        face_image_by_vertices,
    )

    lattice = build_face_lattice(n)
    moves = [lambda f, g=g: act_on_face(g, f) for g in coxeter_generators(n)]
    if extended:
        sp = SpecialReflection4()
        moves.append(lambda f: face_image_by_vertices(sp, f, lattice))
    out = []
    for dim_faces in lattice.faces:
        seen = set()
        dim_orbits = []
        for f in dim_faces:
            if f.key in seen:
                continue
            orbit = {f.key: f}
            frontier = [f]
            while frontier:
                nxt = []
                for x in frontier:
                    for move in moves:
                        y = move(x)
                        if y.key not in orbit:
                            orbit[y.key] = y
                            nxt.append(y)
                frontier = nxt
            seen.update(orbit)
            kinds = {y.kind for y in orbit.values()}
            kind = kinds.pop() if len(kinds) == 1 else "mixed"
            dim_orbits.append((min(orbit), len(orbit), kind))
        out.append(sorted(dim_orbits))
    return out


def dense_smith_with_transforms(dense):
    """Smith normal form of a small dense matrix with U M V = D, by dense row and column operations.

    The pivot is the entry of smallest (|value|, row, column) in the live
    block; its column and row are cleared by floor-quotient operations,
    swapping in any remainder, and a row with an entry the pivot does not
    divide is added to the pivot row.  Returns (factors, U, Uinv, V, Vinv):
    halfcube.linalg.smith_with_transforms must return the same, entry for
    entry once densified (dense_transforms), since the homology bases are
    read off these transforms.
    """
    m = len(dense)
    n = len(dense[0]) if m else 0
    D = [list(row) for row in dense]
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    Uinv = [[int(i == j) for j in range(m)] for i in range(m)]
    V = [[int(i == j) for j in range(n)] for i in range(n)]
    Vinv = [[int(i == j) for j in range(n)] for i in range(n)]

    def row_op(dst, src, mult):
        # D_dst += mult * D_src, tracked in U (and inverse op in Uinv)
        D[dst] = [a + mult * b for a, b in zip(D[dst], D[src])]
        U[dst] = [a + mult * b for a, b in zip(U[dst], U[src])]
        for row in Uinv:
            row[src] -= mult * row[dst]

    def col_op(dst, src, mult):
        for row in D:
            row[dst] += mult * row[src]
        for row in V:
            row[dst] += mult * row[src]
        Vinv[src] = [a - mult * b for a, b in zip(Vinv[src], Vinv[dst])]

    def row_swap(i, j):
        D[i], D[j] = D[j], D[i]
        U[i], U[j] = U[j], U[i]
        for row in Uinv:
            row[i], row[j] = row[j], row[i]

    def col_swap(i, j):
        for row in D:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]
        Vinv[i], Vinv[j] = Vinv[j], Vinv[i]

    def row_negate(i):
        D[i] = [-a for a in D[i]]
        U[i] = [-a for a in U[i]]
        for row in Uinv:
            row[i] = -row[i]

    factors = []
    t = 0
    limit = min(m, n)
    while t < limit:
        pivot = None
        for i in range(t, m):
            for j in range(t, n):
                if D[i][j]:
                    score = (abs(D[i][j]), i, j)
                    if pivot is None or score < pivot[0]:
                        pivot = (score, i, j)
        if pivot is None:
            break
        _, pi, pj = pivot
        row_swap(t, pi)
        col_swap(t, pj)
        while True:
            restart = False
            for i in range(t + 1, m):
                if D[i][t]:
                    q = D[i][t] // D[t][t]
                    row_op(i, t, -q)
                    if D[i][t]:
                        row_swap(t, i)
                        restart = True
            if restart:
                continue
            for j in range(t + 1, n):
                if D[t][j]:
                    q = D[t][j] // D[t][t]
                    col_op(j, t, -q)
                    if D[t][j]:
                        col_swap(t, j)
                        restart = True
            if restart:
                continue
            v = D[t][t]
            offender = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if D[i][j] % v:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_op(t, offender, 1)
        if D[t][t] < 0:
            row_negate(t)
        factors.append(D[t][t])
        t += 1
    return factors, U, Uinv, V, Vinv


def face_from_vertices(verts):
    """Rebuild the descriptor of a face from its vertex set.

    Simplex faces are cliques; half-cube faces above the tetrahedron are
    recognized by their 2^(|S|-1) size and reproduced for verification.
    """
    from halfcube.core import CliqueSet, classify_clique, disagreement_mask
    from halfcube.faces import halfcube_face, simplex_face, top_face, vertex_face

    verts = sorted(verts, key=lambda v: v.bits)
    n = verts[0].n
    m = len(verts)
    key = tuple(v.bits for v in verts)
    if m == 1:
        return vertex_face(verts[0])
    if m == (1 << (n - 1)):
        f = top_face(n)
        if f.key == key:
            return f
        raise ValueError("vertex set is not a face")
    c = CliqueSet.of(verts, require_clique=False)
    d = disagreement_mask(c)
    if 3 <= d.size < n and m == 1 << (d.size - 1):
        f = halfcube_face(verts[0], d)
        if f.key == key:
            return f
    if m == 2:
        if d.size != 2:
            raise ValueError("vertex set is not a face")
        return simplex_face(verts[0].flip(d.coords()[0]), d)
    if m == d.size:
        cls = classify_clique(c)
        if cls.kind == "K":
            return simplex_face(cls.point, cls.mask)
    raise ValueError("vertex set is not a face")


def simplex_contains_point(f, point) -> bool:
    """Exact membership of a rational point in the hull of a simplex face.

    The hull of K(v', S) is cut out by three conditions on x:
      (a) x_i = v'_i off the mask,
      (b) sgn(v'_i) (x_i - v'_i) <= 0 everywhere,
      (c) sum over S of sgn(v'_i) (x_i - v'_i) = -2.
    """
    from halfcube.faces import KIND_SIMPLEX

    if f.kind != KIND_SIMPLEX:
        raise ValueError("membership test applies to simplex faces")
    x = [Fraction(t) for t in point]
    if len(x) != f.n:
        raise ValueError("point dimension mismatch")
    v = f.point.signs()
    total = Fraction(0)
    for i in range(1, f.n + 1):
        vi = v[i - 1]
        d = vi * (x[i - 1] - vi)
        if i not in f.mask:
            if x[i - 1] != vi:
                return False
        if d > 0:
            return False
        if i in f.mask:
            total += d
    return total == -2


def echelon_orientation_tuple(n, key, dim):
    """The lexicographically smallest affinely independent subsequence of ``key``.

    The greedy search of halfcube.complexes.orientation_tuple, with the
    independence test done by dense_rank on the +-1 edge vectors.
    """

    def coords(b):
        return [1 - 2 * (b >> i & 1) for i in range(n)]

    base = coords(key[0])
    chosen = [key[0]]
    edges = []
    for b in key[1:]:
        if len(chosen) == dim + 1:
            break
        vec = [x - y for x, y in zip(coords(b), base)]
        if dense_rank(edges + [vec]) > len(edges):
            edges.append(vec)
            chosen.append(b)
    return tuple(chosen)
