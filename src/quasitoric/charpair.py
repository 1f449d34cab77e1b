"""Characteristic matrices, omniorientations and the fixed-point sign calculus.

A characteristic matrix lambda is stored as a tuple of n row tuples of m
integers, column j attached to facet j; entries are unbounded. The sign of the
fixed point over a vertex v is

    eps0 * orientation(v) * prod_{j in S(v)} eps_j * sgn det lambda_v

with the columns of lambda_v taken in ascending facet order, the same order
the orientation class (a tuple of +1/-1, one per vertex) refers to. The base
sign orientation(v) * det lambda_v is computed once per vertex. Facet sign
flips are tracked in eps and never folded into the stored matrix.
"""

from __future__ import annotations

from itertools import repeat
from operator import add, index, mul, neg, sub

from . import linalg
from .errors import NotUnimodularError, Record, ShapeMismatchError, SingularVertexError
# validate_polytope is unused here, but perfbench/tracing.py hooks the name
# charpair.validate_polytope
from .polytope import SimplePolytope, orient_dual_sphere, validate_polytope  # noqa: F401


class CharacteristicPair(Record):
    """Polytope with a validated characteristic matrix (a tuple of rows).

    ``base_signs[i]`` is ``polytope.orientation[i] * det lambda_v`` for
    ``v = polytope.vertices[i]``: the sign of that fixed point under the
    all-positive omniorientation. It is derived data, computed once at
    construction.
    """

    __slots__ = ("polytope", "matrix", "base_signs")

    def __init__(
        self,
        polytope: SimplePolytope,
        matrix: tuple[tuple[int, ...], ...],
        base_signs: tuple[int, ...],
    ):
        object.__setattr__(self, "polytope", polytope)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "base_signs", base_signs)


class Omniorientation(Record):
    """Global orientation sign and one sign per characteristic submanifold.

    Each sign is read through ``operator.index``: a float or a str raises
    TypeError, and True is stored as 1.
    """

    __slots__ = ("global_sign", "facet_signs")

    def __init__(self, global_sign: int, facet_signs: tuple[int, ...]):
        global_sign = index(global_sign)
        facet_signs = tuple(map(index, facet_signs))
        if global_sign not in (1, -1):
            raise ValueError("global sign must be +1 or -1")
        if any(s not in (1, -1) for s in facet_signs):
            raise ValueError("facet signs must be +1 or -1")
        object.__setattr__(self, "global_sign", global_sign)
        object.__setattr__(self, "facet_signs", facet_signs)

    @classmethod
    def all_positive(cls, num_facets: int) -> "Omniorientation":
        return cls(1, (1,) * num_facets)

    def flip_global(self) -> "Omniorientation":
        return Omniorientation(-self.global_sign, self.facet_signs)

    def flip_facet(self, j: int) -> "Omniorientation":
        """ValueError for j outside [0, m), where a list index would wrap."""
        m = len(self.facet_signs)
        if not 0 <= j < m:
            raise ValueError(f"facet index {j} out of range [0, {m})")
        signs = list(self.facet_signs)
        signs[j] = -signs[j]
        return Omniorientation(self.global_sign, tuple(signs))


def _exchange(t, u, pos, wpos):
    """The rows of T_w (or lambda_w^-1) from those of T_v (or lambda_v^-1),
    for u = lambda_v^-1 c_j and u[pos] = +-1: the pivot row is row pos over
    u[pos], every other row r loses u_r times it, and the pivot row moves to
    wpos. Rows with u_r = 0 are kept as they are.

    New rows are lists: CPython keeps freed tuples of up to 19 entries on
    free lists, one per length, which the tableau's many row widths would
    fill and hold."""
    pivot = t[pos] if u[pos] == 1 else list(map(neg, t[pos]))
    u[pos] = 0  # row pos is replaced by the pivot row below
    new = [
        row if not ui
        else list(map(sub, row, pivot)) if ui == 1
        else list(map(add, row, pivot)) if ui == -1
        else list(map(sub, row, map(mul, repeat(ui), pivot)))
        for row, ui in zip(t, u)
    ]
    new[pos] = pivot
    new.insert(wpos, new.pop(pos))
    return new


def _walk_dets(polytope: SimplePolytope, rows) -> list:
    """det lambda_v for every vertex, in vertex order, from a depth-first
    basis-exchange walk over the spanning tree ``bfs_tree`` from its root,
    the parent of its first edge (vertex 0 when it has none); the other
    edges may come in any order. Every vertex must be reached once
    (ValueError, naming the first vertex reached twice or never, otherwise).

    Crossing a tree edge v -> w swaps the column of lambda_v at position pos
    for the new facet's column c_j, which then moves to position wpos; by
    Cramer's rule det lambda_w = det lambda_v * u_pos * (-1)^(pos + wpos) for
    u = lambda_v^-1 c_j. While lambda_v is unimodular the walk holds either
    the tableau T_v = lambda_v^-1 lambda (n x m) or, when m > 2n, the inverse
    lambda_v^-1 (n x n). A leaf below v is read from them at once: on the
    tableau u is column j, so a leaf costs the one entry T_v[pos][j]; on the
    inverse each entry of u is a dot product with c_j, O(n). Every other
    child waits on one stack with the rows of v, so the rows alive follow
    the tree's depth, not its width; once popped it takes them through the
    exact rank-one pivot on row pos (O(n^2) on the inverse, for all of u),
    which rebuilds only the rows with u_r != 0; the others are the same
    objects in both, which is safe because no row is mutated once built.
    A unimodular w whose children are all leaves takes no pivot: row wpos
    of its rows is v's row pos times u_pos, and any other row is v's row r
    less u_r * u_pos times v's row pos, for the r that lands there once row
    pos has moved to wpos, so each leaf below w is read off v's rows, O(1)
    on the tableau and O(n) on the inverse. Without this the cut of cpn(n)
    would pivot at n - 1 children of its root, O(n^3) in all.
    The root and each child of a singular vertex start afresh: one
    fraction-free Gauss-Jordan, on lambda pivoting in the vertex's columns or
    on [lambda_v | I], gives the determinant and, when it is unimodular, the
    rows for its children.
    """
    n, m = polytope.dim, polytope.num_facets
    verts = polytope.vertices
    # a tableau row is m wide, an inverse row n wide but read through O(n)
    # dot products; the costs do not cross at m = 2n. validate_char, best of
    # 5, tableau against inverse (CPython 3.11): the cut of (CP1)^10 (n = 10,
    # m = 21) 2.6-3.2 against 7.6-8.1 ms, cp2_sum(20) x CP^3 (n = 5, m = 26)
    # 0.25-0.30 against 0.28-0.34 ms; cp2_sum(40) x CP^1 (n = 3, m = 44)
    # 0.53-0.58 against 0.33-0.39 ms, cp2_sum(98)^2 (n = 4, m = 200) 214-320
    # against 47-67 ms (polygons never get here)
    tableau = m <= 2 * n
    cols = None if tableau else tuple(zip(*rows))
    below = [[] for _ in verts]  # vertex index -> its tree edges down
    for edge in polytope.bfs_tree:
        below[edge[1]].append(edge)
    dets = [None] * len(verts)
    root = polytope.bfs_tree[0][1] if polytope.bfs_tree else 0
    stack = [(root, None, 0, 0, None)]  # a tree edge and the parent's rows, or None
    while stack:
        wi, vi, pos, wpos, t = stack.pop()
        if dets[wi] is not None:
            raise ValueError(f"bfs_tree reaches vertex {wi}, {verts[wi]}, twice")
        u = None  # while None, t holds the rows of w itself
        if t is None:
            if tableau:
                dets[wi], t = linalg.det_and_reduce(rows, verts[wi])
            else:
                dets[wi], t = linalg.det_and_inverse(linalg.columns(rows, verts[wi]))
        else:
            j = verts[wi][wpos]
            if tableau:
                u = [row[j] for row in t]
            else:
                u = [sum(map(mul, row, cols[j])) for row in t]
            step = u[pos]
            dets[wi] = dets[vi] * (-step if (pos + wpos) & 1 else step)
            if step not in (1, -1):
                t = None
            elif any(below[ci] for ci, *_ in below[wi]):
                t, u = _exchange(t, u, pos, wpos), None
            # else only leaves hang below w, and they read t, v's rows, through u
        for ci, _, cpos, cwpos in below[wi]:
            if t is None or below[ci] or dets[ci] is not None:
                stack.append((ci, wi, cpos, cwpos, t))
                continue
            # a leaf needs only its determinant: one entry of w's rows
            j = verts[ci][cwpos]
            if u is None:
                step = t[cpos][j] if tableau else sum(map(mul, t[cpos], cols[j]))
            else:  # row cpos of T_w: v's row pos over u_pos, moved to wpos ...
                step = (t[pos][j] if tableau else sum(map(mul, t[pos], cols[j]))) * u[pos]
                if cpos != wpos:  # ... or v's row r, less u_r times that
                    r = cpos - (cpos > wpos)
                    r += r >= pos
                    step = (t[r][j] if tableau else sum(map(mul, t[r], cols[j]))) - u[r] * step
            dets[ci] = dets[wi] * (-step if (cpos + cwpos) & 1 else step)
    if None in dets:
        vi = dets.index(None)
        raise ValueError(f"bfs_tree never reaches vertex {vi}, {verts[vi]}")
    return dets


def validate_char(polytope: SimplePolytope, matrix) -> CharacteristicPair:
    """Build a CharacteristicPair, checking |det lambda_v| = 1 at every vertex.

    SingularVertexError lists every offending vertex with its determinant,
    in vertex order. Entries must be integers (anything ``operator.index``
    accepts); a float or a str raises TypeError rather than being truncated
    or parsed.

    On a polygon (dim 2) det lambda_v for v = (a, b) is the 2 x 2 minor
    r0[a] * r1[b] - r0[b] * r1[a], so ``bfs_tree`` is not read; in every
    other dimension ``_walk_dets`` walks it.
    """
    rows = tuple(tuple(map(index, row)) for row in matrix)
    n, m = polytope.dim, polytope.num_facets
    if len(rows) != n or any(len(r) != m for r in rows):
        got = f"{len(rows)}x{len(rows[0]) if rows else 0}"
        if len({len(r) for r in rows}) > 1:  # ragged: name the first row of the wrong length
            i = next(i for i, r in enumerate(rows) if len(r) != m)
            got = f"row {i} of length {len(rows[i])}"
        raise ShapeMismatchError(f"{n}x{m}", got)
    return _validate_rows(polytope, rows)


def _validate_rows(polytope: SimplePolytope, rows) -> CharacteristicPair:
    """The rest of ``validate_char``, after its shape check: the
    determinants, then SingularVertexError or the pair. ``rows`` must be a
    tuple of n tuples of m ints."""
    if polytope.dim == 2:
        r0, r1 = rows
        dets = [r0[a] * r1[b] - r0[b] * r1[a] for a, b in polytope.vertices]
    else:
        dets = _walk_dets(polytope, rows)

    offenders = [(v, d) for v, d in zip(polytope.vertices, dets) if d not in (1, -1)]
    if offenders:
        raise SingularVertexError(offenders)
    return CharacteristicPair(polytope, rows, tuple(map(mul, orient_dual_sphere(polytope), dets)))


def _check_facet_signs(pair: CharacteristicPair, omni: Omniorientation) -> None:
    m, k = pair.polytope.num_facets, len(omni.facet_signs)
    if k != m:
        raise ValueError(f"omniorientation has {k} facet signs, the pair has {m} facets")


def vertex_sign(pair: CharacteristicPair, omni: Omniorientation, vertex) -> int:
    """Sign of the fixed point over one vertex, from its own n facet signs."""
    _check_facet_signs(pair, omni)
    vi = pair.polytope.vertex_index(vertex)
    sign = omni.global_sign * pair.base_signs[vi]
    for j in pair.polytope.vertices[vi]:
        sign *= omni.facet_signs[j]
    return sign


def all_signs(pair: CharacteristicPair, omni: Omniorientation) -> tuple[int, ...]:
    """Signs of all fixed points, in canonical vertex order.

    ValueError when omni does not carry one facet sign per facet.
    """
    _check_facet_signs(pair, omni)
    g, eps, poly = omni.global_sign, omni.facet_signs, pair.polytope
    if poly.dim == 2:  # two signs a vertex cost less than the O(m) mask below
        return tuple(
            g * base * eps[a] * eps[b] for (a, b), base in zip(poly.vertices, pair.base_signs)
        )
    # the facet signs at a vertex multiply to -1 when an odd number of them,
    # the bits of its mask in neg, are negative
    neg = 0
    for j, e in enumerate(eps):
        if e < 0:
            neg |= 1 << j
    return tuple(
        -g * base if (mask & neg).bit_count() & 1 else g * base
        for mask, base in zip(poly.masks, pair.base_signs)
    )


def basis_change(pair: CharacteristicPair, a) -> CharacteristicPair:
    """Replace lambda by A*lambda for a unimodular integer n x n matrix A.

    ValueError when A is not n x n, TypeError for a non-integer entry.
    """
    a = tuple(tuple(map(index, row)) for row in a)
    n, widths = pair.polytope.dim, {len(row) for row in a}
    if len(a) != n or widths - {n}:
        got = f"{len(a)}x{max(widths, default=0)}" if len(widths) < 2 else "a ragged matrix"
        raise ValueError(f"basis change must be {n}x{n}, got {got}")
    det = linalg.det_and_reduce(a, range(n))[0]
    if det not in (1, -1):
        raise NotUnimodularError(det)
    # det(A*lambda_v) = det A * det lambda_v, so the pair stays valid
    return CharacteristicPair(
        pair.polytope, linalg.mat_mul(a, pair.matrix), tuple(det * s for s in pair.base_signs)
    )


def _sort_sign(seq) -> int:
    """The sign of the permutation that sorts ``seq`` (distinct entries),
    counted in the swaps that put each position's entry in place."""
    order = sorted(range(len(seq)), key=seq.__getitem__)
    sign = 1
    for i in range(len(order)):
        while (j := order[i]) != i:
            order[i], order[j] = order[j], j
            sign = -sign
    return sign


def relabel_facets(pair: CharacteristicPair, perm, omni: Omniorientation | None = None):
    """Relabel facets by perm (perm[j] = new label of facet j).

    Returns (pair, omni) describing the same omnioriented manifold. ``pair``
    must be validated, as every constructor returns it: a relabelling renames
    the facets and changes nothing else, so the relabelled pair is built from
    what the input proved, with no validation of the polytope or the matrix.
    Its vertices are the renamed ones, sorted into canonical order, and its
    masks are rebuilt from them. Its tree is the input's ``bfs_tree``
    renamed, edge for edge in the input's order, so it is rooted at the
    image of the input's root: each edge crosses the same ridge, at the
    positions the swapped facets' new labels take. The orientation class is
    propagated down that tree by validation's rule (the child takes the
    parent's sign when pos + wpos is odd, minus it otherwise), from +1 at
    the root, and negated when the new vertex 0 then reads -1. Moving the
    columns of vertex v into the new ascending order multiplies det lambda_v
    by the sign of the permutation that sorts perm over v, and the
    transported orientation class by the same sign, so every base sign moves
    with its vertex, times one global constant c: the rebuilt class is
    normalized at the new lex-smallest vertex. c is read off old vertex 0
    (orientation +1) and its image w0, as the new orientation at w0 times
    that sort sign. c is also folded into the transported eps0, so that
    vertex signs are preserved as a map on vertices. With omni=None the
    second element is None and the compensation is dropped. ValueError when
    perm is not a permutation or omni does not carry one facet sign per
    facet; TypeError for an entry of perm that is not an integer (anything
    ``operator.index`` accepts).
    """
    m = pair.polytope.num_facets
    perm = tuple(map(index, perm))
    if sorted(perm) != list(range(m)):
        raise ValueError("perm is not a permutation of the facet labels")
    if omni is not None:
        _check_facet_signs(pair, omni)
    back = sorted(range(m), key=perm.__getitem__)  # back[perm[j]] = j

    old = pair.polytope
    verts = old.vertices
    moved = [sorted(map(perm.__getitem__, v)) for v in verts]
    order = sorted(range(len(moved)), key=moved.__getitem__)  # new index -> old index
    new_index = [0] * len(order)
    for wi, vi in enumerate(order):
        new_index[vi] = wi

    signs = [1] * len(order)  # the root, which no edge reaches, keeps +1
    tree = []
    for wi, vi, pos, wpos in old.bfs_tree:
        # the facets swapped across the edge keep their ridge, at the
        # positions their new labels take in the new ascending vertices
        pos = moved[vi].index(perm[verts[vi][pos]])
        wpos = moved[wi].index(perm[verts[wi][wpos]])
        wi, vi = new_index[wi], new_index[vi]
        signs[wi] = signs[vi] if (pos + wpos) & 1 else -signs[vi]
        tree.append((wi, vi, pos, wpos))
    if signs[0] < 0:
        signs = [-s for s in signs]
    bits = [1 << j for j in range(m)]
    new_poly = SimplePolytope(
        old.dim,
        m,
        tuple(tuple(moved[vi]) for vi in order),
        tuple(signs),
        tuple(tree),
        tuple(sum(map(bits.__getitem__, moved[vi])) for vi in order),
    )
    c = signs[new_index[0]] * _sort_sign([perm[j] for j in verts[0]])
    new_pair = CharacteristicPair(
        new_poly,
        linalg.columns(pair.matrix, back),
        tuple(c * pair.base_signs[vi] for vi in order),
    )

    if omni is None:
        return new_pair, None
    new_facet_signs = tuple(omni.facet_signs[j] for j in back)
    return new_pair, Omniorientation(c * omni.global_sign, new_facet_signs)
