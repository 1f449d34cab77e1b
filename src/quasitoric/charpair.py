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

from collections import Counter
from dataclasses import dataclass
from operator import index, mul

from . import linalg
from .errors import NotUnimodularError, ShapeMismatchError, SingularVertexError
from .polytope import SimplePolytope, orient_dual_sphere, validate_polytope


@dataclass(frozen=True)
class CharacteristicPair:
    """Polytope with a validated characteristic matrix (a tuple of rows).

    ``base_signs[i]`` is ``polytope.orientation[i] * det lambda_v`` for
    ``v = polytope.vertices[i]``: the sign of that fixed point under the
    all-positive omniorientation. It is derived data, computed once at
    construction.
    """

    polytope: SimplePolytope
    matrix: tuple[tuple[int, ...], ...]
    base_signs: tuple[int, ...]


@dataclass(frozen=True)
class Omniorientation:
    """Global orientation sign and one sign per characteristic submanifold.

    Each sign is read through ``operator.index``: a float or a str raises
    TypeError, and True is stored as 1.
    """

    global_sign: int
    facet_signs: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "global_sign", index(self.global_sign))
        object.__setattr__(self, "facet_signs", tuple(map(index, self.facet_signs)))
        if self.global_sign not in (1, -1):
            raise ValueError("global sign must be +1 or -1")
        if any(s not in (1, -1) for s in self.facet_signs):
            raise ValueError("facet signs must be +1 or -1")

    @classmethod
    def all_positive(cls, num_facets: int) -> "Omniorientation":
        return cls(1, (1,) * num_facets)

    def flip_global(self) -> "Omniorientation":
        return Omniorientation(-self.global_sign, self.facet_signs)

    def flip_facet(self, j: int) -> "Omniorientation":
        signs = list(self.facet_signs)
        signs[j] = -signs[j]
        return Omniorientation(self.global_sign, tuple(signs))


def validate_char(polytope: SimplePolytope, matrix) -> CharacteristicPair:
    """Build a CharacteristicPair, checking |det lambda_v| = 1 at every vertex.

    SingularVertexError lists every offending vertex with its determinant.
    Entries must be integers (anything ``operator.index`` accepts); a float
    or a str raises TypeError rather than being truncated or parsed.

    The determinants come from a basis-exchange walk over the polytope's BFS
    tree. Crossing a tree edge v -> w swaps the column of lambda_v at position
    pos for the new facet's column c, which then moves to position wpos; by
    Cramer's rule det lambda_w = det lambda_v * (lambda_v^-1 c)_pos *
    (-1)^(pos + wpos). While lambda_v is unimodular its integer inverse is
    updated by an exact rank-one pivot, and only for vertices that have tree
    children; a row whose coefficient (lambda_v^-1 c)_r is 0 is the same
    object in both inverses, which is safe because no row is mutated once
    built. The walk starts afresh at the root and at vertices whose parent
    is singular: one fraction-free Gauss-Jordan gives the determinant of such
    a vertex and, when it is unimodular, the inverse kept for its children.
    """
    rows = tuple(tuple(map(index, row)) for row in matrix)
    n, m = polytope.dim, polytope.num_facets
    if len(rows) != n or any(len(r) != m for r in rows):
        got = f"{len(rows)}x{len(rows[0]) if rows else 0}"
        if len({len(r) for r in rows}) > 1:  # ragged: name the first row of the wrong length
            i = next(i for i, r in enumerate(rows) if len(r) != m)
            got = f"row {i} of length {len(rows[i])}"
        raise ShapeMismatchError(f"{n}x{m}", got)
    verts = polytope.vertices
    cols = tuple(zip(*rows))
    children = Counter(parent for _, parent, _, _ in polytope.bfs_tree)
    dets = [0] * len(verts)
    inverses = {}  # vertex index -> rows of lambda_v^-1 or None, while children remain

    def restart(vi):
        dets[vi], inv = linalg.det_and_inverse(linalg.columns(rows, verts[vi]))
        if children[vi]:
            inverses[vi] = inv

    restart(0)
    for wi, vi, pos, wpos in polytope.bfs_tree:
        inv = inverses.get(vi)
        if inv is None:
            restart(wi)
        else:
            c = cols[verts[wi][wpos]]
            if not children[wi]:  # a leaf needs only its determinant
                step = sum(map(mul, inv[pos], c))
            else:
                u = [sum(map(mul, row, c)) for row in inv]
                step = u[pos]
                if step in (1, -1):
                    pivot = [step * x for x in inv[pos]]  # row pos over step = +-1
                    new = [
                        [y - ui * z for y, z in zip(row, pivot)] if ui else row
                        for row, ui in zip(inv, u)
                    ]
                    new[pos] = pivot
                    new.insert(wpos, new.pop(pos))
                    inverses[wi] = new
            dets[wi] = dets[vi] * (-step if (pos + wpos) & 1 else step)
        children[vi] -= 1
        if not children[vi]:
            inverses.pop(vi, None)

    offenders = [(v, d) for v, d in zip(verts, dets) if d not in (1, -1)]
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
    eps = omni.facet_signs
    out = []
    for v, base in zip(pair.polytope.vertices, pair.base_signs):
        sign = omni.global_sign * base
        for j in v:
            sign *= eps[j]
        out.append(sign)
    return tuple(out)


def basis_change(pair: CharacteristicPair, a) -> CharacteristicPair:
    """Replace lambda by A*lambda for a unimodular integer n x n matrix A.

    ValueError when A is not n x n, TypeError for a non-integer entry.
    """
    a = tuple(tuple(map(index, row)) for row in a)
    n, widths = pair.polytope.dim, {len(row) for row in a}
    if len(a) != n or widths - {n}:
        got = f"{len(a)}x{max(widths, default=0)}" if len(widths) < 2 else "a ragged matrix"
        raise ValueError(f"basis change must be {n}x{n}, got {got}")
    det = linalg.det_and_inverse(a)[0]
    if det not in (1, -1):
        raise NotUnimodularError(det)
    # det(A*lambda_v) = det A * det lambda_v, so the pair stays valid
    return CharacteristicPair(
        pair.polytope, linalg.mat_mul(a, pair.matrix), tuple(det * s for s in pair.base_signs)
    )


def relabel_facets(pair: CharacteristicPair, perm, omni: Omniorientation | None = None):
    """Relabel facets by perm (perm[j] = new label of facet j).

    Returns (pair, omni) describing the same omnioriented manifold. The
    rebuilt orientation class is renormalized at the new lex-smallest vertex,
    which can differ from the transported class by one global sign; that sign
    is folded into the transported eps0 so that vertex signs are preserved as
    a map on vertices; it is the product of the old and the new base sign at
    any one vertex. With omni=None the second element is None and the
    compensation is dropped. ValueError when perm is not a permutation or
    omni does not carry one facet sign per facet; TypeError for an entry of
    perm that is not an integer (anything ``operator.index`` accepts).
    """
    m = pair.polytope.num_facets
    perm = tuple(map(index, perm))
    if sorted(perm) != list(range(m)):
        raise ValueError("perm is not a permutation of the facet labels")
    if omni is not None:
        _check_facet_signs(pair, omni)
    back = sorted(range(m), key=perm.__getitem__)  # back[perm[j]] = j

    old = pair.polytope
    new_poly = validate_polytope(
        old.dim, m, [tuple(perm[j] for j in v) for v in old.vertices]
    )
    new_pair = validate_char(new_poly, linalg.columns(pair.matrix, back))

    if omni is None:
        return new_pair, None

    # the global sign that keeps the sign of the fixed point over v0
    wi = new_poly.vertex_index(perm[j] for j in old.vertices[0])
    g = new_pair.base_signs[wi] * pair.base_signs[0]
    new_facet_signs = tuple(omni.facet_signs[j] for j in back)
    return new_pair, Omniorientation(g * omni.global_sign, new_facet_signs)
