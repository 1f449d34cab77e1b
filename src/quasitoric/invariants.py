"""Numerical invariants: Euler characteristic, top Chern number, and for
surfaces the intersection form, signature, Todd genus and the 4-dimensional
almost-complex existence test. All arithmetic exact (ints and Fractions).

A surface's signature comes from its facets' self-intersections in O(m)
(sigma = (1/3) * sum_j D_j . D_j, see ``compute_invariants``); ``signature``
is the general congruence diagonalization, kept for any symmetric integer
matrix and as the tests' independent check.
"""

from __future__ import annotations

from fractions import Fraction
from operator import index

from .charpair import CharacteristicPair, Omniorientation, all_signs
from .errors import InternalInconsistencyError, NotDimension2Error, Record


class IntersectionForm(Record):
    """Pairing matrix on the facet classes retained in ``basis``."""

    __slots__ = ("basis", "matrix")

    def __init__(self, basis: tuple[int, ...], matrix: tuple[tuple[int, ...], ...]):
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "matrix", matrix)


class InvariantReport(Record):
    __slots__ = ("euler", "chern_top", "signature", "todd", "almost_complex_4d")

    def __init__(
        self,
        euler: int,
        chern_top: int,
        signature: int | None = None,
        todd: Fraction | None = None,
        almost_complex_4d: bool | None = None,
    ):
        object.__setattr__(self, "euler", euler)
        object.__setattr__(self, "chern_top", chern_top)
        object.__setattr__(self, "signature", signature)
        object.__setattr__(self, "todd", todd)
        object.__setattr__(self, "almost_complex_4d", almost_complex_4d)


def euler_characteristic(pair: CharacteristicPair) -> int:
    """Fixed points of the torus action, one per vertex."""
    return pair.polytope.num_vertices


def _self_intersections(pair: CharacteristicPair, omni: Omniorientation, signs) -> list[int]:
    """D_j . D_j for each facet j of a dim-2 pair, in the orientation of omni,
    given the fixed-point signs ``all_signs(pair, omni)``.

    Facet j lies in exactly two vertices, its corners with its neighbours a
    and b, where the mixed pairings D_a . D_j and D_b . D_j are the
    fixed-point signs s_a and s_b. Pairing the two linear relations among
    the classes with D_j leaves
    eff_a[r] * s_a + eff_j[r] * D_j^2 + eff_b[r] * s_b = 0 for r = 0, 1, with
    the effective columns eff = eps_j * col_j (a facet sign flip is the same
    data as a negated column). The relation is symmetric in a and b, so one
    pass over the vertices sums each facet's two corner terms, in no order
    round the polygon, and each facet then costs O(1).
    """
    eff = [(e * x, e * y) for e, x, y in zip(omni.facet_signs, *pair.matrix)]
    xs, ys = [0] * len(eff), [0] * len(eff)  # eff_a * s_a + eff_b * s_b per facet
    for (a, b), s in zip(pair.polytope.vertices, signs):
        (xa, ya), (xb, yb) = eff[a], eff[b]
        xs[a] += s * xb
        ys[a] += s * yb
        xs[b] += s * xa
        ys[b] += s * ya
    diag = []
    for j, ((xj, yj), x, y) in enumerate(zip(eff, xs, ys)):
        if xj:
            d, rem = divmod(-x, xj)
            rest = yj * d + y
        else:
            d, rem = divmod(-y, yj)
            rest = x
        if rem or rest:
            raise InternalInconsistencyError(f"facet {j} violates the linear relations")
        diag.append(d)
    return diag


def intersection_form(pair: CharacteristicPair, omni: Omniorientation) -> IntersectionForm:
    """Intersection pairing of a dim-2 pair in the orientation given by omni.

    Mixed pairings of adjacent facet classes are the fixed-point signs at the
    shared vertices, self-pairings come from the linear relations
    (``_self_intersections``), and all other pairings vanish. Two generators
    whose columns form a Z^2 basis, at the lowest facet indices, are dropped
    to reach the rank m-2 matrix.
    """
    if pair.polytope.dim != 2:
        raise NotDimension2Error(pair.polytope.dim)
    signs = all_signs(pair, omni)
    pairing = {(j, j): d for j, d in enumerate(_self_intersections(pair, omni, signs))}
    for (i, j), s in zip(pair.polytope.vertices, signs):
        pairing[i, j] = pairing[j, i] = s
    # facet 0 and each neighbour form a Z^2 basis (the vertex is unimodular),
    # so the lex-first basis pair is (0, b) with the least such b
    m = pair.polytope.num_facets
    xs, ys = pair.matrix
    b = next(b for b in range(1, m) if xs[0] * ys[b] - ys[0] * xs[b] in (1, -1))
    basis = tuple(j for j in range(1, m) if j != b)
    matrix = tuple(tuple(pairing.get((i, j), 0) for j in basis) for i in basis)
    return IntersectionForm(basis=basis, matrix=matrix)


def signature(form) -> int:
    """Signature of a symmetric integer matrix via exact congruence
    diagonalization (Fractions throughout, no floating point).

    When every remaining diagonal entry vanishes but some off-diagonal a does
    not, the congruence e_i += e_j makes the diagonal 2a and the hyperbolic
    block contributes (+1, -1), as it must by Sylvester's law.

    A matrix that is not square (ragged included) raises ValueError. Entries
    must be integers (anything ``operator.index`` accepts); a float or a str
    raises TypeError.
    """
    matrix = form.matrix if isinstance(form, IntersectionForm) else form
    k = len(matrix)
    if any(len(row) != k for row in matrix):
        raise ValueError("signature needs a square matrix")
    a = [[Fraction(index(x)) for x in row] for row in matrix]
    for i in range(k):
        for j in range(i + 1, k):
            if a[i][j] != a[j][i]:
                raise ValueError("signature needs a symmetric matrix")
    active = list(range(k))
    pos = neg = 0
    while active:
        piv = next((i for i in active if a[i][i] != 0), None)
        if piv is None:
            off = None
            for x in range(len(active)):
                for y in range(x + 1, len(active)):
                    i, j = active[x], active[y]
                    if a[i][j] != 0:
                        off = (i, j)
                        break
                if off:
                    break
            if off is None:
                break  # all-zero remainder contributes nothing
            i, j = off
            for t in range(k):
                a[i][t] += a[j][t]
            for t in range(k):
                a[t][i] += a[t][j]
            piv = i
        d = a[piv][piv]
        if d > 0:
            pos += 1
        else:
            neg += 1
        active.remove(piv)
        for i in active:
            if a[i][piv] != 0:
                c = a[i][piv] / d
                for t in range(k):
                    a[i][t] -= c * a[piv][t]
                for t in range(k):
                    a[t][i] -= c * a[t][piv]
    return pos - neg


def compute_invariants(pair: CharacteristicPair, omni: Omniorientation) -> InvariantReport:
    """Euler characteristic and top Chern number; for a dim-2 pair also the
    signature sigma = p_1 / 3 with p_1 = sum_j D_j . D_j (Davis-Januszkiewicz
    give p(M) = prod_j (1 + v_j^2), then the Hirzebruch signature theorem),
    the Todd genus (chi + sigma) / 4 and the almost-complex test (an integral
    Todd genus), all in O(m)."""
    return _invariants_from_signs(pair, omni, all_signs(pair, omni))


def _invariants_from_signs(
    pair: CharacteristicPair, omni: Omniorientation, signs
) -> InvariantReport:
    """``compute_invariants``, given the fixed-point signs
    ``all_signs(pair, omni)``."""
    euler = euler_characteristic(pair)
    chern = sum(signs)  # the top Chern number; euler when omni is positive
    if pair.polytope.dim != 2:
        return InvariantReport(euler=euler, chern_top=chern)
    sig, rem = divmod(sum(_self_intersections(pair, omni, signs)), 3)
    if rem:
        raise InternalInconsistencyError("first Pontryagin number is not divisible by 3")
    todd = Fraction(euler + sig, 4)
    return InvariantReport(
        euler=euler,
        chern_top=chern,
        signature=sig,
        todd=todd,
        almost_complex_4d=todd.denominator == 1,
    )
