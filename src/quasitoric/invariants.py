"""Numerical invariants: Euler characteristic, top Chern number, and for
surfaces the intersection form, signature, Todd genus and the 4-dimensional
almost-complex existence test. All arithmetic exact (ints and Fractions).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .charpair import CharacteristicPair, Omniorientation, all_signs
from .errors import InternalInconsistencyError, NotDimension2Error


@dataclass(frozen=True)
class IntersectionForm:
    """Pairing matrix on the facet classes retained in ``basis``."""

    basis: tuple[int, ...]
    matrix: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class InvariantReport:
    euler: int
    chern_top: int
    signature: int | None = None
    todd: Fraction | None = None
    almost_complex_4d: bool | None = None


def euler_characteristic(pair: CharacteristicPair) -> int:
    """Fixed points of the torus action, one per vertex."""
    return pair.polytope.num_vertices


def chern_top_number(pair: CharacteristicPair, omni: Omniorientation) -> int:
    """Sum of fixed-point signs; equals the Euler characteristic when the
    omniorientation is positive."""
    return sum(all_signs(pair, omni))


def intersection_form(pair: CharacteristicPair, omni: Omniorientation) -> IntersectionForm:
    """Intersection pairing of a dim-2 pair in the orientation given by omni.

    Mixed pairings of adjacent facet classes are the fixed-point signs at the
    shared vertices; self-pairings are forced from the two linear relations
    among the classes (coefficients are the effective columns eps_j * col_j,
    since a facet sign flip is the same data as a negated column). Two
    generators whose effective columns form a Z^2 basis, at the lowest facet
    indices, are dropped to reach the rank m-2 matrix.
    """
    if pair.polytope.dim != 2:
        raise NotDimension2Error(pair.polytope.dim)
    m = pair.polytope.num_facets
    signs = all_signs(pair, omni)
    eff = [
        tuple(omni.facet_signs[j] * x for x in pair.matrix.column(j)) for j in range(m)
    ]

    pairing = [[Fraction(0)] * m for _ in range(m)]
    for v, s in zip(pair.polytope.vertices, signs):
        i, j = v
        pairing[i][j] = pairing[j][i] = Fraction(s)

    for i in range(m):
        r = 0 if eff[i][0] != 0 else 1
        total = sum(eff[j][r] * pairing[j][i] for j in range(m) if j != i)
        pairing[i][i] = -total / eff[i][r]

    for r in (0, 1):
        for i in range(m):
            if sum(eff[j][r] * pairing[j][i] for j in range(m)) != 0:
                raise InternalInconsistencyError("pairing violates the linear relations")

    drop = None
    for a in range(m):
        for b in range(a + 1, m):
            det = eff[a][0] * eff[b][1] - eff[a][1] * eff[b][0]
            if det in (1, -1):
                drop = (a, b)
                break
        if drop:
            break
    if drop is None:  # pragma: no cover - impossible for valid pairs
        raise InternalInconsistencyError("no two columns form a Z^2 basis")

    basis = tuple(j for j in range(m) if j not in drop)
    matrix = []
    for i in basis:
        row = []
        for j in basis:
            x = pairing[i][j]
            if x.denominator != 1:  # pragma: no cover - defect guard
                raise InternalInconsistencyError(f"non-integral pairing <{i},{j}> = {x}")
            row.append(int(x))
        matrix.append(tuple(row))
    return IntersectionForm(basis=basis, matrix=tuple(matrix))


def signature(form) -> int:
    """Signature of a symmetric integer matrix via exact congruence
    diagonalization (Fractions throughout, no floating point).

    When every remaining diagonal entry vanishes but some off-diagonal a does
    not, the congruence e_i += e_j makes the diagonal 2a and the hyperbolic
    block contributes (+1, -1), as it must by Sylvester's law.
    """
    matrix = form.matrix if isinstance(form, IntersectionForm) else form
    k = len(matrix)
    a = [[Fraction(matrix[i][j]) for j in range(k)] for i in range(k)]
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


def todd_genus_4d(pair: CharacteristicPair, omni: Omniorientation) -> Fraction:
    """(chi + sigma) / 4 as an exact rational."""
    if pair.polytope.dim != 2:
        raise NotDimension2Error(pair.polytope.dim)
    chi = euler_characteristic(pair)
    sig = signature(intersection_form(pair, omni))
    return Fraction(chi + sig, 4)


def almost_complex_exists_4d(pair: CharacteristicPair, omni: Omniorientation) -> bool:
    """Integrality of the Todd genus decides existence of an almost complex
    structure on an oriented closed 4-manifold."""
    return todd_genus_4d(pair, omni).denominator == 1


def compute_invariants(pair: CharacteristicPair, omni: Omniorientation) -> InvariantReport:
    euler = euler_characteristic(pair)
    chern = chern_top_number(pair, omni)
    if pair.polytope.dim != 2:
        return InvariantReport(euler=euler, chern_top=chern)
    sig = signature(intersection_form(pair, omni))
    todd = Fraction(euler + sig, 4)
    return InvariantReport(
        euler=euler,
        chern_top=chern,
        signature=sig,
        todd=todd,
        almost_complex_4d=todd.denominator == 1,
    )
