"""Deciding existence of a positive omniorientation over GF(2), with certificates.

Making every fixed-point sign +1 is linear mod squares: writing eps0 = (-1)^x0
and eps_j = (-1)^x_j, vertex v demands

    x0 + sum_{j in S(v)} x_j = b_v   over GF(2),

where b_v = 1 iff orientation(v) * sgn det lambda_v = -1. Gaussian elimination
on bit-packed rows yields either the lexicographically determined certificate
(free variables zeroed, pivots at the lowest unknown indices) or, from the
elimination trace, a set of vertices whose equations sum to 0 = 1. Both are
re-verified before being returned. A brute-force enumeration over all 2^(m+1)
omniorientations serves as the independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

from .charpair import CharacteristicPair, Omniorientation, all_signs
from .errors import InternalInconsistencyError, TooLargeError

BRUTE_FORCE_MAX_FACETS = 20


@dataclass(frozen=True)
class Gf2System:
    """One bit row per vertex over unknowns x0 (global) and x_{1+j} (facet j)."""

    num_unknowns: int
    rows: tuple[int, ...]
    rhs: tuple[int, ...]


@dataclass(frozen=True)
class PositivityResult:
    """SAT with certificate and kernel dimension, or UNSAT with a parity witness.

    ``witness`` holds vertex indices (canonical order) whose sign equations
    are contradictory: the witness set has even size, meets every facet an
    even number of times, and its base signs multiply to -1.
    """

    satisfiable: bool
    certificate: Omniorientation | None = None
    kernel_dim: int | None = None
    witness: tuple[int, ...] | None = None

    @property
    def solution_count(self) -> int:
        return 0 if not self.satisfiable else 1 << self.kernel_dim


@dataclass(frozen=True)
class BruteForceResult:
    satisfiable: bool
    count: int
    certificate: Omniorientation | None


def build_system(pair: CharacteristicPair) -> Gf2System:
    """Linearized all-signs-positive condition, one row per vertex in order."""
    rows = []
    rhs = []
    for vi, v in enumerate(pair.polytope.vertices):
        row = 1  # x0
        for j in v:
            row |= 1 << (1 + j)
        rows.append(row)
        rhs.append(1 if pair.orientation[vi] * pair.vertex_dets[vi] == -1 else 0)
    return Gf2System(pair.polytope.num_facets + 1, tuple(rows), tuple(rhs))


def _omni_from_mask(mask: int, num_facets: int) -> Omniorientation:
    global_sign = -1 if mask & 1 else 1
    facet_signs = tuple(-1 if (mask >> (1 + j)) & 1 else 1 for j in range(num_facets))
    return Omniorientation(global_sign, facet_signs)


def solve(system: Gf2System) -> PositivityResult:
    """Gaussian elimination over GF(2) with witness extraction.

    Pivots are chosen at the lowest unknown index, rows scanned in order, and
    the reduction is carried to RREF, so certificates and witnesses are
    reproducible. Each work row drags a history bitmask of the original rows
    combined into it; a zero row with rhs 1 hands its history back as the
    inconsistency witness.
    """
    n_rows = len(system.rows)
    coef = list(system.rows)
    rhs = list(system.rhs)
    hist = [1 << i for i in range(n_rows)]
    pivot_of_col: dict[int, int] = {}
    r = 0
    for col in range(system.num_unknowns):
        piv = None
        for i in range(r, n_rows):
            if (coef[i] >> col) & 1:
                piv = i
                break
        if piv is None:
            continue
        coef[r], coef[piv] = coef[piv], coef[r]
        rhs[r], rhs[piv] = rhs[piv], rhs[r]
        hist[r], hist[piv] = hist[piv], hist[r]
        for i in range(n_rows):
            if i != r and (coef[i] >> col) & 1:
                coef[i] ^= coef[r]
                rhs[i] ^= rhs[r]
                hist[i] ^= hist[r]
        pivot_of_col[col] = r
        r += 1
        if r == n_rows:
            break

    for i in range(n_rows):
        if coef[i] == 0 and rhs[i] == 1:
            witness = tuple(v for v in range(n_rows) if (hist[i] >> v) & 1)
            return PositivityResult(satisfiable=False, witness=witness)

    mask = 0
    for col, row_i in pivot_of_col.items():
        if rhs[row_i]:
            mask |= 1 << col
    return PositivityResult(
        satisfiable=True,
        certificate=_omni_from_mask(mask, system.num_unknowns - 1),
        kernel_dim=system.num_unknowns - len(pivot_of_col),
    )


def _verify(pair: CharacteristicPair, result: PositivityResult) -> None:
    if result.satisfiable:
        if any(s != 1 for s in all_signs(pair, result.certificate)):
            raise InternalInconsistencyError("certificate does not make all signs +1")
        return
    w = result.witness
    if len(w) % 2 != 0:
        raise InternalInconsistencyError("witness has odd size")
    facet_hits = [0] * pair.polytope.num_facets
    base_product = 1
    for vi in w:
        for j in pair.polytope.vertices[vi]:
            facet_hits[j] += 1
        base_product *= pair.orientation[vi] * pair.vertex_dets[vi]
    if any(h % 2 for h in facet_hits):
        raise InternalInconsistencyError("witness meets some facet an odd number of times")
    if base_product != -1:
        raise InternalInconsistencyError("witness base signs do not multiply to -1")


def decide_positive(pair: CharacteristicPair) -> PositivityResult:
    """Decide whether the pair admits a positive omniorientation.

    The returned certificate or witness is verified against the pair before
    being handed out; a verification failure is a defect, not an input error.
    """
    result = solve(build_system(pair))
    _verify(pair, result)
    return result


def admits_invariant_acs(pair: CharacteristicPair) -> bool:
    """True iff the manifold admits an invariant almost complex structure."""
    return decide_positive(pair).satisfiable


def count_positive_omniorientations(pair: CharacteristicPair) -> int:
    result = decide_positive(pair)
    return result.solution_count


def brute_force_decide(pair: CharacteristicPair) -> BruteForceResult:
    """Independent oracle: enumerate all 2^(m+1) omniorientations.

    Refuses m > BRUTE_FORCE_MAX_FACETS. A mask satisfies the system when its
    bit-parity against each vertex row equals that row's rhs bit; the
    reported certificate is the smallest satisfying mask. Needs numpy (the
    ``test`` extra), imported here so the library itself does not load it.
    """
    import numpy as np

    m = pair.polytope.num_facets
    if m > BRUTE_FORCE_MAX_FACETS:
        raise TooLargeError(f"{m} facets means 2^{m + 1} assignments; refusing")
    system = build_system(pair)
    masks = np.arange(1 << system.num_unknowns, dtype=np.uint64)
    ok = np.ones(masks.size, dtype=bool)
    for row, b in zip(system.rows, system.rhs):
        ok &= (np.bitwise_count(masks & np.uint64(row)) & np.uint8(1)) == b
    hits = np.flatnonzero(ok)
    cert = _omni_from_mask(int(hits[0]), m) if hits.size else None
    return BruteForceResult(satisfiable=hits.size > 0, count=int(hits.size), certificate=cert)
