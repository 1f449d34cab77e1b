"""Deciding existence of a positive omniorientation over GF(2), with certificates.

Making every fixed-point sign +1 is linear mod squares: writing eps0 = (-1)^x0
and eps_j = (-1)^x_j, vertex v demands

    x0 + sum_{j in S(v)} x_j = b_v   over GF(2),

where b_v = 1 iff the base sign orientation(v) * det lambda_v, the sign at
the all-positive omniorientation (``pair.base_signs``), is -1. The row of
vertex v is 1 | mask << 1, its facet bitmask shifted past x0. Gaussian
elimination keeps each row as one integer that also packs its rhs and its
history, and yields either the lexicographically determined certificate
(free variables zeroed, pivots at the lowest unknown indices) or, from the
history, a set of vertices whose equations sum to 0 = 1. Both are
re-verified before being returned. A brute-force enumeration over all
2^(m+1) omniorientations serves as the independent oracle.
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
    rows = tuple(1 | mask << 1 for mask in pair.polytope.masks)
    rhs = tuple(int(s == -1) for s in pair.base_signs)
    return Gf2System(pair.polytope.num_facets + 1, rows, rhs)


def _omni_from_mask(mask: int, num_facets: int) -> Omniorientation:
    global_sign = -1 if mask & 1 else 1
    facet_signs = tuple(-1 if (mask >> (1 + j)) & 1 else 1 for j in range(num_facets))
    return Omniorientation(global_sign, facet_signs)


def solve(system: Gf2System) -> PositivityResult:
    """Gaussian elimination over GF(2) with witness extraction.

    Pivots are chosen at the lowest unknown index, rows scanned in order, and
    the reduction is carried to RREF, so certificates and witnesses are
    reproducible. With n unknowns, each work row is one integer: its
    coefficients in bits 0..n-1, its rhs in bit n, and in bit n + 1 + k the
    history of original row k having been combined into it. A row that
    reduces to its rhs bit and history, 0 = 1, hands its history back as the
    inconsistency witness.
    """
    n = system.num_unknowns
    rows = [c | b << n | 1 << (n + 1 + k) for k, (c, b) in enumerate(zip(system.rows, system.rhs))]
    n_rows = len(rows)
    pivots = []  # pivots[r]: the column of row r's pivot
    for col in range(n):
        bit = 1 << col  # tested with &, as a shift would copy the history bits
        r = len(pivots)
        piv = next((i for i in range(r, n_rows) if rows[i] & bit), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(n_rows):
            if i != r and rows[i] & bit:
                rows[i] ^= rows[r]
        pivots.append(col)
        if r + 1 == n_rows:
            break

    equation = (2 << n) - 1  # the coefficient and rhs bits
    for row in rows:
        if row & equation == 1 << n:
            hist = row >> (n + 1)
            witness = tuple(v for v in range(n_rows) if (hist >> v) & 1)
            return PositivityResult(satisfiable=False, witness=witness)

    mask = 0
    for row, col in zip(rows, pivots):
        if row & 1 << n:
            mask |= 1 << col
    return PositivityResult(
        satisfiable=True,
        certificate=_omni_from_mask(mask, n - 1),
        kernel_dim=n - len(pivots),
    )


def _verify(pair: CharacteristicPair, result: PositivityResult) -> None:
    if result.satisfiable:
        if any(s != 1 for s in all_signs(pair, result.certificate)):
            raise InternalInconsistencyError("certificate does not make all signs +1")
        return
    # the XOR of the witness's system rows: bit 0 is its size mod 2 and bit
    # 1 + j the parity of its hits on facet j, so 0 means even in both
    total = 0
    base_product = 1
    for vi in result.witness:
        total ^= 1 | pair.polytope.masks[vi] << 1
        base_product *= pair.base_signs[vi]
    if total:
        raise InternalInconsistencyError(
            "witness has odd size or meets some facet an odd number of times"
        )
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
