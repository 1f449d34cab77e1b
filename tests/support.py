"""Shared helpers for the test suite.

The coherence checker here is an independent reimplementation of the
orientation rule (plain dict sweep over all ridges, no BFS) so library output
is never checked against itself; the subset count does the same for the
f-vector. The random pair generator only composes validated constructors, so
every emitted pair is valid by construction.
"""

from __future__ import annotations

import random
from itertools import combinations

from quasitoric import (
    basis_change,
    connected_sum_4d,
    cp2_sum,
    cpn,
    hirzebruch,
    product,
    vertex_cut,
)


def ridge_entries(vertices):
    ridges: dict[tuple, list] = {}
    for vi, v in enumerate(vertices):
        for pos in range(len(v)):
            ridges.setdefault(v[:pos] + v[pos + 1 :], []).append((vi, pos))
    return ridges


def assert_coherent(vertices, signs):
    """Every ridge's two induced orientations must be opposite."""
    for ridge, entries in ridge_entries(vertices).items():
        assert len(entries) == 2, f"ridge {ridge} lies in {len(entries)} vertices"
        (ai, ap), (bi, bp) = entries
        induced_a = (-1) ** ap * signs[ai]
        induced_b = (-1) ** bp * signs[bi]
        assert induced_a == -induced_b, f"incoherent at ridge {ridge}"


def f_vector_by_subsets(polytope):
    """(f_0, ..., f_{n-1}) by brute force: the faces of codimension k are the
    distinct k-subsets of the vertices, collected in one set per k."""
    counts = []
    for k in range(polytope.dim, 0, -1):  # codimension k gives f_{n-k}
        faces = set()
        for v in polytope.vertices:
            faces.update(combinations(v, k))
        counts.append(len(faces))
    return tuple(counts)


def random_unimodular(rng: random.Random, n: int, steps: int = 6):
    """Random GL(n,Z) matrix from elementary operations."""
    a = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        op = rng.random()
        if op < 0.7:
            c = rng.choice([-2, -1, 1, 2])
            for t in range(n):
                a[i][t] += c * a[j][t]
        elif op < 0.85:
            a[i], a[j] = a[j], a[i]
        else:
            a[i] = [-x for x in a[i]]
    return tuple(tuple(row) for row in a)


def random_unimodular_det1(rng: random.Random, n: int):
    from quasitoric.linalg import det_bareiss

    while True:
        a = random_unimodular(rng, n)
        if det_bareiss(a) == 1:
            return a


def random_vertex(rng: random.Random, pair):
    verts = pair.polytope.vertices
    return verts[rng.randrange(len(verts))]


def random_polygon_pair(rng: random.Random, max_m: int = 12):
    r = rng.random()
    if r < 0.4:
        pair = cp2_sum(rng.randint(1, 4))
    elif r < 0.75:
        pair = hirzebruch(rng.randint(-3, 3))
    else:
        pair = cpn(2)
    for _ in range(rng.randint(0, 3)):
        m = pair.polytope.num_facets
        op = rng.random()
        if op < 0.4 and m + 1 <= max_m:
            pair = vertex_cut(pair, random_vertex(rng, pair))
        elif op < 0.7:
            other = cpn(2) if rng.random() < 0.6 else hirzebruch(rng.randint(-2, 2))
            if m + other.polytope.num_facets - 2 <= max_m:
                pair = connected_sum_4d(
                    pair, random_vertex(rng, pair), other, random_vertex(rng, other)
                )
        else:
            pair = basis_change(pair, random_unimodular(rng, 2))
    return pair


def random_3d_pair(rng: random.Random, max_m: int = 12):
    r = rng.random()
    if r < 0.35:
        pair = cpn(3)
    elif r < 0.6:
        pair = product(cpn(1), cpn(2))
    elif r < 0.8:
        pair = product(cpn(1), hirzebruch(rng.randint(-2, 2)))
    else:
        pair = product(cpn(1), product(cpn(1), cpn(1)))
    for _ in range(rng.randint(0, 2)):
        m = pair.polytope.num_facets
        if rng.random() < 0.6 and m + 1 <= max_m:
            pair = vertex_cut(pair, random_vertex(rng, pair))
        else:
            pair = basis_change(pair, random_unimodular(rng, 3))
    return pair


def random_valid_pair(rng: random.Random, max_m: int = 12):
    if rng.random() < 0.35:
        return random_3d_pair(rng, max_m)
    return random_polygon_pair(rng, max_m)
