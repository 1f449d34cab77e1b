"""Shared helpers for the test suite.

The coherence checker here is an independent reimplementation of the
orientation rule (plain dict sweep over all ridges, no BFS) so library output
is never checked against itself, and a tuple-keyed ridge map with a deque BFS
redoes validation's orientation, tree and masks; Bareiss does the same for
the vertex determinants, the product of a vertex's facet signs for its
fixed-point sign, the triple loop for matrix products, the
successor-map walk for a polygon's facet cycle and a walk round it for the
facets' self-intersections, the subset count for the f-vector, the iterated
connected sum for the closed-form k-fold sum of CP^2, and a relabelling
union of the facets with a deque BFS for the tree pass's UNSAT witness
(``solve``, Gauss-Jordan elimination to RREF, is the tests' reference for
the rest of the decision). The random pair generator only composes validated
constructors, so every emitted pair is valid by construction. The check of
qtm with a closed standard stream is here so that the tier-1 test and
tests/scale_check.py run the same cases.
"""

from __future__ import annotations

import os
import random
import subprocess
from collections import deque
from functools import partial
from itertools import combinations

from quasitoric import (
    PairDocument,
    basis_change,
    connected_sum_4d,
    cp2_sum,
    cpn,
    hirzebruch,
    product,
    relabel_facets,
    serialize,
    vertex_cut,
)
from quasitoric.linalg import columns, det_bareiss


def ridge_entries(vertices):
    ridges: dict[tuple, list] = {}
    for vi, v in enumerate(vertices):
        for pos in range(len(v)):
            ridges.setdefault(v[:pos] + v[pos + 1 :], []).append((vi, pos))
    return ridges


def validate_by_ridge_map(vertices):
    """(vertices, orientation, bfs_tree, masks) of a valid dual sphere, the
    textbook way: canonical vertex tuples, the tuple-keyed ridge map above
    and a deque BFS from vertex 0 in position order. The reference for
    ``validate_polytope``, whose bitmask keys and closed-form simplex it
    never shares."""
    verts = sorted(tuple(sorted(v)) for v in vertices)
    partner = {}
    for ridge, entries in ridge_entries(verts).items():
        assert len(entries) == 2, f"ridge {ridge} lies in {len(entries)} vertices"
        a, b = entries
        partner[a] = b
        partner[b] = a
    signs = {0: 1}
    tree = []
    queue = deque([0])
    while queue:
        vi = queue.popleft()
        for pos in range(len(verts[vi])):
            wi, wpos = partner[vi, pos]
            # the two vertices of a ridge induce opposite signs on it
            sign = -((-1) ** pos) * signs[vi] * (-1) ** wpos
            if wi not in signs:
                signs[wi] = sign
                tree.append((wi, vi, pos, wpos))
                queue.append(wi)
            assert signs[wi] == sign, f"not orientable at {verts[wi]}"
    assert len(signs) == len(verts), "disconnected"
    orientation = tuple(signs[vi] for vi in range(len(verts)))
    masks = tuple(sum(1 << j for j in v) for v in verts)
    return tuple(verts), orientation, tuple(tree), masks


def assert_bfs_tree(poly):
    """The contract of ``bfs_tree``, a spanning tree listing each parent
    before its children, so rooted where its first edge starts: each vertex
    but that root is reached once, after its parent, across the ridge its
    tree edge names."""
    tree = poly.bfs_tree
    root = tree[0][1] if tree else 0
    assert sorted(w for w, _, _, _ in tree) == sorted(set(range(poly.num_vertices)) - {root})
    reached = {root}
    for w, v, pos, wpos in tree:
        assert v in reached  # each parent is reached before its children
        reached.add(w)
        vv, ww = poly.vertices[v], poly.vertices[w]
        assert vv[:pos] + vv[pos + 1 :] == ww[:wpos] + ww[wpos + 1 :]
        assert vv[pos] != ww[wpos]


def depth_first(pair):
    """pair with its tree's edges listed depth first from the root, each
    vertex's edges down in their own order. Parents still come first, but
    the second edge leaves the root's first child wherever that child has
    children of its own, not the root."""
    tree = pair.polytope.bfs_tree
    below: dict[int, list] = {}
    for edge in tree:
        below.setdefault(edge[1], []).append(edge)
    order, stack = [], below[tree[0][1]][::-1]
    while stack:
        edge = stack.pop()
        order.append(edge)
        stack += below.get(edge[0], [])[::-1]
    poly = replace(pair.polytope, bfs_tree=tuple(order))
    return replace(pair, polytope=poly)


def replace(record, **changes):
    """record with the named fields changed, built through its constructor:
    a replaced document comes back unmarked."""
    return type(record)(**{f: getattr(record, f) for f in record._fields} | changes)


def assert_coherent(vertices, signs):
    """Every ridge's two induced orientations must be opposite."""
    for ridge, entries in ridge_entries(vertices).items():
        assert len(entries) == 2, f"ridge {ridge} lies in {len(entries)} vertices"
        (ai, ap), (bi, bp) = entries
        induced_a = (-1) ** ap * signs[ai]
        induced_b = (-1) ** bp * signs[bi]
        assert induced_a == -induced_b, f"incoherent at ridge {ridge}"


def bareiss_dets(polytope, rows):
    """det lambda_v for every vertex by Bareiss, one elimination per vertex,
    independent of validation's exchange walk."""
    return [det_bareiss(columns(rows, v)) for v in polytope.vertices]


def vertex_sign(pair, omni, vertex):
    """Sign of the fixed point over one vertex, from its own n facet signs:
    the reference for ``all_signs``, which reads them through the vertex
    masks."""
    vi = pair.polytope.vertex_index(vertex)
    sign = omni.global_sign * pair.base_signs[vi]
    for j in pair.polytope.vertices[vi]:
        sign *= omni.facet_signs[j]
    return sign


def cycle_by_successors(polytope):
    """(facets, corners) of a polygon by a walk of its facet successor map,
    vertex (a, b), a < b, pointing a -> b when its orientation sign is +1,
    so the cycle runs in the direction of the orientation class; it asserts
    that the map is a single cycle. Each corner, the vertex
    between a facet and the next, is found by looking its two facets up
    among the vertices."""
    succ = {}
    for (a, b), sign in zip(polytope.vertices, polytope.orientation):
        if sign == 1:
            succ[a] = b
        else:
            succ[b] = a
    cycle = [0]
    while (nxt := succ[cycle[-1]]) != 0:
        cycle.append(nxt)
    assert len(cycle) == polytope.num_facets, "the successor map is not a single cycle"
    where = {v: vi for vi, v in enumerate(polytope.vertices)}
    corners = tuple(where[tuple(sorted(e))] for e in zip(cycle, cycle[1:] + cycle[:1]))
    return tuple(cycle), corners


def self_intersections_round_the_cycle(pair, omni):
    """D_j . D_j for each facet j of a polygon pair under omni, walking the
    cycle of ``cycle_by_successors``: facet j's neighbours a before it and b
    after it meet it at the corners on either side, whose fixed-point signs
    s_a and s_b, g * orientation * det of the effective columns by Bareiss,
    solve eff_a * s_a + eff_j * D_j^2 + eff_b * s_b = 0 in both rows. The
    reference for ``invariants._self_intersections``, which reads no cycle
    and takes the library's signs."""
    facets, corners = cycle_by_successors(pair.polytope)
    m, poly = len(facets), pair.polytope
    eff = [[e * x for e, x in zip(omni.facet_signs, row)] for row in pair.matrix]
    signs = [
        omni.global_sign * o * det_bareiss(columns(eff, v))
        for v, o in zip(poly.vertices, poly.orientation)
    ]
    diag = [0] * m
    for k, j in enumerate(facets):
        a, b = facets[k - 1], facets[(k + 1) % m]
        s_a, s_b = signs[corners[k - 1]], signs[corners[k]]
        r = 0 if eff[0][j] else 1
        d, rem = divmod(-(eff[r][a] * s_a + eff[r][b] * s_b), eff[r][j])
        assert rem == 0, f"facet {j}: D_j^2 is not an integer"
        assert eff[1 - r][a] * s_a + eff[1 - r][j] * d + eff[1 - r][b] * s_b == 0
        diag[j] = d
    return diag


def mat_mul_by_loops(a, b):
    """The product by the textbook triple loop, every term taken: the
    reference for ``linalg.mat_mul``, which skips zeros and adds whole rows."""
    cols = len(b[0]) if b else 0
    return tuple(
        tuple(sum(row[t] * b[t][j] for t in range(len(b))) for j in range(cols)) for row in a
    )


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


def cp2_sum_by_folding(k: int):
    """The k-fold sum of CP^2 as k - 1 connected sums, each at vertex 0 of the
    running sum and of a fresh CP^2: O(k^2), one rebuilt polygon per sum."""
    acc = cpn(2)
    for _ in range(k - 1):
        fresh = cpn(2)
        acc = connected_sum_4d(
            acc, acc.polytope.vertices[0], fresh, fresh.polytope.vertices[0]
        )
    return acc


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


def random_product_factor(rng: random.Random):
    """A factor for a product: a small random_valid_pair, a simplex or itself
    a product, basis-changed 30% of the time."""
    r = rng.random()
    if r < 0.5:
        pair = random_valid_pair(rng, max_m=7)
    elif r < 0.8:
        pair = cpn(rng.randint(1, 3))
    else:  # a product of products
        pair = product(random_valid_pair(rng, max_m=5), cpn(rng.randint(1, 2)))
    if rng.random() < 0.3:
        pair = basis_change(pair, random_unimodular(rng, pair.polytope.dim))
    return pair


def random_relabelling(rng: random.Random, pair):
    """pair relabelled by a random permutation of its facets, its tree
    rooted wherever its old root went."""
    perm = list(range(pair.polytope.num_facets))
    rng.shuffle(perm)
    return relabel_facets(pair, perm)[0]


def odd_cycle_by_labels(pair):
    """(k, witness) for an UNSAT pair by the witness rule, the textbook way,
    None for a SAT one: every facet carries a (component, parity) label,
    all relabelled on a merge, and tree edge k, the first in list order whose
    exchange a <-> b meets one component against its parities, closes the
    odd cycle. A deque BFS from a over the exchanges of the edges before k,
    each facet's in list order, reaches b, and the witness is the symmetric
    difference of the endpoint pairs of edge k and of the path's edges. The
    reference for where ``positivity._decide_by_tree`` stops and for
    ``positivity._odd_cycle_witness``, which keep classes as shared lists."""
    poly, signs = pair.polytope, pair.base_signs
    label = [(j, 1) for j in range(poly.num_facets)]
    exchanges: dict[int, list] = {}
    for k, (w, v, pos, wpos) in enumerate(poly.bfs_tree):
        a, b = poly.vertices[v][pos], poly.vertices[w][wpos]
        (ca, pa), (cb, pb) = label[a], label[b]
        parity = pa * pb * signs[v] * signs[w]  # -1 where the exchange breaks the labels
        if ca == cb and parity == -1:
            break
        label = [(ca, p * parity) if c == cb else (c, p) for c, p in label]
        exchanges.setdefault(a, []).append((b, (v, w)))
        exchanges.setdefault(b, []).append((a, (v, w)))
    else:
        return None
    came = {a: None}
    queue = deque([a])
    while b not in came:
        f = queue.popleft()
        for g, ends in exchanges.get(f, []):
            if g not in came:
                came[g] = (f, ends)
                queue.append(g)
    witness = {v, w}
    f = b
    while f != a:
        f, ends = came[f]
        witness ^= set(ends)
    return k, tuple(sorted(witness))


def assert_closed_stdio_fails_cleanly(qtm, tmp, env=None, fds=(0, 1, 2)):
    """Run qtm (an argv prefix) with descriptor 0, 1 or 2 (those in fds)
    closed in the child, where Python sets sys.stdin, sys.stdout or
    sys.stderr to None. A closed
    stdin that is read, or a closed stdout with lines to write (help
    included), exits 2 with one error line on stderr and no traceback;
    construct -o writes its file and exits 0; with stderr closed, an error
    keeps its exit code (2, or 3 for a usage error) and leaves stdout
    empty. A closed stream reads back empty here."""
    cp2 = os.path.join(tmp, "cp2.qtm")
    built = os.path.join(tmp, "built.qtm")
    text = serialize(PairDocument.from_pair(cpn(2)))
    with open(cp2, "w", encoding="utf-8") as f:
        f.write(text)
    no_stdin, no_stdout = b"error: stdin is closed\n", b"error: stdout is closed\n"
    valid = b"valid\ndim 2\nfacets 3\nvertices 3\nf_vector 3 3\nh_vector 1 1 1\n"
    # closed descriptor, argv, exit code, stdout, stderr
    cases = [
        (0, ["decide", "-"], 2, b"", no_stdin),
        (0, ["construct", "product", "-", cp2], 2, b"", no_stdin),
        (0, ["validate", cp2], 0, valid, b""),
        (1, ["validate", cp2], 2, b"", no_stdout),
        (1, ["construct", "cpn", "2"], 2, b"", no_stdout),
        (1, ["--help"], 2, b"", no_stdout),
        (1, ["construct", "-o", built, "cpn", "2"], 0, b"", b""),
        (2, ["validate", os.path.join(tmp, "missing.qtm")], 2, b"", b""),
        (2, ["decide", "-"], 2, b"", b""),  # stdin is empty, not a document
        (2, ["frob"], 3, b"", b""),
        (2, ["construct", "vertex-cut", cp2, "3"], 3, b"", b""),
    ]
    for fd, argv, code, out, err in cases:
        if fd not in fds:
            continue
        p = subprocess.run(
            [*qtm, *argv], stdin=subprocess.DEVNULL, capture_output=True, env=env,
            timeout=60, preexec_fn=partial(os.close, fd),
        )
        assert (p.returncode, p.stdout, p.stderr) == (code, out, err), (fd, argv, p)
    if 1 in fds:
        with open(built, encoding="utf-8") as f:
            assert f.read() == text
