"""Checks of the package and of qtm at sizes the unit tests never reach:
``PYTHONPATH=src python tests/scale_check.py`` in the source tree, or
``<venv>/bin/python tests/scale_check.py``. No options; it exits 1 at the
first row of ROWS that fails, naming it. pytest does not collect it."""

import json
import os
import shlex
import subprocess
import sys
import tempfile
import time
import tracemalloc
from collections import namedtuple
from functools import reduce
from math import comb
from pathlib import Path

import support
from quasitoric import (Omniorientation, basis_change, build_system, compute_invariants,
                        connected_sum_4d, cp2_sum, cpn, decide_positive, f_vector, parse, product,
                        relabel_facets, solve, validate_char, validate_polytope, vertex_cut)
from quasitoric.errors import SingularVertexError, UnusedFacetError
from quasitoric.linalg import columns, det_bareiss

# A row is a qtm pipeline or a Python check. Every stage of the pipeline,
# separated by " | ", runs qtm on the output of the one before; "timeout N"
# before a stage bounds it to N seconds from the start of the row, "< name" at
# the end reads stdin from a file, and a word ending in .qtm names a file in
# the fixture directory. Every stage but the last must exit 0 and the last
# must exit `code`. `first` is stdout's first line, each of `lines` a whole
# line of it anywhere, `test(out, err)` a predicate on stdout and stderr, and
# `same` a row whose stdout must be equal; after the row passes, the second
# line of its stdout (decide's directive) is appended to the fixture named by
# `directive_to`. A Python check is a function of this module (or of one
# beside it), run by this interpreter in a fresh process that must exit 0
# within `timeout` seconds. qtm is the console script beside this interpreter
# if there is one, else ``python -m quasitoric``.
Row = namedtuple("Row", "cmd stdin code first lines test same directive_to timeout",
                 defaults=(None, 0, None, (), None, None, None, None))


class Failure(Exception):
    pass


SCRIPT = os.path.join(os.path.dirname(sys.executable), "qtm")
QTM = [SCRIPT] if os.path.exists(SCRIPT) else [sys.executable, "-m", "quasitoric"]


def call(argv, stdin, timeout, code):
    try:
        p = subprocess.run(argv, input=stdin, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise Failure(f"{shlex.join(argv)}: timed out after {timeout:.2f} s") from None
    if p.returncode != code:
        raise Failure(f"{shlex.join(argv)}: exit {p.returncode}, not {code}\n{p.stderr[-2000:]}")
    return p.stdout, p.stderr


def run(row, qtm, tmp):
    """Apply one row and return its stdout, or raise Failure saying what differs."""
    if callable(row.cmd):
        path = sys.modules[row.cmd.__module__].__file__
        code = (f"import sys; sys.path.insert(0, {os.path.dirname(path)!r}); "
                f"from {Path(path).stem} import {row.cmd.__name__} as f; f()")
        return call([sys.executable, "-c", code], "", row.timeout, 0)[0]
    start = time.perf_counter()
    cmd, _, infile = row.cmd.partition(" < ")
    out = Path(tmp, infile).read_text() if infile else row.stdin or ""
    stages = [shlex.split(text) for text in cmd.split(" | ")]
    limits = [float(words[1]) if words[0] == "timeout" else None for words in stages]
    for i, words in enumerate(stages):
        words = words[3:] if limits[i] is not None else words[1:]
        argv = qtm + [os.path.join(tmp, w) if w.endswith(".qtm") else w for w in words]
        # a later stage reads all of this one's output, so its bound holds here too
        ends = [t for t in limits[i:] if t is not None]
        left = max(min(ends) - (time.perf_counter() - start), 0) if ends else None
        out, err = call(argv, out, left, row.code if i == len(stages) - 1 else 0)
    lines = out.splitlines()
    if row.first is not None and lines[:1] != [row.first] or set(row.lines) - set(lines):
        raise Failure(f"expected first line {row.first!r}, lines {row.lines}; got\n{out[-2000:]}")
    if row.test and not row.test(out, err):
        raise Failure(f"{row.test.__name__} fails on\n{out[-2000:]}{err[-2000:]}")
    if row.same and run(row.same, qtm, tmp) != out:
        raise Failure(f"stdout is not that of {label(row.same)}")
    if row.directive_to:
        with open(os.path.join(tmp, row.directive_to), "a", encoding="utf-8") as f:
            f.write("".join(out.splitlines(True)[1:2]))
    return out


def label(row):
    return getattr(row.cmd, "__name__", row.cmd)


def main():
    print(f"qtm: {shlex.join(QTM)}\nquasitoric: {sys.modules['quasitoric'].__file__}")
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        for i, row in enumerate(ROWS, 1):
            try:
                run(row, QTM, tmp)
            except Failure as exc:
                sys.exit(f"FAIL [{i}] {label(row)}\n{exc}")
            print(f"{time.perf_counter() - start:5.1f} s  ok [{i}] {label(row)}")
    print(f"all {len(ROWS)} rows passed")


def witness_size(out):
    return sum(len(line.split()) - 1 for line in out.splitlines() if line.startswith("witness "))


def even_witness(out, err):
    size = witness_size(out)
    return size > 0 and size % 2 == 0


def every_vertex_witness(out, err):
    return witness_size(out) == 11456


def usage(text):
    return any(line.startswith("usage: qtm report") for line in text.splitlines())


def every_sign_positive(out, err):
    return out.rstrip("\n") != "" and all(line.endswith(": +1") for line in out.splitlines())


def cube(k):
    # (CP1)^k from chained products
    return reduce(product, [cpn(1)] * k)


def assert_cube_fields(pair, k):
    # validation's orientation class and masks, the base signs validate_char
    # finds over the pair's tree, and the k-cube's 2^(k-d) C(k, d) faces of
    # dimension d
    poly = pair.polytope
    full = validate_polytope(k, 2 * k, poly.vertices)
    assert (poly.orientation, poly.masks) == (full.orientation, full.masks)
    assert validate_char(poly, pair.matrix).base_signs == pair.base_signs
    assert f_vector(poly) == tuple(2 ** (k - d) * comb(k, d) for d in range(k))


# the records are plain slotted classes: importing the CLI loads no
# dataclasses in the bare install either
def cli_loads_no_dataclasses():
    import quasitoric.cli  # noqa: F401
    assert "dataclasses" not in sys.modules


# the library API at scale, where nothing revalidates: (CP1)^12 from chained
# products carries the product of its factors' trees, over which
# validate_char finds the same base signs, and the 12-cube's faces
def cube_carries_its_factors_trees():
    assert_cube_fields(cube(12), 12)


# relabel_facets validates nothing: (CP1)^12 relabelled by a fixed
# permutation carries its input's tree, renamed and rooted at the image of
# its root, and keeps the same fields
def relabelled_cube_keeps_validations_fields():
    assert_cube_fields(relabel_facets(cube(12), [(7 * j + 5) % 24 for j in range(24)])[0], 12)


# the product of two (CP1)^6 relabelled by fixed permutations, whose trees are
# rooted at vertices 42 and 21, is rooted at (42, 21), vertex 2709, and keeps
# the same fields
def product_of_relabelled_cubes_roots_at_the_pair_of_roots():
    p = relabel_facets(cube(6), [(5 * j + 3) % 12 for j in range(12)])[0]
    q = relabel_facets(cube(6), [(7 * j + 2) % 12 for j in range(12)])[0]
    pair = product(p, q)
    assert pair.polytope.bfs_tree[0][1] == 42 * 64 + 21 == 2709
    assert_cube_fields(pair, 12)


# a polygon's vertex determinants are its 2 x 2 minors, with no walk: a
# basis-changed cp2_sum(2000) keeps its base signs, and one perturbed entry
# raises with Bareiss's offenders, in vertex order
def polygon_minors_name_bareiss_offenders():
    pair = basis_change(cp2_sum(2000), ((2, 1), (1, 1)))
    poly = pair.polytope
    assert validate_char(poly, pair.matrix).base_signs == pair.base_signs
    rows = [list(row) for row in pair.matrix]
    rows[1][1000] += 3
    dets = [det_bareiss(columns(rows, v)) for v in poly.vertices]
    offenders = [(v, d) for v, d in zip(poly.vertices, dets) if d not in (1, -1)]
    assert offenders
    exc = raised(lambda: validate_char(poly, rows))
    assert isinstance(exc, SingularVertexError) and list(exc.offenders) == offenders, exc


# the determinant walk goes depth first, so it keeps the rows of the vertices
# on its current path only: the cut of cpn(300) hangs a leaf below 299 of the
# root's 300 children, and a breadth-first walk, holding a tableau for each of
# them at once, peaks at 218 MiB; those 299 children, with only a leaf below,
# take no rank-one pivot, so the walk takes about 15 ms, where pivoting there
# took about 1 s
def cut_of_cpn300_walks_in_bounded_time_and_memory():
    pair = vertex_cut(cpn(300), tuple(range(300)))
    start = time.perf_counter()
    validate_char(pair.polytope, pair.matrix)
    took = time.perf_counter() - start
    assert took < 0.25, took
    tracemalloc.start()
    signs = validate_char(pair.polytope, pair.matrix).base_signs
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert signs == pair.base_signs
    assert peak < 16 * 2**20, peak


def assert_decided_as_solve(pair, k):
    # the result is solve's, SAT for an odd k
    result = decide_positive(pair)
    assert result == solve(build_system(pair)), k
    assert result.satisfiable == (k % 2 == 1), k


def raised(build):
    # what build() raises
    try:
        build()
    except Exception as exc:
        return exc
    raise AssertionError("an invalid input passed")


# the tree decision's result is solve's on cp2_sum(199)^2 (SAT), and
# cp2_sum(98)^2, UNSAT, still goes through solve for its witness
def squared_sums_decide_as_solve():
    for k in (199, 98):
        assert_decided_as_solve(product(cp2_sum(k), cp2_sum(k)), k)


# the connected sum splices by renaming, with no walk round either polygon:
# CP^2 summed into cp2_sum(5000) at vertex 0 of each is cp2_sum(5001), and
# its signature is 5001
def connected_sum_splices_by_renaming():
    acc = cp2_sum(5000)
    summed = connected_sum_4d(acc, acc.polytope.vertices[0], cpn(2), (0, 1))
    pair = cp2_sum(5001)
    assert summed == pair
    assert summed.polytope.orientation == pair.polytope.orientation
    assert summed.base_signs == pair.base_signs
    rep = compute_invariants(summed, Omniorientation.all_positive(5003))
    assert rep.signature == 5001, rep.signature


# on a polygon relabelled so that facet m - 1 lies far round the cycle from
# facet 0, the result is still solve's: cp2_sum(401) (odd) is SAT and
# cp2_sum(400) (even) UNSAT
def relabelled_polygons_decide_as_solve():
    for k in (401, 400):
        m = k + 2
        pair = relabel_facets(cp2_sum(k), [(7 * j + 3) % m for j in range(m)])[0]
        p = support.cycle_by_successors(pair.polytope)[0].index(m - 1)
        assert 1 < p < m - 1, p
        assert_decided_as_solve(pair, k)


# the committed benchmark trajectory holds only correct runs
def benchmark_trajectory_is_correct():
    for name in ("BENCH_surfaces.json", "BENCH_highdim.json", "BENCH_faces.json"):
        r = json.loads(Path(__file__).resolve().parent.parent.joinpath(name).read_text())
        assert r["correct"] is True and r["failed"] == 0, name


# unused facets are listed ten at most, found from the union of the vertex
# masks in O(V*n + m/64): a triangle's vertices with 10^7 facets are refused
# at once, in a short message
def unused_facets_refused_in_a_short_message():
    exc = raised(lambda: validate_polytope(2, 10**7, [(0, 1), (1, 2), (0, 2)]))
    assert isinstance(exc, UnusedFacetError) and len(str(exc)) < 200, exc


CP2 = "dim 2\nfacets 3\nvertex 0 1\nvertex 0 2\nvertex 1 2\nlambda\n1 0 -1\n0 1 -1"
# a repeated facet, an index equal to facets, a negative index, a vertex line
# twice, facets equal to dim
BAD_DOCS = [CP2.replace(*edit, 1) for edit in (
    ("vertex 0 1", "vertex 0 0"), ("vertex 0 2", "vertex 0 3"), ("vertex 0 1", "vertex -1 1"),
    ("vertex 0 1", "vertex 0 1\nvertex 0 1"))] + ["dim 2\nfacets 2\nvertex 0 1\nlambda\n1 0\n0 1"]


# parse runs validate_polytope's vertex checks without raising, and to_pair
# skips them only on a document that passed: on one that fails a check,
# to_pair raises what the two validators raise on its data
def to_pair_raises_as_the_validators():
    for text in BAD_DOCS:
        doc = parse(text)
        full = raised(lambda: validate_char(
            validate_polytope(doc.dim, doc.num_facets, doc.vertices), doc.matrix))
        got = raised(doc.to_pair)
        assert (type(got), str(got)) == (type(full), str(full)), (got, full)


# the console script (cli.run, which tier-1's python -m quasitoric bypasses)
# into a pipe whose reader has already exited: 141 and nothing on stderr, for
# help as for a construction
def closed_pipe_exits_141_quietly():
    for argv in (["--help"], ["construct", "cpn", "300"]):
        r, w = os.pipe()
        os.close(r)
        p = subprocess.run([*QTM, *argv], stdout=w, stderr=subprocess.PIPE, timeout=60)
        os.close(w)
        assert (p.returncode, p.stderr) == (141, b""), (argv, p.returncode, p.stderr)


ROWS = [
    Row("qtm construct cpn 3 | qtm report -"),
    Row(cli_loads_no_dataclasses),
    # every construction, each output checked by validate
    Row("qtm construct -o cp2.qtm cpn 2"),
    Row("qtm construct cpn 3 | qtm validate -"),
    Row("qtm construct hirzebruch -2 | qtm validate -"),
    Row("qtm construct cp2k 3 | qtm validate -"),
    Row("qtm construct product cp2.qtm cp2.qtm | qtm validate -"),
    Row("qtm construct vertex-cut cp2.qtm 0 | qtm validate -"),
    # cp2k is built in closed form: a long sum takes well under a second
    Row("timeout 20 qtm construct cp2k 2000 | qtm validate -", lines=["vertices 2002"]),
    # (CP1)^10 from chained products, the 10-cube's faces
    Row("qtm construct -o cp1.qtm cpn 1"),
    Row("qtm construct -o cp1_2.qtm product cp1.qtm cp1.qtm"),
    Row("qtm construct -o cp1_4.qtm product cp1_2.qtm cp1_2.qtm"),
    Row("qtm construct -o cp1_8.qtm product cp1_4.qtm cp1_4.qtm"),
    Row("timeout 20 qtm construct -o cp1_10.qtm product cp1_8.qtm cp1_2.qtm"),
    Row("timeout 20 qtm validate cp1_10.qtm",
        lines=["f_vector 1024 5120 11520 15360 13440 8064 3360 960 180 20"]),
    # its m = 2n = 20 facets put its 1024 vertex determinants on the tableau
    # walk, which decide runs through validation too
    Row("timeout 20 qtm decide cp1_10.qtm", first="SAT"),
    Row(cube_carries_its_factors_trees),
    Row(relabelled_cube_keeps_validations_fields),
    Row(product_of_relabelled_cubes_roots_at_the_pair_of_roots),
    Row(polygon_minors_name_bareiss_offenders),
    Row(cut_of_cpn300_walks_in_bounded_time_and_memory, timeout=120),
    # a vertex cut of (CP1)^5 is no product: the facet exchanges of its BFS
    # tree leave one group, so the split is refused at once and the whole
    # polytope is counted, the 5-cube's faces plus the new facet's
    Row("qtm construct -o cp1_5.qtm product cp1_4.qtm cp1.qtm"),
    Row("qtm construct vertex-cut cp1_5.qtm 0 | qtm validate -", lines=["f_vector 36 90 90 45 11"]),
    # cp2_sum(98)^2 x CP^1 is counted one join factor at a time: its face
    # polynomial is (1 + 100t + 100t^2)^2 (1 + 2t); the exchanges of its BFS
    # tree split each 100-gon into its even and its odd facets, groups finer
    # than the factors, so this covers the meet-test fallback
    Row("qtm construct -o s98.qtm cp2k 98"),
    Row("qtm construct -o s98_2.qtm product s98.qtm s98.qtm"),
    Row("timeout 20 qtm construct product s98_2.qtm cp1.qtm | timeout 20 qtm validate -",
        lines=["f_vector 20000 50000 40400 10600 202"]),
    # cp2_sum(98)^2 (V = 10000) has no positive omniorientation: decide exits
    # 1 with UNSAT and a witness of an even number of vertices, expanded from
    # the slot histories of solve's forward elimination
    Row("timeout 20 qtm decide s98_2.qtm", code=1, first="UNSAT", test=even_witness),
    # a SAT pair of dim 3 or more is decided by one pass over the facet
    # exchanges of its spanning tree, O(V + m log m) with no GF(2) system:
    # cp2_sum(199)^2 (V = 40401) takes well under a second
    Row("qtm construct -o s199.qtm cp2k 199"),
    Row("qtm construct -o s199_2.qtm product s199.qtm s199.qtm"),
    Row("timeout 60 qtm decide s199_2.qtm", first="SAT"),
    Row(squared_sums_decide_as_solve, timeout=120),
    # a polygon is decided like every pair, from the facet exchanges of its
    # spanning tree with no GF(2) system: the budget's largest sum, cp2k 11454
    # (m = 11456, an even polygon), is UNSAT with all 11456 vertices as its
    # witness, and cp2k 11453 (odd) is SAT
    Row("qtm construct -o s11454.qtm cp2k 11454"),
    Row("timeout 20 qtm decide s11454.qtm", code=1, first="UNSAT", test=every_vertex_witness),
    # report there decides from the tree's facet exchanges and computes the
    # invariants from each facet's two corners, with no facet cycle
    Row("qtm construct cp2k 11454 | timeout 20 qtm report -", code=1,
        lines=["UNSAT", "euler = 11456", "signature = 11454"]),
    Row("qtm construct -o s11453.qtm cp2k 11453"),
    Row("timeout 20 qtm decide s11453.qtm", first="SAT"),
    Row(connected_sum_splices_by_renaming, timeout=60),
    Row(relabelled_polygons_decide_as_solve, timeout=60),
    # cpn(1000) covers the closed form at scale: its polytope, like every
    # simplex, is validated with no ridge map and no BFS, so the pipe takes
    # about 1.5 s
    Row("timeout 20 qtm construct cpn 1000 | timeout 20 qtm decide -", first="SAT"),
    # CP^60 x CP^1 (n = 61, m = 63, V = 122) is no simplex, so it still builds
    # the coded ridge keys that take over past 61 facets, where int bitmasks
    # stop hashing apart
    Row("qtm construct -o cp60.qtm cpn 60"),
    Row("timeout 20 qtm construct product cp60.qtm cp1.qtm | timeout 20 qtm decide -", first="SAT"),
    # product writes the orientation class and base signs of a product in
    # closed form: the pentagon (CP^2 cut twice at vertex 0) times the
    # Hirzebruch surface H_-2 has two non-simplex factors
    Row("qtm construct vertex-cut cp2.qtm 0 | qtm construct -o pentagon.qtm vertex-cut - 0"),
    Row("qtm construct -o h-2.qtm hirzebruch -2"),
    Row("qtm construct -o pent_h.qtm product pentagon.qtm h-2.qtm"),
    Row("qtm validate pent_h.qtm", lines=["f_vector 20 40 29 9"]),
    Row("qtm decide pent_h.qtm", first="SAT"),
    # decide: an even k is UNSAT (exit 1), an odd k SAT (exit 0)
    Row("qtm construct cp2k 2 | qtm decide -", code=1, first="UNSAT"),
    Row("qtm construct cp2k 3 | qtm decide -", first="SAT"),
    # a construction over polytope.CONSTRUCTION_MAX_ENTRIES (V*n + n*m entries
    # and V*ceil(m/64) mask words) is refused before anything is built: exit 2
    # at once, for cp2k 524286 too, whose k^2 masks fit when only the entries
    # were counted
    *(Row(f"timeout 5 qtm construct {params}", code=2) for params in
      ("cpn 99999999999999999999", "cp2k 99999999999999999999", "cp2k 524286")),
    # vertex-cut is held to the same budget: cpn 1019 fits, but its cut (2038
    # vertices, 1021 facets) holds 3,149,729 and exits 2
    Row("qtm construct -o cp1019.qtm cpn 1019"),
    Row("timeout 20 qtm construct vertex-cut cp1019.qtm 0", code=2),
    Row(benchmark_trajectory_is_correct),
    # decide's SAT line is the document's omniorientation directive: appended
    # to the document, it makes every fixed-point sign +1, for cp2_sum(3),
    # whose certificate gives facet 0 the sign -1, and for the vertex cut of
    # CP^3, whose certificate has global sign -1
    Row("qtm construct -o cp3.qtm cpn 3"),
    Row("qtm construct -o s3.qtm cp2k 3"),
    Row("qtm construct -o cut3.qtm vertex-cut cp3.qtm 0"),
    Row("qtm decide s3.qtm", directive_to="s3.qtm"),
    Row("qtm signs s3.qtm", test=every_sign_positive),
    Row("qtm decide cut3.qtm", directive_to="cut3.qtm"),
    Row("qtm signs cut3.qtm", test=every_sign_positive),
    # the console script reads argv from sys.argv; report <file> skips
    # argparse and must print what report - prints for the same bytes, while
    # a missing file, help and an unknown option still go through argparse:
    # usage errors exit 3 with nothing on stdout
    Row("qtm report cp3.qtm", same=Row("qtm report - < cp3.qtm")),
    Row("qtm report", code=3, test=lambda out, err: out == "" and usage(err)),
    Row("qtm report -h", test=lambda out, err: usage(out)),
    Row("qtm decide -x cp3.qtm", code=3),
    Row(unused_facets_refused_in_a_short_message, timeout=10),
    # a usage error exits 3
    Row("qtm construct cpn 0", code=3),
    # an integer is an optional sign and ASCII digits: int() would read 1_0 as
    # 10, a usage error (exit 3) for construct and an input error (exit 2) in
    # a document, here Hirzebruch a = 10 otherwise
    Row("qtm construct cpn 1_0", code=3),
    Row("qtm validate -", code=2, stdin="dim 2\nfacets 4\nvertex 0 1\nvertex 1 2\nvertex 2 3\n"
        "vertex 0 3\nlambda\n1 0 -1 0\n0 1 1_0 -1\n"),
    # a document that fails one of parse's vertex checks exits 2
    *(Row("qtm validate -", code=2, stdin=text + "\n") for text in BAD_DOCS),
    Row(to_pair_raises_as_the_validators),
    # parse reads a canonical integer (str(i) for i in [-256, 1024)) by table
    # lookup and any other spelling by parse_int: CP^2 spelled with +1, 007
    # and -0 gives the same report, byte for byte
    Row("qtm report -", stdin=CP2 + "\nomniorientation 1 1 -1 1\n", lines=["SAT"], same=Row(
        "qtm report -", stdin="dim +2\nfacets 003\nvertex -0 +1\nvertex 000 2\nvertex 01 +2\n"
        "lambda\n+1 -0 -01\n00 +1 -1\nomniorientation +1 1 -001 +01\n")),
    Row(closed_pipe_exits_141_quietly),
]


if __name__ == "__main__":
    main()
