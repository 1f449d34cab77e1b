"""Mutation check for named library functions; standard library only.

    python tests/mutation_check.py fileformat:serialize polytope:validate_polytope \
        tests/test_fileformat.py tests/test_polytope.py

Each ``module:function`` (a ``Class.method`` is named the same way) is a
function in ``src/quasitoric/<module>.py``; every other argument is a test
file. ``src/`` and ``tests/`` are copied to a temporary directory once, and
the library there is mutated one AST node at a time, never in ``src/``:

- ``+`` and ``-`` swapped, ``^`` and ``&`` each made ``|``, ``|`` made ``^``
  and ``&``, in expressions and augmented assignments;
- each comparison operator swapped with its neighbour (``<``/``<=``,
  ``>``/``>=``, ``==``/``!=``, ``in``/``not in``, ``is``/``is not``);
- each integer constant c with |c| <= 2 moved to c - 1 and c + 1;
- ``min`` and ``max`` swapped.

Annotations are left alone: ``from __future__ import annotations`` never
evaluates them. For each mutant ``python -m pytest -x -q -p no:cacheprovider``
runs the test files in the copy, one process at a time, under a timeout of
five times the unmutated run (at least 30 s); a failure or a timeout kills
the mutant. The script prints the kills per function and every survivor,
and exits 1 when a survivor is missing from ``EQUIVALENT``, 2 when the tests
fail on the unmutated copy.

It is slow (minutes), so it is not part of tier-1: pytest does not collect
this file.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src") / "quasitoric"

# (module:function, mutated source text) -> why the mutant computes the same
# results as the original. The text is what the script prints for the
# survivor: ast.unparse of the mutated statement, or of the mutated
# expression in the header of a statement with a body.
EQUIVALENT = {
    ("polytope:_validate_canonical", "m == n - 1 and len(canon) == m"): (
        "the simplex shortcut never fires, as m >= n + 1 by then, and the "
        "general path, or for the triangle the polygon walk, finds the "
        "closed form's polytope"
    ),
    ("polytope:_validate_canonical", "m == n + 0 and len(canon) == m"): (
        "the simplex shortcut never fires, as m >= n + 1 by then, and the "
        "general path, or for the triangle the polygon walk, finds the "
        "closed form's polytope"
    ),
    ("polytope:_validate_canonical", "expected = sign if pos - wpos & 1 else -sign"): (
        "pos - wpos and pos + wpos have the same parity"
    ),
    ("fileformat:parse", "dim = read(args[-1])"): (
        "args holds exactly one token here, so args[-1] is args[0]"
    ),
    ("fileformat:parse", "facets = read(args[-1])"): (
        "args holds exactly one token here, so args[-1] is args[0]"
    ),
    ("polytope:_ridge_partners", "over or 3 * len(first) != s"): (
        "with nothing over every ridge holds one or two slots, so s < 3 * "
        "len(first) and the pass over the ridges always runs; it raises only "
        "on a ridge not on exactly two vertices, so a sound input passes it"
    ),
    ("charpair:validate_char", "got = f'{len(rows)}x{(len(rows[-1]) if rows else 0)}'"): (
        "a ragged matrix is named by its first bad row below, so here every "
        "row has one length and rows[-1] is as long as rows[0]"
    ),
    ("charpair:relabel_facets", "new_index = [-1] * len(order)"): (
        "the loop below writes every entry before any is read"
    ),
    ("charpair:relabel_facets", "new_index = [1] * len(order)"): (
        "the loop below writes every entry before any is read"
    ),
    ("charpair:relabel_facets", "signs[wi] = signs[vi] if pos - wpos & 1 else -signs[vi]"): (
        "pos - wpos and pos + wpos have the same parity"
    ),
    ("charpair:relabel_facets", "signs[0] <= 0"): "every sign is +1 or -1",
    ("charpair:relabel_facets", "signs[0] < 1"): "every sign is +1 or -1",
    ("charpair:_walk_dets", "stack = [(root, None, -1, 0, None)]"): (
        "the root starts afresh with no parent's rows, so its pos and wpos are never read"
    ),
    ("charpair:_walk_dets", "stack = [(root, None, 1, 0, None)]"): (
        "the root starts afresh with no parent's rows, so its pos and wpos are never read"
    ),
    ("charpair:_walk_dets", "stack = [(root, None, 0, -1, None)]"): (
        "the root starts afresh with no parent's rows, so its pos and wpos are never read"
    ),
    ("charpair:_walk_dets", "stack = [(root, None, 0, 1, None)]"): (
        "the root starts afresh with no parent's rows, so its pos and wpos are never read"
    ),
    ("charpair:_walk_dets", "dets[wi] = dets[vi] * (-step if pos - wpos & 1 else step)"): (
        "pos - wpos and pos + wpos have the same parity"
    ),
    ("charpair:_walk_dets", "dets[ci] = dets[wi] * (-step if cpos - cwpos & 1 else step)"): (
        "cpos - cwpos and cpos + cwpos have the same parity"
    ),
    ("charpair:_walk_dets", "r = cpos - (cpos >= wpos)"): (
        "cpos != wpos on this branch, so >= and > agree"
    ),
    (
        "constructions:product",
        "masks = tuple((a ^ b << m1 for a in poly1.masks for b in poly2.masks))",
    ): "a has bits below m1 only and b << m1 none below it, so ^ and | agree",
    ("constructions:connected_sum_4d", "kept = 2 if i == 0 else 0"): (
        "the gauge may be read at any surviving p1 corner, and vertex 2 of a "
        "polygon exists and is not v1, vertex 0"
    ),
    ("positivity:_decide_by_tree", "r <= 0"): "r is a product of signs, +1 or -1",
    ("positivity:_decide_by_tree", "r < 1"): "r is a product of signs, +1 or -1",
    ("positivity:_decide_by_tree", "len(ca) <= len(cb)"): (
        "on a tie either class may move: the signs are relative and only "
        "products of two in one class are read"
    ),
    (
        "positivity:solve",
        "rows = [(c | rhs[k] << n) ^ 1 << n + 1 + k for k, c in enumerate(system.rows)]",
    ): "the history bit lies above the coefficient and rhs bits, so ^ and | agree",
    (
        "positivity:solve",
        "rows = [c ^ rhs[k] << n | 1 << n + 1 + k for k, c in enumerate(system.rows)]",
    ): "Gf2System refuses a row bit at n or above, so ^ and | agree",
    ("positivity:solve", "mask ^= 1 << col"): (
        "each pivot column is set once, so ^= and |= agree"
    ),
    ("cli:_Parser.error", "self.exit(1)"): (
        "main, the parser's only caller, reads every nonzero exit status as "
        "a usage error, 3"
    ),
    ("cli:_Parser.error", "self.exit(3)"): (
        "main, the parser's only caller, reads every nonzero exit status as "
        "a usage error, 3"
    ),
}

_BINOPS = {
    ast.Add: (ast.Sub,),
    ast.Sub: (ast.Add,),
    ast.BitXor: (ast.BitOr,),
    ast.BitAnd: (ast.BitOr,),
    ast.BitOr: (ast.BitXor, ast.BitAnd),
}
_CMPOPS = {
    ast.Lt: ast.LtE,
    ast.LtE: ast.Lt,
    ast.Gt: ast.GtE,
    ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq,
    ast.NotEq: ast.Eq,
    ast.In: ast.NotIn,
    ast.NotIn: ast.In,
    ast.Is: ast.IsNot,
    ast.IsNot: ast.Is,
}
_SWAPPED_NAMES = {"min": "max", "max": "min"}


def _int_constant(node):
    """The value of an int literal, with a unary minus folded in, or None."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        inner = _int_constant(node.operand)
        return None if inner is None else -inner
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return node.value
    return None


def _literal(value):
    node = ast.Constant(abs(value))
    return ast.UnaryOp(ast.USub(), node) if value < 0 else node


def _children(node):
    """Child nodes, without annotations."""
    for name, value in ast.iter_fields(node):
        if name in ("annotation", "returns"):
            continue
        for item in value if isinstance(value, list) else [value]:
            if isinstance(item, ast.AST):
                yield item


def _sites(node, shown=None):
    """Yield (shown, node, field, replacement) for every mutation inside node,
    in source order: setting ``node.field = replacement`` makes the mutant.
    ``shown``, whose text names it, is the statement that holds it or, in a
    statement with a body, the expression that holds it, such as an ``if``
    test."""
    if shown is None and (isinstance(node, ast.expr) or not hasattr(node, "body")):
        shown = node
    if isinstance(node, (ast.BinOp, ast.AugAssign)):
        for op in _BINOPS.get(type(node.op), ()):
            yield shown, node, "op", op()
    elif isinstance(node, ast.Compare):
        for i, op in enumerate(node.ops):
            if type(op) in _CMPOPS:
                ops = list(node.ops)
                ops[i] = _CMPOPS[type(op)]()
                yield shown, node, "ops", ops
    elif isinstance(node, ast.Name) and node.id in _SWAPPED_NAMES:
        yield shown, node, "id", _SWAPPED_NAMES[node.id]
    for child in _children(node):
        value = _int_constant(child)
        if value is not None and abs(value) <= 2:
            for moved in (value - 1, value + 1):
                yield shown, node, _field_of(node, child), (child, _literal(moved))
            continue
        yield from _sites(child, shown)


def _field_of(parent, child):
    for name, value in ast.iter_fields(parent):
        if value is child or (isinstance(value, list) and any(v is child for v in value)):
            return name
    raise AssertionError("child not found")


def _find(tree, qualname):
    node = tree
    for part in qualname.split("."):
        node = next(
            (
                n
                for n in node.body
                if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and n.name == part
            ),
            None,
        )
        if node is None:
            raise SystemExit(f"no function {qualname}")
    return node


def _apply(node, field, replacement):
    """Mutate node in place; return the mutated node and an undo function."""
    if isinstance(replacement, tuple):  # a constant: swap the child itself
        old, new = replacement
        value = getattr(node, field)
        if isinstance(value, list):
            i = next(k for k, v in enumerate(value) if v is old)
            value[i] = new

            def undo():
                value[i] = old
        else:
            setattr(node, field, new)

            def undo():
                setattr(node, field, old)
        return new, undo
    old = getattr(node, field)
    setattr(node, field, replacement)
    return node, lambda: setattr(node, field, old)


def _splice(source, func, text):
    """source with func's lines (decorators included) replaced by text."""
    lines = source.splitlines(keepends=True)
    start = min([func.lineno] + [d.lineno for d in func.decorator_list]) - 1
    indent = " " * func.col_offset
    body = "".join(indent + line + "\n" if line else "\n" for line in text.splitlines())
    return "".join(lines[:start]) + body + "".join(lines[func.end_lineno :])


def mutants(module, qualname):
    """Yield (line, mutated text, module source) for each mutant of one function."""
    source = (ROOT / PACKAGE / f"{module}.py").read_text(encoding="utf-8")
    tree = ast.parse(source)
    func = _find(tree, qualname)
    for shown, node, field, replacement in list(_sites(func)):
        mutated, undo = _apply(node, field, replacement)
        text = ast.unparse(shown or mutated)
        new_source = _splice(source, func, ast.unparse(func))
        undo()
        # a moved constant's parent may carry no line (a default value's
        # ast.arguments), so the constant's own line is given
        line = (replacement[0] if isinstance(replacement, tuple) else node).lineno
        yield line, text, new_source


def _run_tests(workdir, files, timeout):
    env = dict(os.environ, PYTHONPATH=str(workdir / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *files]
    try:
        done = subprocess.run(
            command, cwd=workdir, env=env, timeout=timeout,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
    except subprocess.TimeoutExpired:
        return False
    return done.returncode == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="+", help="module:function targets and test files")
    args = parser.parse_args(argv)
    targets = [name for name in args.names if ":" in name]
    files = [str(Path(name).resolve().relative_to(ROOT)) for name in args.names if ":" not in name]
    if not targets or not files:
        parser.error("name at least one module:function and one test file")

    with tempfile.TemporaryDirectory(prefix="mutation-") as tmp:
        workdir = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", "*.pyc", ".hypothesis")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, workdir / part, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", workdir)

        start = time.perf_counter()
        if not _run_tests(workdir, files, None):
            print("the tests fail on the unmutated copy", file=sys.stderr)
            return 2
        timeout = max(30.0, 5 * (time.perf_counter() - start))

        unlisted = 0
        for target in targets:
            module, qualname = target.split(":", 1)
            path = workdir / PACKAGE / f"{module}.py"
            original = path.read_text(encoding="utf-8")
            killed = total = 0
            survivors = []
            try:
                for line, text, source in mutants(module, qualname):
                    path.write_text(source, encoding="utf-8")
                    total += 1
                    if _run_tests(workdir, files, timeout):
                        survivors.append((line, text))
                    else:
                        killed += 1
            finally:
                path.write_text(original, encoding="utf-8")
            print(f"{target}: {killed} of {total} killed", flush=True)
            for line, text in survivors:
                reason = EQUIVALENT.get((target, text))
                if reason is None:
                    unlisted += 1
                    print(f"  SURVIVED, line {line}: {text}")
                else:
                    print(f"  equivalent, line {line}: {text} ({reason})")
    return 1 if unlisted else 0


if __name__ == "__main__":
    sys.exit(main())
