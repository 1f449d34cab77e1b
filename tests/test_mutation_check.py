"""tests/mutation_check.py lists the mutants of any function without
running them, a moved default value's included."""

import ast

from mutation_check import ROOT, mutants


def test_a_default_value_is_moved_on_its_own_line():
    source = (ROOT / "src" / "quasitoric" / "errors.py").read_text(encoding="utf-8")
    init = next(
        node for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef) and node.name == "UnusedFacetError"
    ).body[-1]
    found = list(mutants("errors", "UnusedFacetError.__init__"))
    line = init.args.defaults[0].lineno
    assert [(at, text) for at, text, _ in found if at == line] == [
        (line, "self, facets, more=-1"),
        (line, "self, facets, more=1"),
    ]
    assert len({text for _, text, _ in found}) == len(found)
    for _, _, mutated in found:
        assert mutated != source
        ast.parse(mutated)
