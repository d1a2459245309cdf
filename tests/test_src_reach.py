"""Every function, class and method in `src/ucst` is reached from the
program's entry points: the command line (`cli.main`) and the code of the
benchmark in `perfbench/`.  Code that only tests call belongs under
`tests/`.

Reach is by name: a definition is reached when its name appears (as a name
or an attribute) in a reached definition, in module-level code, or in an
entry point.  Two definitions with the same name are reached together.  A
class's methods are definitions of their own, so reaching a class reaches
only what its body uses outside them.  A string is not a use: perfbench's
trace table names the functions it wraps by text, and wrapping a function
does not call it.
"""

import ast
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "perfbench" / "spans.py"

# Names kept in `src/` although no entry point reaches them, with the reason.
# Only `Nfa` methods that perfbench's trace table wraps may be listed here.
TRACED_ONLY = "perfbench/spans.py traces it, and CI's traced smoke run looks it up"
ALLOWED = {
    "intersect": TRACED_ONLY,
    "complement": TRACED_ONLY,
    "determinize": TRACED_ONLY,
}


def _names(tree):
    """Every name and attribute used in `tree`."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def _definitions(src):
    """name -> [(file, line, names it uses)] for the module-level functions
    and classes and the methods of the package at `src`, and the names that
    module-level code uses (it runs on import).  A class uses what its
    bases, decorators and body use outside its methods."""
    defs, module_level = {}, set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defs.setdefault(node.name, []).append(
                    (path.name, node.lineno, _names(node)))
            elif isinstance(node, ast.ClassDef):
                uses = set()
                for part in node.bases + node.keywords + node.decorator_list + node.body:
                    if isinstance(part, ast.FunctionDef):
                        defs.setdefault(part.name, []).append(
                            (path.name, part.lineno, _names(part)))
                    else:
                        uses |= _names(part)
                defs.setdefault(node.name, []).append((path.name, node.lineno, uses))
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                module_level |= _names(node)
    return defs, module_level


def _reached(defs, roots):
    reached, todo = set(), [n for n in roots if n in defs]
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        for _, _, uses in defs[name]:
            todo.extend(n for n in uses if n in defs and n not in reached)
    return reached


def _reach(extra_roots=(), root=ROOT):
    """The definitions of `root`'s `src/ucst`, and the names reached from
    the entry points, module-level code, dunder methods (called implicitly)
    and `extra_roots`."""
    defs, roots = _definitions(root / "src" / "ucst")
    roots |= {"main"} | {n for n in defs if n.startswith("__") and n.endswith("__")}
    for path in sorted((root / "perfbench").glob("*.py")):
        roots |= _names(ast.parse(path.read_text(), str(path)))
    return defs, _reached(defs, roots | set(extra_roots))


def _traced_nfa_methods():
    """The `Nfa` methods that the `TRACED` table of perfbench's tracer wraps."""
    tree = ast.parse(SPANS.read_text(), str(SPANS))
    table = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets] == ["TRACED"])
    return {entry.elts[1].value for entry in table.elts
            if ast.unparse(entry.elts[0]) == "regdata.Nfa"}


def test_no_definition_is_reached_only_by_tests():
    defs, reached = _reach(ALLOWED)
    stray = sorted(f"{file}:{line} {name}" for name in set(defs) - reached
                   for file, line, _ in defs[name])
    assert not stray, ("defined in src/ but reached from no entry point; "
                       "move test helpers under tests/: " + ", ".join(stray))


def test_allowlist_is_current():
    defs, reached = _reach()
    traced = _traced_nfa_methods()
    for name, reason in ALLOWED.items():
        assert name in defs, f"{name} is allowed but no longer defined"
        assert name not in reached, f"{name} is reached; drop it from ALLOWED"
        assert name in traced, f"{name} is allowed but perfbench does not trace it"
        assert reason


def _tree(tmp_path, src, spans=""):
    """A source root with one module `src/ucst/m.py` and a perfbench tracer."""
    (tmp_path / "src" / "ucst").mkdir(parents=True)
    (tmp_path / "src" / "ucst" / "m.py").write_text(textwrap.dedent(src))
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "spans.py").write_text(textwrap.dedent(spans))
    return tmp_path


def test_a_method_only_an_unreached_method_calls_is_unreached(tmp_path):
    root = _tree(tmp_path, """\
        def main():
            return Nfa().accepts()


        class Nfa:
            def accepts(self):
                return True

            def complement(self):
                return self.determinize()

            def determinize(self):
                return self
        """)
    _, reached = _reach(root=root)
    assert {"main", "Nfa", "accepts"} <= reached
    assert not {"complement", "determinize"} & reached


def test_a_name_only_a_trace_table_names_is_unreached(tmp_path):
    root = _tree(tmp_path, """\
        def main():
            return 0


        def traced():
            return 1
        """, """\
        from ucst import m

        TRACED = ((m, "traced", "m.traced", None),)
        """)
    _, reached = _reach(root=root)
    assert "main" in reached and "traced" not in reached
