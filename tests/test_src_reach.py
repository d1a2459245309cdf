"""Every function, class and method in `src/ucst` is reached from the
program's entry points: the command line (`cli.main`) and the names the
benchmark in `perfbench/` uses.  Code that only tests call belongs under
`tests/`.

Reach is by name: a definition is reached when its name appears (as a name
or an attribute) in a reached definition, in module-level code, or in an
entry point.  Two definitions with the same name are reached together.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ucst"

# Names kept in `src/` although no entry point reaches them, with the reason.
ALLOWED = {
    "to_head_lossy": "head-lossy normal form, the correctness argument of "
                     "head-lossy exploration (ROADMAP D4)",
    "commute": "loss commutation behind to_head_lossy (ROADMAP D4)",
    "commute_case": "the paper's commutation lemma, by case (ROADMAP D4)",
    "is_head_lossy": "the normal form's membership check (ROADMAP D4)",
    "parse_pep": "reads the files `reduce --to pep` writes, for a future "
                 "`ucst solve` (ROADMAP D1)",
    "pep_equal": "compares parsed embedding instances, for a future "
                 "`ucst solve` (ROADMAP D1)",
    "pep_to_ucst": "the paper's reverse reduction from the embedding problem "
                   "to channel systems",
    "bounded_recurrent": "checks the lasso target that `ucst gen thue` prints",
    "LassoWitness": "the answer of bounded_recurrent",
}


def _names(tree, strings=False):
    """Every name and attribute used in `tree`; with `strings`, also every
    string constant that is an identifier (a name passed by text)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif (strings and isinstance(node, ast.Constant)
              and isinstance(node.value, str) and node.value.isidentifier()):
            out.add(node.value)
    return out


def _definitions():
    """name -> [(file, line, node)] for the module-level functions and
    classes and the methods of `src/ucst`, and the names that module-level
    code uses (it runs on import)."""
    defs, module_level = {}, set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.setdefault(node.name, []).append((path.name, node.lineno, node))
                if isinstance(node, ast.ClassDef):
                    for item in node.body:
                        if isinstance(item, ast.FunctionDef):
                            defs.setdefault(item.name, []).append(
                                (path.name, item.lineno, item))
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
        for _, _, node in defs[name]:
            todo.extend(n for n in _names(node) if n in defs and n not in reached)
    return reached


def _reach(extra_roots=()):
    """The definitions, and the names reached from the entry points,
    module-level code, dunder methods (called implicitly) and `extra_roots`."""
    defs, roots = _definitions()
    roots |= {"main"} | {n for n in defs if n.startswith("__") and n.endswith("__")}
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        roots |= _names(ast.parse(path.read_text(), str(path)), strings=True)
    return defs, _reached(defs, roots | set(extra_roots))


def test_no_definition_is_reached_only_by_tests():
    defs, reached = _reach(ALLOWED)
    stray = sorted(f"{file}:{line} {name}" for name in set(defs) - reached
                   for file, line, _ in defs[name])
    assert not stray, ("defined in src/ but reached from no entry point; "
                       "move test helpers under tests/: " + ", ".join(stray))


def test_allowlist_is_current():
    defs, reached = _reach()
    for name, reason in ALLOWED.items():
        assert name in defs, f"{name} is allowed but no longer defined"
        assert name not in reached, f"{name} is reached; drop it from ALLOWED"
        assert reason
