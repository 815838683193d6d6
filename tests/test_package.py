"""src/plapopt holds only what the program runs."""

import ast
from pathlib import Path

import plapopt

SRC = Path(plapopt.__file__).resolve().parent

# read by no code in src/, each with the reason it stays
TRACED_ONLY = {
    "hessians.hessian_f": "traced by perfbench/spans.py until its spans "
                          "are retargeted to the code that runs",
    "hessians.hessian_g_diff": "traced by perfbench/spans.py until its "
                               "spans are retargeted to the code that runs",
    "solvers.bb_minimize": "traced by perfbench/spans.py until its spans "
                           "are retargeted to the code that runs",
}


def _used_names(node) -> set[str]:
    """Names that node reads, as a bare name or as an attribute."""
    return {sub.id if isinstance(sub, ast.Name) else sub.attr
            for sub in ast.walk(node)
            if isinstance(sub, (ast.Name, ast.Attribute))}


def _defined_names(node) -> list[str]:
    """Names that a top-level statement defines: a function, a class, or
    the plain names a module-level assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [sub.id for target in targets for sub in ast.walk(target)
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store)]


def _top_level_names():
    """Each top-level function, class and module-level assignment of
    src/plapopt as module.name, and whether any other top-level statement
    of src/ reads its name."""
    modules = {path.stem: ast.parse(path.read_text())
               for path in sorted(SRC.glob("*.py"))}
    statements = [(stem, node, _used_names(node))
                  for stem, tree in modules.items() for node in tree.body]
    for stem, node, _ in statements:
        for name in _defined_names(node):
            used = any(name in names
                       for _, other, names in statements if other is not node)
            yield f"{stem}.{name}", name, used


def test_every_top_level_name_in_src_is_run_or_exported():
    # what the program never reads is exactly the traced-only list, so the
    # list cannot hide a dead name nor outlive one of its own; the package's
    # __all__ is read by the import system
    unused = {qualified for qualified, name, used in _top_level_names()
              if not used and name not in plapopt.__all__
              and qualified not in ("cli.main", "__init__.__all__")}
    assert sorted(unused) == sorted(TRACED_ONLY)
