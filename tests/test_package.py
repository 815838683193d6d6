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


def _top_level_names():
    """Each top-level function and class of src/plapopt as module.name,
    and whether any other top-level statement of src/ reads its name."""
    modules = {path.stem: ast.parse(path.read_text())
               for path in sorted(SRC.glob("*.py"))}
    statements = [(stem, node, _used_names(node))
                  for stem, tree in modules.items() for node in tree.body]
    for stem, node, _ in statements:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            used = any(node.name in names
                       for _, other, names in statements if other is not node)
            yield f"{stem}.{node.name}", node.name, used


def test_every_top_level_name_in_src_is_run_or_exported():
    # what the program never reads is exactly the traced-only list, so the
    # list cannot hide a dead name nor outlive one of its own
    unused = {qualified for qualified, name, used in _top_level_names()
              if not used and name not in plapopt.__all__
              and qualified != "cli.main"}
    assert sorted(unused) == sorted(TRACED_ONLY)
