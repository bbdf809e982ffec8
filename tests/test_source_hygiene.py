"""Source hygiene of the library, by a scan of its syntax trees.

Two kinds of dead code are refused in ``src/surfgen``: a module-level import
that its module never uses (nor lists in ``__all__``), and a private
(``_name``) function, method or class that nothing in the package refers to.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "surfgen"


def modules() -> dict:
    return {path.name: ast.parse(path.read_text(encoding="utf-8"), str(path))
            for path in sorted(SRC.glob("*.py"))}


def used_names(tree: ast.AST) -> set:
    """Every name a tree reads, as a bare name or an attribute, and every
    name in a string annotation."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            names.add(node.value)  # "Name" in an annotation, or in __all__
    return names


def test_no_unused_module_level_import():
    unused = []
    for name, tree in modules().items():
        used = used_names(tree)
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = (alias.asname or alias.name).split(".")[0]
                    if bound not in used:
                        unused.append(f"{name}: {bound}")
    assert not unused, f"unused imports: {unused}"


def test_no_unreferenced_private_definition():
    trees = modules()
    defined = []  # (module, name) of each private function, method and class
    used = set()
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)) \
                    and node.name.startswith("_") and not node.name.endswith("__"):
                defined.append((name, node.name))
        used |= used_names(tree)
    unreferenced = [f"{module}: {name}" for module, name in defined
                    if name not in used]
    assert not unreferenced, f"private definitions nothing uses: {unreferenced}"
