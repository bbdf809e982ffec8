"""Source hygiene of the library, by a scan of its syntax trees.

Seven kinds of dead code are refused in ``src/surfgen``: a module-level
import that its module never uses (nor lists in ``__all__``), a private
(``_name``) function, method or class that nothing in the package refers to,
a public method that nothing in the package, its tests or its benchmark
reads as an attribute, a public module-level function, class or constant
that nothing in the package or its benchmark reads and ``surfgen.__all__``
does not export, a name in a ``__slots__`` that nothing in the package
reads, an attribute assigned on ``self`` that nothing in the package or
its benchmark reads, and a defaulted parameter that no call in the package
or its benchmark passes.  So are two classes that define the same set of two or
more public methods: a second implementation of one protocol.  Every name
that ``surfgen.__all__`` exports is shown in the README's code, and
``functools.cached_property`` is not used.
"""

import ast
import pathlib
import re

import pytest

import surfgen

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "surfgen"


def modules() -> dict:
    return {path.name: ast.parse(path.read_text(encoding="utf-8"), str(path))
            for path in sorted(SRC.glob("*.py"))}


def used_names(tree: ast.AST) -> set:
    """Every name a tree reads, as a loaded bare name or attribute, and
    every string that is an identifier: a name in a string annotation, in
    ``__all__``, or one the benchmark wraps."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            names.add(node.value)
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


def test_no_cached_property():
    """A cached property's first read writes the instance ``__dict__``; on
    CPython 3.11 that write slows every later attribute read of the
    instance, by 2x on a ``CriteriaSpec`` and 3.7x on a ``Rule``.  A value
    made once is a field, set in ``__post_init__`` or on first use with
    ``object.__setattr__``."""
    uses = [f"{name}:{node.lineno}" for name, tree in modules().items()
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id == "cached_property"
            or isinstance(node, ast.Attribute) and node.attr == "cached_property"
            or isinstance(node, ast.alias) and node.name == "cached_property"]
    assert not uses, f"cached_property used at {uses}"


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


def read_attributes(tree: ast.AST) -> set:
    """Every attribute name a tree reads: loaded, or updated in place."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Attribute):
            names.add(node.target.attr)
    return names


def attributes_read(*tops: str) -> set:
    """Every attribute name the Python files under the given top-level
    directories read."""
    read = set()
    for top in tops:
        for path in sorted((ROOT / top).rglob("*.py")):
            read |= read_attributes(
                ast.parse(path.read_text(encoding="utf-8"), str(path)))
    return read


def test_every_public_method_is_named_somewhere():
    read = attributes_read("src", "tests", "perfbench")
    unread = [f"{name}: {cls.name}.{stmt.name}"
              for name, tree in modules().items()
              for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
              for stmt in cls.body
              if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
              and not stmt.name.startswith("_") and stmt.name not in read]
    assert not unread, f"public methods nothing reads: {unread}"


def bound_names(stmt: ast.stmt) -> list:
    """The names a module-level function, class or assignment defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        return [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    return []


def test_every_public_module_level_name_is_read_or_exported():
    defined = []  # (module, name, index of the defining statement)
    reads = []    # ((module, statement index), names read); -1: a whole file
    for name, tree in modules().items():
        if name == "__init__.py":
            continue
        for i, stmt in enumerate(tree.body):
            defined += [(name, bound, i) for bound in bound_names(stmt)
                        if not bound.startswith("_")]
            reads.append(((name, i), used_names(stmt)))
    for path in sorted((ROOT / "perfbench").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        reads.append(((path.name, -1), used_names(tree)))
    unread = [f"{module}: {name}" for module, name, i in defined
              if name not in surfgen.__all__
              and not any(name in names for where, names in reads
                          if where != (module, i))]
    assert not unread, f"public names nothing but tests reads: {unread}"


def test_every_exported_name_is_shown_in_the_readme():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    fenced = re.findall(r"```.*?```", text, re.S)
    spans = re.findall(r"`[^`\n]+`", re.sub(r"```.*?```", "", text, flags=re.S))
    shown = set(re.findall(r"\w+", " ".join(fenced + spans)))
    missing = sorted(set(surfgen.__all__) - shown)
    assert not missing, f"exported names the README does not show: {missing}"


def test_criteria_error_is_exported():
    with pytest.raises(surfgen.CriteriaError):
        surfgen.parse_criteria("dup\ndup\n")


def test_every_slot_is_read():
    trees = modules()
    declared = []  # (module, class, slot name)
    read = set()
    for name, tree in trees.items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for stmt in cls.body:
                if isinstance(stmt, ast.Assign) and any(
                        isinstance(t, ast.Name) and t.id == "__slots__"
                        for t in stmt.targets):
                    declared += [(name, cls.name, slot)
                                 for slot in ast.literal_eval(stmt.value)]
        read |= read_attributes(tree)
    assert declared
    unread = [f"{module}: {cls}.{slot}" for module, cls, slot in declared
              if slot not in read]
    assert not unread, f"slots nothing reads: {unread}"


def self_attributes_assigned(tree: ast.AST) -> set:
    """Every attribute name a tree assigns on ``self``, plainly or by
    unpacking."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        while targets:
            target = targets.pop()
            if isinstance(target, (ast.Tuple, ast.List)):
                targets.extend(target.elts)
            elif isinstance(target, ast.Attribute) \
                    and isinstance(target.value, ast.Name) and target.value.id == "self":
                names.add(target.attr)
    return names


def test_every_attribute_set_on_self_is_read():
    read = attributes_read("src", "perfbench")
    unread = [f"{name}: {', '.join(sorted(attrs - read))}"
              for name, tree in modules().items()
              if (attrs := self_attributes_assigned(tree)) - read]
    assert not unread, f"attributes set on self that nothing reads: {unread}"


def test_no_two_classes_implement_the_same_protocol():
    by_methods = {}  # frozenset of public method names -> classes defining it
    for name, tree in modules().items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            methods = frozenset(
                stmt.name for stmt in cls.body
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not stmt.name.startswith("_"))
            if len(methods) >= 2:
                by_methods.setdefault(methods, []).append(f"{name}: {cls.name}")
    twins = [sorted(classes) for classes in by_methods.values() if len(classes) > 1]
    assert not twins, f"classes with the same public methods: {twins}"


def calls_made(*tops: str) -> dict:
    """Per called name, as a bare name or an attribute, the calls the
    Python files under the given top-level directories make to it: each as
    (positional arguments, keywords), where a starred argument counts as
    any number and ``**`` as any keyword."""
    calls: dict = {}
    for top in tops:
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"),
                                           str(path))):
                if not isinstance(node, ast.Call):
                    continue
                callee = node.func
                name = callee.id if isinstance(callee, ast.Name) else \
                    callee.attr if isinstance(callee, ast.Attribute) else None
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                calls.setdefault(name, []).append(
                    (float("inf") if starred else len(node.args),
                     {k.arg for k in node.keywords}))
    return calls


def test_every_defaulted_parameter_is_passed_somewhere():
    """A defaulted parameter that no call in the package or its benchmark
    passes is an option nothing uses.  Calls are matched by name; a call
    to a class, or to a class derived from it, is a call to its
    ``__init__``.  What ``surfgen.__all__`` exports and the methods of the
    classes it exports are exempt: they are the library's interface."""
    calls = calls_made("src", "perfbench")
    trees = modules()
    bases = {cls.name: {b.id for b in cls.bases if isinstance(b, ast.Name)}
             for tree in trees.values()
             for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)}

    def derived(name: str) -> set:
        out = {name}
        while grown := {c for c, b in bases.items() if b & out} - out:
            out |= grown
        return out

    unpassed = []
    for module, tree in trees.items():
        owner = {id(stmt): cls.name
                 for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                 for stmt in cls.body}
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            cls = owner.get(id(fn))
            if fn.name in surfgen.__all__ or cls in surfgen.__all__:
                continue
            names = derived(cls) if fn.name == "__init__" else {fn.name}
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in fn.decorator_list)
            offset = 1 if cls and not static else 0
            args = fn.args.posonlyargs + fn.args.args
            params = [(arg.arg, i - offset)
                      for i, arg in enumerate(args)
                      if i >= len(args) - len(fn.args.defaults)]
            params += [(arg.arg, None) for arg, default
                       in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                       if default is not None]
            made = [call for name in names for call in calls.get(name, ())]
            unpassed += [f"{module}: {fn.name}({param}=)" for param, i in params
                         if not any(param in kws or None in kws
                                    or i is not None and positional > i
                                    for positional, kws in made)]
    assert not unpassed, f"defaulted parameters no call passes: {unpassed}"
