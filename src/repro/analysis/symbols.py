"""Project-wide symbol table and import graph for the dataflow rules.

:mod:`repro.analysis.lint` hands each rule one parsed module at a time,
which is enough for syntactic conventions (RPR001–RPR006) but not for the
interprocedural rules: counter-threading (RPR010) must follow calls across
modules, and worker-safety (RPR009) must close over everything a worker
entrypoint can transitively reach.  This module builds the whole-program
view those rules share:

- every function and method in the analyzed tree, with its enclosing
  class, parameter names and a stable qualified name
  (``path/to/mod.py::Class.method``);
- a bare-name lookup table (``by_name``) — the conservative resolution
  unit: a call to ``compute`` may dispatch to *any* known ``compute``;
- the module import graph over the analyzed files, restricted to
  project-internal edges (``repro.*``).

The table is a pure function of the parsed modules; building it walks each
AST once, so whole-tree construction stays well under the analysis
wall-clock budget.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.analysis.lint import ModuleInfo

__all__ = ["FunctionInfo", "ClassInfo", "SymbolTable", "build_symbol_table", "module_dotted_name"]


@dataclass(frozen=True)
class FunctionInfo:
    """One function or method definition in the analyzed tree."""

    qualname: str
    name: str
    module: ModuleInfo = field(compare=False, repr=False)
    node: ast.FunctionDef | ast.AsyncFunctionDef = field(compare=False, repr=False)
    cls_name: str | None
    params: tuple[str, ...]
    lineno: int

    @property
    def is_method(self) -> bool:
        return self.cls_name is not None


@dataclass(frozen=True)
class ClassInfo:
    """One class definition with its directly defined methods."""

    name: str
    module: ModuleInfo = field(compare=False, repr=False)
    node: ast.ClassDef = field(compare=False, repr=False)
    methods: tuple[FunctionInfo, ...]
    base_names: tuple[str, ...]


@dataclass(frozen=True)
class SymbolTable:
    """The whole-program view shared by the interprocedural rules.

    Attributes
    ----------
    modules:
        Every analyzed module, in discovery order.
    functions:
        Every function and method, including nested functions.
    classes:
        Every class, with the methods defined directly in its body.
    by_name:
        Bare name → all functions carrying it.  This is the conservative
        dynamic-dispatch model: an attribute call ``x.compute(...)``
        resolves to every known ``compute``.
    init_by_class:
        Class name → its ``__init__`` (when defined), so constructor
        calls (``SubsetBoost(...)``) resolve through the call graph.
    import_graph:
        Module dotted name → project-internal modules it imports.
    """

    modules: tuple[ModuleInfo, ...]
    functions: tuple[FunctionInfo, ...]
    classes: tuple[ClassInfo, ...]
    by_name: dict[str, tuple[FunctionInfo, ...]]
    init_by_class: dict[str, FunctionInfo]
    import_graph: dict[str, frozenset[str]]

    def resolve(self, name: str) -> tuple[FunctionInfo, ...]:
        """All functions a bare call name may dispatch to (possibly none)."""
        direct = self.by_name.get(name, ())
        init = self.init_by_class.get(name)
        if init is not None and init not in direct:
            return direct + (init,)
        return direct


def module_dotted_name(module: ModuleInfo) -> str:
    """A dotted module name derived from the display path.

    ``src/repro/core/container.py`` → ``repro.core.container``; paths not
    under a recognizable package root fall back to the stem-joined path so
    fixture trees still get unique, stable names.
    """
    parts = list(module.path.with_suffix("").parts)
    if "repro" in parts:
        parts = parts[parts.index("repro"):]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1] or parts
    return ".".join(parts)


def _param_names(node: ast.FunctionDef | ast.AsyncFunctionDef) -> tuple[str, ...]:
    args = node.args
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    if args.vararg is not None:
        names.append(args.vararg.arg)
    if args.kwarg is not None:
        names.append(args.kwarg.arg)
    return tuple(names)


def _imported_modules(tree: ast.Module) -> frozenset[str]:
    """Project-internal modules imported anywhere in ``tree``."""
    found: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    found.add(alias.name)
        elif isinstance(node, ast.ImportFrom):
            if node.module and node.module.split(".")[0] == "repro":
                found.add(node.module)
    return frozenset(found)


def _collect_functions(
    module: ModuleInfo,
) -> tuple[list[FunctionInfo], list[ClassInfo]]:
    functions: list[FunctionInfo] = []
    classes: list[ClassInfo] = []

    def add_function(
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        cls_name: str | None,
        prefix: str,
    ) -> FunctionInfo:
        info = FunctionInfo(
            qualname=f"{module.display_path}::{prefix}{node.name}",
            name=node.name,
            module=module,
            node=node,
            cls_name=cls_name,
            params=_param_names(node),
            lineno=node.lineno,
        )
        functions.append(info)
        # Functions nested inside this one are plain functions (their
        # closure is the enclosing function), never methods of a class.
        visit(node.body, None, f"{prefix}{node.name}.")
        return info

    def add_class(node: ast.ClassDef, prefix: str) -> None:
        own: list[FunctionInfo] = []
        body_prefix = f"{prefix}{node.name}."
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                own.append(add_function(stmt, node.name, body_prefix))
            elif isinstance(stmt, ast.ClassDef):
                add_class(stmt, body_prefix)
            else:
                visit([stmt], node.name, body_prefix)
        classes.append(
            ClassInfo(
                name=node.name,
                module=module,
                node=node,
                methods=tuple(own),
                base_names=tuple(
                    base.id for base in node.bases if isinstance(base, ast.Name)
                ),
            )
        )

    def visit(
        stmts: Iterable[ast.AST], cls_name: str | None, prefix: str
    ) -> None:
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                add_function(stmt, cls_name, prefix)
            elif isinstance(stmt, ast.ClassDef):
                add_class(stmt, prefix)
            else:
                visit(ast.iter_child_nodes(stmt), cls_name, prefix)

    visit(module.tree.body, None, "")
    return functions, classes


def build_symbol_table(modules: Iterable[ModuleInfo]) -> SymbolTable:
    """Build the :class:`SymbolTable` over ``modules`` in one AST pass each."""
    module_list: Sequence[ModuleInfo] = tuple(modules)
    all_functions: list[FunctionInfo] = []
    all_classes: list[ClassInfo] = []
    import_graph: dict[str, frozenset[str]] = {}
    for module in module_list:
        functions, classes = _collect_functions(module)
        all_functions.extend(functions)
        all_classes.extend(classes)
        import_graph[module_dotted_name(module)] = _imported_modules(module.tree)

    by_name: dict[str, list[FunctionInfo]] = {}
    for fn in all_functions:
        by_name.setdefault(fn.name, []).append(fn)

    init_by_class: dict[str, FunctionInfo] = {}
    for cls in all_classes:
        for method in cls.methods:
            if method.name == "__init__":
                init_by_class[cls.name] = method
                break

    return SymbolTable(
        modules=tuple(module_list),
        functions=tuple(all_functions),
        classes=tuple(all_classes),
        by_name={name: tuple(fns) for name, fns in by_name.items()},
        init_by_class=init_by_class,
        import_graph=import_graph,
    )
