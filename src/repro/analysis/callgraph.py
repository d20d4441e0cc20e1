"""Project-wide call graph for the call-graph-aware passes.

The graph is deliberately an *over-approximation*: Python has no static
types here, so an attribute call ``x.scan_batch(...)`` resolves to every
function named ``scan_batch`` anywhere in the analyzed tree, and a bare
``helper(...)`` resolves through the module's imports and falls back to a
unique global name match.  Over-approximating keeps the reachability walk
sound for the policy passes — a function that *might* run on the batch
read path is held to the read path's rules; the waiver syntax absorbs the
occasional function that is provably off-path.

Two resolutions are intentionally skipped:

* calls through an imported *external* module alias (``np.concatenate``,
  ``shutil.rmtree``) — the walk never leaves the analyzed tree;
* dunder/builtin method names (``append``, ``get``, ``items``, …) that
  do not name any function in the tree resolve to nothing.

Nested functions and lambdas are folded into their enclosing function:
``run_shard`` defined inside the engine's ``_scatter_batch`` executes as
part of that batch call, so its call edges (and its banned tokens, for
the materialize pass) belong to the parent.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.core import Project, SourceModule

__all__ = ["CallGraph", "FunctionInfo"]


@dataclass
class FunctionInfo:
    """One top-level function or method of the analyzed tree."""

    module: SourceModule
    #: ``Class.method`` or plain ``function`` within the module.
    qualname: str
    node: ast.AST
    #: Simple (unqualified) name, the key attribute calls resolve by.
    name: str = ""
    #: Resolved callees, filled in by :meth:`CallGraph.build`.
    callees: Set[str] = field(default_factory=set)

    @property
    def key(self) -> str:
        """Graph-wide id: ``module:qualname``."""
        return f"{self.module.name}:{self.qualname}"


def _imported_bindings(tree: ast.Module) -> Tuple[Dict[str, str], Set[str]]:
    """(name -> defining module) for ``from X import name``; module aliases.

    The alias set holds names bound to whole modules (``import numpy as
    np`` binds ``np``); attribute calls through them are external and the
    resolver skips them.
    """
    from_imports: Dict[str, str] = {}
    module_aliases: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                module_aliases.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                from_imports[alias.asname or alias.name] = node.module
    return from_imports, module_aliases


def iter_own_statements(node: ast.AST) -> Iterator[ast.AST]:
    """Walk a function's body *without* descending into nested defs.

    Nested function/lambda bodies still belong to the enclosing function
    for call-graph purposes, so callers that want them use
    :func:`iter_with_nested` instead; the event-loop pass uses this
    variant because a nested def does not run on the loop by virtue of
    being defined there.
    """
    body = node.body if isinstance(node.body, list) else [node.body]
    stack = list(body)
    while stack:
        current = stack.pop()
        yield current
        if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(current))


def iter_with_nested(node: ast.AST) -> Iterator[ast.AST]:
    """Walk a function's body including nested defs and lambdas."""
    body = node.body if isinstance(node.body, list) else [node.body]
    for statement in body:
        yield from ast.walk(statement)


class CallGraph:
    """Name-resolved call edges over every function of a project."""

    def __init__(self, functions: Dict[str, FunctionInfo]) -> None:
        self.functions = functions
        self.by_simple_name: Dict[str, List[FunctionInfo]] = {}
        for info in functions.values():
            self.by_simple_name.setdefault(info.name, []).append(info)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, project: Project) -> "CallGraph":
        functions: Dict[str, FunctionInfo] = {}
        for module in project.modules:
            for info in cls._collect_functions(module):
                functions[info.key] = info
        graph = cls(functions)
        for info in functions.values():
            from_imports, module_aliases = _imported_bindings(info.module.tree)
            for call in (
                node
                for node in iter_with_nested(info.node)
                if isinstance(node, ast.Call)
            ):
                graph._resolve_call(info, call, from_imports, module_aliases)
        return graph

    @staticmethod
    def _collect_functions(module: SourceModule) -> Iterator[FunctionInfo]:
        for node in module.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield FunctionInfo(module, node.name, node, name=node.name)
            elif isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        yield FunctionInfo(
                            module,
                            f"{node.name}.{member.name}",
                            member,
                            name=member.name,
                        )

    def _resolve_call(
        self,
        caller: FunctionInfo,
        call: ast.Call,
        from_imports: Dict[str, str],
        module_aliases: Set[str],
    ) -> None:
        func = call.func
        if isinstance(func, ast.Name):
            target = self._resolve_name(caller.module, func.id, from_imports)
            if target is not None:
                caller.callees.add(target.key)
        elif isinstance(func, ast.Attribute):
            receiver = func.value
            if isinstance(receiver, ast.Name) and receiver.id in module_aliases:
                return  # external module call (np.*, shutil.*, ...)
            for target in self.by_simple_name.get(func.attr, ()):
                caller.callees.add(target.key)

    def _resolve_name(
        self, module: SourceModule, name: str, from_imports: Dict[str, str]
    ) -> Optional[FunctionInfo]:
        local = self.functions.get(f"{module.name}:{name}")
        if local is not None:
            return local
        source = from_imports.get(name)
        if source is not None:
            imported = self.functions.get(f"{source}:{name}")
            if imported is not None:
                return imported
        # Unique global match (lazy imports inside function bodies bind
        # names the import scan above attributes to the defining module).
        candidates = [
            info for info in self.by_simple_name.get(name, ()) if "." not in info.qualname
        ]
        if len(candidates) == 1:
            return candidates[0]
        return None

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def resolve(self, key: str) -> Optional[FunctionInfo]:
        """Function info for a ``module:qualname`` key."""
        return self.functions.get(key)

    def reachable_from(
        self, roots: Sequence[str], *, stop: Sequence[str] = ()
    ) -> Set[str]:
        """Keys of every function reachable from the given root keys.

        ``stop`` functions are neither visited nor descended into — the
        materialize pass uses this to keep write-side maintenance (which
        materializes by design) out of the read-path walk.
        """
        stop_set = set(stop)
        seen: Set[str] = set()
        stack = [root for root in roots if root in self.functions and root not in stop_set]
        while stack:
            key = stack.pop()
            if key in seen:
                continue
            seen.add(key)
            stack.extend(self.functions[key].callees - seen - stop_set)
        return seen
