"""Pass ``lock-discipline``: the single-writer contract, statically.

Two rules, both from the concurrency contract documented in
:mod:`repro.indexes.base` and :mod:`repro.core.engine`:

1. **Entry points lock first.**  Every public mutation method of the
   configured classes (``AnalysisConfig.mutation_methods``) must acquire
   the write lock as its first effectful statement — ``with
   self._write_lock:`` wrapping the body — or delegate to another
   mutation entry point / a ``*_locked`` helper in that first statement.
   Docstrings, ``del`` of ignored parameters and ``assert`` statements
   are not effectful and may precede the acquisition.

2. **Lock order is engine → shard → stats.**  Lock acquisitions nest
   only downward: the engine write lock (level 0) may be held while
   taking a shard's write lock (level 1), which may be held while taking
   a stats leaf lock (level 2) — never the other way around, and
   never two *different* same-level locks nested (a second shard's lock
   inside the first is an ordering deadlock between concurrent
   mutators).  Re-entering the same lock expression is legal: the write
   locks are reentrant by design.  Functions named ``*_locked`` are
   analyzed as if the engine lock were already held, which is exactly
   their calling convention.  Additionally, a call to another mutation
   entry point (or ``*_locked`` helper) while holding a leaf lock is
   flagged: the callee will try to take a write lock above the held
   leaf.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Tuple

from repro.analysis.core import Finding, Project, SourceModule

__all__ = ["LockDisciplinePass"]

PASS_ID = "lock-discipline"

#: Ordering levels: engine write lock < shard write lock < leaf locks.
ENGINE, SHARD, LEAF = 0, 1, 2


def _is_effectless(statement: ast.stmt) -> bool:
    """Statements allowed before the lock acquisition."""
    if isinstance(statement, ast.Expr) and isinstance(statement.value, ast.Constant):
        return True  # docstring
    return isinstance(statement, (ast.Delete, ast.Assert, ast.Pass))


def _lock_level(
    expr: ast.expr, class_name: str, engine_classes: Tuple[str, ...]
) -> Optional[Tuple[int, str]]:
    """(level, canonical text) when ``expr`` is a lock acquisition."""
    text = ast.unparse(expr)
    if "stats_lock" in text:
        return LEAF, text
    if "_maintenance_guard" in text:
        # The engine's read guard: the engine write lock (or a no-op).
        return ENGINE, "self._write_lock"
    if "write_lock" in text:
        on_self = text.startswith("self.")
        if on_self and class_name in engine_classes:
            return ENGINE, text
        if on_self:
            return SHARD, text
        return SHARD, text
    return None


class LockDisciplinePass:
    id = PASS_ID
    description = (
        "mutation entry points take the write lock first; lock nesting "
        "respects engine -> shard -> stats order"
    )

    def run(self, project: Project) -> Iterator[Finding]:
        for module in project.modules:
            yield from self._check_module(module, project)

    # ------------------------------------------------------------------
    # Rule 1: entry points lock first
    # ------------------------------------------------------------------
    def _check_module(self, module: SourceModule, project: Project) -> Iterator[Finding]:
        config = project.config
        for node in module.tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            expected = config.mutation_methods.get(node.name)
            class_methods = {
                member.name: member
                for member in node.body
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            if expected:
                for method_name in expected:
                    method = class_methods.get(method_name)
                    if method is None:
                        continue  # inherited: checked on the defining class
                    yield from self._check_entry_point(
                        module, node.name, method, expected
                    )
            for member in class_methods.values():
                yield from self._check_ordering(module, node.name, member, config)

    def _check_entry_point(
        self,
        module: SourceModule,
        class_name: str,
        method: ast.FunctionDef,
        mutation_set: Tuple[str, ...],
    ) -> Iterator[Finding]:
        first = next(
            (stmt for stmt in method.body if not _is_effectless(stmt)), None
        )
        qualname = f"{class_name}.{method.name}"
        if first is None:
            return
        if isinstance(first, ast.With) and any(
            "write_lock" in ast.unparse(item.context_expr) for item in first.items
        ):
            return
        if self._delegates(first, mutation_set):
            return
        yield Finding(
            pass_id=PASS_ID,
            file=module.name,
            line=first.lineno,
            symbol=qualname,
            message=(
                f"mutation entry point {qualname} must acquire the write lock "
                "as its first effectful statement (with self._write_lock:) or "
                "delegate to another entry point / a *_locked helper"
            ),
        )

    @staticmethod
    def _delegates(statement: ast.stmt, mutation_set: Tuple[str, ...]) -> bool:
        """Does the statement call ``self.<entry point>`` / ``self.*_locked``?"""
        for node in ast.walk(statement):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            receiver = node.func.value
            if not (isinstance(receiver, ast.Name) and receiver.id == "self"):
                continue
            if node.func.attr in mutation_set or node.func.attr.endswith("_locked"):
                return True
        return False

    # ------------------------------------------------------------------
    # Rule 2: nesting order
    # ------------------------------------------------------------------
    def _check_ordering(
        self,
        module: SourceModule,
        class_name: str,
        method: ast.FunctionDef,
        config,
    ) -> Iterator[Finding]:
        held: List[Tuple[int, str]] = []
        if method.name.endswith("_locked"):
            held.append((ENGINE, "self._write_lock"))
        qualname = f"{class_name}.{method.name}"
        mutation_set = config.mutation_methods.get(class_name, ())

        def visit(statements, held: List[Tuple[int, str]]) -> Iterator[Finding]:
            for statement in statements:
                if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    # Nested defs run at call time under the *caller's*
                    # locks; analyze their bodies with the current stack —
                    # in this codebase they are shard-scatter closures
                    # invoked inside the method itself.
                    yield from visit(statement.body, list(held))
                    continue
                if isinstance(statement, (ast.With, ast.AsyncWith)):
                    inner = list(held)
                    for item in statement.items:
                        level = _lock_level(
                            item.context_expr, class_name, config.engine_classes
                        )
                        if level is None:
                            continue
                        yield from self._check_acquire(
                            module, qualname, statement.lineno, level, inner
                        )
                        inner.append(level)
                    yield from visit(statement.body, inner)
                    continue
                if held and held[-1][0] == LEAF:
                    for node in ast.walk(statement):
                        if (
                            isinstance(node, ast.Call)
                            and isinstance(node.func, ast.Attribute)
                            and isinstance(node.func.value, ast.Name)
                            and node.func.value.id == "self"
                            and (
                                node.func.attr in mutation_set
                                or node.func.attr.endswith("_locked")
                            )
                        ):
                            yield Finding(
                                pass_id=PASS_ID,
                                file=module.name,
                                line=node.lineno,
                                symbol=qualname,
                                message=(
                                    f"self.{node.func.attr}() acquires a write lock "
                                    "but is called while a stats leaf lock is "
                                    "held — lock order is engine -> shard -> stats"
                                ),
                            )
                children = []
                for field_name, value in ast.iter_fields(statement):
                    del field_name
                    if isinstance(value, list) and value and isinstance(value[0], ast.stmt):
                        children.append(value)
                for block in children:
                    yield from visit(block, list(held))

        yield from visit(method.body, held)

    @staticmethod
    def _check_acquire(
        module: SourceModule,
        qualname: str,
        line: int,
        acquired: Tuple[int, str],
        held: List[Tuple[int, str]],
    ) -> Iterator[Finding]:
        level, text = acquired
        for held_level, held_text in held:
            if held_text == text:
                continue  # reentrant re-acquisition of the same lock
            if level < held_level or (level == held_level and level != ENGINE):
                yield Finding(
                    pass_id=PASS_ID,
                    file=module.name,
                    line=line,
                    symbol=qualname,
                    message=(
                        f"lock order inversion: acquiring {text!r} while holding "
                        f"{held_text!r} — the required order is engine write_lock "
                        "-> shard write_lock -> stats lock"
                    ),
                )
