"""Core of the repro-lint static analysis framework.

The codebase carries several load-bearing invariants that exist only as
prose — the single-writer lock discipline of :mod:`repro.indexes.base`,
the engine lock ordering of :mod:`repro.core.engine`, the serve
layer's "never block the event loop" rule, and the mmap no-materialize
policy of the batch read path.  This package turns each contract into an
AST pass that runs over the source tree (``python -m repro.cli lint``)
and fails CI on any unwaived violation, so the contracts are enforced at
review time instead of discovered as flaky benchmarks.

Building blocks
---------------

* :class:`SourceModule` — one parsed file: path, dotted module name, AST,
  source lines and the waiver comments found in it.
* :class:`Project` — every module of one source tree plus the shared
  :class:`~repro.analysis.callgraph.CallGraph` (built lazily; only the
  materialize pass needs it).
* :class:`AnalysisConfig` — the repo-specific knobs of the passes (which
  classes are mutation entry points, which modules are event-loop code,
  where the batch read path starts, …).  Tests point the same passes at
  fixture trees by overriding these fields.
* :class:`Finding` — one structured violation: pass id, file, line,
  message, plus whether an inline waiver suppressed it.

Waivers
-------

A violation is suppressed by an inline comment on the flagged line or on
the line directly above it::

    data = np.asarray(chunk)  # repro-lint: allow[materialize] per-cell bounds, O(cells) not O(rows)

The pass id in brackets must match (several may be given, comma
separated) and the reason is **mandatory** — a waiver without a reason
does not suppress anything and is itself reported, so every exception to
a contract is documented where it happens.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "AnalysisConfig",
    "AnalysisError",
    "Finding",
    "Project",
    "SourceModule",
    "Waiver",
    "findings_report",
]


class AnalysisError(RuntimeError):
    """Raised when the analyzer itself cannot run (bad root, bad config).

    Deliberately distinct from findings: a misconfigured pass must fail
    the lint run loudly instead of passing vacuously.
    """


#: ``# repro-lint: allow[pass-id, other-id] reason`` anywhere in a line.
_WAIVER_RE = re.compile(
    r"#\s*repro-lint:\s*allow\[(?P<ids>[^\]]*)\]\s*(?P<reason>.*?)\s*$"
)


@dataclass(frozen=True)
class Waiver:
    """One parsed waiver comment."""

    line: int
    pass_ids: Tuple[str, ...]
    reason: str

    @property
    def valid(self) -> bool:
        """Waivers must carry a reason; bare permission is not documentation."""
        return bool(self.reason)

    def covers(self, pass_id: str) -> bool:
        return self.valid and pass_id in self.pass_ids


@dataclass(frozen=True)
class Finding:
    """One structured violation reported by a pass."""

    pass_id: str
    file: str
    line: int
    message: str
    symbol: str = ""
    waived: bool = False
    waiver_reason: str = ""

    def to_dict(self) -> Dict[str, object]:
        return {
            "pass": self.pass_id,
            "file": self.file,
            "line": self.line,
            "symbol": self.symbol,
            "message": self.message,
            "waived": self.waived,
            "waiver_reason": self.waiver_reason,
        }

    def render(self) -> str:
        tag = f"[{self.pass_id}]"
        suffix = f"  (waived: {self.waiver_reason})" if self.waived else ""
        where = f"{self.file}:{self.line}"
        sym = f" ({self.symbol})" if self.symbol else ""
        return f"{where}: {tag} {self.message}{sym}{suffix}"


class SourceModule:
    """One parsed source file of the analyzed tree."""

    def __init__(self, path: Path, name: str, source: str) -> None:
        self.path = path
        self.name = name
        self.source = source
        self.lines = source.splitlines()
        try:
            self.tree = ast.parse(source)
        except SyntaxError as exc:
            raise AnalysisError(f"cannot parse {path}: {exc}") from exc
        self.waivers: Dict[int, Waiver] = {}
        for lineno, text in enumerate(self.lines, start=1):
            match = _WAIVER_RE.search(text)
            if match is None:
                continue
            ids = tuple(
                part.strip() for part in match.group("ids").split(",") if part.strip()
            )
            self.waivers[lineno] = Waiver(
                line=lineno, pass_ids=ids, reason=match.group("reason").strip()
            )

    def waiver_for(self, pass_id: str, line: int) -> Optional[Waiver]:
        """The waiver covering ``pass_id`` at ``line``, if any.

        A waiver applies to its own line (trailing comment) and to the
        line directly below it (standalone comment above the statement).
        """
        for candidate_line in (line, line - 1):
            waiver = self.waivers.get(candidate_line)
            if waiver is not None and waiver.covers(pass_id):
                return waiver
        return None

    def invalid_waivers(self) -> List[Waiver]:
        """Waivers missing their mandatory reason."""
        return [waiver for waiver in self.waivers.values() if not waiver.valid]


@dataclass(frozen=True)
class AnalysisConfig:
    """Repo-specific knobs of the five passes.

    The defaults describe *this* repository; the fixture tests override
    individual fields to point the same pass implementations at seeded
    violation trees.  When a future PR introduces a new invariant, extend
    the matching field (or add a pass) — see DESIGN.md §12.
    """

    #: Public mutation entry points per class: each must take the write
    #: lock first or delegate to another entry point / ``*_locked`` helper.
    mutation_methods: Dict[str, Tuple[str, ...]] = field(
        default_factory=lambda: {
            "MultidimensionalIndex": ("delete_rows",),
            "COAXIndex": (
                "insert",
                "insert_batch",
                "delete",
                "delete_batch",
                "delete_rows",
                "delete_where",
                "update_batch",
                "compact",
                "apply_refresh",
            ),
            "ShardedCOAX": (
                "insert",
                "insert_batch",
                "delete",
                "delete_batch",
                "delete_rows",
                "delete_where",
                "update_batch",
                "compact",
                "shutdown",
            ),
            "LayoutMonitor": (
                "observe",
                "note_adopted",
                "reset",
                "load_state",
            ),
        }
    )
    #: Classes whose ``self._write_lock`` is the *engine* (outermost) lock.
    engine_classes: Tuple[str, ...] = ("ShardedCOAX",)
    #: Module prefixes whose ``async def`` bodies must never block.
    async_module_prefixes: Tuple[str, ...] = ("repro.serve",)
    #: Engine entry points that are blocking NumPy work — banned on the
    #: event loop unless handed to ``run_in_executor``/``to_thread``.
    engine_entry_points: Tuple[str, ...] = (
        "range_query",
        "batch_range_query",
        "batch_range_query_attributed",
        "batch_range_query_flat",
        "batch_scatter_flat",
        "point_query",
        "query",
        "count",
        "insert",
        "insert_batch",
        "delete",
        "delete_batch",
        "delete_where",
        "delete_rows",
        "update_batch",
        "compact",
    )
    #: Where the mmap-sensitive batch read path starts: the call-graph
    #: walk of the materialize pass begins at these ``module:qualname``
    #: roots.  A root that no longer resolves is itself a finding, so the
    #: list can never silently rot on a rename.
    materialize_entry_points: Tuple[str, ...] = (
        "repro.core.coax:COAXIndex.batch_range_query",
        "repro.core.coax:COAXIndex.batch_scatter_flat",
        "repro.core.coax:COAXIndex.batch_scatter_aggregate",
        "repro.core.delta:DeltaStore.fold_aggregate_batch",
        "repro.core.engine:ShardedCOAX.batch_range_query",
        "repro.core.engine:ShardedCOAX.batch_range_query_attributed",
        "repro.core.engine:ShardedCOAX.batch_aggregate_partial",
        "repro.core.engine:ShardedCOAX.batch_aggregate_attributed",
        "repro.indexes.base:MultidimensionalIndex.batch_aggregate_partial",
        "repro.indexes.grid_file:SortedCellGridIndex.batch_range_query_flat",
        "repro.indexes.grid_file:SortedCellGridIndex.batch_aggregate_from_bounds",
        "repro.io.persistence:_read_columnar",
        "repro.io.persistence:_restore_grid",
        "repro.io.persistence:_restore_structured_index",
    )
    #: Write-side functions the read-path walk must not enter: compaction
    #: rebuilds and save-path snapshots materialize *by design*, and
    #: holding them to the read path's no-materialize rule would be a
    #: category error.  The walk neither checks nor descends into these.
    materialize_stop_functions: Tuple[str, ...] = (
        "repro.core.coax:COAXIndex.compact",
        "repro.core.coax:COAXIndex._build_reclaimed",
        "repro.core.delta:DeltaStore.state",
        "repro.io.persistence:_index_payload",
    )
    #: ``np.asarray`` is flagged only when its argument mentions one of
    #: these column-source markers (whole-column dataflow); bare id-array
    #: coercions are routine and stay legal.
    column_source_markers: Tuple[str, ...] = (
        "_columns",
        "column",
        "columns",
        "memmap",
        "arrays",
    )
    #: Module prefixes whose *public* entry points may raise only the
    #: typed repro error hierarchy (plus the allowed builtins below).
    raise_policy_prefixes: Tuple[str, ...] = ("repro.serve", "repro.core.engine")
    #: Builtin exception types that are documented API semantics.
    allowed_builtin_raises: Tuple[str, ...] = (
        "ValueError",
        "KeyError",
        "TypeError",
        "NotImplementedError",
        "ConnectionError",
        "StopAsyncIteration",
    )

    def with_overrides(self, **overrides) -> "AnalysisConfig":
        """A copy with the given fields replaced (fixture-test helper)."""
        return replace(self, **overrides)


class Project:
    """Every parsed module of one source tree plus shared analyses."""

    def __init__(
        self,
        modules: Sequence[SourceModule],
        config: Optional[AnalysisConfig] = None,
    ) -> None:
        self.modules = list(modules)
        self.config = config if config is not None else AnalysisConfig()
        self.by_name: Dict[str, SourceModule] = {
            module.name: module for module in self.modules
        }
        self._call_graph = None

    @classmethod
    def load(
        cls,
        root: Path,
        *,
        package: Optional[str] = None,
        config: Optional[AnalysisConfig] = None,
    ) -> "Project":
        """Parse every ``*.py`` under ``root`` (a package directory).

        Module names are dotted paths rooted at ``package`` (default: the
        directory's own name), so ``<root>/core/engine.py`` becomes
        ``repro.core.engine`` when ``root`` ends in ``repro``.
        """
        root = Path(root)
        if not root.is_dir():
            raise AnalysisError(f"analysis root {root} is not a directory")
        package = package if package is not None else root.name
        modules = []
        for path in sorted(root.rglob("*.py")):
            relative = path.relative_to(root).with_suffix("")
            parts = [package, *relative.parts]
            if parts[-1] == "__init__":
                parts = parts[:-1]
            modules.append(
                SourceModule(path, ".".join(parts), path.read_text(encoding="utf-8"))
            )
        if not modules:
            raise AnalysisError(f"no python modules under {root}")
        return cls(modules, config=config)

    @property
    def call_graph(self):
        """The lazily built project call graph (see :mod:`.callgraph`)."""
        if self._call_graph is None:
            from repro.analysis.callgraph import CallGraph

            self._call_graph = CallGraph.build(self)
        return self._call_graph

    def run(self, passes: Optional[Sequence] = None) -> List[Finding]:
        """Run the given passes (default: all registered) over the tree.

        Waiver resolution happens here, centrally: passes yield raw
        findings and the project marks each waived/unwaived against the
        module's inline comments.  Waivers missing their mandatory reason
        are reported as findings of the ``waiver`` pseudo-pass.
        """
        if passes is None:
            from repro.analysis.passes import ALL_PASSES

            passes = ALL_PASSES
        findings: List[Finding] = []
        for lint_pass in passes:
            for finding in lint_pass.run(self):
                module = self.by_name.get(finding.file)
                if module is None:
                    findings.append(finding)
                    continue
                waiver = module.waiver_for(finding.pass_id, finding.line)
                findings.append(
                    replace(
                        finding,
                        file=str(module.path),
                        waived=waiver is not None,
                        waiver_reason=waiver.reason if waiver else "",
                    )
                )
        for module in self.modules:
            for waiver in module.invalid_waivers():
                findings.append(
                    Finding(
                        pass_id="waiver",
                        file=str(module.path),
                        line=waiver.line,
                        message=(
                            "waiver without a reason suppresses nothing: write "
                            "'# repro-lint: allow[<pass-id>] <reason>'"
                        ),
                    )
                )
        return sorted(findings, key=lambda f: (f.file, f.line, f.pass_id))


def findings_report(findings: Iterable[Finding], passes: Sequence) -> Dict[str, object]:
    """The structured JSON report the CI gate uploads as an artifact."""
    findings = list(findings)
    unwaived = [finding for finding in findings if not finding.waived]
    return {
        "tool": "repro-lint",
        "passes": [
            {"id": lint_pass.id, "description": lint_pass.description}
            for lint_pass in passes
        ],
        "counts": {
            "findings": len(findings),
            "unwaived": len(unwaived),
            "waived": len(findings) - len(unwaived),
        },
        "findings": [finding.to_dict() for finding in findings],
    }


def write_report(report: Dict[str, object], path: Path) -> Path:
    """Write the JSON report; returns the path written."""
    path = Path(path)
    path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return path
