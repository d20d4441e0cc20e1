"""The repro-lint pass registry.

Each pass is a plain object with ``id``, ``description`` and
``run(project) -> Iterator[Finding]``; registering it here is all it
takes to put it on the CLI and CI gate (see DESIGN.md §12 for the
recipe).
"""

from repro.analysis.passes.event_loop import EventLoopPass
from repro.analysis.passes.lock_discipline import LockDisciplinePass
from repro.analysis.passes.materialize import MaterializePass
from repro.analysis.passes.typed_errors import TypedErrorsPass

__all__ = [
    "ALL_PASSES",
    "EventLoopPass",
    "LockDisciplinePass",
    "MaterializePass",
    "TypedErrorsPass",
]

ALL_PASSES = (
    LockDisciplinePass(),
    EventLoopPass(),
    MaterializePass(),
    TypedErrorsPass(),
)
