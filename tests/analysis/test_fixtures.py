"""The analyzer proves itself: every seeded violation is caught, exactly.

The fixture modules under ``fixtures/`` mark each line expected to
produce an UNWAIVED finding with a trailing ``# EXPECT[<pass-id>]``
comment.  The tests below parse those markers and assert the analyzer's
unwaived finding set matches them *exactly* — same pass id, same file,
same line, nothing extra — and that every ``repro-lint: allow`` waiver
with a reason suppresses its finding (reported as waived), while a
reasonless waiver suppresses nothing and is itself reported.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.analysis import AnalysisConfig, Project
from repro.analysis.passes import ALL_PASSES

FIXTURES = Path(__file__).parent / "fixtures"

_EXPECT_RE = re.compile(r"#\s*EXPECT\[([a-z-]+)\]")

#: The same pass implementations, pointed at the fixture tree.
FIXTURE_CONFIG = AnalysisConfig().with_overrides(
    mutation_methods={
        "BadEngine": (
            "insert",
            "insert_batch",
            "waived_insert",
        )
    },
    engine_classes=("BadEngine",),
    async_module_prefixes=("fixtures.serve_bad",),
    materialize_entry_points=(
        "fixtures.readpath_bad:batch_range_query",
        "fixtures.readpath_bad:batch_aggregate",
        "fixtures.readpath_bad:gone",
    ),
    materialize_stop_functions=("fixtures.readpath_bad:stopper",),
    raise_policy_prefixes=("fixtures.errors_bad",),
)


@pytest.fixture(scope="module")
def findings():
    project = Project.load(FIXTURES, package="fixtures", config=FIXTURE_CONFIG)
    return project.run(ALL_PASSES)


def _expected_markers():
    expected = set()
    for path in sorted(FIXTURES.glob("*.py")):
        for lineno, line in enumerate(path.read_text().splitlines(), start=1):
            for pass_id in _EXPECT_RE.findall(line):
                expected.add((str(path), lineno, pass_id))
    return expected


def _line_of(path: Path, needle: str) -> int:
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        if needle in line:
            return lineno
    raise AssertionError(f"{needle!r} not found in {path}")


def test_unwaived_findings_match_expect_markers_exactly(findings):
    expected = _expected_markers()
    # Findings without an inline marker: the unresolvable entry point is
    # reported against line 1 of its module, and the reasonless waiver is
    # reported by the 'waiver' pseudo-pass at the comment's own line.
    readpath = FIXTURES / "readpath_bad.py"
    errors = FIXTURES / "errors_bad.py"
    expected.add((str(readpath), 1, "materialize"))
    reasonless_line = next(
        lineno
        for lineno, line in enumerate(errors.read_text().splitlines(), start=1)
        if line.strip() == "# repro-lint: allow[typed-errors]"
    )
    expected.add((str(errors), reasonless_line, "waiver"))
    actual = {
        (finding.file, finding.line, finding.pass_id)
        for finding in findings
        if not finding.waived
    }
    assert actual == expected


def test_every_pass_catches_something(findings):
    triggered = {finding.pass_id for finding in findings}
    assert {p.id for p in ALL_PASSES} <= triggered


def test_unresolvable_entry_point_is_reported(findings):
    rot = [
        finding
        for finding in findings
        if finding.pass_id == "materialize"
        and "does not resolve" in finding.message
    ]
    assert len(rot) == 1
    assert rot[0].symbol == "fixtures.readpath_bad:gone"


def test_reasoned_waivers_suppress_and_carry_their_reason(findings):
    engine = FIXTURES / "engine_bad.py"
    serve = FIXTURES / "serve_bad.py"
    readpath = FIXTURES / "readpath_bad.py"
    errors = FIXTURES / "errors_bad.py"
    waiver_note = "proves a reasoned waiver suppresses the finding"
    expected_waived = {
        # Standalone comment above the flagged statement.
        (str(engine), _line_of(engine, waiver_note) + 1, "lock-discipline"),
        # Trailing comments on the flagged line itself.
        (str(serve), _line_of(serve, waiver_note), "event-loop"),
        (str(readpath), _line_of(readpath, waiver_note), "materialize"),
        # Standalone comment above the except clause.
        (str(errors), _line_of(errors, waiver_note) + 1, "typed-errors"),
    }
    waived = {
        (finding.file, finding.line, finding.pass_id)
        for finding in findings
        if finding.waived
    }
    assert waived == expected_waived
    for finding in findings:
        if finding.waived:
            assert finding.waiver_reason


def test_stop_function_and_unreachable_code_are_not_checked(findings):
    readpath = str(FIXTURES / "readpath_bad.py")
    flagged_symbols = {
        finding.symbol
        for finding in findings
        if finding.file == readpath and finding.pass_id == "materialize"
    }
    assert "stopper" not in flagged_symbols
    assert "off_path" not in flagged_symbols


def test_waiver_for_wrong_pass_does_not_suppress():
    source = (
        "import numpy as np\n"
        "def batch_range_query(columns):\n"
        "    return np.ascontiguousarray(columns['x'])"
        "  # repro-lint: allow[event-loop] wrong pass id\n"
    )
    from repro.analysis.core import SourceModule

    module = SourceModule(Path("inline.py"), "fx.inline", source)
    project = Project(
        [module],
        config=AnalysisConfig().with_overrides(
            materialize_entry_points=("fx.inline:batch_range_query",),
            materialize_stop_functions=(),
        ),
    )
    results = project.run(ALL_PASSES)
    materialize = [f for f in results if f.pass_id == "materialize"]
    assert len(materialize) == 1
    assert not materialize[0].waived
