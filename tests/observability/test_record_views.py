"""Stored run records re-render exactly what the CLI printed.

``records/`` holds records written by an earlier build, each next to
the text it printed: ``trace --steps 5 --record``, ``audit --steps 5
--record`` and ``faults blackout --steps 5 --record`` (their stdout),
plus the same blackout run traced through a 26-event ring buffer
(``blackout_capacity26``: the three views, truncation banners included,
as the live-tracer renderers printed them).  The records of the three
CLI runs predate the record's ``trace`` section.
"""

from pathlib import Path

import pytest

from repro.observability import (
    calibration_report,
    decision_timeline,
    fault_timeline,
    load_record,
    occupancy_gantt,
)

RECORDS = Path(__file__).parent / "records"

#: Fixture -> the views its text holds, by section title.
VIEWS = {
    "trace_steps5": {
        "Decision timeline": decision_timeline,
        "Occupancy (sim vs in-transit)": occupancy_gantt,
    },
    "audit_steps5": {"Calibration": calibration_report},
    "faults_blackout_steps5": {"Fault/recovery timeline": fault_timeline},
    "blackout_capacity26": {
        "Decision timeline": decision_timeline,
        "Occupancy (sim vs in-transit)": occupancy_gantt,
        "Fault/recovery timeline": fault_timeline,
    },
}


def _sections(text):
    """Section title -> body, for the ``## Title ####`` headed text."""
    sections = {}
    for block in ("\n" + text).split("\n## ")[1:]:
        header, _, body = block.partition("\n")
        sections[header.rstrip("#").strip()] = body
    return sections


@pytest.mark.parametrize(
    "fixture,title",
    [(fixture, title) for fixture, views in VIEWS.items() for title in views],
)
def test_record_renders_the_printed_section(fixture, title):
    record = load_record(RECORDS / f"{fixture}.json")
    printed = _sections((RECORDS / f"{fixture}.txt").read_text())[title]
    rendered = VIEWS[fixture][title](record)
    # The section is the rendered text, then a blank line or the end.
    assert (printed + "\n").startswith(rendered + "\n\n")


def test_parent_records_have_no_trace_section():
    for fixture in ("trace_steps5", "audit_steps5", "faults_blackout_steps5"):
        assert "trace" not in load_record(RECORDS / f"{fixture}.json")


def test_truncated_record_banners_every_view():
    record = load_record(RECORDS / "blackout_capacity26.json")
    assert record["trace"] == {"capacity": 26, "dropped": 20}
    for render in VIEWS["blackout_capacity26"].values():
        assert render(record).startswith(
            "!! trace truncated: ring buffer (capacity 26) evicted 20 "
            "older events; showing the newest 26"
        )
