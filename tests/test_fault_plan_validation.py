"""A malformed fault plan fails with a named ConfigError, never a traceback.

Every field of a plan entry is checked with its JSON type kept: ``shard``
an integer >= 0 (not a bool, not a float), ``kind`` one of
``FAULT_KINDS``, ``attempt`` an integer >= 1 or null, ``seconds`` a
number > 0.  The error names the entry's index and the field, and
``smash ... --fault-plan`` turns it into one ``smash: error:`` line and
``ConfigError``'s exit status.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import EXIT_CODES, main
from repro.core.faults import FaultPlan, FaultSpec
from repro.errors import ConfigError
from repro.httplog.loader import write_jsonl
from repro.httplog.records import HttpRequest
from repro.httplog.trace import HttpTrace

GOOD = {"shard": 0, "kind": "crash_before_spill", "attempt": 1}

#: (entry, field the error must name); each entry follows one good entry,
#: so the error must name index 1.
BAD_ENTRIES = [
    ({"kind": "hang"}, "shard"),
    ({"shard": 0}, "kind"),
    ({"shard": "x", "kind": "hang"}, "shard"),
    ({"shard": True, "kind": "hang"}, "shard"),
    ({"shard": 0.7, "kind": "hang"}, "shard"),
    ({"shard": -1, "kind": "hang"}, "shard"),
    ({"shard": None, "kind": "hang"}, "shard"),
    ({"shard": 0, "kind": "meteor_strike"}, "kind"),
    ({"shard": 0, "kind": 3}, "kind"),
    ({"shard": 0, "kind": "hang", "attempt": 0}, "attempt"),
    ({"shard": 0, "kind": "hang", "attempt": 1.5}, "attempt"),
    ({"shard": 0, "kind": "hang", "attempt": "1"}, "attempt"),
    ({"shard": 0, "kind": "hang", "attempt": False}, "attempt"),
    ({"shard": 0, "kind": "hang", "seconds": "soon"}, "seconds"),
    ({"shard": 0, "kind": "hang", "seconds": 0}, "seconds"),
    ({"shard": 0, "kind": "hang", "seconds": -2.5}, "seconds"),
    ({"shard": 0, "kind": "hang", "seconds": True}, "seconds"),
    ({"shard": 0, "kind": "hang", "seconds": None}, "seconds"),
    ([0, "hang"], "JSON object"),
    ("hang", "JSON object"),
]


@pytest.mark.parametrize(
    "entry, field", BAD_ENTRIES, ids=[json.dumps(entry) for entry, _ in BAD_ENTRIES]
)
def test_bad_entry_names_index_and_field(entry, field, tmp_path):
    doc = {"faults": [GOOD, entry]}
    with pytest.raises(ConfigError, match=f"^fault plan entry 1: .*{field}"):
        FaultPlan.from_dict(doc)
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match=f"^fault plan entry 1: .*{field}"):
        FaultPlan.load(path)


@pytest.mark.parametrize("doc", [[], {"faults": {}}, {"faults": None}, {"plan": []}])
def test_bad_plan_shape(doc):
    with pytest.raises(ConfigError, match="fault plan must be"):
        FaultPlan.from_dict(doc)


def test_good_entries_keep_their_values():
    plan = FaultPlan.from_dict(
        {
            "faults": [
                GOOD,
                {"shard": 2, "kind": "hang", "attempt": None, "seconds": 9},
                {"shard": 1, "kind": "corrupt_source"},
            ]
        }
    )
    assert plan.faults == (
        FaultSpec(shard=0, kind="crash_before_spill", attempt=1),
        FaultSpec(shard=2, kind="hang", attempt=None, seconds=9.0),
        FaultSpec(shard=1, kind="corrupt_source"),
    )


def test_cli_reports_a_bad_plan_in_one_line(tmp_path, capsys):
    trace = HttpTrace(
        [HttpRequest(timestamp=0.0, client="c1", host="a.example", server_ip="9.9.9.9", uri="/")]
    )
    write_jsonl(trace, tmp_path / "trace.jsonl")
    plan = tmp_path / "bad_plan.json"
    plan.write_text(json.dumps({"faults": [{"shard": True, "kind": "hang"}]}))
    code = main(
        [
            "run",
            "--trace",
            str(tmp_path / "trace.jsonl"),
            "--shards",
            "2",
            "--fault-plan",
            str(plan),
            "--out",
            str(tmp_path / "campaigns.json"),
        ]
    )
    assert code == EXIT_CODES[ConfigError]
    err = capsys.readouterr().err
    assert "Traceback" not in err
    last = err.splitlines()[-1]
    assert last.startswith("smash: error: fault plan entry 0: fault shard"), last
