"""The shared experiment command line: writes, gates and exit status."""

from __future__ import annotations

import json

from repro.experiments.runner import Study, cli, table


def _study(smoke: bool) -> Study:
    return Study(
        report="the report",
        doc={"smoke": smoke, "value": 3},
        bench="fake",
        tables={"fake_table": "row 1\nrow 2"},
        gates={"holds": True, "fake_floor": False},
    )


def test_failing_gate_exits_one_names_it_and_still_writes(tmp_path, capsys):
    rc = cli(_study, ["--smoke", "--outdir", str(tmp_path)])
    out = capsys.readouterr().out

    assert rc == 1
    assert "FAILED gate: fake_floor" in out
    # every gate is printed once, passing ones too
    assert out.count("gate holds: ok") == 1
    assert out.count("fake_floor") == 1
    assert out.startswith("the report\n")
    doc = tmp_path / "BENCH_fake.json"
    assert json.loads(doc.read_text()) == {"smoke": True, "value": 3}
    assert doc.read_text() == json.dumps({"smoke": True, "value": 3}, indent=1) + "\n"
    assert (tmp_path / "fake_table.txt").read_text() == "row 1\nrow 2\n"
    assert f"wrote {doc}" in out


def test_passing_study_exits_zero_and_forwards_options(tmp_path, capsys):
    seen = {}

    def study(smoke: bool, store=None) -> Study:
        seen.update(smoke=smoke, store=store)
        return Study(report="", gates={"holds": True})

    rc = cli(study, ["--outdir", str(tmp_path / "out"), "--store", "x"],
             store={"default": None})

    assert rc == 0
    assert seen == {"smoke": False, "store": "x"}
    # nothing to write: the output directory is not even created
    assert not (tmp_path / "out").exists()
    out = capsys.readouterr().out
    assert "FAILED" not in out
    assert "gate holds: ok" in out


def test_table_renders_markdown_with_title_and_notes():
    text = table("T: two rows", ("name", "ms"), [("a", "1.500"), ("b", 2)],
                 ["note one", "note two"])
    assert text == (
        "T: two rows\n\n"
        "| name | ms |\n"
        "|---|---|\n"
        "| a | 1.500 |\n"
        "| b | 2 |\n\n"
        "note one\n\n"
        "note two"
    )
    assert table("empty", ("x",), []) == "empty\n\n| x |\n|---|"
