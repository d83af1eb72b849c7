"""The README's Python examples run, and print what their comments say;
its CSV schemas are the headers the program writes.

Every ```python block of README.md runs in order, in one namespace, so a
later block may use a name an earlier one bound. Each line of the form
``print(expr)  # value`` must print ``value``.
"""

import contextlib
import io
import re
from pathlib import Path

from switchsim import cli
from switchsim.plant import EVENT_COLUMNS, TRACE_COLUMNS

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCK = re.compile(r"^```python\n(.*?)^```$", re.MULTILINE | re.DOTALL)
PRINTED = re.compile(r"^print\(.*\)\s+# (.*)$", re.MULTILINE)
SCHEMAS = re.compile(r"^## CSV schemas\n(.*?)^## ", re.MULTILINE | re.DOTALL)
SCHEMA = re.compile(r"^- (.*?): `([^`]*)`", re.MULTILINE)


def test_readme_python_blocks_print_their_comments():
    blocks = BLOCK.findall(README.read_text(encoding="utf-8"))
    assert blocks
    namespace: dict = {}
    expected, out = [], io.StringIO()
    for block in blocks:
        expected += [value.strip() for value in PRINTED.findall(block)]
        with contextlib.redirect_stdout(out):
            exec(compile(block, str(README), "exec"), namespace)
    assert expected
    assert out.getvalue().splitlines() == expected


def test_readme_csv_schemas_are_the_written_headers(capsys, tmp_path):
    section = SCHEMAS.search(README.read_text(encoding="utf-8")).group(1)
    documented = {
        label: [column.strip() for column in columns.split(",")]
        for label, columns in SCHEMA.findall(section)
    }
    per_trial = tmp_path / "per_trial.csv"
    runs = {
        "switching-time": ["--trials", "1", "--no-jitter", "--per-trial", str(per_trial)],
        "independence": [],
        "sweep": [],
        "optimize": ["--drive-teeth", "20", "--switch-teeth", "16", "--driven-teeth", "20"],
        "calibrate": [],
    }
    # Every subcommand that writes a table is run here; simulate writes the
    # trace and events files.
    assert set(runs) == set(cli._COMMANDS) - {"validate", "simulate"}
    written = {"trace": list(TRACE_COLUMNS), "events": list(EVENT_COLUMNS)}
    for command, flags in runs.items():
        assert cli.main([command, *flags]) == 0
        written[command] = capsys.readouterr().out.splitlines()[0].split(",")
    written["switching-time `--per-trial FILE`"] = per_trial.read_text().splitlines()[0].split(",")
    assert documented == written
