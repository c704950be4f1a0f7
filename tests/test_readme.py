"""The README's example model and config, run as written through `cli.main`."""

import contextlib
import io
import json
import os
import re

from cybundle import cli

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def _example(command: str) -> dict:
    """The first fenced JSON block under the README heading of `command`."""
    with open(README, encoding="utf-8") as f:
        text = f.read()
    section = re.search(rf"^### `cybundle {command} .*?(?=^#|\Z)", text, re.MULTILINE | re.DOTALL)
    assert section, command
    block = re.search(r"^```json\n(.*?)^```", section.group(0), re.MULTILINE | re.DOTALL)
    assert block, command
    return json.loads(block.group(1))


def _run(tmp_path, command: str) -> tuple:
    """(exit code, stdout, stderr) of `cybundle COMMAND EXAMPLE` in this process."""
    path = tmp_path / f"{command}.json"
    path.write_text(json.dumps(_example(command)))
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main([command, str(path)])
    return code, stdout.getvalue(), stderr.getvalue()


def test_check_example_passes(tmp_path):
    code, out, _ = _run(tmp_path, "check")
    assert code == 0 and json.loads(out)["overall"] is True


def test_search_example_emits_what_it_counts(tmp_path):
    # the summary closes stdout after the records and is repeated on stderr
    code, out, err = _run(tmp_path, "search")
    *records, summary = out.splitlines()
    assert code == 0 and summary.startswith("# ") and json.loads(summary[2:]) == json.loads(err)
    assert json.loads(err)["emitted"] == len(records) > 0
    assert all("params" in json.loads(line) for line in records)
