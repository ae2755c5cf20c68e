"""The README's command-line examples, run as written.

Every `$ netspread ...` line in a sh block of README.md runs through
cli.main in one temporary directory, in README order (the `test`
example reads the snapshot the `simulate` example writes). A
`$ cat FILE` line before it writes the lines that follow it to FILE.
Text and CSV output must match the README byte for byte; JSON output
must match after json.loads, because the README compacts it.
"""

import json
import re
import shlex
from pathlib import Path

from netspread.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_sessions():
    """(command, input files, expected stdout) for each `$ netspread` example."""
    sessions = []
    for block in re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.M | re.S):
        lines = block.splitlines()
        files = {}
        i = 0
        while i < len(lines):
            if not lines[i].startswith("$ "):
                i += 1
                continue
            command = lines[i][2:]
            while command.endswith("\\"):
                i += 1
                command = command[:-1] + lines[i]
            i += 1
            start = i
            while i < len(lines) and not lines[i].startswith("$ "):
                i += 1
            body = "".join(line + "\n" for line in lines[start:i])
            argv = shlex.split(command)
            if argv[0] == "cat":
                files[argv[1]] = body
            elif argv[0] == "netspread":
                sessions.append((argv[1:], dict(files), body))
    return sessions


def test_readme_cli_examples(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("NETSPREAD_THREADS", raising=False)
    sessions = readme_sessions()
    commands = [argv[0] for argv, _, _ in sessions]
    assert commands == [
        "simulate", "test", "check-aut", "baseline", "risk", "risk", "experiment"
    ]
    for argv, files, expected in sessions:
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        code = main(argv)
        out, err = capsys.readouterr()
        assert (code, err) == (0, ""), argv
        if expected.startswith("{"):
            assert json.loads(out) == json.loads(expected), argv
        else:
            assert out == expected, argv
