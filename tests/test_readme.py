"""README's command-line example, run line by line through the CLI."""

import pathlib
import re
import shlex

from ppovm.cli import main

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _command_lines() -> list[list[str]]:
    """The ``ppovm ...`` lines of the first shell block under "Command line",
    as argument lists without the program name and trailing comments."""
    section = README.read_text().split("\n## Command line\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.DOTALL).group(1)
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines() if line.startswith("ppovm ")]


def test_readme_command_block_runs(tmp_path, monkeypatch, capsys):
    lines = _command_lines()
    assert [argv[0] for argv in lines].count("discriminate") == 1
    monkeypatch.chdir(tmp_path)
    for argv in lines:
        assert main(argv) == 0, argv
        out = capsys.readouterr().out
        if argv[0] == "discriminate":
            assert argv[-2:] == ["--copies", "10"]
            assert "min_copies: 5" in out.splitlines()
