"""The README's CLI examples run as written, with the exit codes it states."""

import re
import shlex
from pathlib import Path

import agverify
from agverify import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands():
    """Each ``agverify`` line of the README's ``sh`` blocks, as its arguments
    and the exit code its ``# exit N`` comment states, or None."""
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.M | re.S)
    for line in "\n".join(blocks).splitlines():
        command, _, comment = line.partition("#")
        if command.startswith("agverify "):
            stated = re.match(r"\s*exit (\d+)", comment)
            yield shlex.split(command)[1:], stated and int(stated[1])


def test_readme_commands(tmp_path, monkeypatch, capsys):
    corpus = sorted(str(p) for p in agverify.corpus_dir().glob("*.ag"))
    # Files the examples write, such as both.ag, land in tmp_path.
    monkeypatch.chdir(tmp_path)
    commands = list(readme_commands())
    assert len(commands) >= 9 and any(stated is not None for _, stated in commands)
    for args, stated in commands:
        argv = [a for arg in args for a in (corpus if arg == "$CORPUS/*.ag" else [arg])]
        code = cli.main(argv)
        capsys.readouterr()
        assert code in ((0, 1) if stated is None else (stated,)), args
