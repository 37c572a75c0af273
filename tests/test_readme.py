"""The README's examples run as written and print what it says they print."""

import re
import shlex
from pathlib import Path

from congestlab import cli
from congestlab.cli import run_cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(section: str, lang: str) -> str:
    """The first `lang` code block after the heading `## section`."""
    body = README.split(f"\n## {section}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", body, re.S).group(1)


def _cli_examples():
    """Each `congestlab ...` line of the CLI section with the summary the
    `# ...` line below it gives, up to any " (" remark; None without one."""
    lines = _block("CLI", "sh").splitlines()
    for line, below in zip(lines, lines[1:] + [""]):
        if line.startswith("congestlab "):
            said = below[2:].split(" (")[0] if below.startswith("# ") else None
            yield shlex.split(line)[1:], said


def test_readme_library_example_runs():
    exec(compile(_block("Library example", "python"), "README.md", "exec"), {})


def test_readme_cli_examples_print_their_summaries(tmp_path, monkeypatch, capsys):
    # one directory for all, since `verify` reads the report `decompose` wrote
    monkeypatch.chdir(tmp_path)
    examples = list(_cli_examples())
    assert len(examples) == 6 and sum(said is not None for _, said in examples) == 3
    for argv, said in examples:
        assert run_cli(argv) == 0, argv
        printed = capsys.readouterr().out.strip()
        if said is not None:
            assert printed == said, argv


def test_readme_lists_every_mode_in_order():
    sentence = README.split("\nModes: ", 1)[1].split(".\n", 1)[0]
    assert re.findall(r"`(\w+)`", sentence) == list(cli.MODES)
