"""README's library example runs as written, and its CLI examples parse."""

import re
import shlex
from pathlib import Path

from swarmwatch.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(capsys):
    section = README.read_text().split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, f"{README.name} (Library example)", "exec"), {})
    # it prints the coupon estimate, the true size and the distinct cids
    n_hat, true_n, distinct = capsys.readouterr().out.split()
    assert float(n_hat) > 0 and int(true_n) == 65 and int(distinct) > 0


def test_cli_examples_parse():
    section = README.read_text().split("## CLI", 1)[1]
    block = re.search(r"```console\n(.*?)```", section, re.S).group(1)
    commands = re.findall(r"^\$ swarmwatch (.*)$", block.replace("\\\n", ""), re.M)
    parser = build_parser()
    verbs = {parser.parse_args(shlex.split(command)).subcommand for command in commands}
    # one example or more for every verb
    assert verbs == set(parser._subparsers._group_actions[0].choices)
