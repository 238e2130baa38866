"""The README's code examples run against the current API."""

import re
import shlex
from pathlib import Path

import pytest

from gupbell import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def section(heading: str) -> str:
    """The text under a ``## heading`` of the README, up to the next one."""
    return README.read_text().split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]


def python_block(heading: str) -> str:
    """The first ```python block under a ``## heading`` of the README."""
    return re.search(r"```python\n(.*?)```", section(heading), re.S).group(1)


def command_lines() -> list:
    """The ``gupbell ...`` lines of the Command line block, each split into
    its arguments and the artifact names its comment lists."""
    block = re.search(r"```sh\n(.*?)```", section("Command line"), re.S).group(1)
    lines = []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        argv = shlex.split(command)
        assert argv[0] == "gupbell"
        lines.append((argv[1:], re.findall(r"[\w.]+\.(?:csv|svg|json)", comment)))
    return lines


def test_library_quick_start_runs():
    exec(compile(python_block("Library quick start"), str(README), "exec"), {})


COMMAND_LINES = command_lines()


@pytest.mark.filterwarnings("ignore:.*no longer small")
@pytest.mark.parametrize("argv, artifacts", COMMAND_LINES,
                         ids=[argv[0] for argv, _ in COMMAND_LINES])
def test_command_line_block_runs(tmp_path, capsys, argv, artifacts):
    assert artifacts
    out = argv.index("--out") + 1
    argv = argv[:out] + [str(tmp_path)] + argv[out + 1:]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.startswith(f"{argv[0]} S=")
    for name in artifacts:
        assert (tmp_path / name).is_file(), name
