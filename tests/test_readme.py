"""The README's library quick tour runs as written, and its command lines and
config parse."""

import json
import re
import shlex
from pathlib import Path

from equalshare import cli
from equalshare.config import parse_config

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quick_tour_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.DOTALL)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)


def test_readme_command_lines_parse():
    section = README.read_text().split("## Command line", 1)[1]
    block = re.search(r"```bash\n(.*?)```", section, flags=re.DOTALL).group(1)
    commands = [line for line in block.splitlines() if line.startswith("equalshare ")]
    assert len(commands) >= 10
    parser = cli.build_parser()
    for line in commands:
        parser.parse_args(shlex.split(line)[1:])  # exits 2 on an unrecognized argument


def test_readme_config_parses():
    block = re.search(r"```json\n(.*?)```", README.read_text(), flags=re.DOTALL).group(1)
    parse_config(json.loads(block))
