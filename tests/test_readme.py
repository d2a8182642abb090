"""The README's examples name only commands, options and config keys the
program has.

Every ``emgkin ...`` line in a bash block of the README is resolved against
the click command tree: the subcommand must exist, and every ``--option``
on the line must be one of that command's options. Every yaml block must
load as a pipeline config. Every name a python block imports from emgkin
must be an attribute of its module; the blocks are parsed, not run. The
checkpoint version the README names is ``io.CHECKPOINT_VERSION``, and the
meta.json keys its session layout names are ``io.META_KEYS``.
"""

import ast
import importlib
import re
import shlex
from pathlib import Path

import click
import yaml

from emgkin.cli import main
from emgkin.io import CHECKPOINT_VERSION, META_KEYS
from emgkin.config import config_from_dict

README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_commands() -> list[str]:
    blocks = re.findall(r"```bash\n(.*?)```", README.read_text(), flags=re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [line.strip() for line in lines if line.strip().startswith("emgkin ")]


def _problems(line: str) -> list[str]:
    tokens = shlex.split(line, comments=True)[1:]
    command, path = main, "emgkin"
    while isinstance(command, click.Group) and tokens and not tokens[0].startswith("-"):
        name = tokens.pop(0)
        if name not in command.commands:
            return [f"{path} has no subcommand {name!r}"]
        command, path = command.commands[name], f"{path} {name}"
    known = {"--help"}
    for param in command.params:
        known.update(param.opts + param.secondary_opts)
    return [
        f"{path} has no option {token.split('=', 1)[0]}"
        for token in tokens
        if token.startswith("--") and token.split("=", 1)[0] not in known
    ]


def test_readme_commands_resolve():
    commands = _readme_commands()
    assert commands, "README has no emgkin command in a bash block"
    problems = [f"{line}: {p}" for line in commands for p in _problems(line)]
    assert not problems, "\n".join(problems)


def test_readme_yaml_blocks_load_as_config():
    blocks = re.findall(r"```yaml\n(.*?)```", README.read_text(), flags=re.S)
    assert blocks, "README has no yaml block"
    for block in blocks:
        config_from_dict(yaml.safe_load(block))


def test_readme_python_imports_resolve():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    imports = [
        (node.module, alias.name)
        for block in blocks
        for node in ast.walk(ast.parse(block))
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "emgkin"
        for alias in node.names
    ]
    assert imports, "README has no emgkin import in a python block"
    missing = [
        f"{module}.{name}"
        for module, name in imports
        if not hasattr(importlib.import_module(module), name)
    ]
    assert not missing, f"README imports names that do not exist: {missing}"


def test_readme_names_the_checkpoint_version():
    versions = re.findall(r"The format\s+is\s+version\s+(\d+)", README.read_text())
    assert versions == [str(CHECKPOINT_VERSION)]


def test_readme_names_the_session_meta_keys():
    """The session-layout paragraph names exactly the keys ``load_session``
    requires, in the order ``save_session`` writes them."""
    paragraphs = re.findall(r"\*\*Session layout\.\*\*(.*?)\n\n", README.read_text(), flags=re.S)
    assert len(paragraphs) == 1, "README has no one Session layout paragraph"
    (keys,) = re.findall(r"meta\.json` holds the keys ([^.]*)\.", paragraphs[0])
    assert tuple(re.findall(r"`(\w+)`", keys)) == META_KEYS
