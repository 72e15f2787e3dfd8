"""README's Python examples run and print what their comments say, and
its command block, config block and catalog table are the program's own."""
import argparse
import contextlib
import io
import json
import re
from pathlib import Path

from kg_lab.cli import build_parser
from kg_lab.scenarios import SCENARIOS, default_config

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_examples_print_what_their_comments_say():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 2
    checked = 0
    for block in blocks:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(block, str(README), "exec"), {})
        printed = out.getvalue().splitlines()
        # One output line per print call; a '# 28.278...' comment gives its prefix.
        calls = [line for line in block.splitlines() if line.startswith("print(")]
        assert len(printed) == len(calls)
        for line, call in zip(printed, calls):
            comment = re.search(r"#\s*(\S+)\.\.\.$", call)
            if comment:
                assert line.startswith(comment.group(1)), (call, line)
                checked += 1
    assert checked == 3


def test_readme_config_block_is_the_packet_continuity_default():
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    assert json.loads(blocks[0]) == default_config("packet-continuity")


def test_readme_catalog_table_holds_the_scenario_blurbs():
    # One row per scenario, in catalog order; a cell may set code in backticks.
    rows = re.findall(r"^\| `([a-z-]+)` \| (.*) \|$", README.read_text(), re.M)
    assert [(name, blurb.replace("`", "")) for name, blurb in rows] == \
        [(name, scenario.blurb) for name, scenario in SCENARIOS.items()]


def test_readme_command_block_gives_each_subcommands_help():
    # Each subcommand's line, then its argparse help at the end of that line
    # or of the next.
    block, = re.findall(r"```text\n(.*?)```", README.read_text(), re.S)
    sub, = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for choice in sub._choices_actions:
        pattern = rf"^kg-lab {choice.dest}\b.*\s+{re.escape(choice.help)}$"
        assert re.search(pattern, block, re.M), choice.dest


def _keys(value):
    """Every key of a parsed JSON value, at any depth."""
    if isinstance(value, dict):
        return set(value).union(*(_keys(v) for v in value.values()))
    if isinstance(value, list):
        return set().union(*(_keys(v) for v in value))
    return set()


def test_readme_names_every_config_key_in_backticks():
    # Fenced blocks are dropped first, so that their fences cannot pair
    # with an inline backtick.
    prose = re.sub(r"```.*?```", "", README.read_text(), flags=re.S)
    quoted = set(re.findall(r"`([^`\n]+)`", prose))
    keys = set().union(*(_keys(default_config(name)) for name in SCENARIOS))
    assert sorted(keys - quoted) == []


def test_readme_key_list_names_only_config_keys():
    # Each bullet of "The keys:" opens with a key of some scenario's default
    # config, so that a removed key cannot linger there.
    section = README.read_text().split("The keys:\n\n", 1)[1].split("\n\n", 1)[0]
    bullets = re.findall(r"^- (.*)", section, re.M)
    keys = set().union(*(_keys(default_config(name)) for name in SCENARIOS))
    named = [re.match(r"`([^`]+)`", bullet) for bullet in bullets]
    assert len(bullets) > 1
    assert [b for b, key in zip(bullets, named) if not (key and key.group(1) in keys)] == []


def test_readme_state_sentence_names_only_the_catalogs_state_forms():
    # The sentence that lists the state forms names, outside its
    # parentheses, exactly the forms of the catalog defaults' state blocks,
    # so that a removed form cannot linger there.
    sentence, = re.findall(r"The `state` block takes the form of the scenario's default: (.*?)\.\s",
                           README.read_text(), re.S)
    named = set(re.findall(r"`([^`]+)`", re.sub(r"\(.*?\)", "", sentence, flags=re.S)))
    forms = set().union(*(default_config(name)["state"] for name in SCENARIOS))
    assert named == forms
