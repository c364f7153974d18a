"""The README's library quick start runs and says what is true, and its
config key list is the CLI's."""

import re
from pathlib import Path

from advsynth import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start_blocks():
    """The Python blocks of the README section "Library quick start"."""
    text = README.read_text()
    section = re.split(r"\n##+ ", text.split("## Library quick start\n", 1)[1], 1)[0]
    return re.findall(r"```python\n(.*?)```", section, flags=re.S)


def test_quick_start_blocks_state_their_results():
    unicycle, gridworld = quick_start_blocks()
    # the unicycle: no safe input, so the difficulty is the scenario floor
    scope = {}
    exec(unicycle, scope)
    res = scope["res"]
    assert res.difficulty == -5.0 and res.difficulty == scope["scn"].floor
    assert res.in_gamma is True
    # the grid world: covering the goal, with a best action sequence of one step
    scope = {}
    exec(gridworld, scope)
    res = scope["res"]
    assert res.d_star == (7, 9)
    assert isinstance(res.inner_maximizer, tuple) and len(res.inner_maximizer) == 1


def test_config_key_list_is_the_cli_key_table():
    text = README.read_text()
    listed = re.search(r"Config keys \(scoped\s+per scenario\):(.*?)\.\n", text, flags=re.S)
    assert set(re.findall(r"`(\w+)`", listed.group(1))) == set(cli._KEYS) - {"scenario"}
