"""The README's library quick start runs as written, and its config example
is a valid config."""

import json
import re
from pathlib import Path

from eps_softmax.experiment import config_from_dict

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_block_runs_verbatim(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(block, str(README), "exec"), {})
    printed = capsys.readouterr().out.split()
    assert len(printed) >= 2  # the loss value and its gradient
    float(printed[0])


def test_config_file_example_is_a_valid_config():
    text = README.read_text(encoding="utf-8")
    section = text.split("### Config files", 1)[1]
    block = re.search(r"```json\n(.*?)```", section, re.DOTALL).group(1)
    raw = json.loads(block)
    assert "output_path" not in raw  # train takes --out; a config file holds no path
    config_from_dict(raw)  # raises ConfigError when the sections disagree
