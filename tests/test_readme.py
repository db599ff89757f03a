"""The README's library quick start runs as written, its loss kind table lists
the fields each kind keeps, and its config example is a valid config."""

import json
import re
from pathlib import Path

from eps_softmax.experiment import config_from_dict
from eps_softmax.losses import LOSS_KINDS, LossSpec

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


def test_loss_kind_table_lists_the_fields_each_kind_keeps():
    text = README.read_text(encoding="utf-8")
    table = text.split("Loss kinds and the fields they read", 1)[1].split("\n\n", 2)[1]
    listed = {}
    for row in table.splitlines()[2:]:
        kind, fields = row.split("|")[1:3]
        listed[kind.strip().strip("`")] = set(re.findall(r"`(\w+)`", fields))
    off_default = dict(m=3.0, alpha=0.25, beta=2.5, gamma=1.5, q=0.3, A=-2.0)
    kept = {
        kind: {name for name, value in off_default.items()
               if getattr(LossSpec(kind, **off_default), name) == value}
        for kind in LOSS_KINDS
    }
    assert listed == kept
