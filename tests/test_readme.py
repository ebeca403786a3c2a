"""The README's Python examples run as written, and its configs validate."""

import json
import re
from pathlib import Path

import mfgtiming as m

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run_in_order():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert len(blocks) >= 2
    namespace: dict = {}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i + 1}", "exec"), namespace)
    assert namespace["spot"].evaluate_layer is not None


def test_readme_json_configs_validate():
    blocks = re.findall(r"^```json\n(.*?)^```", README.read_text(), re.S | re.M)
    assert blocks
    for block in blocks:
        m.validate_config(json.loads(block))
