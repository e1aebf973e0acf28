"""README against the code: the config-key table and the Python example."""

import contextlib
import io
import math
import re
from pathlib import Path

from qvint.cli import _DEFAULTS

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def config_table() -> dict[str, str]:
    """{key: default} from the README's config-key table; a row lists vector components and defaults in order."""
    table = README.split("| Key | Default | Accepts |", 1)[1].split("\n\n", 1)[0]
    out = {}
    for row in table.splitlines()[2:]:
        keys, defaults = [re.findall(r"`([^`]*)`", cell) for cell in row.split("|")[1:3]]
        assert len(keys) == len(defaults), row
        out.update(zip(keys, defaults))
    return out


def test_the_config_table_lists_every_key_with_its_default():
    table = config_table()
    assert set(table) == set(_DEFAULTS)
    for key, default in _DEFAULTS.items():
        if isinstance(default, str):
            assert table[key] == default, key
        else:
            assert float(table[key]) == default, key


def test_the_python_example_prints_a_finite_energy_error():
    (example,) = re.findall(r"```python\n(.*?)```", README, re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(example, "README.md", "exec"), {})
    assert math.isfinite(float(out.getvalue()))
