"""The README's library quickstart runs as printed, on exactly the names the package exports."""

import re
from pathlib import Path

import lpadapt


def test_quickstart_block_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    code = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    imported = re.search(r"from lpadapt import \((.*?)\)", code, re.S).group(1)
    # the README says the namespace holds exactly the names it imports, and __version__
    assert {name.strip() for name in imported.split(",") if name.strip()} == set(lpadapt.__all__) - {"__version__"}
    exec(compile(code, "README.md", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 19  # one line per grid point
