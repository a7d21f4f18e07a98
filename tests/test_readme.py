"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    section = README.read_text().split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_example_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the example keeps its state in ./state
    namespace = {}
    try:
        exec(compile(library_example(), "README.md", "exec"), namespace)
    finally:
        if "agent" in namespace:
            namespace["agent"].client.close()
        if "server" in namespace:
            namespace["server"].stop()
        if "stack" in namespace:
            namespace["stack"].close()
    assert namespace["session"].authenticated
    assert (tmp_path / "state" / "vault.log").is_file()
