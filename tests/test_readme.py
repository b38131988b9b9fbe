"""The README's library and CLI examples run and print what the README says they print."""

import pathlib
import re
import shlex

import numpy as np

from lincoder.cli import main

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_min_rate_example_output(tmp_path, capsys):
    text = README.read_text()
    config = re.search(r"cat > minrate\.json <<'EOF'\n(.*?)\nEOF\n", text, re.S).group(1)
    expected = re.search(r"^# -> (\S+)", text, re.M).group(1)
    path = tmp_path / "minrate.json"
    path.write_text(config)
    assert main(["min-rate", "--config", str(path)]) == 0
    assert capsys.readouterr().out == expected + "\n"


def test_library_quickstart_runs(capsys):
    block = re.search(
        r"^## Library quickstart\n.*?```python\n(.*?)```", README.read_text(), re.S | re.M
    ).group(1)
    namespace = {}
    exec(block, namespace)
    rate_bits, ceiling_bits = map(float, capsys.readouterr().out.split())
    assert rate_bits > 0.0
    assert abs(ceiling_bits - 1.0) <= 1e-12  # the README says 1.0 bit for this preset
    recorded = namespace["data"].states[0, 1]
    assert np.max(np.abs(namespace["endpoint"] - recorded)) <= 1e-12


def _walkthrough():
    """Steps of the README CLI block: ("file", name, text), ("python", code)
    and ("lincoder", argv, keys), keys being the key=value names in the
    comment lines after the command, without parenthesized remarks."""
    block = re.search(r"^## CLI\n.*?```bash\n(.*?)```", README.read_text(), re.S | re.M).group(1)
    lines = block.splitlines()
    steps = []
    while lines:
        line = lines.pop(0)
        if heredoc := re.fullmatch(r"cat > (\S+) <<'EOF'", line):
            body = []
            while (row := lines.pop(0)) != "EOF":
                body.append(row)
            steps.append(("file", heredoc.group(1), "\n".join(body) + "\n"))
        elif line.startswith("python3 -c "):
            steps.append(("python", shlex.split(line)[2]))
        elif line.startswith("lincoder "):
            notes = []
            while lines and lines[0].startswith("#"):
                notes.append(lines.pop(0))
            remarks = re.sub(r"\(.*?\)", "", " ".join(notes), flags=re.S)
            steps.append(("lincoder", shlex.split(line)[1:], set(re.findall(r"(\w+)=", remarks))))
    return steps


def test_cli_walkthrough_runs_and_prints_the_documented_keys(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = []
    for kind, *step in _walkthrough():
        if kind == "file":
            (tmp_path / step[0]).write_text(step[1])
        elif kind == "python":
            exec(step[0], {})
        else:
            argv, keys = step
            assert main(argv) == 0, argv
            printed = set(re.findall(r"(\w+)=", capsys.readouterr().out))
            assert printed == keys, argv
            commands.append(argv[0])
    assert commands == ["rdf-curve", "min-rate", "sample", "emulate"]
    assert (tmp_path / "family.json").exists()
    for name in ("curve.csv", "train.csv", "emulated.csv"):
        assert (tmp_path / name).stat().st_size > 0


def test_package_layout_names_every_module():
    block = re.search(
        r"^## Package layout\n.*?```\n(.*?)```", README.read_text(), re.S | re.M
    ).group(1)
    listed = re.findall(r"^  (\S+\.py) ", block, re.M)
    modules = {path.name for path in (README.parent / "src" / "lincoder").glob("*.py")}
    assert sorted(listed) == sorted(modules)
