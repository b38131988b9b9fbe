"""The README's min-rate example prints what the README says it prints."""

import pathlib
import re

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
