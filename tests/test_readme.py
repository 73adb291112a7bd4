"""The README's command examples that show output, run through the CLI."""

import re
import shlex
from pathlib import Path

import pytest

from agstab.cli import main
from agstab.cones import analyze, cyclic_cone
from test_cones import LARGE_SEARCHES

README = Path(__file__).resolve().parent.parent / "README.md"


def _examples():
    """(files the block writes with echo, argv, shown output) per `$ agstab` line followed by output."""
    examples = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S):
        files = {}
        lines = block.splitlines()
        for i, line in enumerate(lines):
            written = re.fullmatch(r"\$ echo '(.*)' > (\S+)", line)
            if written:
                files[written.group(2)] = written.group(1)
            if not line.startswith("$ agstab "):
                continue
            shown = []
            for out in lines[i + 1:]:
                if not out or out.startswith(("$", "#")):
                    break
                shown.append(out)
            if shown:
                examples.append((dict(files), shlex.split(line[2:])[1:], "\n".join(shown) + "\n"))
    return examples


EXAMPLES = _examples()


def test_the_examples_with_output_are_found():
    assert [" ".join(argv) for _, argv, _ in EXAMPLES] == [
        "betti --dataset matroidal --order 8 --format csv",
        "betti --dataset perfect --order 8 --paper-display --format csv",
        "molien s3.json --order 6",
    ]


@pytest.mark.parametrize("files, argv, shown", EXAMPLES, ids=[" ".join(e[1]) for e in EXAMPLES])
def test_readme_example_output(capsys, monkeypatch, tmp_path, files, argv, shown):
    for name, text in files.items():
        (tmp_path / name).write_text(text + "\n")
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    assert capsys.readouterr().out == shown


def test_the_cone_analyze_keys_are_documented():
    text = README.read_text()
    listed = text[text.index("`cone analyze` prints one JSON object with these keys:"):].split("\n\n")[1]
    keys = re.findall(r"^- `(\w+)`:", listed, re.M)
    assert keys == ["name", *analyze(cyclic_cone(3), order=0).to_json_dict()]


@pytest.mark.parametrize(
    ("quoted", "pinned"),
    (
        ("`(7,7b) ⊕ (7,7b) ⊕ (7,7b)` takes", "(7,7b)+(7,7b)+(7,7b)"),
        ("`M(K₇)` takes", "M(K_7)"),
        ("`K_4 ⊕ K_4 ⊕ K_4`", "K_4x3"),
        ("6 kites takes", "kitex6"),
    ),
)
def test_the_quoted_node_counts_are_the_pinned_ones(quoted, pinned):
    # the node counts the README quotes follow the pins of the large searches
    text = " ".join(README.read_text().split())
    count = re.match(r" (\d{1,3}(?:,\d{3})*)", text[text.index(quoted) + len(quoted):])
    assert int(count.group(1).replace(",", "")) == LARGE_SEARCHES[pinned][1]
