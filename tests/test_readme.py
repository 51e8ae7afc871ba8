"""The README's library-usage example runs and prints what its comments
say, and the README states the CLI's caps and the Python floor as the
code and pyproject.toml have them."""

import contextlib
import io
import re
from pathlib import Path

from kostka_forge import cli

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def _python_block():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", text, re.DOTALL)
    assert len(blocks) == 1, "expected one python block in README.md"
    return blocks[0]


def _expected_lines(block):
    """Each print's comment: inline after the call, or the comment line
    that follows it."""
    lines = block.splitlines()
    expected = []
    for k, line in enumerate(lines):
        if not line.startswith("print("):
            continue
        inline = re.match(r"print\(.*\)\s+# (.*)$", line)
        if inline:
            expected.append(inline.group(1))
        else:
            following = lines[k + 1]
            assert following.startswith("# "), f"no output comment for {line!r}"
            expected.append(following[2:])
    return expected


def test_readme_example_prints_its_comments():
    block = _python_block()
    expected = _expected_lines(block)
    assert expected
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected


def _text():
    """README.md with each run of whitespace as one space."""
    return " ".join(README.read_text(encoding="utf-8").split())


def _caps_by_n(phrase):
    """{n: cap} from "24 for n = 1 or 2, 16 for n = 3, ... and 5 for n = 7 or 8"."""
    caps = {}
    for cap, *ns in re.findall(r"(\d+) for n = (\d+)(?: or (\d+))?", phrase):
        caps.update((int(n), int(cap)) for n in ns if n)
    return caps


def _verify_table():
    """{suite: {n: --maxdeg cap}} from the table whose header is
    | suite | n = 1 | 2 | ... |."""
    rows = iter(README.read_text(encoding="utf-8").splitlines())
    for line in rows:
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if cells[:2] == ["suite", "n = 1"]:
            ns = [1] + [int(c) for c in cells[2:]]
            break
    next(rows)  # the |---| rule
    table = {}
    for line in rows:
        if not line.strip().startswith("|"):
            return table
        suite, *caps = [c.strip() for c in line.strip().strip("|").split("|")]
        table[suite] = dict(zip(ns, map(int, caps)))
    return table


def test_readme_states_the_cli_caps():
    text = _text()
    kostka = re.search(r"`kostka` takes `--degree` up to (\d+) and `--n` up to (\d+);", text)
    assert (int(kostka[1]), int(kostka[2])) == (cli._MAX_KOSTKA_DEGREE, cli._MAX_KOSTKA_N)

    expand = re.search(r"`expand` takes `--n` up to (\d+), and a λ of weight \|λ\| up to (.*?);", text)
    assert int(expand[1]) == max(cli._MAX_EXPAND_WEIGHT)
    assert _caps_by_n(expand[2]) == cli._MAX_EXPAND_WEIGHT

    table = re.search(r"`table` takes `--n` up to (\d+), and `--maxdeg` up to (.*?);", text)
    assert int(table[1]) == max(cli._MAX_TABLE_DEGREE)
    assert _caps_by_n(table[2]) == cli._MAX_TABLE_DEGREE

    verify = re.search(r"`verify` takes `--n` up to (\d+),", text)
    hecke = re.search(
        r"`hecke-relations` takes `--maxdeg` up to (\d+) for every n, and `--trials` up to (.*?) for n = 1 to (\d+)\.",
        text,
    )
    trials = [int(x.replace(" ", "")) for x in hecke[2].replace(" and ", ", ").split(", ")]
    assert dict(enumerate(trials, 1)) == cli._MAX_HECKE_TRIALS
    assert int(verify[1]) == int(hecke[3]) == max(cli._MAX_HECKE_TRIALS)
    caps = {"hecke-relations": dict.fromkeys(cli._MAX_HECKE_TRIALS, int(hecke[1])), **_verify_table()}
    assert caps == cli._MAX_VERIFY_DEGREE


def test_readme_states_the_python_floor_of_pyproject():
    floor = re.search(r'^requires-python = ">=([\d.]+)"$', (ROOT / "pyproject.toml").read_text(), re.M)
    assert re.search(r"Requires Python ≥ ([\d.]+\d)", _text())[1] == floor[1]
