"""The README's examples run as written."""

import contextlib
import io
import re
from pathlib import Path

from ksbcfd.cli import parse_config

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def fenced(language):
    """The README's code blocks in ``language``, in order, each with the
    heading of the section it stands in."""
    blocks, heading = [], None
    for match in re.finditer(r"^(#+ [^\n]*)$|^```(\w*)\n(.*?)^```$", README, flags=re.M | re.S):
        if match[1]:
            heading = match[1]
        elif match[2] == language:
            blocks.append((heading, match[3]))
    return blocks


def test_library_quick_start_prints_the_norms_in_its_comment():
    # the printed error norms agree with the comment's to two significant digits
    (code,) = [code for heading, code in fenced("python") if heading == "## Library quick start"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    number = r"[-+]?\d\.\d+e[-+]?\d+"
    printed = [float(v) for v in re.findall(number, out.getvalue())]
    commented = [float(v) for v in re.findall(number, code.split("print(error_norms")[1])]
    assert len(printed) == len(commented) == 3
    assert [float(f"{v:.1e}") for v in printed] == commented


def test_json_configurations_parse():
    configs = [parse_config(code) for _, code in fenced("json")]
    assert [(c.problem, c.mode) for c in configs] == [("mms_accuracy", "convergence"),
                                                       ("blowup_corner", "run")]
