"""README's Python examples run and print what their comments say."""
import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_examples_print_what_their_comments_say():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 2
    checked = 0
    for block in blocks:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(block, str(README), "exec"), {})
        printed = out.getvalue().splitlines()
        # One output line per print call; a '# 28.278...' comment gives its prefix.
        calls = [line for line in block.splitlines() if line.startswith("print(")]
        assert len(printed) == len(calls)
        for line, call in zip(printed, calls):
            comment = re.search(r"#\s*(\S+)\.\.\.$", call)
            if comment:
                assert line.startswith(comment.group(1)), (call, line)
                checked += 1
    assert checked == 3
