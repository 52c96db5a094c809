"""The README's library example runs as written against the public import list."""

import ast
import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs_as_written():
    text = README.read_text(encoding="utf-8")
    library = text[text.index("\n## Library\n") :]
    code = re.search(r"```python\n(.*?)```", library, re.DOTALL).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {"__name__": "readme_example"})
    first, second = out.getvalue().splitlines()
    # L3(6) is symmetric for every metric, so the report has eigenvalues and a count
    assert not first.startswith("None")
    eigenvalues = ast.literal_eval(second)
    assert len(eigenvalues) == 7  # H(7): the dimension of the algebra
    assert len({round(v, 9) for v in eigenvalues}) == 4  # as the example's comment says
