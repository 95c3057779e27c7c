"""The README's library example runs, and its value comments hold."""

import ast
import io
import re
import tokenize
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def python_block():
    (block,) = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    return block


def value_comments(source):
    """{line number: the value} for each trailing comment that states one: an
    int, which a parenthesized remark may follow, or a repr, which names a
    call or is True or False."""
    found = {}
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            text = tok.string[1:].strip()
            if number := re.fullmatch(r"(-?\d+)(?: \([^()]*\))?", text):
                found[tok.start[0]] = int(number[1])
            elif re.fullmatch(r"True|False|[A-Za-z_]\w*\(.*\)", text):
                found[tok.start[0]] = text
    return found


def test_readme_example_runs_and_its_values_hold():
    source = python_block()
    comments = value_comments(source)
    namespace = {}
    checked = []
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.Expr):
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
            if not isinstance(stmt, ast.Assign):
                continue
            value = namespace[stmt.targets[0].id]
        if stmt.end_lineno in comments:
            want = comments[stmt.end_lineno]
            assert (value if isinstance(want, int) else repr(value)) == want, ast.unparse(stmt)
            checked.append(stmt.end_lineno)
    # Every value comment sits on a statement's last line, and was checked.
    assert sorted(checked) == sorted(comments)
    assert len(checked) >= 5
