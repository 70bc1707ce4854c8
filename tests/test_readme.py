"""README.md's library tour runs and gives the values its comments state."""

import ast
import math
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_tour(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text("utf-8"),
                        re.S)
    assert len(blocks) == 4
    # run the blocks in order in one namespace, keeping the value of each
    # expression statement, as an interactive session shows it
    ns: dict = {}
    values = []
    for block in blocks:
        for stmt in ast.parse(block).body:
            if isinstance(stmt, ast.Expr):
                code = compile(ast.Expression(stmt.value), "README.md", "eval")
                values.append(eval(code, ns))
            else:
                exec(compile(ast.Module([stmt], []), "README.md", "exec"), ns)
    assert capsys.readouterr().out == "x^4\n"
    printed, bound_m, congruence, v, h, value, error_bound = values
    assert printed is None
    assert (bound_m, congruence, v, h) == (1, "1 mod 1", 1, "x^2-2")
    assert value == 0.6931471805599453 == math.log(2)
    assert math.isclose(error_bound, 1.2e-06, rel_tol=0.05)
