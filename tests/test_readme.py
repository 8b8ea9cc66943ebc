"""README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(capsys):
    section = README.read_text().split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, f"{README.name} (Library example)", "exec"), {})
    # it prints the coupon estimate, the true size and the distinct cids
    n_hat, true_n, distinct = capsys.readouterr().out.split()
    assert float(n_hat) > 0 and int(true_n) == 65 and int(distinct) > 0
