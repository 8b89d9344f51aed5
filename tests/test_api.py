"""The top level of dsexact is the API that README lists, and nothing else."""

import ast
import importlib.util
import inspect
import itertools
import re
from pathlib import Path

import dsexact

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
LEAD = "The top level of `dsexact` exports exactly these names"
# Names that left the top level; the tests import each from its module.
MOVED = {"step", "poisson_v", "make_field", "Profile", "make_profile",
         "jacobi_sn_cn_dn", "PROFILE_KINDS", "apply_t1", "apply_t2",
         "write_json_report", "ORDERS"}


def readme_names():
    """The backticked names of the bullet list that follows LEAD."""
    lines = itertools.dropwhile(lambda line: not line.startswith(LEAD),
                                README.splitlines())
    bullets = itertools.dropwhile(lambda line: not line.startswith("- "),
                                  lines)
    return {name for line in itertools.takewhile(
                lambda line: line.startswith("- "), bullets)
            for name in re.findall(r"`(\w+)`", line)}


def public_names():
    return {name for name, value in vars(dsexact).items()
            if not name.startswith("_") and not inspect.ismodule(value)}


def test_the_top_level_is_the_readme_list():
    assert public_names() == readme_names()
    assert public_names().isdisjoint(MOVED)


def test_the_list_covers_the_documented_imports():
    # What the benchmark's workloads, the record tool and README's example
    # import from dsexact: each a listed name or a submodule.
    sources = [(ROOT / path).read_text(encoding="utf-8")
               for path in ("bench/workloads.py", "tests/record.py")]
    sources += re.findall(r"```python\n(.*?)```", README, re.S)
    imported = {alias.name for source in sources
                for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.ImportFrom) and node.module == "dsexact"
                for alias in node.names}
    assert {"ellipk", "verify", "eval_solution", "compose"} <= imported
    for name in imported - readme_names():
        assert importlib.util.find_spec(f"dsexact.{name}") is not None, name
