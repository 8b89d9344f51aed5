"""The top level of dsexact is the API that README lists, and nothing else;
README's flag table is the flags each command takes."""

import ast
import importlib.util
import inspect
import itertools
import re
from pathlib import Path

import dsexact
from dsexact import cli, errors

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
LEAD = "The top level of `dsexact` exports exactly these names"
# Names that left the top level; the tests import each from its module.
MOVED = {"step", "poisson_v", "make_field", "Profile", "make_profile",
         "jacobi_sn_cn_dn", "PROFILE_KINDS", "write_json_report"}


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


def test_each_moved_name_is_in_a_submodule():
    # A name deleted from the package does not linger in MOVED.
    modules = [value for value in vars(dsexact).values()
               if inspect.ismodule(value)]
    for name in MOVED:
        assert any(hasattr(module, name) for module in modules), name


def test_the_error_classes_are_the_readme_list():
    # An error class is documented: its name in README's errors bullet and
    # its exit code one of README's exit codes.
    bullet = next(line for line in README.splitlines()
                  if line.startswith("- errors: "))
    classes = {name: value for name, value in vars(errors).items()
               if isinstance(value, type) and issubclass(value, Exception)
               and value.__module__ == errors.__name__}
    assert set(classes) == set(re.findall(r"`(\w+)`", bullet))
    sentence = README[README.index("Exit codes:"):].partition(".")[0]
    codes = {int(code) for code in re.findall(r"\b(\d+)\s", sentence)}
    assert codes == {0, 1, 2, 3, 4}
    assert {value.exit_code for value in classes.values()} <= codes


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
    assert {"ellipk", "eval_solution", "compose"} <= imported
    for name in imported - readme_names():
        assert importlib.util.find_spec(f"dsexact.{name}") is not None, name


def test_readme_flag_table_is_the_command_flags():
    # README's table under "Command line": a header row of command columns,
    # then one row a flag, with "—" where a command does not read it.
    lines = itertools.dropwhile(lambda line: not line.startswith("| flag |"),
                                README.splitlines())
    rows = [[cell.strip() for cell in line.strip("|").split("|")]
            for line in itertools.takewhile(lambda line: line.startswith("|"),
                                            lines)]
    columns = [re.findall(r"`(\w+)`", cell) for cell in rows[0][1:]]
    table = {command: set() for commands in columns for command in commands}
    for row in rows[2:]:
        flag = re.match(r"`--(\w+)", row[0])[1]
        for commands, cell in zip(columns, row[1:], strict=True):
            if cell != "—":
                for command in commands:
                    table[command].add(flag)
    assert table == {name: set(flags) for name, (_, _, flags)
                     in cli._COMMANDS.items() if flags is not None}
