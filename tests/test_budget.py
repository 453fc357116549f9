"""The number of settable values in src/katoflow, and of config fields a
run accepts, may only fall: a new knob needs a visible bump here."""

import ast
from pathlib import Path

import katoflow
from katoflow import cli

# parameters with a default, **kwargs, and dataclass fields with a default
SETTABLE_VALUES = 52
# fields of the suite configs and of the space, potential and psi specs
CONFIG_FIELDS = 62


def _is_dataclass(node):
    """Whether a class is decorated by dataclass, called or not, by its name
    or as an attribute of its module."""
    for d in node.decorator_list:
        target = d.func if isinstance(d, ast.Call) else d
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def settable_values(root):
    count = 0
    for path in sorted(Path(root).glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                count += len(args.defaults) + (args.kwarg is not None)
                count += sum(d is not None for d in args.kw_defaults)
            elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
                count += sum(isinstance(s, ast.AnnAssign) and s.value is not None
                             for s in node.body)
    return count


def test_settable_values_within_budget():
    assert settable_values(Path(katoflow.__file__).parent) <= SETTABLE_VALUES


def config_fields():
    schemas = [schema for _suite, schema in cli.SUITES.values()]
    schemas += [schema for table in (cli._SPACES, cli._POTENTIALS, cli._PSIS)
                for _make, schema in table.values()]
    return sum(len(schema) for schema in schemas)


def test_config_fields_within_budget():
    assert config_fields() <= CONFIG_FIELDS


def test_settable_values_counts_each_kind(tmp_path):
    source = '''
from dataclasses import dataclass, field

def f(a, b=1, *args, c=2, d, **kw):
    return lambda x, y=3: x

@dataclass
class R:
    a: int
    b: int = 0
    c: list = field(default_factory=list)

class Plain:
    e: int = 0
'''
    (tmp_path / "m.py").write_text(source)
    # b, c, **kw, y, and the fields b and c; Plain is no dataclass
    assert settable_values(tmp_path) == 6
