"""The demos import only names that rqf still has.

No test runs ``demos/`` (each takes seconds to minutes), so a deleted or
renamed public name would otherwise break a demo silently.  This reads
each demo's ``from rqf... import ...`` statements without running it.
"""

import ast
import importlib
import pathlib

import pytest

DEMOS = sorted((pathlib.Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def _rqf_imports(source: pathlib.Path):
    # (module, name) for every name a demo imports from rqf or a submodule
    for node in ast.walk(ast.parse(source.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "rqf":
            yield from ((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names if alias.name.split(".")[0] == "rqf")


def test_every_demo_is_checked():
    assert len(DEMOS) == 8
    assert all(list(_rqf_imports(demo)) for demo in DEMOS)


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.stem for demo in DEMOS])
def test_demo_imports_resolve(demo):
    missing = []
    for module, name in _rqf_imports(demo):
        try:
            owner = importlib.import_module(module)
        except ImportError:
            missing.append(module)
            continue
        if name is not None and not hasattr(owner, name):
            missing.append(f"{module}.{name}")
    assert not missing, f"{demo.name} imports names rqf does not have: {missing}"
