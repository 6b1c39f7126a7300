"""Every fabflow name the benchmark in perfbench/ relies on exists.

perfbench/ runs outside the tier-1 suite, so a deletion that breaks it would
otherwise pass here.  Its sources are read with ast, never imported: each
name a `from fabflow... import` statement binds, each attribute chain
reached from a fabflow module it imported (`cli.netflow.max_flow`), and
each (module, function) pair in spans.TRACED.
"""
import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _resolve(dotted: str):
    """The object a dotted fabflow name denotes; AttributeError or
    ImportError when it does not exist."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for part in parts[cut:]:
            obj = getattr(obj, part)
        return obj
    raise ImportError(dotted)


def _chain(node) -> list[str] | None:
    """['cli', 'netflow', 'max_flow'] for `cli.netflow.max_flow`, None
    unless the chain starts at a plain name."""
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return [node.id, *reversed(names)]


def used_names() -> set[str]:
    used = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = {}  # local name -> the fabflow module it is bound to
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname and alias.name.split(".")[0] == "fabflow":
                        modules[alias.asname] = alias.name
                    elif alias.name.split(".")[0] == "fabflow":
                        modules["fabflow"] = "fabflow"  # `import fabflow.cli` binds fabflow
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "fabflow":
                for alias in node.names:
                    dotted = f"{node.module}.{alias.name}"
                    used.add(dotted)
                    try:
                        importlib.import_module(dotted)
                    except ModuleNotFoundError:
                        continue
                    modules[alias.asname or alias.name] = dotted
        for node in ast.walk(tree):
            chain = _chain(node) if isinstance(node, ast.Attribute) else None
            if chain and chain[0] in modules:
                used.add(".".join([modules[chain[0]], *chain[1:]]))
    spans = ast.parse((PERFBENCH / "spans.py").read_text(encoding="utf-8"))
    (traced,) = [
        node.value
        for node in spans.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TRACED"]
    ]
    used |= {f"fabflow.{mod}.{fn}" for mod, fn in ast.literal_eval(traced)}
    return used


USED = sorted(used_names())


def test_the_contract_covers_the_benchmark_entry_points():
    for name in (
        "fabflow.cli.main",
        "fabflow.scenario.load_fixture",
        "fabflow.scenario.resolve_scenario_raw",
        "fabflow.scenario.scenario_from_dict",
        "fabflow.scenario.scenario_digest",
        "fabflow.scenario.emit_report",
        "fabflow.cli.netflow.max_flow",
    ):
        assert name in USED, name


@pytest.mark.parametrize("dotted", USED)
def test_benchmark_name_exists(dotted):
    _resolve(dotted)
