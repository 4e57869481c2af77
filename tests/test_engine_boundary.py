"""The runtime engine does not reach into the mixed-state reference API.

The commands compute every number from the pure-state core, and the
mixed-state functions are the oracle the other tests check it against.
These checks read the source with ast and import nothing, so a forbidden
name fails them even on a code path no other test runs.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "pathduality"

#: The mixed-state reference API: value types, measurements and the
#: eigensolving helpers behind them.
ORACLE_NAMES = {
    "DensityMatrix", "Ensemble", "Povm", "JointDistribution",
    "joint_distribution", "mutual_information", "pretty_good_measurement",
    "helstrom_povm_two", "particle_density", "detector_density",
    "eig_hermitian", "pinv_sqrt", "holevo_quantity", "l1_coherence",
    "von_neumann_entropy",
}


def parse(module):
    return ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))


def referenced_names(node):
    """Every name a node imports, reads or reaches as an attribute."""
    for child in ast.walk(node):
        if isinstance(child, ast.alias):
            yield child.name.rsplit(".", 1)[-1]
        elif isinstance(child, ast.Name):
            yield child.id
        elif isinstance(child, ast.Attribute):
            yield child.attr


def search_functions(tree, root="accessible_info_lower_bound"):
    """``root`` and every module-level function of ``tree`` it reaches."""
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    reached, pending = {}, [root]
    while pending:
        name = pending.pop()
        if name in reached:
            continue
        reached[name] = functions[name]
        pending.extend(n for n in referenced_names(functions[name]) if n in functions)
    return reached


@pytest.mark.parametrize("module", ["cli", "core"])
def test_runtime_modules_use_no_oracle_name(module):
    assert ORACLE_NAMES.isdisjoint(referenced_names(parse(module)))


def test_accessible_information_search_uses_no_oracle_name():
    functions = search_functions(parse("information"))
    assert {"_table_mi", "_helstrom_two_mi", "_ascend_rank_one_mi"} <= set(functions)
    for name, node in functions.items():
        assert ORACLE_NAMES.isdisjoint(referenced_names(node)), name
