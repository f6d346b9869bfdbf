"""Every tolerance has one home: the leaf module qslbounds.tolerances."""
import ast
from pathlib import Path

import qslbounds

PACKAGE = Path(qslbounds.__file__).parent
SUFFIXES = ("_TOL", "_ATOL", "_RTOL", "_FLOOR")


def module_level_names(tree: ast.Module):
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        for target in targets:
            if isinstance(target, ast.Name):
                yield target.id


def test_tolerances_are_assigned_only_in_the_tolerances_module():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        names = module_level_names(ast.parse(path.read_text()))
        found[path.name] = [n for n in names if n.endswith(SUFFIXES)]
    assert len(found.pop("tolerances.py")) == 18
    assert {module: names for module, names in found.items() if names} == {}


def test_tolerances_module_is_a_leaf():
    tree = ast.parse((PACKAGE / "tolerances.py").read_text())
    imports = [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]
    assert imports == []


def test_the_trajectory_check_tolerances_are_read_only_by_their_table():
    # dynamics.TRAJECTORY_CHECKS is the one home of the proptest and verify trajectory checks
    names = {"AA_TOL", "PFEIFER_TOL", "ARENZ_TOL", "NORM_DRIFT_TOL", "BHATTACHARYYA_TOL"}
    readers = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            loads = (n for n in ast.walk(node) if isinstance(getattr(n, "ctx", None), ast.Load))
            reads = {n.id for n in loads if isinstance(n, ast.Name)} & names
            if reads:  # the def, class or assigned name of the statement that reads them
                bound = next(module_level_names(ast.Module([node], [])), None)
                readers.append((path.name, getattr(node, "name", bound)))
    assert readers == [("dynamics.py", "TRAJECTORY_CHECKS")]
