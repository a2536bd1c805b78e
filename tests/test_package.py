"""The package's public names."""

import ast
import inspect
import types
from pathlib import Path

import mselast
from mselast import schwarz


def test_all_names_resolve_and_none_is_a_module():
    assert len(mselast.__all__) == len(set(mselast.__all__))
    for name in mselast.__all__:
        assert not isinstance(getattr(mselast, name), types.ModuleType), name
    assert "schwarz" not in mselast.__all__ and "build_preconditioner" in mselast.__all__


def test_builders_take_no_input_the_others_already_hold():
    # the mesh is part.mesh, the clamped nodes are the operator's and the
    # partition of unity is PartitionOfUnity(part)
    for builder in (mselast.build_preconditioner, schwarz.build_level1, schwarz.build_selections,
                    mselast.build_coarse_basis, mselast.block_split_preconditioner):
        params = set(inspect.signature(builder).parameters)
        assert not params & {"mesh", "dirichlet_nodes", "pou"}, builder.__name__


def test_one_preconditioner_class():
    # plain CG and the block split are one-level TwoLevelPreconditioners, not
    # classes of their own
    appliers = [cls for _, cls in inspect.getmembers(schwarz, inspect.isclass)
                if cls.__module__ == schwarz.__name__ and hasattr(cls, "apply")]
    assert appliers == [schwarz.TwoLevelPreconditioner]


FACTORIZATIONS = {"dpbtrf", "dpotrf", "dgbtrf", "cho_factor", "cholesky", "lu_factor", "splu"}


def _factorizations_used(tree):
    """Factorization names a module imports (``from scipy.linalg import
    cho_factor``) or reads off a module it imports (``sla.cho_factor``,
    ``np.linalg.cholesky``), parsed from its source."""
    modules = {alias.asname or alias.name.split(".")[0]
               for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names if alias.name in FACTORIZATIONS)
        elif isinstance(node, ast.Attribute) and node.attr in FACTORIZATIONS:
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in modules:
                used.add(node.attr)
    return used


def test_banded_holds_the_only_factorizations():
    # the package factors matrices only through the one band fill of
    # banded.BandSlots (the direct-solver oracle's spsolve keeps no factor),
    # so a second factorization cannot creep in unseen
    src = Path(mselast.__file__).parent
    users = {path.name: _factorizations_used(ast.parse(path.read_text())) for path in sorted(src.glob("*.py"))}
    assert users.pop("banded.py") >= {"dpbtrf", "dgbtrf"}  # the scan sees the imports
    assert {name: used for name, used in users.items() if used} == {}
