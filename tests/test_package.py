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
    cho_factor``), reads off a module it imports (``sla.cho_factor``,
    ``np.linalg.cholesky``) or, in a module that reaches scipy's Cython
    LAPACK (``cython_lapack``, ``__pyx_capi__``), names in any string, as
    the key of a function pointer (``__pyx_capi__["dpbtrf"]``), parsed from
    its source."""
    modules = {alias.asname or alias.name.split(".")[0]
               for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    words = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.alias):
            words.update(node.name.split("."))
        elif isinstance(node, ast.ImportFrom) and node.module:
            words.update(node.module.split("."))
        elif isinstance(node, ast.Attribute):
            words.add(node.attr)
        elif isinstance(node, ast.Name):
            words.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            words.update(node.value.split("."))
    reaches_capi = bool(words & {"cython_lapack", "__pyx_capi__"})
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
        elif reaches_capi and isinstance(node, ast.Constant) and node.value in FACTORIZATIONS:
            used.add(node.value)
    return used


def test_factorization_scan_sees_a_cython_lapack_pointer():
    # a routine taken from scipy's Cython LAPACK by string key counts as a
    # factorization, however the module is imported or the key is spelled
    for source in ('from scipy.linalg import cython_lapack\nf = cython_lapack.__pyx_capi__["dpotrf"]',
                   'import scipy.linalg.cython_lapack as cl\nf = cl.__pyx_capi__.get("dgbtrf")',
                   'import importlib\ncapi = importlib.import_module("scipy.linalg.cython_lapack").__pyx_capi__\n'
                   'name = "dpbtrf"\nf = capi[name]'):
        assert _factorizations_used(ast.parse(source)) == {source.split('"')[-2]}, source
    # a string alone, in a module that does not reach the capsules, is not one
    assert _factorizations_used(ast.parse('doc = "dpbtrf"')) == set()


def test_banded_holds_the_only_factorizations():
    # the package factors matrices only through the one band fill of
    # banded.BandSlots (the direct-solver oracle's spsolve keeps no factor),
    # so a second factorization cannot creep in unseen
    src = Path(mselast.__file__).parent
    users = {path.name: _factorizations_used(ast.parse(path.read_text())) for path in sorted(src.glob("*.py"))}
    assert users.pop("banded.py") >= {"dpbtrf", "dgbtrf"}  # the scan sees the imports and pointers
    assert {name: used for name, used in users.items() if used} == {}
