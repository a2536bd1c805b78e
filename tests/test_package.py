"""The package's public names."""

import inspect
import types

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
