from __future__ import annotations

import types

import hbtensor


def test_all_exports_no_modules():
    exported = [getattr(hbtensor, name) for name in hbtensor.__all__]
    assert not [obj for obj in exported if isinstance(obj, types.ModuleType)]
    assert {"HbGraph", "SymTensor", "uniformize", "e_adjacency_tensor"} <= set(
        hbtensor.__all__
    )
