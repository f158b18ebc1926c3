"""The package surface: ``qwrng.__all__`` lists exactly the public names it binds."""

import types

import qwrng


def test_all_matches_the_bound_public_names():
    names = qwrng.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(qwrng, n)] == []
    bound = {
        n for n, v in vars(qwrng).items()
        if not n.startswith("_") and not isinstance(v, types.ModuleType)
    }
    assert set(names) == bound
