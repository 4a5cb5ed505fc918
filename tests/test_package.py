import dispdecomp


def test_every_public_name_is_unique_and_resolves():
    # A stale name in __all__ breaks only `from dispdecomp import *`.
    names = dispdecomp.__all__
    assert len(names) == len(set(names))
    for name in names:
        getattr(dispdecomp, name)
