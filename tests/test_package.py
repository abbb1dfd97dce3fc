"""The public names of the package."""

import altpairs


def test_every_public_name_resolves():
    assert len(set(altpairs.__all__)) == len(altpairs.__all__)
    for name in altpairs.__all__:
        assert getattr(altpairs, name) is not None, name


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from altpairs import *", namespace)
    assert set(altpairs.__all__) <= set(namespace)
