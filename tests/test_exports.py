import gpselect


def test_every_public_name_resolves():
    missing = [name for name in gpselect.__all__ if not hasattr(gpselect, name)]
    assert missing == []
    namespace = {}
    exec("from gpselect import *", namespace)
    assert set(gpselect.__all__) <= set(namespace)
