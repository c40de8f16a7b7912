"""The package's public surface: `gkmfaces.__all__` is sorted, has no
duplicates, and names exactly the public names bound in the package other
than its submodules, so a stale import or export fails here."""

from types import ModuleType

import gkmfaces


def test_all_names_exactly_the_public_bindings():
    exported = gkmfaces.__all__
    assert exported == sorted(set(exported))
    bound = {
        name
        for name, value in vars(gkmfaces).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert set(exported) == bound
