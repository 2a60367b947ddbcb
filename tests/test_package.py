import importlib
import pkgutil

import gridtopo


def test_every_exported_name_resolves():
    # a name left in __all__ after its definition is deleted breaks
    # ``from gridtopo.<module> import *`` and misleads readers of the API
    checked, stale = [], []
    for info in pkgutil.iter_modules(gridtopo.__path__):
        module = importlib.import_module(f"gridtopo.{info.name}")
        for name in getattr(module, "__all__", ()):
            checked.append(f"{info.name}.{name}")
            if not hasattr(module, name):
                stale.append(f"{info.name}.{name}")
    assert "topology.learn_sign_rule" in checked
    assert stale == []
