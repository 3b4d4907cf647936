"""Every exported name resolves, so a deleted function cannot linger in __all__."""

import importlib
import pkgutil

import fineselmer


def test_package_exports_resolve():
    missing = [n for n in fineselmer.__all__ if not hasattr(fineselmer, n)]
    assert missing == []


def test_module_exports_resolve():
    missing = []
    for info in pkgutil.iter_modules(fineselmer.__path__):
        module = importlib.import_module(f"fineselmer.{info.name}")
        missing += [f"{info.name}.{n}" for n in getattr(module, "__all__", ())
                    if not hasattr(module, n)]
    assert missing == []
