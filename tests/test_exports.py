import importlib
import pkgutil

import pytest

import qbchain

MODULES = ["qbchain"] + [f"qbchain.{m.name}"
                         for m in pkgutil.iter_modules(qbchain.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), "duplicate names in __all__"
    assert [n for n in exported if not hasattr(module, n)] == []


def test_core_modules_declare_exports():
    for name in ("qbchain", "qbchain.model", "qbchain.spectral",
                 "qbchain.topology", "qbchain.quench", "qbchain.amplification"):
        assert importlib.import_module(name).__all__
