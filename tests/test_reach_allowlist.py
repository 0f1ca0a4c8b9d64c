"""The static half of ``scripts/reach.py``, and the package's exports.

``python3 scripts/reach.py`` runs every entry point under a profiler hook
and takes minutes.  What it checks without running anything is cheap, so
it runs here too: every allowlist entry names a function defined under
``src/repro``, every reason is of a kept kind, and every name a module
exports in ``__all__`` exists.
"""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import repro

REACH_PATH = Path(__file__).resolve().parent.parent / "scripts" / "reach.py"


@pytest.fixture(scope="module")
def reach():
    spec = importlib.util.spec_from_file_location("reach", REACH_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestAllowlist:
    def test_every_entry_names_a_defined_function(self, reach):
        assert reach.stale_entries(reach.defined(), reach.allowlist()) == []

    def test_every_reason_has_a_kept_kind(self, reach):
        for reason in reach.allowlist().values():
            assert reason.partition(":")[0] in reach.KEPT_KINDS, reason

    @pytest.mark.parametrize(
        "reason",
        [
            "candidate: reached only by its own unit tests",
            "oracle without a colon",
            "",
        ],
    )
    def test_other_reasons_are_refused(self, reach, tmp_path, monkeypatch, reason):
        listed = tmp_path / "reach_allowlist.txt"
        listed.write_text(f"repro/errors.py::ParseError.__init__ | {reason}\n")
        monkeypatch.setattr(reach, "ALLOWLIST", listed)
        with pytest.raises(SystemExit):
            reach.allowlist()


def _modules():
    names = ["repro"]
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        names.append(info.name)
    return sorted(names)


@pytest.mark.parametrize("name", _modules())
def test_exports_resolve(name):
    module = importlib.import_module(name)
    missing = [export for export in getattr(module, "__all__", ()) if not hasattr(module, export)]
    assert missing == []
