"""Every program name the traced benchmark run wraps must still exist.

``perfbench/traced.py --trace`` replaces module-level names with timing
wrappers; a name the program no longer has makes that run incorrect.  This
loads the file read-only and checks the names, without wrapping anything.
"""

import importlib.util
from pathlib import Path

TRACED = Path(__file__).resolve().parent.parent / "perfbench" / "traced.py"
# Wrapped by traced.install outside its LAYERS table.
EXTRA_TARGETS = ("scoi.cli:run_strategy", "scoi.cli:_select_one")


def load_traced():
    spec = importlib.util.spec_from_file_location("perfbench_traced", TRACED)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_exists():
    traced = load_traced()
    targets = [t for _, layer_targets, _ in traced.LAYERS for t in layer_targets]
    assert len(targets) > 20

    def resolves(target: str) -> bool:
        try:
            owner, attr = traced._resolve(target)
        except AttributeError:  # a class on the path is gone
            return False
        return hasattr(owner, attr)

    assert [t for t in (*targets, *EXTRA_TARGETS) if not resolves(t)] == []
