"""The benchmark's tracer finds every name it patches, and puts each back,
and every workload passes its output checks at a smoke size.

``perfbench/spanbench/tracer.py`` looks up spanfeat functions and methods by
name, so renaming or deleting one of them in ``src/`` breaks traced benchmark
runs; these tests catch that without running the benchmark. The smoke runs,
untraced, catch a change in ``src/`` that the workloads' checks reject.
"""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import spanfeat.cli  # noqa: E402,F401  (load every module the tracer patches)
from spanbench import WORKLOADS, runner, workloads  # noqa: E402
from spanbench.tracer import TRACED, Tracer  # noqa: E402

# the smoke sizes of perfbench/tests/test_bench_checks.py
SMALL = workloads.Sizes(train=150, dev=20, test=20, tagger_train_per_round=10, predict_per_round=4, setups=1)


@pytest.mark.parametrize("module_name,path", [(m, p) for m, p, _ in TRACED], ids=[n for *_, n in TRACED])
def test_traced_name_resolves(module_name, path):
    target = importlib.import_module(module_name)
    for part in path.split("."):
        target = getattr(target, part)
    assert callable(target)


def _namespaces():
    """Every loaded spanfeat module and every class it defines, each with a
    copy of its attribute dict."""
    spaces = []
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("spanfeat"):
            continue
        spaces.append((module, dict(vars(module))))
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__ == name:
                spaces.append((value, dict(vars(value))))
    return spaces


def test_install_then_uninstall_restores_every_patched_attribute():
    before = _namespaces()
    tracer = Tracer()
    try:
        tracer.install()
        patched = {id(owner) for owner, _, _ in tracer._patches}
    finally:
        tracer.uninstall()
    for owner, attrs in before:
        now = vars(owner)
        assert set(now) == set(attrs), owner
        changed = [attr for attr, value in attrs.items() if now[attr] is not value]
        assert not changed, (owner, changed)
    assert patched and patched <= {id(owner) for owner, _ in before}


@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_checks_out_at_smoke_size(name, tmp_path):
    result = runner.run_workload(name, seed=2, seconds=0.05, trace=False, workdir=tmp_path, sizes=SMALL)
    assert result["problems"] == []
    assert result["correct"] and result["failed"] == 0
