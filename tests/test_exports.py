"""Every name a module lists in `__all__` resolves, so the public API holds
no stale exports, the root exports the library workflow alone, and no
module imports another's private name."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import conlab

MODULES = [conlab] + [
    importlib.import_module(f"conlab.{info.name}")
    for info in pkgutil.iter_modules(conlab.__path__)
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_exported_names_resolve(module):
    names = getattr(module, "__all__", ())
    missing = [name for name in names if not hasattr(module, name)]
    assert missing == []


# the workflow the README's library example runs, its config types and the
# types of its state; every kernel is imported from its submodule
ROOT_NAMES = {
    "RunConfig", "generate_dataset", "pretrain", "run_probes", "with_train",
    "AugConfig", "DatasetSpec", "ModelConfig", "ProbeConfig", "TrainConfig",
    "ConfigError",
    "Dataset", "TrainState", "StepMetrics", "DivergenceError",
}  # fmt: skip
README = Path(__file__).resolve().parents[1] / "README.md"


def test_root_exports_the_library_surface():
    assert sorted(conlab.__all__) == sorted(ROOT_NAMES)
    imported = re.findall(r"^from conlab import (.+)$", README.read_text(), re.M)
    assert imported
    readme_names = {name.strip() for line in imported for name in line.split(",")}
    assert readme_names <= ROOT_NAMES


SRC = Path(conlab.__file__).resolve().parent
# storage checks its files with pipeline's array rules, which cannot move to
# storage: pipeline checks in-memory datasets with them and cannot import
# storage, which imports pipeline's types
PRIVATE_IMPORTS_ALLOWED = {
    ("storage", "pipeline", "_array_problems"),
    ("storage", "pipeline", "_dataset_layout"),
}


def test_no_module_imports_another_modules_private_name():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    name = alias.name  # a dunder, such as __version__, is public
                    if name.startswith("_") and not name.startswith("__"):
                        found.add((path.stem, node.module, name))
    assert sorted(found - PRIVATE_IMPORTS_ALLOWED) == []
