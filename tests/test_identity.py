"""tools/identity.py: the recipe that proves a change leaves artifacts as they were."""

import importlib.util
from pathlib import Path

import pytest

from conlab.config import config_to_dict

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "identity.py"


@pytest.fixture(scope="module")
def identity():
    spec = importlib.util.spec_from_file_location("identity", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_recipe_reruns_identically_and_reports_a_one_byte_change(
    identity, small_cfg, tmp_path
):
    config = config_to_dict(small_cfg)
    runs = []
    for name in ("first", "second"):
        work = tmp_path / name
        work.mkdir()
        runs.append(identity.run_recipe(_TOOL.parent.parent, work, config,
                                        max_steps=11, trials=20))
    first, second = runs
    assert identity.differences(first, second) == []
    for artifact in (
        "data.umc",
        "unicon_a1/checkpoint.umc",
        "infonce_a0/metrics.csv",
        "supcon_in_a05/checkpoint.umc",
        "infonce_a1/checkpoint.umc",
        "resumed/checkpoint.umc",
        "resumed/probe.json",
        "grid/compare.json",
        "stdout/compare",
        "stdout/losscheck",
    ):
        assert artifact in first, artifact

    ckpt = tmp_path / "second" / "resumed" / "checkpoint.umc"
    data = bytearray(ckpt.read_bytes())
    data[len(data) // 2] ^= 1
    ckpt.write_bytes(bytes(data))
    changed = {**second, **identity.hash_files(tmp_path / "second")}
    assert identity.differences(first, changed) == ["resumed/checkpoint.umc"]
    del changed["stdout/losscheck"]
    assert identity.differences(first, changed) == [
        "resumed/checkpoint.umc",
        "stdout/losscheck",
    ]


def test_recipe_reports_a_failing_command(identity, tmp_path):
    config = {"train": {"tau": -1.0}}
    with pytest.raises(RuntimeError, match="gen-data .* exited 2"):
        identity.run_recipe(_TOOL.parent.parent, tmp_path, config)
