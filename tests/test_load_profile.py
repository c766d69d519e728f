"""``tools/load_profile.py`` profiles the benchmark's own ``topk-unique`` corpus."""

import filecmp
import importlib.util
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]


def test_corpus_is_the_topk_unique_corpus_byte_for_byte(tmp_path, monkeypatch):
    # Restored at teardown, with the tool's own ``src`` entry.
    monkeypatch.syspath_prepend(str(REPO_ROOT))
    spec = importlib.util.spec_from_file_location(
        "load_profile", REPO_ROOT / "tools" / "load_profile.py"
    )
    load_profile = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(load_profile)
    from benchmarks.profile import workloads

    assert (load_profile.IMAGES, load_profile.LABELS) == workloads.SIZES["topk-unique"]
    assert load_profile.OBJECTS == workloads.OBJECTS
    assert load_profile.LOADS == workloads.SETUPS
    (tmp_path / "tool").mkdir()
    (tmp_path / "benchmark").mkdir()
    tool = load_profile.build_corpus(load_profile.IMAGES, 0, tmp_path / "tool")
    benchmark = workloads.make_inputs("topk-unique", 0, False, tmp_path / "benchmark")
    assert filecmp.cmp(tool, benchmark["corpus"], shallow=False)
