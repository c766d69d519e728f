"""``tools/load_profile.py`` profiles the benchmark's own ``topk-unique`` corpus and writes JSON."""

import filecmp
import importlib.util
import json
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


def test_a_smoke_run_writes_its_figures_as_json(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(REPO_ROOT))
    spec = importlib.util.spec_from_file_location(
        "load_profile", REPO_ROOT / "tools" / "load_profile.py"
    )
    load_profile = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(load_profile)
    monkeypatch.setattr(load_profile, "RESULTS", tmp_path)
    assert load_profile.main(["--smoke", "--seed", "3"]) == 0
    document = json.loads((tmp_path / "load_profile-seed3.json").read_text(encoding="utf-8"))
    assert set(document) == {
        "seed",
        "smoke",
        "corpus",
        "stages_ms",
        "collector",
        "tracked_objects",
        "retained",
        "vmrss_mib",
    }
    assert (document["seed"], document["smoke"]) == (3, True)
    assert document["corpus"]["images"] == load_profile.SMOKE[0]
    assert list(document["stages_ms"]) == [
        "JSON decode",
        "picture decode",
        "re-encode",
        "compare",
        "postings",
        "from_file",
    ]
    assert set(document["collector"]) == {"ms_per_load", "collections", "full"}
    assert len(document["tracked_objects"]) == 3
    retained = document["retained"]
    assert set(retained) == {"kib", "allocations", "sites", "peak_kib"}
    assert retained["kib"] > 0 and retained["allocations"] > 0 and retained["peak_kib"] > 0
    assert all(
        set(site) == {"site", "source", "kib", "allocations"} for site in retained["sites"]
    )
    assert set(document["vmrss_mib"]) <= set(load_profile.RSS_FIELDS)
    assert "wrote" in capsys.readouterr().out
