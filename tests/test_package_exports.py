"""Smoke tests for the package's public surface."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

#: The directory holding the ``repro`` package, for fresh interpreters.
_PACKAGE_ROOT = str(Path(repro.__file__).resolve().parents[1])


SUBPACKAGES = [
    "repro.geometry",
    "repro.iconic",
    "repro.core",
    "repro.baselines",
    "repro.index",
    "repro.retrieval",
    "repro.datasets",
    "repro.service",
    "repro.cli",
]


class TestTopLevelExports:
    def test_version_is_a_string(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.__all__ lists missing name {name!r}"

    def test_core_workflow_symbols_are_exported(self):
        for name in ("SymbolicPicture", "Rectangle", "encode_picture", "RetrievalSystem"):
            assert name in repro.__all__

    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_subpackages_import_cleanly(self, module_name):
        module = importlib.import_module(module_name)
        assert module is not None

    @pytest.mark.parametrize(
        "module_name",
        ["repro.geometry", "repro.iconic", "repro.core", "repro.baselines", "repro.index", "repro.retrieval", "repro.datasets", "repro.service"],
    )
    def test_subpackage_all_lists_resolve(self, module_name):
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{module_name}.__all__ lists missing name {name!r}"

    def test_readme_quickstart_api_exists(self):
        # The README's quickstart uses exactly these call paths.
        picture = repro.SymbolicPicture.build(
            width=10, height=10, objects=[("a", repro.Rectangle(1, 1, 2, 2))], name="t"
        )
        bestring = repro.encode_picture(picture)
        assert repro.similarity(bestring, bestring).score == 1.0
        system = repro.RetrievalSystem.from_pictures([picture])
        assert system.query(picture).execute()[0].image_id == "t"


def _run_fresh_interpreter(code):
    """Run ``code`` in a new interpreter that imports this checkout's package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_PACKAGE_ROOT, env.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout.splitlines()


class TestOptionalNumpy:
    """Only the raster layer needs numpy (the ``raster`` extra)."""

    def test_engine_import_graph_is_numpy_free(self):
        output = _run_fresh_interpreter(
            "import sys\n"
            "import repro, repro.retrieval.system, repro.service.server\n"
            "import repro.service.client, repro.cli\n"
            "print(sorted(name for name in sys.modules if name.split('.')[0] == 'numpy'))\n"
        )
        assert output == ["[]"]

    def test_labeled_raster_resolves_from_both_packages(self):
        pytest.importorskip("numpy")
        from repro.iconic import raster

        assert repro.LabeledRaster is raster.LabeledRaster
        assert repro.iconic.LabeledRaster is raster.LabeledRaster
        assert not hasattr(repro, "NoSuchName")
        assert not hasattr(repro.iconic, "NoSuchName")

    def test_without_numpy_the_raster_names_its_extra(self):
        output = _run_fresh_interpreter(
            "import sys\n"
            "sys.modules['numpy'] = None\n"
            "import repro\n"
            "from repro import *\n"
            "for package in (repro, repro.iconic):\n"
            "    try:\n"
            "        package.LabeledRaster\n"
            "    except ImportError as error:\n"
            "        print(error)\n"
        )
        assert len(output) == 2
        assert all("repro-2d-bestring[raster]" in message for message in output)


class TestNoSqlite:
    """No import and no load brings in ``sqlite3``, not even refusing a SQLite file."""

    def test_no_import_or_load_brings_in_sqlite3(self, tmp_path, sqlite_file):
        system = repro.RetrievalSystem.from_pictures(
            [repro.SymbolicPicture.build(10, 10, [("a", repro.Rectangle(1, 1, 2, 2))], "p")]
        )
        paths = [system.save(tmp_path / name) for name in ("db.json", "db.shards")]
        output = _run_fresh_interpreter(
            "import sys\n"
            "import repro, repro.service.server, repro.cli\n"
            "from repro import RetrievalSystem\n"
            "from repro.index.storage import StorageError\n"
            f"json_path, sharded_path = {[str(path) for path in paths]!r}\n"
            "RetrievalSystem.from_file(json_path)\n"
            "RetrievalSystem.from_file(sharded_path)\n"
            "try:\n"
            f"    RetrievalSystem.from_file({str(sqlite_file)!r})\n"
            "except StorageError:\n"
            "    print('refused')\n"
            "print('sqlite3' in sys.modules)\n"
        )
        assert output == ["refused", "False"]
