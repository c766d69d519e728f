"""Unit tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.index.storage import picture_to_json_text


@pytest.fixture
def scene_files(tmp_path, office, traffic, landscape):
    paths = {}
    for picture in (office, traffic, landscape):
        path = tmp_path / f"{picture.name}.json"
        path.write_text(picture_to_json_text(picture), encoding="utf-8")
        paths[picture.name] = path
    return paths


@pytest.fixture
def database_file(tmp_path, scene_files):
    database_path = tmp_path / "db.json"
    code = main(["build", str(database_path)] + [str(path) for path in scene_files.values()])
    assert code == 0
    return database_path


class TestEncode:
    def test_encode_prints_both_axes(self, scene_files, capsys):
        office_path = next(path for name, path in scene_files.items() if "office" in name)
        assert main(["encode", str(office_path)]) == 0
        output = capsys.readouterr().out
        assert "x:" in output and "y:" in output and "desk" in output

    def test_encode_missing_file(self, tmp_path, capsys):
        assert main(["encode", str(tmp_path / "missing.json")]) == 2
        assert "not found" in capsys.readouterr().err

    def test_encode_malformed_file(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["encode", str(path)]) == 2
        assert "malformed" in capsys.readouterr().err


class TestBuildAndSearch:
    def test_build_writes_database(self, database_file, capsys):
        payload = json.loads(database_file.read_text())
        assert len(payload["images"]) == 3

    def test_search_finds_identical_scene(self, database_file, scene_files, capsys):
        office_path = next(path for name, path in scene_files.items() if "office" in name)
        assert main(["search", str(database_file), str(office_path), "--top", "2"]) == 0
        output = capsys.readouterr().out
        assert "office-000" in output.splitlines()[0]
        assert "score=1.000" in output

    def test_search_with_flags(self, database_file, scene_files, capsys):
        traffic_path = next(path for name, path in scene_files.items() if "traffic" in name)
        assert main(
            ["search", str(database_file), str(traffic_path), "--invariant", "--no-filters"]
        ) == 0
        assert "traffic-000" in capsys.readouterr().out

    def test_search_missing_database(self, tmp_path, scene_files, capsys):
        office_path = next(iter(scene_files.values()))
        assert main(["search", str(tmp_path / "none.json"), str(office_path)]) == 2

    def test_search_kernel_and_strategy_flags_match_default(
        self, database_file, scene_files, capsys
    ):
        office_path = next(path for name, path in scene_files.items() if "office" in name)
        assert main(["search", str(database_file), str(office_path), "--jsonl"]) == 0
        expected = capsys.readouterr().out
        assert main(
            [
                "search",
                str(database_file),
                str(office_path),
                "--jsonl",
                "--kernel",
                "bitparallel",
                "--strategy",
                "anytime",
            ]
        ) == 0
        assert capsys.readouterr().out == expected

    def test_explain_reports_execution_plan(self, database_file, scene_files, capsys):
        office_path = next(path for name, path in scene_files.items() if "office" in name)
        assert main(
            [
                "explain",
                str(database_file),
                str(office_path),
                "--kernel",
                "bitparallel",
                "--strategy",
                "anytime",
            ]
        ) == 0
        output = capsys.readouterr().out
        assert "kernel=bitparallel" in output

    def test_search_rejects_unknown_kernel(self, database_file, scene_files, capsys):
        office_path = next(iter(scene_files.values()))
        with pytest.raises(SystemExit):
            main(["search", str(database_file), str(office_path), "--kernel", "simd"])


class TestBatchSearch:
    @pytest.fixture
    def query_file(self, tmp_path, office, traffic):
        path = tmp_path / "queries.jsonl"
        lines = [
            json.dumps(office.to_dict()),
            "",  # blank lines are skipped
            json.dumps({"scene": traffic.to_dict(), "top": 1, "invariant": True}),
            json.dumps(office.to_dict()),  # duplicate: must be deduplicated
        ]
        path.write_text("\n".join(lines), encoding="utf-8")
        return path

    def test_batch_search_runs_all_queries(self, database_file, query_file, capsys):
        code = main(
            [
                "batch-search", str(database_file), str(query_file), "--top", "2",
                "--shard-workers", "2",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "[0]" in output and "[1]" in output and "[2]" in output
        assert output.count("office-000") >= 2
        assert "3 queries -> 2 unique evaluations" in output

    def test_batch_search_matches_serial_search(self, database_file, query_file, scene_files, capsys):
        office_path = next(path for name, path in scene_files.items() if "office" in name)
        assert main(["search", str(database_file), str(office_path), "--top", "2"]) == 0
        serial_lines = [
            line.strip() for line in capsys.readouterr().out.splitlines() if line.strip()
        ]
        assert main(
            ["batch-search", str(database_file), str(query_file), "--top", "2"]
        ) == 0
        batch_output = capsys.readouterr().out
        for line in serial_lines:
            assert line in batch_output

    def test_batch_search_missing_query_file(self, database_file, tmp_path, capsys):
        assert main(["batch-search", str(database_file), str(tmp_path / "none.jsonl")]) == 2
        assert "not found" in capsys.readouterr().err

    def test_batch_search_malformed_line(self, database_file, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"not a scene": true}\n', encoding="utf-8")
        assert main(["batch-search", str(database_file), str(path)]) == 2
        assert "malformed scene" in capsys.readouterr().err

    def test_batch_search_rejects_bad_override_types(self, database_file, tmp_path, office, capsys):
        path = tmp_path / "typed.jsonl"
        path.write_text(
            json.dumps({"scene": office.to_dict(), "top": "five"}) + "\n", encoding="utf-8"
        )
        assert main(["batch-search", str(database_file), str(path)]) == 2
        assert "'limit' must be a non-negative JSON integer" in capsys.readouterr().err
        # JSON strings must not be truthed into invariant mode.
        path.write_text(
            json.dumps({"scene": office.to_dict(), "invariant": "false"}) + "\n",
            encoding="utf-8",
        )
        assert main(["batch-search", str(database_file), str(path)]) == 2
        assert "'invariant' must be a JSON boolean" in capsys.readouterr().err

    def test_batch_search_null_top_means_unlimited(self, database_file, tmp_path, office, capsys):
        path = tmp_path / "nolimit.jsonl"
        path.write_text(
            json.dumps({"scene": office.to_dict(), "top": None}) + "\n", encoding="utf-8"
        )
        assert main(
            ["batch-search", str(database_file), str(path), "--top", "1", "--no-filters"]
        ) == 0
        assert "3 results" in capsys.readouterr().out  # null overrides --top 1

    @pytest.mark.parametrize(
        "flags, via",
        [([], "via serial x1"), (["--shard-workers", "2"], "via shard_process x2")],
    )
    def test_batch_search_runs_serially_unless_shard_workers_given(
        self, database_file, query_file, flags, via, capsys
    ):
        assert main(["batch-search", str(database_file), str(query_file), *flags]) == 0
        assert via in capsys.readouterr().out

    @pytest.mark.parametrize("flags", [["--executor", "thread"], ["--workers", "2"]])
    def test_batch_search_rejects_removed_pool_flags(
        self, database_file, query_file, flags, capsys
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(["batch-search", str(database_file), str(query_file), *flags])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_batch_search_invalid_shard_workers(self, database_file, query_file, capsys):
        assert main(
            ["batch-search", str(database_file), str(query_file), "--shard-workers", "0"]
        ) == 2
        assert "--shard-workers must be at least 1" in capsys.readouterr().err

    def test_batch_search_rejects_negative_top(self, database_file, tmp_path, office, capsys):
        path = tmp_path / "negative.jsonl"
        path.write_text(
            json.dumps({"scene": office.to_dict(), "top": -1}) + "\n", encoding="utf-8"
        )
        assert main(["batch-search", str(database_file), str(path)]) == 2
        assert "'limit' must be a non-negative JSON integer" in capsys.readouterr().err

    def test_batch_search_reads_search_query_objects(
        self, database_file, tmp_path, office, capsys
    ):
        path = tmp_path / "wire.jsonl"
        lines = [
            {"scene": office.to_dict(), "limit": 0},
            # A transformation set is not overridden by --invariant.
            {"scene": office.to_dict(), "transformations": ["identity"]},
        ]
        path.write_text("\n".join(json.dumps(line) for line in lines), encoding="utf-8")
        assert main(["batch-search", str(database_file), str(path), "--invariant"]) == 0
        output = capsys.readouterr().out
        assert "[0] office-000: 0 results" in output
        assert "[1] office-000: 1 results" in output

    def test_batch_search_refuses_predicate_lines(self, database_file, tmp_path, office, capsys):
        path = tmp_path / "where.jsonl"
        path.write_text(
            json.dumps({"scene": office.to_dict(), "where": "a(b left-of c"}) + "\n",
            encoding="utf-8",
        )
        assert main(["batch-search", str(database_file), str(path)]) == 2
        assert "where" in capsys.readouterr().err

    def test_batch_search_refuses_more_shard_workers_than_shards(
        self, database_file, query_file, capsys
    ):
        assert main(
            ["batch-search", str(database_file), str(query_file), "--shard-workers", "17"]
        ) == 2
        assert "workers must be an integer from 1 to 16" in capsys.readouterr().err

    def test_batch_search_empty_file(self, database_file, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("\n\n", encoding="utf-8")
        assert main(["batch-search", str(database_file), str(path)]) == 2
        assert "no queries" in capsys.readouterr().err


class TestSearchExtensions:
    def test_search_jsonl_output(self, database_file, scene_files, capsys):
        office_path = next(path for name, path in scene_files.items() if "office" in name)
        assert main(
            ["search", str(database_file), str(office_path), "--top", "2", "--jsonl"]
        ) == 0
        lines = [line for line in capsys.readouterr().out.splitlines() if line.strip()]
        payloads = [json.loads(line) for line in lines]
        assert payloads[0]["image_id"] == "office-000"
        assert payloads[0]["rank"] == 1 and "transformation" in payloads[0]

    def test_search_with_where_filter(self, database_file, scene_files, capsys):
        office_path = next(path for name, path in scene_files.items() if "office" in name)
        assert main(
            [
                "search", str(database_file), str(office_path),
                "--where", "monitor above desk",
            ]
        ) == 0
        output = capsys.readouterr().out
        assert "office-000" in output
        assert "traffic" not in output and "landscape" not in output

    def test_search_fuzzy_where_grades_every_image(self, database_file, capsys):
        assert main(
            [
                "search", str(database_file),
                "--where", "monitor above desk", "--fuzzy",
            ]
        ) == 0
        output = capsys.readouterr().out
        # Graded mode keeps the near-misses: every stored image is ranked.
        assert "office-000" in output
        assert "traffic-000" in output and "landscape-000" in output

    def test_search_boolean_grammar(self, database_file, capsys):
        assert main(
            [
                "search", str(database_file),
                "--where", "not (monitor above desk) or car left-of tree",
            ]
        ) == 0
        output = capsys.readouterr().out
        assert "traffic-000" in output

    def test_search_fuzzy_without_where_fails(self, database_file, scene_files, capsys):
        office_path = next(path for name, path in scene_files.items() if "office" in name)
        assert main(["search", str(database_file), str(office_path), "--fuzzy"]) == 2
        assert "--fuzzy requires" in capsys.readouterr().err

    def test_search_malformed_where_names_the_token(self, database_file, capsys):
        assert main(["search", str(database_file), "--where", "car banana tree"]) == 2
        assert "banana" in capsys.readouterr().err

    def test_search_min_score(self, database_file, scene_files, capsys):
        office_path = next(path for name, path in scene_files.items() if "office" in name)
        assert main(
            ["search", str(database_file), str(office_path), "--min-score", "0.99"]
        ) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        assert len(lines) == 1 and "office-000" in lines[0]

    def test_search_without_scene_or_where_fails(self, database_file, capsys):
        assert main(["search", str(database_file)]) == 2
        assert "at least one clause" in capsys.readouterr().err

    def test_search_jsonl_empty_keeps_stdout_clean(self, database_file, scene_files, capsys):
        office_path = next(path for name, path in scene_files.items() if "office" in name)
        code = main(
            ["search", str(database_file), str(office_path),
             "--min-score", "1.5", "--jsonl"]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""  # no plain-text noise in the JSONL stream
        assert "no matching images" in captured.err


class TestExplain:
    def test_explain_similarity_query(self, database_file, scene_files, capsys):
        office_path = next(path for name, path in scene_files.items() if "office" in name)
        assert main(["explain", str(database_file), str(office_path), "--top", "2"]) == 0
        output = capsys.readouterr().out
        assert output.startswith("query: similar_to(")
        assert "plan:" in output and "stored" in output
        assert "stage=" in output and "cache=miss" in output
        assert "lcs=" in output

    def test_explain_predicate_query(self, database_file, capsys):
        assert main(
            ["explain", str(database_file), "--where", "monitor above desk"]
        ) == 0
        output = capsys.readouterr().out
        assert "predicate-evaluated" in output
        assert "holds=[monitor above desk]" in output

    def test_explain_bad_predicate(self, database_file, capsys):
        assert main(
            ["explain", str(database_file), "--where", "monitor floats-over desk"]
        ) == 2
        assert "unknown relation" in capsys.readouterr().err

    def test_explain_no_matches_exit_code(self, database_file, tmp_path, capsys):
        # A scene whose labels appear nowhere: the shortlist admits nothing.
        from repro.geometry.rectangle import Rectangle
        from repro.iconic.picture import SymbolicPicture
        from repro.index.storage import picture_to_json_text

        alien = SymbolicPicture.build(
            width=10, height=10, objects=[("alien", Rectangle(1, 1, 3, 3))], name="alien"
        )
        path = tmp_path / "alien.json"
        path.write_text(picture_to_json_text(alien), encoding="utf-8")
        assert main(["explain", str(database_file), str(path)]) == 1
        assert "no matching images" in capsys.readouterr().out


class TestRelationsShowDemo:
    def test_relations_query(self, database_file, capsys):
        code = main(
            ["relations", str(database_file), "monitor above desk and phone right-of monitor"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert output.splitlines()[0].startswith("office-000")
        assert "2/2" in output

    def test_relations_bad_query(self, database_file, capsys):
        assert main(["relations", str(database_file), "monitor hovering-near desk"]) == 2
        assert "unknown relation" in capsys.readouterr().err

    def test_show_renders_ascii(self, database_file, capsys):
        assert main(["show", str(database_file), "landscape-000", "--columns", "40"]) == 0
        output = capsys.readouterr().out
        assert output.startswith("+")
        assert "legend" in output

    def test_show_unknown_image(self, database_file, capsys):
        assert main(["show", str(database_file), "nope"]) == 2

    def test_demo_end_to_end(self, tmp_path, capsys):
        target = tmp_path / "demo.json"
        assert main(["demo", "--output", str(target)]) == 0
        output = capsys.readouterr().out
        assert target.exists()
        assert "office-000" in output
        assert "predicates hold" in output


class TestConvertInfoAndFormats:
    def test_convert_explicit_target_format(self, database_file, tmp_path, capsys):
        # Destination suffix says JSON, --to overrides it to sharded.
        target = tmp_path / "still-a-directory.json"
        assert main(
            ["convert", str(database_file), str(target), "--to", "sharded", "--shards", "2"]
        ) == 0
        assert (target / "manifest.json").exists()
        assert len(list(target.glob("shard-*.bin"))) == 2

    def test_convert_missing_source(self, tmp_path, capsys):
        assert main(["convert", str(tmp_path / "nope.json"), str(tmp_path / "out.json")]) == 2
        assert "not found" in capsys.readouterr().err

    def test_info_reports_format_and_counts(self, database_file, tmp_path, capsys):
        assert main(["info", str(database_file)]) == 0
        output = capsys.readouterr().out
        assert "format: json" in output
        assert "images: 3" in output
        sharded = tmp_path / "db.shards"
        assert main(["convert", str(database_file), str(sharded)]) == 0
        capsys.readouterr()
        assert main(["info", str(sharded)]) == 0
        output = capsys.readouterr().out
        assert "format: sharded" in output
        assert "shard_count: 16" in output

    def test_info_on_corrupt_file(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["info", str(path)]) == 2
        assert "malformed database" in capsys.readouterr().err

    def test_search_works_on_every_format(self, database_file, scene_files, tmp_path, capsys):
        office_path = next(path for name, path in scene_files.items() if "office" in name)
        for suffix in ("copy.json", "db.shards"):
            target = tmp_path / suffix
            assert main(["convert", str(database_file), str(target)]) == 0
            capsys.readouterr()
            assert main(["search", str(target), str(office_path), "--top", "1"]) == 0
            assert "office-000" in capsys.readouterr().out.splitlines()[0]

    def test_build_with_format_flag(self, scene_files, tmp_path, capsys):
        # The target's suffix says JSON, --format overrides it to sharded.
        target = tmp_path / "built.json"
        scene_arguments = [str(path) for path in scene_files.values()]
        assert main(["build", str(target), "--format", "sharded"] + scene_arguments) == 0
        capsys.readouterr()
        assert main(["info", str(target)]) == 0
        assert "format: sharded" in capsys.readouterr().out

    def test_demo_sharded_format(self, tmp_path, capsys):
        target = tmp_path / "demo.shards"
        assert main(["demo", "--output", str(target), "--format", "sharded"]) == 0
        assert (target / "manifest.json").exists()
        assert "office-000" in capsys.readouterr().out


class TestRefusedDatabases:
    """A database the CLI cannot read exits 2 naming the path, never with a traceback."""

    @pytest.mark.parametrize(
        "command",
        ["info", "search", "convert", "explain", "batch-search", "relations", "show", "serve"],
    )
    def test_a_sqlite_file_is_refused_with_how_to_convert_it(
        self, sqlite_file, scene_files, tmp_path, command, capsys
    ):
        before = sqlite_file.read_bytes()
        scene = next(iter(scene_files.values()))
        query = str(scene)
        queries = tmp_path / "queries.jsonl"
        queries.write_text(json.dumps(json.loads(scene.read_text(encoding="utf-8"))))
        extra = {
            "info": [],
            "search": [query],
            "convert": [str(tmp_path / "out.json")],
            "explain": [query],
            "batch-search": [str(queries)],
            "relations": ["desk left-of chair"],
            "show": ["office-000"],
            "serve": ["--port", "0", "--check"],
        }[command]
        assert main([command, str(sqlite_file), *extra]) == 2
        error = capsys.readouterr().err
        assert f"{sqlite_file} is a SQLite database" in error
        assert "repro convert db.sqlite db.json" in error
        assert sqlite_file.read_bytes() == before
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize(
        "document",
        [[1, 2], {"schema_version": 1, "images": None}, "duplicate-id"],
        ids=["list", "null-images", "duplicate-id"],
    )
    @pytest.mark.parametrize("command", ["search", "show", "convert"])
    def test_a_malformed_document_exits_2_naming_the_path(
        self, database_file, scene_files, tmp_path, command, document, capsys
    ):
        if document == "duplicate-id":
            document = json.loads(database_file.read_text())
            document["images"].append(document["images"][0])
        database_file.write_text(json.dumps(document))
        extra = {
            "search": [str(next(iter(scene_files.values())))],
            "show": ["office-000"],
            "convert": [str(tmp_path / "out.shards")],
        }[command]
        assert main([command, str(database_file), *extra]) == 2
        assert f"malformed database {database_file}: " in capsys.readouterr().err

    def test_read_commands_take_no_format_and_sqlite_is_no_format(
        self, database_file, scene_files, tmp_path, capsys
    ):
        query = str(next(iter(scene_files.values())))
        for argv in (
            ["search", str(database_file), query, "--format", "json"],
            ["info", str(database_file), "--format", "json"],
            ["build", str(tmp_path / "db.sqlite"), query, "--format", "sqlite"],
            ["convert", str(database_file), str(tmp_path / "db.sqlite"), "--to", "sqlite"],
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2
            assert "usage:" in capsys.readouterr().err
        assert not (tmp_path / "db.sqlite").exists()


class TestServeAndPing:
    def test_serve_check_binds_and_reports_address(self, database_file, capsys):
        assert main(["serve", str(database_file), "--port", "0", "--check"]) == 0
        output = capsys.readouterr().out
        assert "serving" in output and "http://127.0.0.1:" in output
        assert "3 images" in output
        assert "persisting incrementally" in output

    def test_serve_check_no_persist(self, database_file, capsys):
        assert main(
            ["serve", str(database_file), "--port", "0", "--check", "--no-persist"]
        ) == 0
        assert "in-memory only" in capsys.readouterr().out

    def test_serve_missing_database(self, tmp_path, capsys):
        assert main(["serve", str(tmp_path / "none.json"), "--check"]) == 2
        assert "not found" in capsys.readouterr().err

    def test_serve_rejects_bad_knobs(self, database_file, capsys):
        assert main(
            ["serve", str(database_file), "--port", "0", "--workers", "0", "--check"]
        ) == 2
        assert "cannot start" in capsys.readouterr().err

    def test_ping_round_trip_against_live_server(self, database_file, capsys):
        from repro.retrieval.system import RetrievalSystem
        from repro.service.server import create_server

        system = RetrievalSystem.from_file(database_file)
        with create_server(system, port=0).start_background() as server:
            assert main(["ping", server.url]) == 0
            output = capsys.readouterr().out
            assert "ok: 3 images" in output
            assert "round-trip" in output

    def test_ping_unreachable_server(self, capsys):
        assert main(["ping", "http://127.0.0.1:1", "--timeout", "0.2"]) == 2
        assert "unreachable" in capsys.readouterr().err

    def test_ping_bad_url(self, capsys):
        assert main(["ping", "ftp://example.com"]) == 2
        assert "http" in capsys.readouterr().err


class TestDurableServeAndRecover:
    @pytest.fixture
    def sharded_database(self, database_file, tmp_path):
        target = tmp_path / "db.shards"
        assert main(["convert", str(database_file), str(target)]) == 0
        return target

    def test_serve_wal_check_reports_durable_mode(self, sharded_database, capsys):
        assert main(
            ["serve", str(sharded_database), "--port", "0", "--wal", "--check"]
        ) == 0
        output = capsys.readouterr().out
        assert "write-ahead logging" in output
        assert "ack-after-fsync" in output
        assert "compacting every 256 records" in output

    def test_serve_wal_conflicts_with_no_persist(self, sharded_database, capsys):
        assert main(
            ["serve", str(sharded_database), "--port", "0", "--check",
             "--wal", "--no-persist"]
        ) == 2
        assert "cannot combine with --no-persist" in capsys.readouterr().err

    def test_serve_wal_rejects_bad_compact_interval(self, sharded_database, capsys):
        assert main(
            ["serve", str(sharded_database), "--port", "0", "--check",
             "--wal", "--wal-compact-every", "0"]
        ) == 2
        assert "--wal-compact-every must be at least 1" in capsys.readouterr().err

    def test_recover_check_reports_log_state(self, sharded_database, capsys):
        # serve --wal --check upgrades the plain sharded directory in place.
        assert main(
            ["serve", str(sharded_database), "--port", "0", "--wal", "--check"]
        ) == 0
        capsys.readouterr()
        assert main(["recover", str(sharded_database), "--check"]) == 0
        output = capsys.readouterr().out
        assert "log: wal.log (clean)" in output
        assert "pending records to replay: 0" in output

    def test_recover_replays_and_compacts(self, sharded_database, capsys):
        from repro.index.backends import (
            DurableShardedStore,
            describe_database,
            load_database_from,
        )
        from repro.retrieval.system import RetrievalSystem

        system = RetrievalSystem.from_file(sharded_database)
        system.save(sharded_database, durable=True)
        database = system._engine.database
        with DurableShardedStore(database, sharded_database) as store:
            replica = database.get(database.image_ids[0])
            database.add_picture(replica.picture.renamed("logged-only"), "logged-only")
            store.log_upsert(database.get("logged-only"))
            assert store.pending_records == 1

        assert main(["recover", str(sharded_database)]) == 0
        output = capsys.readouterr().out
        assert "pending records to replay: 1" in output
        assert "recovered: 4 images" in output
        recovered = load_database_from(sharded_database)
        assert "logged-only" in recovered
        assert describe_database(sharded_database)["wal"]["pending_records"] == 0

    def test_recover_on_non_durable_database(self, database_file, capsys):
        assert main(["recover", str(database_file)]) == 2
        assert "has no write-ahead log" in capsys.readouterr().err

    def test_info_shows_wal_line(self, sharded_database, capsys):
        assert main(
            ["serve", str(sharded_database), "--port", "0", "--wal", "--check"]
        ) == 0
        capsys.readouterr()
        assert main(["info", str(sharded_database)]) == 0
        output = capsys.readouterr().out
        assert "wal: wal.log (snapshot_lsn 0, last_lsn 0, 0 pending, 5 bytes, clean)" in output


class TestCliWarmStart:
    def test_cli_loads_systems_through_the_warm_start_path(self, database_file, tmp_path):
        # Regression: _load_system used to re-add pictures one by one, so
        # every image came back dirty.
        converted = tmp_path / "converted.shards"
        assert main(["convert", str(database_file), str(converted)]) == 0

        from repro.cli import _load_system

        system = _load_system(str(converted))
        # A clean dirty set: the first incremental save rewrites nothing.
        assert not system._engine.database.dirty_ids
