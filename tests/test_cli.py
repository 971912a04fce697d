"""CLI tests: every subcommand through main(argv)."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.relation.csvio import write_csv
from tests.conftest import make_relation


@pytest.fixture
def csv_file(tmp_path):
    relation = make_relation(
        3, [(1, 10, 5), (2, 20, 5), (3, 30, 5), (3, 30, 5)])
    path = tmp_path / "data.csv"
    write_csv(relation, path)
    return str(path)


class TestDiscover:
    def test_human_output(self, csv_file, capsys):
        assert main(["discover", csv_file]) == 0
        out = capsys.readouterr().out
        assert "FASTOD" in out
        assert "{}: [] -> c2" in out  # c2 constant

    def test_json_output(self, csv_file, capsys):
        assert main(["discover", csv_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["algorithm"] == "FASTOD"
        assert "{}: [] -> c2" in payload["fds"]

    def test_no_minimal(self, csv_file, capsys):
        assert main(["discover", csv_file, "--no-minimal", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["minimal"] is False

    def test_max_level_and_limit(self, csv_file, capsys):
        assert main(["discover", csv_file, "--max-level", "1",
                     "--limit", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_rows"] == 2


class TestCheck:
    def test_holds(self, csv_file, capsys):
        assert main(["check", csv_file, "{}: [] -> c2"]) == 0
        assert "HOLDS" in capsys.readouterr().out

    def test_violated_exit_code(self, csv_file, capsys):
        assert main(["check", csv_file, "{}: [] -> c0"]) == 1
        assert "VIOLATED" in capsys.readouterr().out


class TestViolations:
    def test_report(self, tmp_path, capsys):
        relation = make_relation(2, [(1, 2), (2, 1)])
        path = tmp_path / "swap.csv"
        write_csv(relation, path)
        assert main(["violations", str(path), "[c0] ~ [c1]"]) == 1
        out = capsys.readouterr().out
        assert "violated" in out and "swap" in out

    def test_clean(self, csv_file, capsys):
        assert main(["violations", csv_file, "{}: [] -> c2"]) == 0


class TestGenerate:
    def test_writes_csv(self, tmp_path, capsys):
        out_path = tmp_path / "flight.csv"
        assert main(["generate", "flight", str(out_path),
                     "--rows", "50", "--cols", "6"]) == 0
        assert out_path.exists()
        text = capsys.readouterr().out
        assert "50 rows x 6 attributes" in text

    def test_generated_discoverable(self, tmp_path, capsys):
        out_path = tmp_path / "d.csv"
        main(["generate", "dbtesma", str(out_path), "--rows", "40",
              "--cols", "5"])
        assert main(["discover", str(out_path)]) == 0


class TestDatasets:
    def test_lists_families(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "flight" in out and "ncvoter" in out


class TestProfile:
    def test_text_report(self, csv_file, capsys):
        assert main(["profile", csv_file]) == 0
        out = capsys.readouterr().out
        assert "Keys" in out and "Order dependencies" in out

    def test_markdown_report(self, csv_file, capsys):
        assert main(["profile", csv_file, "--markdown"]) == 0
        assert capsys.readouterr().out.startswith("# Data profile")

    def test_with_approximate(self, csv_file, capsys):
        assert main(["profile", csv_file, "--approx", "0.3"]) == 0
        assert "Approximate" in capsys.readouterr().out

    def test_json_report_carries_fingerprint(self, csv_file, capsys):
        from repro.relation.csvio import read_csv
        from repro.relation.fingerprint import fingerprint

        assert main(["profile", csv_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        # the digest the service catalog/result store key on
        assert payload["fingerprint"] == fingerprint(
            read_csv(csv_file))
        assert payload["ods"]["n_fds"] >= 1
        assert payload["keys"] == []   # duplicated row: no key
        assert "c2" in payload["constants"]


class TestServeParser:
    def test_serve_is_wired(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["serve", "--port", "0", "--workers", "2",
             "--store-dir", "/tmp/x", "--catalog-bytes", "1000"])
        assert args.command == "serve"
        assert args.port == 0
        assert args.workers == 2
        assert args.catalog_bytes == 1000

    @pytest.mark.parametrize("command", ["check", "violations",
                                         "append"])
    def test_single_dependency_commands_take_no_workers(self, command,
                                                        capsys):
        """Their scans run on the coordinator: no pool to size."""
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(
                [command, "data.csv", "{}: [] -> c2", "--workers", "2"])
        assert exit_info.value.code == 2
        assert "--workers" in capsys.readouterr().err


class TestKeys:
    def test_duplicate_rows_no_key(self, csv_file, capsys):
        # the fixture has a duplicated row, so nothing can be a key
        assert main(["keys", csv_file]) == 0
        assert "0 minimal key(s)" in capsys.readouterr().out

    def test_lists_minimal_keys(self, tmp_path, capsys):
        relation = make_relation(2, [(1, 5), (2, 5), (3, 6)])
        path = tmp_path / "keyed.csv"
        write_csv(relation, path)
        assert main(["keys", str(path)]) == 0
        out = capsys.readouterr().out
        assert "1 minimal key(s)" in out
        assert "(c0)" in out

    def test_max_size(self, tmp_path, capsys):
        relation = make_relation(
            2, [(1, 1), (1, 2), (2, 1), (2, 2)])
        path = tmp_path / "composite.csv"
        write_csv(relation, path)
        assert main(["keys", str(path), "--max-size", "1"]) == 0
        assert "0 minimal key(s)" in capsys.readouterr().out


class TestExplain:
    def test_derivable(self, csv_file, capsys):
        # c2 is constant, so any padded context derives it
        assert main(["explain", csv_file, "{c0}: [] -> c2"]) == 0
        out = capsys.readouterr().out
        assert "derivation of" in out
        assert "Augmentation-I" in out

    def test_underivable(self, csv_file, capsys):
        assert main(["explain", csv_file, "{c2}: [] -> c0"]) == 1
        assert "no derivation" in capsys.readouterr().out

    def test_rejects_list_ods(self, csv_file, capsys):
        assert main(["explain", csv_file, "[c0] -> [c1]"]) == 2
        assert "canonical" in capsys.readouterr().err


class TestErrors:
    def test_repro_error_exit_code(self, tmp_path, capsys):
        missing = tmp_path / "nope.csv"
        missing.write_text("")  # empty CSV triggers DataError
        assert main(["discover", str(missing)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_nan_cell_is_a_data_error(self, tmp_path, capsys):
        path = tmp_path / "nan.csv"
        path.write_text("a,b\n1,2\nnan,3\n")
        assert main(["discover", str(path)]) == 2
        assert "NaN" in capsys.readouterr().err

    def test_infinite_cells_order_as_numbers(self, tmp_path, capsys):
        path = tmp_path / "inf.csv"
        path.write_text("a,b\n1,2\ninf,3\n-inf,1\n")
        assert main(["discover", str(path)]) == 0
        assert "{}: a ~ b" in capsys.readouterr().out.splitlines()

    def test_integers_past_float_precision_keep_their_ranks(
            self, tmp_path, capsys):
        # 2**53 and 2**53 + 1 are one float: x must still be a key
        path = tmp_path / "big.csv"
        path.write_text("x,y\n9007199254740992,1\n"
                        "9007199254740993,2\n1,3\n")
        assert main(["discover", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "{x}: [] -> y" in lines
        assert "{y}: [] -> x" in lines

    def test_integer_beyond_float_range_is_a_number(self, tmp_path,
                                                    capsys):
        path = tmp_path / "huge.csv"
        path.write_text(f"a,b\n1,2\n{10 ** 400},3\n")
        assert main(["discover", str(path)]) == 0
        assert "{}: a ~ b" in capsys.readouterr().out.splitlines()

    @pytest.mark.parametrize("command", ["check", "violations"])
    @pytest.mark.parametrize("dependency", [
        "{nope}: [] -> c0", "{c0}: nope ~ c1", "[c0] -> [nope]"])
    def test_unknown_attribute_exits_2(self, csv_file, capsys, command,
                                       dependency):
        assert main([command, csv_file, dependency]) == 2
        err = capsys.readouterr().err
        assert err == ("error: unknown attribute 'nope'; schema has "
                       "('c0', 'c1', 'c2')\n")

    @pytest.mark.parametrize("command", ["check", "violations"])
    def test_malformed_dependency_exits_2(self, csv_file, capsys,
                                          command):
        assert main([command, csv_file, "{c0}: [] -> "]) == 2
        assert capsys.readouterr().err.startswith("error: ")


@pytest.fixture
def stream_files(tmp_path):
    """A base CSV plus two append batches (the second introduces a
    swap that invalidates the planted OCD)."""
    base = make_relation(2, [(1, 10), (2, 20), (3, 30)])
    clean = make_relation(2, [(4, 40), (5, 50)])
    dirty = make_relation(2, [(6, 5)])
    paths = []
    for name, rel in [("base", base), ("b1", clean), ("b2", dirty)]:
        path = tmp_path / f"{name}.csv"
        write_csv(rel, path)
        paths.append(str(path))
    return paths


class TestAppend:
    def test_invalidation_reported(self, stream_files, capsys):
        base, clean, dirty = stream_files
        assert main(["append", base, clean, dirty]) == 0
        out = capsys.readouterr().out
        assert "batch 1" in out and "batch 2" in out
        assert "invalidated" in out
        assert "FASTOD-Incremental" in out

    def test_verify_flag(self, stream_files, capsys):
        base, clean, dirty = stream_files
        assert main(["append", base, clean, dirty, "--verify"]) == 0

    def test_json_payload(self, stream_files, capsys):
        base, clean, dirty = stream_files
        assert main(["append", base, clean, dirty, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["initial"]["n_rows"] == 3
        assert len(payload["batches"]) == 2
        assert payload["batches"][1]["invalidated"] == ["{}: c0 ~ c1"]
        assert payload["final"]["n_rows"] == 6

    def test_schema_mismatch_is_an_error(self, stream_files, tmp_path,
                                         capsys):
        base = stream_files[0]
        other = tmp_path / "other.csv"
        write_csv(make_relation(3, [(1, 2, 3)]), other)
        assert main(["append", base, str(other)]) == 2
        assert "error:" in capsys.readouterr().err


class TestWatch:
    def test_initial_then_done(self, csv_file, capsys):
        assert main(["watch", csv_file, "--interval", "0.01",
                     "--max-batches", "0"]) == 0
        out = capsys.readouterr().out
        assert "watching" in out and "done:" in out

    def test_picks_up_appended_rows(self, stream_files, monkeypatch,
                                    capsys):
        base, clean, _ = stream_files
        appended = {"done": False}

        def feed(_seconds):
            if not appended["done"]:
                with open(clean) as batch, open(base, "a") as target:
                    target.write("".join(batch.readlines()[1:]))
                appended["done"] = True

        import repro.cli as cli_module
        monkeypatch.setattr(cli_module.time, "sleep", feed)
        assert main(["watch", base, "--interval", "0.01",
                     "--max-batches", "1", "--json"]) == 0
        events = [json.loads(line)
                  for line in capsys.readouterr().out.splitlines()]
        kinds = [event["event"] for event in events]
        assert kinds == ["initial", "batch", "done"]
        assert events[1]["n_appended"] == 2
        assert events[2]["result"]["n_rows"] == 5

    def test_idle_exit(self, csv_file, capsys):
        assert main(["watch", csv_file, "--interval", "0.01",
                     "--idle-exit", "2"]) == 0
        assert "done: 4 rows after 0 batch(es)" in \
            capsys.readouterr().out


class TestCacheFlags:
    def test_discover_json_includes_cache_stats(self, csv_file, capsys):
        assert main(["discover", csv_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "cache" in payload
        assert payload["cache"]["misses"] >= 1
        assert payload["cache"]["max_entries"] is None

    def test_discover_bounded_cache(self, csv_file, capsys):
        assert main(["discover", csv_file, "--json",
                     "--cache-max-entries", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cache"]["max_entries"] == 1
        # results are unaffected by the bound
        assert "{}: [] -> c2" in payload["fds"]

    def test_check_and_violations_accept_bound(self, csv_file):
        assert main(["check", csv_file, "{}: [] -> c2",
                     "--cache-max-entries", "2"]) == 0
        assert main(["violations", csv_file, "{}: [] -> c2",
                     "--cache-max-entries", "2"]) == 0


class TestZeroRowInputs:
    @pytest.fixture
    def header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("a,b,c\n")
        return str(path)

    def test_discover(self, header_only, capsys):
        assert main(["discover", header_only]) == 0
        out = capsys.readouterr().out
        assert "0 rows" in out
        # with no tuples every attribute is vacuously constant
        assert "{}: [] -> a" in out

    def test_discover_json(self, header_only, capsys):
        assert main(["discover", header_only, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_rows"] == 0 and payload["n_fds"] == 3

    def test_check(self, header_only, capsys):
        assert main(["check", header_only, "{}: [] -> a"]) == 0
        assert "HOLDS" in capsys.readouterr().out

    def test_violations(self, header_only):
        assert main(["violations", header_only, "[a] -> [b]"]) == 0

    def test_append_from_zero_rows(self, header_only, tmp_path, capsys):
        batch = tmp_path / "batch.csv"
        batch.write_text("a,b,c\n1,2,3\n1,2,4\n")
        assert main(["append", header_only, str(batch),
                     "--verify"]) == 0
        assert "(2 total)" in capsys.readouterr().out

    def test_limit_zero_reads_no_rows(self, csv_file, capsys):
        assert main(["discover", csv_file, "--limit", "0",
                     "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["n_rows"] == 0

    def test_totally_empty_file_is_graceful(self, tmp_path, capsys):
        path = tmp_path / "nothing.csv"
        path.write_text("")
        assert main(["discover", str(path)]) == 2
        assert "error:" in capsys.readouterr().err


class TestWatchTruncation:
    def test_shrinking_file_is_an_error(self, csv_file, monkeypatch,
                                        capsys):
        truncated = {"done": False}

        def shrink(_seconds):
            if not truncated["done"]:
                with open(csv_file) as handle:
                    lines = handle.readlines()
                with open(csv_file, "w") as handle:
                    handle.writelines(lines[:2])   # header + 1 row
                truncated["done"] = True

        import repro.cli as cli_module
        monkeypatch.setattr(cli_module.time, "sleep", shrink)
        assert main(["watch", csv_file, "--interval", "0.01",
                     "--max-batches", "1"]) == 2
        assert "shrank" in capsys.readouterr().err
