"""The workload ingestion plane: adapters, store, registry, errors.

Covers the three adapter families (file importers, live capture, and —
via the registry — the adversarial bank's names), the provenance
manifest store, the typed :class:`IngestError` contract over a mutation
corpus of corrupted inputs (never a bare ``struct.error`` / ``zlib``
exception), telemetry counters, the cache's per-origin breakdown, and
the CLI surface (``repro trace import|list|info|remove``, ``repro
workloads``, ``repro cache stats``).
"""

import gzip
import hashlib
import json
import struct
import zlib

import pytest

from repro.trace.ingest import (
    IngestError,
    adapter_names,
    capture_script,
    get_adapter,
    import_trace,
    imported_names,
    load_imported,
    manifest,
    remove,
)
from repro.trace.ingest.formats import write_champsim, write_cvp
from repro.trace.ingest.store import derive_name, validate_name
from repro.trace.io import TraceFormatError
from repro.trace.isa import OpClass, ialu, load


@pytest.fixture(autouse=True)
def _isolated_import_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_IMPORT_DIR", str(tmp_path / "imported"))


def _csv_source(path, rows=200, header=True):
    lines = ["pc,value,addr,is_load"] if header else []
    for i in range(rows):
        lines.append(f"{hex(0x400000 + (i % 4) * 4)},{i * 8},"
                     f"{hex(0x7f0000 + i * 16)},{int(i % 2 == 0)}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _ndjson_source(path, rows=150):
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(rows):
            fh.write(json.dumps({"pc": 0x500000 + (i % 3) * 4,
                                 "value": i * 3}) + "\n")
    return path


def _cvp_source(path, rows=120):
    events = []
    for i in range(rows):
        if i % 5 == 4:
            events.append(load(pc=0x600010, addr=0x9000 + i * 8,
                               value=i * 8, dest=1))
        else:
            events.append(ialu(pc=0x600000 + (i % 4) * 4, dest=1,
                               value=i * 7))
    write_cvp(iter(events), path)
    return path


def _champsim_source(path, rows=96):
    records = []
    for i in range(rows):
        if i % 4 == 0:  # load of a strided address
            records.append((0x700000, 0, 0, (3,), (5,), (),
                            (0x8000 + i * 64,)))
        elif i % 4 == 1:  # branch
            records.append((0x700010, 1, i % 2, (), (), (), ()))
        elif i % 4 == 2:  # store
            records.append((0x700020, 0, 0, (), (4,), (0x9000 + i,), ()))
        else:  # valueless ALU
            records.append((0x700030, 0, 0, (6,), (3, 4), (), ()))
    write_champsim(records, path)
    return path


# ---------------------------------------------------------------------------
# Adapter round trips
# ---------------------------------------------------------------------------
class TestAdapters:
    def test_csv_round_trip(self, tmp_path):
        source = _csv_source(tmp_path / "t.csv", rows=50)
        doc = import_trace(source, name="t-csv")
        packed = load_imported("t-csv")
        assert doc["events"] == len(packed) == 50
        assert doc["value_events"] == 50
        trace = packed.to_trace()
        assert trace[0].op is OpClass.LOAD  # is_load=1 on even rows
        assert trace[0].addr == 0x7f0000
        assert trace[1].op is OpClass.IALU
        assert trace[3].value == 3 * 8

    def test_csv_without_header_and_negative_values(self, tmp_path):
        path = tmp_path / "neg.csv"
        path.write_text("0x10,-1\n0x10,-2\n", encoding="utf-8")
        import_trace(path, name="neg")
        trace = load_imported("neg").to_trace()
        assert trace[0].value == (1 << 64) - 1
        assert trace[1].value == (1 << 64) - 2

    def test_gzipped_source_is_transparent(self, tmp_path):
        plain = _csv_source(tmp_path / "t.csv", rows=30)
        gz = tmp_path / "t2.csv.gz"
        gz.write_bytes(gzip.compress(plain.read_bytes()))
        import_trace(plain, name="plain")
        import_trace(gz, name="gz")
        assert (manifest("plain")["content_sha256"]
                == manifest("gz")["content_sha256"])

    def test_ndjson_round_trip(self, tmp_path):
        source = _ndjson_source(tmp_path / "t.ndjson", rows=40)
        doc = import_trace(source)
        assert doc["name"] == "t"  # derived from the filename
        trace = load_imported("t").to_trace()
        assert trace[7].pc == 0x500000 + (7 % 3) * 4
        assert trace[7].value == 21

    def test_cvp_round_trip_preserves_op_classes(self, tmp_path):
        source = _cvp_source(tmp_path / "t.cvp", rows=25)
        doc = import_trace(source, name="t-cvp")
        trace = load_imported("t-cvp").to_trace()
        assert doc["events"] == 25
        assert trace[4].op is OpClass.LOAD
        assert trace[4].addr == 0x9000 + 4 * 8
        assert trace[0].op is OpClass.IALU
        # ALU + LOAD records produce values; 25 rows, every 5th a load.
        assert doc["value_events"] == 25

    def test_champsim_round_trip_classification(self, tmp_path):
        source = _champsim_source(tmp_path / "t.champsimtrace", rows=16)
        doc = import_trace(source, name="t-ch")
        trace = load_imported("t-ch").to_trace()
        assert [i.op for i in trace[:4]] == [
            OpClass.LOAD, OpClass.BRANCH, OpClass.STORE, OpClass.IALU]
        # Loads carry value := effective address; ALUs are valueless.
        assert trace[0].value == trace[0].addr == 0x8000
        assert trace[3].value is None
        assert doc["value_events"] == 4  # only the loads

    def test_suffix_auto_detection(self, tmp_path):
        assert get_adapter(None, tmp_path / "x.csv").name == "csv"
        assert get_adapter(None, tmp_path / "x.ndjson.gz").name == "ndjson"
        assert get_adapter(None, tmp_path / "x.cvp").name == "cvp"
        assert get_adapter(None, tmp_path / "x.champsimtrace").name == \
            "champsim"
        with pytest.raises(IngestError) as err:
            get_adapter(None, tmp_path / "x.dat")
        for name in adapter_names():
            assert name in str(err.value)

    def test_limit_truncates(self, tmp_path):
        source = _csv_source(tmp_path / "t.csv", rows=100)
        doc = import_trace(source, name="lim", limit=17)
        assert doc["events"] == 17
        assert len(load_imported("lim")) == 17


# ---------------------------------------------------------------------------
# Mutation corpus: corrupted inputs surface as IngestError, never as a
# bare struct/zlib/json exception.
# ---------------------------------------------------------------------------
class TestMutationCorpus:
    def test_csv_bad_integer_carries_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0x10,1\n0x10,banana\n", encoding="utf-8")
        with pytest.raises(IngestError) as err:
            import_trace(path, name="bad")
        assert err.value.line == 2
        assert "line 2" in str(err.value)

    def test_csv_wrong_arity_and_bad_flag(self, tmp_path):
        for body in ("1,2,3,4,5\n", "1,2,3,maybe\n"):
            path = tmp_path / "bad.csv"
            path.write_text(body, encoding="utf-8")
            with pytest.raises(IngestError):
                import_trace(path, name="bad", force=True)

    def test_csv_binary_junk_is_typed(self, tmp_path):
        path = tmp_path / "junk.csv"
        path.write_bytes(bytes(range(256)) * 4)
        with pytest.raises(IngestError):
            import_trace(path, name="junk")

    def test_ndjson_bad_json_and_unknown_keys(self, tmp_path):
        path = tmp_path / "bad.ndjson"
        path.write_text('{"pc": 1, "value": 2}\n{not json}\n',
                        encoding="utf-8")
        with pytest.raises(IngestError) as err:
            import_trace(path, name="bad")
        assert err.value.line == 2
        path.write_text('{"pc": 1, "value": 2, "vaIue": 3}\n',
                        encoding="utf-8")
        with pytest.raises(IngestError) as err:
            import_trace(path, name="bad", force=True)
        assert "vaIue" in str(err.value)

    def test_cvp_truncation_carries_offset(self, tmp_path):
        source = _cvp_source(tmp_path / "t.cvp", rows=10)
        data = source.read_bytes()
        source.write_bytes(data[:-5])  # cut mid-record
        with pytest.raises(IngestError) as err:
            import_trace(source, name="cut")
        assert err.value.offset is not None
        assert "byte offset" in str(err.value)

    def test_cvp_unknown_kind(self, tmp_path):
        path = tmp_path / "t.cvp"
        path.write_bytes(bytes([250]) + b"\0" * 16)
        with pytest.raises(IngestError) as err:
            import_trace(path, name="bad")
        assert "unknown record kind 250" in str(err.value)
        assert err.value.offset == 0

    def test_champsim_truncation(self, tmp_path):
        source = _champsim_source(tmp_path / "t.champsimtrace", rows=4)
        source.write_bytes(source.read_bytes()[: 64 * 3 + 17])
        with pytest.raises(IngestError) as err:
            import_trace(source, name="cut")
        assert err.value.offset == 64 * 3

    @pytest.mark.parametrize("suffix", [".csv", ".ndjson", ".cvp",
                                        ".champsimtrace"])
    def test_empty_source_rejected(self, tmp_path, suffix):
        path = tmp_path / f"empty{suffix}"
        path.write_bytes(b"")
        with pytest.raises(IngestError):
            import_trace(path, name="empty")

    @pytest.mark.parametrize("mutate_at", [0, 9, 64, 200, -30, -1])
    def test_mutated_store_entry_is_typed(self, tmp_path, mutate_at):
        """Flipping any byte of a stored .rpt yields TraceFormatError."""
        source = _csv_source(tmp_path / "t.csv", rows=64)
        import_trace(source, name="mut")
        from repro.trace.ingest.store import trace_path

        path = trace_path("mut")
        data = bytearray(path.read_bytes())
        data[mutate_at] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(TraceFormatError):
            load_imported("mut")

    def test_gzip_junk_is_typed(self, tmp_path):
        path = tmp_path / "t.csv.gz"
        path.write_bytes(b"\x1f\x8b" + bytes(range(64)))
        with pytest.raises((IngestError, TraceFormatError, OSError)) as err:
            import_trace(path, name="gzjunk")
        assert not isinstance(err.value, (struct.error, zlib.error))


# ---------------------------------------------------------------------------
# Provenance store
# ---------------------------------------------------------------------------
class TestStore:
    def test_manifest_provenance_fields(self, tmp_path):
        source = _csv_source(tmp_path / "prov.csv", rows=33)
        doc = import_trace(source, name="prov",
                           options={"note": "unit-test"})
        assert doc["adapter"] == "csv"
        assert doc["source"] == str(source)
        assert doc["source_sha256"] == hashlib.sha256(
            source.read_bytes()).hexdigest()
        assert doc["options"] == {"note": "unit-test"}
        assert doc["events"] == 33
        assert doc["schema"] == 1
        assert manifest("prov") == doc  # written copy is identical

    def test_content_sha_is_deterministic(self, tmp_path):
        source = _csv_source(tmp_path / "a.csv", rows=20)
        import_trace(source, name="a1")
        import_trace(source, name="a2")
        assert (manifest("a1")["content_sha256"]
                == manifest("a2")["content_sha256"])

    def test_collision_requires_force(self, tmp_path):
        source = _csv_source(tmp_path / "a.csv", rows=10)
        import_trace(source, name="dup")
        with pytest.raises(IngestError):
            import_trace(source, name="dup")
        import_trace(source, name="dup", force=True)

    def test_names_are_validated(self, tmp_path):
        source = _csv_source(tmp_path / "a.csv", rows=5)
        with pytest.raises(IngestError):
            import_trace(source, name="gzip")  # shadows a benchmark
        with pytest.raises(IngestError):
            import_trace(source, name="adv-drift")  # shadows a scenario
        with pytest.raises(IngestError):
            import_trace(source, name="Bad Name!")
        assert validate_name("ok-name.v2") == "ok-name.v2"

    def test_derive_name_strips_stacked_suffixes(self):
        assert derive_name("/x/SPEC_gcc.Trace.CSV.gz") == "spec_gcc"
        assert derive_name("run.py") == "run"

    def test_list_and_remove(self, tmp_path):
        assert imported_names() == []
        import_trace(_csv_source(tmp_path / "b.csv", rows=5), name="b")
        import_trace(_csv_source(tmp_path / "c.csv", rows=5), name="c")
        assert imported_names() == ["b", "c"]
        assert remove("b") is True
        assert remove("b") is False
        assert imported_names() == ["c"]

    def test_missing_source_and_missing_workload(self, tmp_path):
        with pytest.raises(IngestError):
            import_trace(tmp_path / "nope.csv")
        with pytest.raises(IngestError):
            manifest("never-imported")
        with pytest.raises(IngestError):
            load_imported("never-imported")


# ---------------------------------------------------------------------------
# Registry + cache integration
# ---------------------------------------------------------------------------
class TestRegistryIntegration:
    def test_imported_workload_is_first_class(self, tmp_path):
        from repro.trace.cache import cached_trace, effective_length
        from repro.trace.workloads import get, is_known, known_names

        import_trace(_csv_source(tmp_path / "w.csv", rows=80), name="w")
        assert is_known("w") and "w" in known_names()
        spec = get("w")
        assert spec.fixed_length == 80
        assert effective_length(spec, 10_000) == 80
        packed = cached_trace("w", 10_000)  # clamped, not rejected
        assert len(packed) == 80
        assert len(cached_trace("w", 30)) == 30  # truncation works
        with pytest.raises(ValueError):
            spec.trace(50, code_copies=2)

    def test_cache_stats_origin_breakdown(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        from repro.trace.cache import TraceCache, cached_trace

        import_trace(_csv_source(tmp_path / "o.csv", rows=60), name="o")
        cached_trace("o", 30)   # an imported-origin disk entry (truncated)
        cached_trace("gzip", 500)  # a generated-origin entry
        stats = TraceCache().stats()
        origins = stats["origins"]
        assert origins["generated"]["entries"] == 1
        assert origins["imported"]["entries"] == 1
        assert origins["imported_store"]["workloads"] == 1
        assert origins["imported_store"]["bytes"] > 0

    def test_full_length_import_skips_disk_cache(self, tmp_path,
                                                 monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        from repro.telemetry import MetricsRegistry
        from repro.trace.cache import TraceCache

        import_trace(_csv_source(tmp_path / "f.csv", rows=40), name="f")
        registry = MetricsRegistry()
        cache = TraceCache(metrics=registry)
        packed = cache.load_or_generate("f", 40)
        assert len(packed) == 40
        assert registry.counters["cache.imported_hit"].value == 1
        assert cache.stats()["entries"] == 0  # served from the store

    def test_campaign_spec_accepts_imported_and_adversarial(self, tmp_path):
        from repro.campaign import CampaignSpec, SpecError

        import_trace(_csv_source(tmp_path / "cw.csv", rows=30), name="cw")
        spec = CampaignSpec.from_dict({
            "campaign": {"name": "t"},
            "defaults": {"kind": "predict", "predictor": "stride",
                         "length": 30},
            "matrix": {"bench": ["cw", "adv-drift"]},
        })
        assert len(spec.cells()) == 2
        with pytest.raises(SpecError):
            CampaignSpec.from_dict({
                "campaign": {"name": "t"},
                "defaults": {"kind": "predict", "predictor": "stride"},
                "matrix": {"bench": ["no-such-workload"]},
            })

    def test_ingest_telemetry_counters(self, tmp_path):
        from repro.telemetry import MetricsRegistry

        registry = MetricsRegistry()
        import_trace(_csv_source(tmp_path / "m.csv", rows=25), name="m",
                     metrics=registry)
        assert registry.counters["ingest.imports"].value == 1
        assert registry.counters["ingest.events"].value == 25
        assert registry.counters["ingest.dropped"].value == 0
        assert "ingest.csv" in registry.phases


# ---------------------------------------------------------------------------
# Live capture
# ---------------------------------------------------------------------------
class TestCapture:
    def _script(self, tmp_path, body):
        path = tmp_path / "prog.py"
        path.write_text(body, encoding="utf-8")
        return path

    def test_capture_is_deterministic(self, tmp_path):
        script = self._script(tmp_path, (
            "total = 0\n"
            "for i in range(200):\n"
            "    total = total + i * 3\n"
        ))
        a, dropped_a = capture_script(script)
        b, dropped_b = capture_script(script)
        assert dropped_a == dropped_b
        assert a.materialized_columns() == b.materialized_columns()
        assert len(a) > 200

    def test_capture_classifies_subscript_loads(self, tmp_path):
        script = self._script(tmp_path, (
            "arr = [i * 7 for i in range(64)]\n"
            "acc = 0\n"
            "for i in range(64):\n"
            "    v = arr[i]\n"
            "    acc = acc + v\n"
        ))
        packed, _ = capture_script(script)
        trace = packed.to_trace()
        loads = [i for i in trace if i.op is OpClass.LOAD]
        assert len(loads) >= 64  # every `v = arr[i]` store
        assert all(i.value is not None for i in loads)

    def test_capture_limit_and_drops(self, tmp_path):
        script = self._script(tmp_path, (
            "for i in range(100):\n"
            "    x = i\n"
            "    s = 'not-an-int'\n"
        ))
        packed, dropped = capture_script(script)
        assert dropped >= 100  # the string stores
        limited, _ = capture_script(script, limit=10)
        assert len(limited) == 10

    def test_capture_argv_changes_the_stream(self, tmp_path):
        script = self._script(tmp_path, (
            "import sys\n"
            "n = int(sys.argv[1]) if len(sys.argv) > 1 else 3\n"
            "acc = 0\n"
            "for i in range(n * 10):\n"
            "    acc = acc + i\n"
        ))
        small, _ = capture_script(script, argv=("1",))
        big, _ = capture_script(script, argv=("9",))
        assert len(big) > len(small)

    def test_capture_import_end_to_end(self, tmp_path):
        script = self._script(tmp_path, (
            "acc = 7\n"
            "for i in range(50):\n"
            "    acc = (acc * 1103515245 + i) % (1 << 31)\n"
        ))
        doc = import_trace(script, adapter="capture", name="cap",
                           options={"argv": (), "scope": "script"})
        assert doc["adapter"] == "capture"
        assert doc["events"] > 50
        assert "cap" in imported_names()

    def test_capture_missing_script(self, tmp_path):
        with pytest.raises(IngestError):
            capture_script(tmp_path / "missing.py")

    def test_capture_propagates_script_errors_typed(self, tmp_path):
        script = self._script(tmp_path, "raise RuntimeError('boom')\n")
        with pytest.raises(IngestError) as err:
            capture_script(script)
        assert "boom" in str(err.value)


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------
class TestCli:
    def test_import_list_info_remove(self, tmp_path, capsys):
        from repro.cli import main

        source = _csv_source(tmp_path / "cli.csv", rows=42)
        assert main(["trace", "import", str(source), "--name", "cliw"]) == 0
        out = capsys.readouterr().out
        assert "imported cliw: 42 events" in out
        assert main(["trace", "list"]) == 0
        assert "cliw" in capsys.readouterr().out
        assert main(["trace", "info", "cliw"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["name"] == "cliw" and doc["events"] == 42
        assert main(["trace", "remove", "cliw"]) == 0
        assert main(["trace", "remove", "cliw"]) == 1

    def test_import_argument_validation(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["trace", "import"])  # neither source nor --capture
        with pytest.raises(SystemExit):
            main(["trace", "import", str(tmp_path / "nope.csv")])

    def test_legacy_trace_spelling_still_generates(self, capsys):
        from repro.cli import main

        assert main(["trace", "gzip", "--length", "1500"]) == 0
        assert "1500 instructions" in capsys.readouterr().out

    def test_predict_accepts_imported_workload(self, tmp_path, capsys):
        from repro.cli import main

        source = _csv_source(tmp_path / "p.csv", rows=60)
        assert main(["trace", "import", str(source), "--name", "pw"]) == 0
        capsys.readouterr()
        assert main(["predict", "pw", "--predictors", "stride"]) == 0
        assert "stride" in capsys.readouterr().out

    def test_workloads_only_imported(self, tmp_path, capsys):
        from repro.cli import main

        source = _csv_source(tmp_path / "wb.csv", rows=64)
        assert main(["trace", "import", str(source), "--name", "wbw"]) == 0
        capsys.readouterr()
        assert main(["workloads", "--groups", "imported", "--only", "wbw",
                     "--predictors", "stride", "--no-progress"]) == 0
        out = capsys.readouterr().out
        assert "wbw" in out and "imported" in out

    def test_cache_stats_renders_origins(self, tmp_path, capsys):
        from repro.cli import main

        source = _csv_source(tmp_path / "cs.csv", rows=32)
        assert main(["trace", "import", str(source), "--name", "csw"]) == 0
        capsys.readouterr()
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "origin generated" in out
        assert "import store" in out and "1 workload(s)" in out
