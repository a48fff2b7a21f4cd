"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_minimize_defaults(self):
        args = build_parser().parse_args(["minimize", "adr2"])
        assert args.method == "exact"
        assert args.covering == "greedy"


class TestCommands:
    def test_benchmarks_listing(self, capsys):
        assert main(["benchmarks"]) == 0
        out = capsys.readouterr().out
        assert "adr4" in out and "surrogate" in out

    def test_benchmarks_dump_is_pla(self, capsys):
        assert main(["benchmarks", "--dump", "adr2"]) == 0
        out = capsys.readouterr().out
        assert out.startswith(".i 4")
        from repro.boolfunc.pla import parse_pla

        parsed = parse_pla(out)
        assert parsed.num_outputs == 3

    def test_minimize_benchmark_by_name(self, capsys):
        assert main(["minimize", "adr2", "--method", "exact", "--show"]) == 0
        out = capsys.readouterr().out
        assert "SPP" in out and "literals" in out

    def test_minimize_single_output_heuristic(self, capsys):
        assert main(["minimize", "adr3", "--output", "2", "--method",
                     "heuristic", "-k", "1"]) == 0
        assert "SPP" in capsys.readouterr().out

    def test_minimize_sp(self, capsys):
        assert main(["minimize", "adr2", "--method", "sp"]) == 0
        assert "SP " in capsys.readouterr().out

    def test_minimize_bounded(self, capsys):
        assert main(["minimize", "adr2", "--method", "bounded", "--bound", "2"]) == 0
        assert "SPP" in capsys.readouterr().out

    def test_minimize_aox(self, capsys):
        assert main(["minimize", "adr2", "--method", "aox", "--show"]) == 0
        assert "AOX" in capsys.readouterr().out

    def test_minimize_pla_file(self, tmp_path, capsys):
        pla = tmp_path / "f.pla"
        pla.write_text(".i 2\n.o 1\n01 1\n10 1\n.e\n")
        assert main(["minimize", str(pla), "--show"]) == 0
        out = capsys.readouterr().out
        assert "(+)" in out  # the XOR pseudoproduct

    def test_minimize_trie_backend(self, capsys):
        assert main(["minimize", "adr2", "--backend", "trie"]) == 0
        assert "SPP" in capsys.readouterr().out

    def test_constant_zero_output_skipped(self, tmp_path, capsys):
        pla = tmp_path / "z.pla"
        pla.write_text(".i 2\n.o 1\n.type fr\n01 0\n.e\n")
        assert main(["minimize", str(pla)]) == 0
        assert "constant 0" in capsys.readouterr().out


class TestExportFlags:
    def test_verilog_export(self, tmp_path, capsys):
        target = tmp_path / "out.v"
        assert main(["minimize", "adr2", "--verilog", str(target),
                     "--module", "m"]) == 0
        text = target.read_text()
        assert "module m" in text and "assign f0" in text

    def test_blif_export(self, tmp_path, capsys):
        target = tmp_path / "out.blif"
        assert main(["minimize", "adr2", "--blif", str(target)]) == 0
        text = target.read_text()
        assert ".model f0" in text and ".end" in text

    def test_multi_method_with_export(self, tmp_path, capsys):
        target = tmp_path / "joint.v"
        assert main(["minimize", "adr2", "--method", "multi",
                     "--verilog", str(target)]) == 0
        out = capsys.readouterr().out
        assert "shared literals" in out
        assert "module" in target.read_text()


class TestTables:
    def test_fig34_runs(self, capsys):
        assert main(["tables", "fig34"]) == 0
        out = capsys.readouterr().out
        assert "SPP_k" in out

    def test_table3_runs(self, capsys):
        assert main(["tables", "table3"]) == 0
        out = capsys.readouterr().out
        assert "Table 3" in out and "SPP0" in out

    def test_table2_runs(self, capsys):
        assert main(["tables", "table2"]) == 0
        assert "naive" in capsys.readouterr().out

    def test_quick_is_the_default(self):
        args = build_parser().parse_args(["tables", "table1"])
        assert args.quick is True

    def test_full_flag_disables_quick(self):
        args = build_parser().parse_args(["tables", "table1", "--full"])
        assert args.quick is False

    def test_quick_flag_still_accepted(self):
        args = build_parser().parse_args(["tables", "table1", "--quick"])
        assert args.quick is True

    def test_quick_and_full_are_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["tables", "table1", "--quick", "--full"])

    def test_table1_through_engine(self, capsys):
        assert main(["tables", "table1", "--jobs", "0"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "adr2" in out


class TestBatch:
    def test_batch_matches_sequential_minimize(self, tmp_path, capsys):
        from repro.bench.suite import get_benchmark
        from repro.minimize.exact import minimize_spp

        assert main(["batch", "adr2", "adr3", "--jobs", "4",
                     "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        lines = [ln for ln in out.splitlines() if "literals" in ln]
        assert len(lines) >= 4  # >= 4 benchmark outputs
        expected = {}
        for name in ("adr2", "adr3"):
            func = get_benchmark(name)
            for o, fo in enumerate(func.outputs):
                if fo.on_set:
                    expected[f"{name}[{o}]"] = minimize_spp(fo).num_literals
        for line in lines:
            label, count = line.split()[0], int(line.split("literals")[0].split()[-1])
            assert expected[label] == count

    def test_second_run_hits_cache_per_job(self, tmp_path, capsys):
        assert main(["batch", "adr2", "--jobs", "0",
                     "--cache-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["batch", "adr2", "--jobs", "0",
                     "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert out.count("[cache]") == 3  # every adr2 job served from cache
        assert "3 hits" in out

    def test_timeout_degrades_and_manifest_records_rung(self, tmp_path, capsys):
        # max512's outputs need ~1 s on the exact rung, far past 20 ms.
        assert main(["batch", "max512", "--jobs", "0", "--timeout", "0.02",
                     "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "degraded" in out
        import json

        manifest = json.loads(
            (tmp_path / "manifest" / "manifest.json").read_text()
        )
        entry = manifest["jobs"][0]
        assert entry["degraded"] is True
        assert entry["rung"] != "exact"
        assert [a["rung"] for a in entry["attempts"]][0] == "exact"

    def test_resume_skips_completed(self, tmp_path, capsys):
        assert main(["batch", "adr2", "--jobs", "0",
                     "--cache-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["batch", "adr2", "--jobs", "0", "--resume",
                     "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert out.count("[manifest]") == 3

    def test_resume_without_manifest_dir_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["batch", "adr2", "--resume"])

    def test_pla_file_target(self, tmp_path, capsys):
        pla = tmp_path / "f.pla"
        pla.write_text(".i 2\n.o 1\n01 1\n10 1\n.e\n")
        assert main(["batch", str(pla), "--jobs", "0"]) == 0
        out = capsys.readouterr().out
        assert "f.pla[0]" in out and "1 computed" in out
