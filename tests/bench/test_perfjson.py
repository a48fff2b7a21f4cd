"""The BENCH_*.json perf-report schema: validation, comparison,
round-trips, the pinned suite, and the ``bench`` CLI subcommand."""

import json

import pytest

from repro.bench import perfjson
from repro.bench.perfjson import (
    BenchEntry,
    compare_reports,
    environment_fingerprint,
    load_report,
    make_report,
    run_perf_suite,
    validate_report,
    write_report,
)
from repro.cli import main


def entry(name, best=0.01, mean=0.02, group="g"):
    return BenchEntry(name, group, best, mean, 3, {})


class TestSchema:
    def test_fingerprint_has_required_keys(self):
        env = environment_fingerprint()
        assert isinstance(env["python"], str)
        assert env["implementation"]
        assert env["platform"]
        assert env["cpu_count"] >= 1
        # git_sha is best-effort: a 40-hex string inside a checkout.
        if env["git_sha"] is not None:
            assert len(env["git_sha"]) == 40

    def test_make_and_validate(self):
        report = make_report("t", [entry("a"), entry("b")])
        validate_report(report)
        assert report["schema"] == perfjson.SCHEMA
        assert report["tag"] == "t"
        assert len(report["entries"]) == 2

    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "BENCH_t.json")
        report = make_report("t", [entry("a")])
        write_report(path, report)
        assert load_report(path) == report

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.pop("schema"),
            lambda d: d.update(schema="other/9"),
            lambda d: d.update(tag=""),
            lambda d: d.pop("environment"),
            lambda d: d["environment"].pop("cpu_count"),
            lambda d: d.update(entries={}),
            lambda d: d["entries"].append(d["entries"][0]),  # duplicate name
            lambda d: d["entries"][0].update(best=-1.0),
            lambda d: d["entries"][0].update(repeats=0),
            lambda d: d["entries"][0].update(name=""),
        ],
    )
    def test_validate_rejects(self, mutate):
        report = make_report("t", [entry("a")])
        mutate(report)
        with pytest.raises(ValueError):
            validate_report(report)

    def test_write_refuses_invalid(self, tmp_path):
        report = make_report("t", [entry("a")])
        report["entries"][0]["best"] = -1
        with pytest.raises(ValueError):
            write_report(str(tmp_path / "x.json"), report)


class TestCompare:
    def test_flags_regressions_beyond_threshold(self):
        base = make_report("base", [entry("a", best=0.010),
                                    entry("b", best=0.010)])
        cur = make_report("cur", [entry("a", best=0.024),
                                  entry("b", best=0.026)])
        rows = compare_reports(cur, base, max_regression=2.5)
        by_name = {r["name"]: r for r in rows}
        assert not by_name["a"]["regressed"]
        assert by_name["b"]["regressed"]
        assert by_name["b"]["ratio"] == pytest.approx(2.6)

    def test_ignores_entries_present_in_only_one_report(self):
        base = make_report("base", [entry("a"), entry("old")])
        cur = make_report("cur", [entry("a"), entry("new")])
        rows = compare_reports(cur, base)
        assert [r["name"] for r in rows] == ["a"]

    def test_zero_baseline(self):
        base = make_report("base", [entry("a", best=0.0)])
        cur = make_report("cur", [entry("a", best=0.001)])
        (row,) = compare_reports(cur, base)
        assert row["regressed"]


class TestSuite:
    def test_only_filter_runs_a_subset(self):
        entries = run_perf_suite(repeats=1, only="gen/adr3")
        assert [e.name for e in entries] == ["gen/adr3[2]"]
        assert entries[0].best > 0
        assert entries[0].mean >= entries[0].best

    def test_gen_entries_record_the_traced_peak(self):
        (e,) = run_perf_suite(repeats=1, only="gen/adr3")
        assert 0 < e.meta["peak_mib"] < 64
        degrees = [step["degree"] for step in e.meta["steps"]]
        assert degrees == list(range(len(degrees)))

    def test_covering_entries_record_sizes(self):
        entries = run_perf_suite(repeats=1, only="covering_build/adr4[3]")
        (e,) = entries
        assert e.meta["rows"] > 0
        assert e.meta["candidates"] > 0

    def test_profile_dir_gets_one_dump_per_entry(self, tmp_path):
        profile_dir = tmp_path / "profiles"
        entries = run_perf_suite(
            repeats=1, only="gen/", profile_dir=str(profile_dir)
        )
        dumps = sorted(p.name for p in profile_dir.iterdir())
        assert dumps == sorted(
            e.name.replace("/", "_").replace("[", "").replace("]", "") + ".txt"
            for e in entries
        )
        text = (profile_dir / dumps[0]).read_text()
        assert "cumulative" in text  # sorted by cumulative time
        assert "generate_eppp" in text  # the entry under profile shows up


class TestCli:
    def test_bench_writes_schema_valid_report(self, tmp_path, capsys):
        path = str(tmp_path / "BENCH_smoke.json")
        assert main(["bench", "--json", path, "--repeats", "1",
                     "--only", "gen/adr3"]) == 0
        report = load_report(path)
        assert report["tag"] == "smoke"
        assert [e["name"] for e in report["entries"]] == ["gen/adr3[2]"]

    def test_bench_profile_flag_writes_dumps(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)  # --profile writes under ./results/
        path = str(tmp_path / "BENCH_smoke.json")
        assert main(["bench", "--json", path, "--repeats", "1",
                     "--only", "gen/adr3", "--profile"]) == 0
        dumps = list((tmp_path / "results" / "profile_smoke").iterdir())
        assert [p.name for p in dumps] == ["gen_adr32.txt"]
        assert "cProfile" in capsys.readouterr().out

    def test_bench_baseline_regression_fails(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        fast = make_report("baseline",
                           [entry("gen/adr3[2]", best=1e-9, group="gen")])
        write_report(str(baseline), fast)
        path = str(tmp_path / "BENCH_x.json")
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--json", path, "--repeats", "1",
                  "--only", "gen/adr3", "--baseline", str(baseline)])
        assert exc.value.code == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_bench_baseline_pass(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        slow = make_report("baseline",
                           [entry("gen/adr3[2]", best=1e9, group="gen")])
        write_report(str(baseline), slow)
        path = str(tmp_path / "BENCH_x.json")
        assert main(["bench", "--json", path, "--repeats", "1",
                     "--only", "gen/adr3", "--baseline", str(baseline)]) == 0

    def test_tables_perf_json(self, tmp_path, capsys):
        path = str(tmp_path / "BENCH_tables.json")
        assert main(["tables", "table1", "--quick", "--perf-json", path]) == 0
        report = load_report(path)
        assert report["tag"] == "tables-table1"
        names = [e["name"] for e in report["entries"]]
        assert any(n.startswith("tables/table1/") and n.endswith("/spp")
                   for n in names)
        # The SPP rows must surface the mincov reduction report.
        spp = [e for e in report["entries"] if e["name"].endswith("/spp")]
        reductions = [e["meta"]["reduction"] for e in spp
                      if "reduction" in e["meta"]]
        assert reductions
        for stats in reductions:
            assert stats["rows"] >= stats["core_rows"] >= 0
            assert stats["columns"] >= stats["core_columns"] >= 0

    def test_committed_artifacts_are_valid_and_fast(self):
        # The committed before/after pair must stay schema-valid, and
        # the kernel build must hold its >= 2x win on every pinned
        # covering_build entry.
        from pathlib import Path

        bench_dir = Path(__file__).resolve().parents[2] / "benchmarks"
        before = load_report(str(bench_dir / "BENCH_prekernel.json"))
        after = load_report(str(bench_dir / "BENCH_kernels.json"))
        validate_report(load_report(str(bench_dir / "baseline.json")))
        rows = compare_reports(after, before, max_regression=1.0)
        builds = [r for r in rows if r["name"].startswith("covering_build/")]
        assert len(builds) == 3
        for row in builds:
            assert row["ratio"] <= 0.5, row
        e2e = [r for r in rows if r["name"].startswith("e2e/")]
        assert len(e2e) == 3

    def test_committed_genkernels_artifacts_show_generation_speedup(self):
        # The generation-kernel record (BENCH_mincov is its before):
        # every gen entry >= 2x faster than the committed before, every
        # gen entry carries a same-process paired fallback speedup
        # >= 2.5x (the noise-immune statistic), and no e2e entry
        # regressed.
        from pathlib import Path

        bench_dir = Path(__file__).resolve().parents[2] / "benchmarks"
        before = load_report(str(bench_dir / "BENCH_mincov.json"))
        after = load_report(str(bench_dir / "BENCH_genkernels.json"))
        rows = compare_reports(after, before, max_regression=1.0)
        gens = [r for r in rows if r["name"].startswith("gen/")]
        assert len(gens) == 3
        for row in gens:
            assert row["ratio"] <= 0.5, row
        amap = {e["name"]: e for e in after["entries"]}
        for row in gens:
            meta = amap[row["name"]]["meta"]
            assert meta["fallback_best"] > 0
            assert meta["speedup"] >= 2.5, (row["name"], meta["speedup"])
        e2e = [r for r in rows if r["name"].startswith("e2e/")]
        assert len(e2e) == 3
        for row in e2e:
            assert row["ratio"] <= 1.0, row

    def test_committed_columnar_artifacts_show_build_speedup(self):
        # The columnar-candidates record: BENCH_precolumnar.json (the
        # parent tree with this bench harness) -> BENCH_columnar.json,
        # each `bench --only gen/` plus `--only covering_`.  Every
        # covering_build entry builds from columns at least 3x faster
        # than its same-process scalar control (the CI floor) and at
        # most half as long as before; the gen and covering_solve
        # entries are all there.
        from pathlib import Path

        bench_dir = Path(__file__).resolve().parents[2] / "benchmarks"
        before = load_report(str(bench_dir / "BENCH_precolumnar.json"))
        after = load_report(str(bench_dir / "BENCH_columnar.json"))
        rows = compare_reports(after, before, max_regression=1.0)
        groups = [r["name"].split("/")[0] for r in rows]
        assert groups.count("gen") == 6
        assert groups.count("covering_solve") == 3
        builds = [r for r in rows if r["name"].startswith("covering_build/")]
        assert len(builds) == 3
        amap = {e["name"]: e for e in after["entries"]}
        for row in builds:
            assert row["ratio"] <= 0.5, row
            assert amap[row["name"]]["meta"]["speedup"] >= 3.0, row["name"]

    def test_committed_delta_artifacts_show_warm_speedup(self):
        # The incremental re-minimization record: every delta entry
        # carries a same-process paired cold-solve speedup >= 5x with
        # the bit-identical-cover claim checked (the bench raises on
        # any warm/cold mismatch, so identical_cover is load-bearing)
        # and at least one counted warm hit.
        from pathlib import Path

        bench_dir = Path(__file__).resolve().parents[2] / "benchmarks"
        report = load_report(str(bench_dir / "BENCH_delta.json"))
        deltas = [e for e in report["entries"]
                  if e["name"].startswith("delta/")]
        assert len(deltas) == 3
        for entry in deltas:
            meta = entry["meta"]
            assert meta["identical_cover"] is True, entry["name"]
            assert meta["warm_hits"] >= 1, entry["name"]
            assert meta["cold_best"] > 0, entry["name"]
            assert meta["speedup_mean"] >= 5.0, (
                entry["name"], meta["speedup_mean"])

    def test_committed_mincov_artifacts_show_covering_speedup(self):
        # The mincov before/after pair: >= 1.5x mean improvement on at
        # least two covering_solve entries, with the cover costs
        # unchanged from the pre-mincov greedy (pinned values) and the
        # reduction report present in the after entries.
        from pathlib import Path

        bench_dir = Path(__file__).resolve().parents[2] / "benchmarks"
        before = load_report(str(bench_dir / "BENCH_premincov.json"))
        after = load_report(str(bench_dir / "BENCH_mincov.json"))
        bmap = {e["name"]: e for e in before["entries"]}
        amap = {e["name"]: e for e in after["entries"]}
        solves = [n for n in bmap if n.startswith("covering_solve/")]
        assert len(solves) == 3
        wins = sum(
            1 for n in solves if bmap[n]["mean"] / amap[n]["mean"] >= 1.5
        )
        assert wins >= 2
        expected_costs = {
            "covering_solve/adr4[3]": 27,
            "covering_solve/adr4[4]": 20,
            "covering_solve/life[0]": 131,
        }
        for name, cost in expected_costs.items():
            assert amap[name]["meta"]["cost"] == cost
            assert "reduction" in amap[name]["meta"]
