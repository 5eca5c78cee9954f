"""The `python -m repro` command-line entry point."""

import re
from pathlib import Path

import pytest

from repro.__main__ import COMMANDS, main
from repro.errors import ConfigurationError

ROOT = Path(__file__).resolve().parent.parent
MAKEFILE = (ROOT / "Makefile").read_text()


class TestCli:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "$4.58" in out and "$4.32" in out

    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "$0.26" in out and "$0.84" in out

    def test_table2_full_accounting(self, capsys):
        assert main(["table2", "--full"]) == 0
        out = capsys.readouterr().out
        assert "full accounting" in out

    def test_table3_runs_the_prototype(self, capsys):
        assert main(["table3", "--messages", "5", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "Med. Lambda Time Billed" in out
        assert "448 MB" in out

    def test_tcb(self, capsys):
        assert main(["tcb"]) == 0
        out = capsys.readouterr().out
        assert "TCB reduction" in out

    def test_ha(self, capsys):
        assert main(["ha"]) == 0
        out = capsys.readouterr().out
        assert "50x" in out or "x DIY" in out

    def test_advise(self, capsys):
        assert main(["advise", "--target-ms", "150"]) == 0
        out = capsys.readouterr().out
        assert "recommended" in out
        assert "640" in out  # the billing-cliff sweet spot

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestReplayCli:
    def test_scenarios_lists_counts_and_golden_digests(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        for name in ("flash-crowd", "viral-groupchat", "iot-fleet",
                     "mailing-list-storm", "backup-day"):
            assert name in out
        assert "3,669" in out  # backup-day's event count at seed 2017
        assert "677c19c4ef2c1fb0" in out  # ... and its digest prefix

    def test_scenarios_json_carries_full_digests(self, capsys):
        import json

        assert main(["scenarios", "--json"]) == 0
        catalog = json.loads(capsys.readouterr().out)
        by_name = {entry["name"]: entry for entry in catalog}
        assert by_name["backup-day"]["trace_sha256"] == (
            "677c19c4ef2c1fb0b4ce1779a556679924cc4b40ade34f7b18f70df18bb8abfa"
        )
        assert by_name["iot-fleet"]["events"] == 11757

    def test_record_then_replay_round_trip(self, capsys, tmp_path):
        trace = str(tmp_path / "t.jsonl.gz")
        assert main(["record", "--tenants", "2", "--daily-requests", "200",
                     "--days", "0.5", "--seed", "11", "--out", trace]) == 0
        recorded = capsys.readouterr().out
        assert "Events recorded" in recorded and "wrote" in recorded
        assert main(["replay", trace, "--workers", "2"]) == 0
        replayed = capsys.readouterr().out
        assert "Events replayed" in replayed
        # Both sides print the same trace digest — the replay really
        # consumed the file the recorder wrote.
        digest = [line.split()[-1] for line in recorded.splitlines()
                  if line.startswith("Trace sha256")][0]
        assert digest in replayed

    def test_record_and_both_replays_bill_alike(self, capsys, tmp_path):
        trace = str(tmp_path / "t.jsonl.gz")
        rec_metrics, rep_metrics = tmp_path / "rec.jsonl", tmp_path / "rep.jsonl"
        runs = [
            ["record", "--tenants", "3", "--daily-requests", "300", "--days", "0.5",
             "--seed", "11", "--chunk", "64", "--out", trace,
             "--metrics", "--metrics-out", str(rec_metrics)],
            ["replay", trace],
            ["replay", trace, "--workers", "2"],
            ["replay", trace, "--metrics", "--metrics-out", str(rep_metrics)],
        ]
        bills = []
        for argv in runs:
            assert main(argv) == 0
            out = capsys.readouterr().out
            bills.append([line.split()[-1] for line in out.splitlines()
                          if line.startswith(("Billed units ", "Invoice "))])
        assert len(bills[0]) == 2
        assert bills == [bills[0]] * len(runs)
        assert rec_metrics.read_bytes() == rep_metrics.read_bytes()

    def test_replay_scenario_by_name(self, capsys):
        assert main(["replay", "--scenario", "viral-groupchat"]) == 0
        out = capsys.readouterr().out
        assert "2,202" in out  # the scenario's golden event count

    def test_replay_without_source_exits(self):
        with pytest.raises(SystemExit):
            main(["replay"])


class TestSloCli:
    def test_slo_scenario_prints_detection_tables(self, capsys, tmp_path):
        jsonl = str(tmp_path / "health.jsonl")
        prom = str(tmp_path / "health.prom")
        assert main(["slo", "--scenario", "regional-storm", "--seed", "7",
                     "--probes", "60", "--jsonl", jsonl, "--prom", prom]) == 0
        out = capsys.readouterr().out
        assert "SLO scenario 'regional-storm'" in out
        assert "Ground truth" in out and "Burn-rate alerts" in out
        assert "Exposition sha256" in out
        with open(jsonl) as fh:
            first = fh.readline()
        assert first.startswith("{")
        with open(prom) as fh:
            assert "# TYPE diy_gateway_requests_total counter" in fh.read()

    def test_bench_slo_writes_detection_benchmark(self, capsys, tmp_path):
        import json

        out_path = str(tmp_path / "BENCH_slo.json")
        assert main(["bench-slo", "--out", out_path]) == 0
        out = capsys.readouterr().out
        assert "Alert detection benchmark" in out
        assert "delivery SLO" in out
        with open(out_path) as fh:
            bench = json.load(fh)
        assert bench["bench"] == "slo_detection"
        assert bench["precision"] >= 0.9
        assert bench["recall"] >= 0.9
        assert bench["all_windows_detected"] is True
        assert sorted(bench["digests"]) == ["backend-burn", "regional-storm"]

    def test_record_and_replay_metrics_expositions_are_byte_identical(
            self, capsys, tmp_path):
        trace = str(tmp_path / "t.jsonl.gz")
        rec_metrics = str(tmp_path / "rec.jsonl")
        rep_metrics = str(tmp_path / "rep.jsonl")
        assert main(["record", "--tenants", "2", "--daily-requests", "150",
                     "--days", "0.5", "--seed", "11", "--out", trace,
                     "--metrics", "--metrics-out", rec_metrics]) == 0
        recorded = capsys.readouterr().out
        assert "Exposition sha256" in recorded
        assert main(["replay", trace, "--metrics",
                     "--metrics-out", rep_metrics]) == 0
        replayed = capsys.readouterr().out
        assert "Exposition sha256" in replayed
        with open(rec_metrics, "rb") as a, open(rep_metrics, "rb") as b:
            assert a.read() == b.read()

    def test_record_refuses_a_size_lambda_does_not_offer(self, tmp_path):
        trace = tmp_path / "t.jsonl.gz"
        with pytest.raises(ConfigurationError,
                           match=r"memory_mb must be a deployable size .*got 1000"):
            main(["record", "--tenants", "1", "--memory-mb", "1000", "--out", str(trace)])
        assert not trace.exists()

    def test_replay_metrics_refuses_chaos_mode(self, tmp_path):
        trace = str(tmp_path / "t.jsonl.gz")
        assert main(["record", "--tenants", "1", "--daily-requests", "50",
                     "--days", "0.5", "--seed", "3", "--out", trace]) == 0
        with pytest.raises(SystemExit):
            main(["replay", trace, "--metrics", "--chaos"])


class TestMakefileTargets:
    """Every command, file, and marker the Makefile names must exist."""

    @pytest.mark.parametrize("command", sorted(set(re.findall(r"-m repro ([\w-]+)", MAKEFILE))))
    def test_repro_subcommand_is_registered(self, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0

    @pytest.mark.parametrize("path", sorted(set(re.findall(r"benchmarks/[\w/]+\.py", MAKEFILE))))
    def test_benchmark_path_exists(self, path):
        assert (ROOT / path).is_file()

    def test_pytest_markers_are_declared(self):
        pyproject = (ROOT / "pyproject.toml").read_text()
        markers = re.search(r"^markers = \[(.*?)^\]", pyproject, re.M | re.S).group(1)
        declared = set(re.findall(r'^\s*"(\w+):', markers, re.M))
        used = {
            marker
            for line in MAKEFILE.splitlines() if "-m pytest" in line
            for marker in re.findall(r"\s-m\s+(\w+)", line.split("-m pytest", 1)[1])
        }
        assert used, "no -m markers found in the Makefile"
        assert used <= declared


class TestCommandTable:
    """Every table entry is a working command, and each tracked
    ``BENCH_*.json`` record has exactly one writer in the table."""

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_every_command_answers_help(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: python -m repro {command} ")

    def test_tracked_records_are_the_records_the_table_writes(self):
        records = [command["bench"] for command in COMMANDS.values() if "bench" in command]
        assert len(records) == len(set(records)), "a BENCH record has two writers"
        assert set(records) == {path.name for path in ROOT.glob("BENCH_*.json")}

    @pytest.mark.parametrize("name", [name for name, command in COMMANDS.items()
                                      if "bench" in command])
    def test_each_record_is_written_by_default_or_by_its_make_target(self, name):
        command = COMMANDS[name]
        out = dict(command["args"])["--out"]["default"]
        if out is None:
            assert re.search(rf"-m repro {name} .*--out {re.escape(command['bench'])}$",
                             MAKEFILE, re.M)
        else:
            assert out == command["bench"]

    def test_chaos_record_carries_its_control_run(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "BENCH_chaos.json"
        assert main(["chaos", "--tenants", "1", "--messages", "6",
                     "--out", str(out_path)]) == 0
        assert capsys.readouterr().out.endswith(f"wrote {out_path}\n")
        record = json.loads(out_path.read_text())
        assert list(record)[:4] == ["headline", "env", "runs", "digests"]
        assert record["chaos"] is True
        assert record["control"]["retries"] == 0
        assert record["control"]["eventual_delivery_rate"] == 1.0
