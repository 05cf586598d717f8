"""Unit tests for the command-line interface."""

import io
import json
import multiprocessing
import os
import signal
import socket
import subprocess
import sys

import pytest

from repro.cli import main
from tests.service.conftest import serve  # noqa: F401  (shared fixture)


SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

SG_SOURCE = """
sg(X, Y) :- sibling(X, Y).
sg(X, Y) :- parent(X, X1), sg(X1, Y1), parent(Y, Y1).
parent(ann, carol).
parent(bob, dan).
sibling(carol, dan).
"""


@pytest.fixture
def program_file(tmp_path):
    path = tmp_path / "family.pl"
    path.write_text(SG_SOURCE)
    return str(path)


def run(argv, stdin_text=""):
    out = io.StringIO()
    code = main(argv, stdin=io.StringIO(stdin_text), stdout=out)
    return code, out.getvalue()


class TestBatchQueries:
    def test_simple_query(self, program_file):
        code, output = run([program_file, "-q", "sg(ann, Y)"])
        assert code == 0
        assert "sg(ann, bob)" in output
        assert "1 answer(s)" in output

    def test_strategy_shown(self, program_file):
        _, output = run([program_file, "-q", "sg(ann, Y)"])
        assert "[counting]" in output

    def test_explain(self, program_file):
        _, output = run([program_file, "-q", "sg(ann, Y)", "--explain"])
        assert "strategy:" in output

    def test_stats(self, program_file):
        _, output = run([program_file, "-q", "sg(ann, Y)", "--stats"])
        assert "derived_tuples" in output or "join_probes" in output

    def test_proof(self, program_file):
        _, output = run([program_file, "-q", "sg(ann, bob)", "--proof"])
        assert "proof of first answer:" in output
        assert "[fact]" in output

    def test_multiple_queries(self, program_file):
        code, output = run(
            [program_file, "-q", "sg(ann, Y)", "-q", "parent(ann, Z)"]
        )
        assert code == 0
        assert "parent(ann, carol)" in output

    def test_unknown_predicate_fails(self, program_file):
        code, output = run([program_file, "-q", "mystery(X)"])
        assert code == 1
        assert "error" in output

    def test_missing_file(self):
        code, output = run(["/nonexistent/path.pl", "-q", "p(X)"])
        assert code == 1
        assert "cannot read" in output

    def test_unparsable_file(self, tmp_path):
        bad = tmp_path / "bad.pl"
        bad.write_text("p(X :- q.")
        code, output = run([str(bad), "-q", "p(X)"])
        assert code == 1
        assert "cannot parse" in output

    def test_constraint_query(self, tmp_path):
        path = tmp_path / "nums.pl"
        path.write_text("num(1). num(5). num(9).")
        _, output = run([str(path), "-q", "num(X), X > 3"])
        assert "num(5)" in output
        assert "num(9)" in output
        assert "num(1)" not in output


class TestRepl:
    def test_query_and_quit(self, program_file):
        code, output = run([program_file], "?- sg(ann, Y).\n:quit\n")
        assert code == 0
        assert "sg(ann, bob)" in output

    def test_plan_command(self, program_file):
        _, output = run([program_file], ":plan sg(ann, Y)\n:quit\n")
        assert "strategy:" in output

    def test_proof_command(self, program_file):
        _, output = run([program_file], ":proof parent(ann, carol)\n:quit\n")
        assert "[fact]" in output

    def test_facts_command(self, program_file):
        _, output = run([program_file], ":facts\n:quit\n")
        assert "parent/2: 2 facts" in output

    def test_unknown_command(self, program_file):
        _, output = run([program_file], ":wat\n:quit\n")
        assert "unknown command" in output

    def test_bad_query_recovers(self, program_file):
        _, output = run(
            [program_file], "?- nope(X).\n?- sg(ann, Y).\n:quit\n"
        )
        assert "error" in output
        assert "sg(ann, bob)" in output

    def test_empty_lines_skipped(self, program_file):
        code, _ = run([program_file], "\n\n:quit\n")
        assert code == 0


class TestTraceAndMetrics:
    def test_trace_flag_prints_report(self, program_file):
        code, output = run([program_file, "-q", "sg(ann, Y)", "--trace"])
        assert code == 0
        assert "(ann, bob)" in output
        assert "strategy:" in output
        assert "expansion ratios (observed vs predicted):" in output

    def test_trace_fixpoint_strategy_prints_rounds(self, program_file):
        # The free query routes to magic sets, which runs to fixpoint.
        code, output = run([program_file, "-q", "sg(X, Y)", "--trace"])
        assert code == 0
        assert "rounds:" in output
        assert "round 1:" in output

    def test_trace_json_writes_report(self, program_file, tmp_path):
        import json

        target = tmp_path / "trace.json"
        code, output = run(
            [
                program_file,
                "-q",
                "sg(X, Y)",
                "--trace",
                "--trace-json",
                str(target),
            ]
        )
        assert code == 0
        report = json.loads(target.read_text())
        assert report["query"] == "sg(X, Y)"
        assert report["rounds"]
        assert report["expansion"]

    def test_trace_json_to_stdout(self, program_file):
        code, output = run(
            [program_file, "-q", "sg(ann, Y)", "--trace", "--trace-json", "-"]
        )
        assert code == 0
        assert '"rounds"' in output

    def test_trace_json_without_trace_errors(self, program_file):
        code, output = run(
            [program_file, "-q", "sg(ann, Y)", "--trace-json", "-"]
        )
        assert code == 1
        assert "--trace-json needs --trace" in output

    def test_trace_bad_query_recovers(self, program_file):
        code, output = run([program_file, "-q", "nosuch(X)", "--trace"])
        assert code == 1
        assert "error" in output

    def test_metrics_flag_prints_prometheus_text(self, program_file):
        code, output = run([program_file, "-q", "sg(ann, Y)", "--metrics"])
        assert code == 0
        assert "# TYPE repro_queries_total counter" in output
        assert "repro_queries_total 1" in output
        assert 'quantile="0.95"' in output

    def test_repl_trace_command(self, program_file):
        _, output = run([program_file], ":trace sg(ann, Y).\n:quit\n")
        assert "(ann, bob)" in output
        assert "expansion ratios (observed vs predicted):" in output

    def test_repl_metrics_command(self, program_file):
        _, output = run(
            [program_file], "?- sg(ann, Y).\n:metrics\n:quit\n"
        )
        assert "repro_queries_total 1" in output


class TestProfileAndSlowlog:
    def test_profile_flag_prints_report(self, program_file):
        code, output = run([program_file, "-q", "sg(ann, Y)", "--profile"])
        assert code == 0
        assert "1 answer(s) [counting]" in output
        assert "profile: wall " in output
        assert "% attributed" in output
        assert "self ms" in output

    def test_profile_json_writes_chrome_trace(self, program_file, tmp_path):
        import json

        target = tmp_path / "profile.json"
        code, _ = run(
            [
                program_file,
                "-q",
                "sg(X, Y)",
                "--profile",
                "--profile-json",
                str(target),
            ]
        )
        assert code == 0
        report = json.loads(target.read_text())
        assert report["query"] == "sg(X, Y)"
        assert report["rows"]
        events = report["chrome_trace"]["traceEvents"]
        assert any(e["ph"] == "X" for e in events)

    def test_profile_json_to_stdout(self, program_file):
        code, output = run(
            [program_file, "-q", "sg(ann, Y)", "--profile", "--profile-json", "-"]
        )
        assert code == 0
        assert '"chrome_trace"' in output

    def test_profile_json_without_profile_errors(self, program_file):
        code, output = run(
            [program_file, "-q", "sg(ann, Y)", "--profile-json", "-"]
        )
        assert code == 1
        assert "--profile-json needs --profile" in output

    def test_profile_bad_query_recovers(self, program_file):
        code, output = run([program_file, "-q", "nosuch(X)", "--profile"])
        assert code == 1
        assert "error" in output

    def test_slow_query_ms_fills_slowlog(self, program_file):
        _, output = run(
            [program_file, "--slow-query-ms", "0"],
            "?- sg(ann, Y).\n:slowlog\n:quit\n",
        )
        assert "sg(ann, Y)" in output
        assert "ms" in output

    def test_slowlog_without_threshold_says_disabled(self, program_file):
        _, output = run([program_file], ":slowlog\n:quit\n")
        assert "slow-query log disabled" in output

    def test_slowlog_clear(self, program_file):
        _, output = run(
            [program_file, "--slow-query-ms", "0"],
            "?- sg(ann, Y).\n:slowlog clear\n:slowlog\n:quit\n",
        )
        assert "cleared 1 entries" in output
        assert "slow-query log empty" in output

    def test_repl_profile_command(self, program_file):
        _, output = run(
            [program_file], ":profile sg(ann, Y).\n:quit\n"
        )
        assert "profile: wall " in output
        assert "1 answer(s) [counting]" in output

    def test_repl_help_lists_commands(self, program_file):
        _, output = run([program_file], ":help\n:quit\n")
        for command in (":plan", ":profile", ":slowlog", ":metrics", ":quit"):
            assert command in output


class TestFactsLoading:
    def test_load_csv_facts(self, tmp_path):
        rules = tmp_path / "anc.pl"
        rules.write_text(
            "anc(X, Y) :- parent(X, Y).\n"
            "anc(X, Y) :- parent(X, Z), anc(Z, Y).\n"
        )
        data = tmp_path / "parents.csv"
        data.write_text("a,b\nb,c\n")
        code, output = run(
            [str(rules), "--facts", f"parent={data}", "-q", "anc(a, Y)"]
        )
        assert code == 0
        assert "loaded 2 parent facts" in output
        assert "anc(a, c)" in output

    def test_bad_facts_spec(self, tmp_path):
        rules = tmp_path / "p.pl"
        rules.write_text("p(1).\n")
        code, output = run([str(rules), "--facts", "nonsense", "-q", "p(X)"])
        assert code == 1
        assert "PRED=FILE.csv" in output

    def test_missing_facts_file(self, tmp_path):
        rules = tmp_path / "p.pl"
        rules.write_text("p(1).\n")
        code, output = run(
            [str(rules), "--facts", "q=/does/not/exist.csv", "-q", "p(X)"]
        )
        assert code == 1
        assert "cannot load" in output


class TestReplaySubcommand:
    @pytest.fixture
    def archive(self, serve, tmp_path):
        """A tiny archive recorded over a live server's RECORD verb."""
        from repro.engine.database import Database
        from repro.service import QuerySession

        db = Database()
        db.load_source(SG_SOURCE)
        path = str(tmp_path / "workload.jsonl")
        server = serve(QuerySession(db))
        with socket.create_connection(server.address, timeout=10) as sock:
            file = sock.makefile("rw", encoding="utf-8")
            for line in (
                f"RECORD START {path}",
                "QUERY sg(ann, Y)",
                "STATS",
                "RECORD STOP",
            ):
                file.write(line + "\n")
                file.flush()
                reply = json.loads(file.readline())
                assert reply["ok"], reply
        return path

    def test_replay_reports_parity(self, archive):
        code, output = run(["replay", archive])
        assert code == 0
        assert "parity" in output
        assert "QUERY" in output

    def test_replay_writes_json_report(self, archive, tmp_path):
        out_file = tmp_path / "report.json"
        code, _ = run(["replay", archive, "--out", str(out_file)])
        assert code == 0
        import json as _json

        report = _json.loads(out_file.read_text())
        assert report["ok"] is True
        assert report["parity"]["mismatched"] == 0

    def test_replay_missing_archive_exits_2(self, tmp_path):
        code, output = run(["replay", str(tmp_path / "absent.jsonl")])
        assert code == 2
        assert "error" in output

    def test_replay_bad_archive_exits_2(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not an archive\n")
        code, output = run(["replay", str(path)])
        assert code == 2

    def test_record_requires_serve(self, program_file):
        code, output = run([program_file, "--record", "x.jsonl"])
        assert code == 1
        assert "--record" in output


class TestServeStartup:
    def test_help_lists_neither_threaded_nor_push_timeout(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        text = capsys.readouterr().out
        assert "--workers" in text
        assert "--threaded" not in text and "--push-timeout" not in text

    @pytest.mark.parametrize(
        "extra, pool_size", [([], None), (["--workers", "1"], 1)]
    )
    def test_threaded_is_a_deprecated_spelling_of_workers_0(
        self, program_file, extra, pool_size
    ):
        """``--threaded`` still parses (the ledger launches it): the
        loop serves in-process unless ``--workers`` says otherwise, and
        the deprecation note goes to stderr, never ahead of the banner."""
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", program_file, "--serve",
             "--port", "0", "--threaded", *extra],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=SRC),
        )
        try:
            banner = proc.stdout.readline()
            assert banner.startswith("repro serving on 127.0.0.1:")
            port = int(banner.split()[3].rsplit(":", 1)[1])
            with socket.create_connection(("127.0.0.1", port), 10) as sock:
                file = sock.makefile("rw", encoding="utf-8")
                file.write("STATS\n")
                file.flush()
                stats = json.loads(file.readline())["stats"]
            proc.send_signal(signal.SIGINT)
            out, err = proc.communicate(timeout=30)
        finally:
            proc.kill()
            proc.wait()
        assert proc.returncode == 0
        assert (stats.get("workers") or {}).get("size") == pool_size
        assert "note:" not in out
        assert err.count("note:") == 1 and "--workers 0" in err

    def test_busy_port_is_one_error_line_and_leaves_nothing_behind(
        self, program_file, tmp_path
    ):
        store = str(tmp_path / "store")
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen()
            port = taken.getsockname()[1]
            code, output = run(
                [program_file, "--serve", "--port", str(port),
                 "--workers", "2", "--data-dir", store]
            )
        assert code == 1
        (line,) = output.splitlines()
        assert line.startswith(f"error: cannot listen on 127.0.0.1:{port}: ")
        assert not [
            child.name for child in multiprocessing.active_children()
            if child.name.startswith("repro-worker")
        ]
        # The store was closed, not abandoned: it reopens and answers.
        code, output = run(["--data-dir", store, "-q", "sg(ann, Y)"])
        assert code == 0 and "sg(ann, bob)" in output
