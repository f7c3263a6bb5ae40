"""Tests for the command-line interface."""

import pytest

from repro.cli import _build_parser, _resolve_backend, main


@pytest.fixture()
def asm_file(tmp_path):
    path = tmp_path / "prog.asm"
    path.write_text("""
        read $1
        addi $2 $1 10
        print $2
        halt
    """)
    return str(path)


@pytest.fixture()
def minic_file(tmp_path):
    path = tmp_path / "prog.mc"
    path.write_text("""
        int main() { int x; read(x); print(x * 3); return 0; }
    """)
    return str(path)


@pytest.fixture()
def detector_file(tmp_path):
    path = tmp_path / "dets.txt"
    path.write_text("det(1, $(2), >=, (0))\n")
    return str(path)


class TestRunCommand:
    def test_run_bundled_workload(self, capsys):
        assert main(["run", "--workload", "factorial", "--input", "4"]) == 0
        out = capsys.readouterr().out
        assert "halted" in out and "24" in out

    def test_run_assembly_file(self, asm_file, capsys):
        assert main(["run", "--program", asm_file, "--input", "7"]) == 0
        assert "17" in capsys.readouterr().out

    def test_run_minic_file(self, minic_file, capsys):
        assert main(["run", "--minic", minic_file, "--input", "5"]) == 0
        assert "15" in capsys.readouterr().out

    def test_run_crashing_program_returns_nonzero(self, asm_file, capsys):
        # no input provided -> the read instruction crashes
        assert main(["run", "--program", asm_file]) == 1
        assert "input exhausted" in capsys.readouterr().out

    def test_run_rejects_a_negative_shift_count_by_line(self, tmp_path):
        path = tmp_path / "shift.s"
        path.write_text("li $2, 3\nslli $1 $2 #-1\nhalt\n")
        with pytest.raises(SystemExit) as raised:
            main(["run", "--program", str(path)])
        assert str(raised.value) == \
            f"{path}: line 2: slli: negative shift count -1"

    def test_exactly_one_source_required(self, asm_file):
        with pytest.raises(SystemExit):
            main(["run", "--program", asm_file, "--workload", "factorial"])
        with pytest.raises(SystemExit):
            main(["run"])


class TestAnalyzeCommand:
    def test_analyze_finds_err_outputs(self, capsys):
        code = main(["analyze", "--workload", "factorial", "--input", "5",
                     "--fault-model", "register", "--query", "err-output",
                     "--max-injections", "8", "--max-states", "5000"])
        assert code == 0
        out = capsys.readouterr().out
        assert "injections run" in out
        assert "err-output" in out or "total solutions" in out

    def test_analyze_with_detector_file(self, asm_file, detector_file, capsys):
        code = main(["analyze", "--program", asm_file, "--input", "7",
                     "--detectors", detector_file, "--query", "crash",
                     "--max-injections", "5", "--max-states", "2000"])
        assert code == 0
        assert "query" in capsys.readouterr().out

    def test_analyze_resilient_program_reports_proof(self, tmp_path, capsys):
        path = tmp_path / "trivial.asm"
        path.write_text("print $0\nhalt\n")
        code = main(["analyze", "--program", str(path), "--query", "crash",
                     "--max-states", "2000"])
        assert code == 0
        assert "resilient" in capsys.readouterr().out


class TestConcreteCommand:
    def test_concrete_campaign(self, capsys):
        code = main(["concrete", "--workload", "factorial", "--input", "5",
                     "--max-injections", "6"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Program outcome distribution" in out
        assert "total faults" in out


def analyze_output(capsys, *arguments):
    code = main(["analyze", "--workload", "factorial", "--query", "err-output",
                 "--max-injections", "6", "--max-states", "5000", *arguments])
    assert code == 0
    return capsys.readouterr().out


def normalized(output):
    """Strip timing and backend-identity lines (the CI smoke's projection)."""
    return [line for line in output.splitlines()
            if "elapsed seconds" not in line
            and not line.startswith(("workers", "backend"))]


class TestAnalyzeValidation:
    def test_max_injections_zero_is_rejected_with_clear_message(self, capsys):
        with pytest.raises(SystemExit):
            main(["analyze", "--workload", "factorial", "--max-injections", "0"])
        assert "must be >= 1" in capsys.readouterr().err

    def test_max_injections_zero_rejected_for_concrete_too(self, capsys):
        with pytest.raises(SystemExit):
            main(["concrete", "--workload", "factorial", "--max-injections", "0"])
        assert "must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command,flag,value", [
        ("analyze", "--max-steps", "-5"),
        ("analyze", "--max-steps", "0"),
        ("analyze", "--max-states", "-1"),
        ("analyze", "--max-states", "0"),
        ("analyze", "--max-solutions", "0"),
        ("analyze", "--witnesses", "-2"),
        ("run", "--max-steps", "0"),
        ("concrete", "--max-steps", "-1"),
    ])
    def test_a_cap_that_would_search_nothing_is_rejected(
            self, capsys, command, flag, value):
        """A cap below its floor would make the sweep explore nothing and
        still read as a proof of resilience: argparse refuses it."""
        argv = [command, "--workload", "factorial", flag, value]
        if command == "analyze":
            argv += ["--sample", "2", "--seed", "1"]
        with pytest.raises(SystemExit) as raised:
            main(argv)
        assert raised.value.code == 2
        captured = capsys.readouterr()
        assert "resilient" not in captured.out
        assert f"argument {flag}: must be >=" in captured.err

    def test_chunk_size_zero_is_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["analyze", "--workload", "factorial", "--chunk-size", "0"])
        assert "must be >= 1" in capsys.readouterr().err

    def test_chunk_size_larger_than_sweep_runs_one_chunk(self, capsys):
        """An oversized --chunk-size must degrade to a single full chunk,
        never to empty chunks (regression for the chunking edge case)."""
        out = analyze_output(capsys, "--workers", "2", "--chunk-size", "999")
        assert "injections run             : 6" in out

    def test_resume_requires_results(self):
        with pytest.raises(SystemExit, match="--results"):
            main(["analyze", "--workload", "factorial", "--resume"])

    def test_resume_against_another_campaign_is_one_error_line(
            self, tmp_path, capsys):
        """A store holding only other campaigns refuses the resume with
        one ``repro analyze: error:`` line, not a traceback."""
        store = str(tmp_path / "results.sqlite")
        base = ["analyze", "--workload", "factorial", "--max-injections",
                "2", "--results", store]
        assert main(base) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as raised:
            main(base + ["--resume", "--fault-model", "operand"])
        message = str(raised.value.code)
        assert message.startswith("repro analyze: error: results store ")
        assert "belongs to a different campaign" in message
        assert "\n" not in message

    def test_workers_zero_requires_queue(self):
        with pytest.raises(SystemExit, match="queue"):
            main(["analyze", "--workload", "factorial", "--workers", "0"])

    @pytest.mark.parametrize("argv,backend", [
        ([], "serial"),
        (["--workers", "2"], "distributed"),
        (["--queue", "tcp://host:1"], "distributed"),
        (["--workers", "0", "--queue", "tcp://host:1"], "distributed")])
    def test_backend_follows_workers_and_queue(self, argv, backend):
        """One worker and no queue runs in-process; anything else runs on
        broker workers."""
        args = _build_parser().parse_args(
            ["analyze", "--workload", "factorial", *argv])
        assert _resolve_backend(args) == backend

    def test_backend_is_an_unknown_argument(self, capsys):
        with pytest.raises(SystemExit):
            main(["analyze", "--workload", "factorial", "--backend", "pool"])
        assert "unrecognized arguments: --backend" \
            in capsys.readouterr().err

    def test_chunk_size_requires_a_chunked_backend(self):
        with pytest.raises(SystemExit, match="chunk"):
            main(["analyze", "--workload", "factorial", "--chunk-size", "4"])

    def test_negative_workers_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["analyze", "--workload", "factorial", "--workers", "-1"])
        assert "must be >= 0" in capsys.readouterr().err

    def test_granularity_is_an_unknown_argument(self, capsys):
        """Every backend runs whole tasks through one seam: there is no
        distribution-unit switch left to pick."""
        with pytest.raises(SystemExit):
            main(["analyze", "--workload", "factorial",
                  "--granularity", "task"])
        assert "unrecognized arguments: --granularity" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--workload", "factorial"],
        ["--workload", "tcas", "--max-steps", "3000", "--sample", "6",
         "--seed", "7"]])
    def test_default_sweep_is_the_register_model(self, argv, capsys):
        def stdout(extra):
            assert main(["analyze", *argv, "--query", "err-output",
                         "--max-states", "2000", *extra]) == 0
            return [line for line in capsys.readouterr().out.splitlines()
                    if "elapsed seconds" not in line]

        default = stdout([])
        assert "fault model    : register" in default
        assert default == stdout(["--fault-model", "register"])

    def test_seed_requires_sample(self):
        with pytest.raises(SystemExit, match="--sample"):
            main(["analyze", "--workload", "factorial", "--seed", "3"])


class TestQueueLocatorValidation:
    """Unknown --queue schemes and malformed tcp:// locators must exit with
    a one-line error, not a traceback (regression)."""

    def test_worker_rejects_an_unknown_queue_scheme(self):
        with pytest.raises(SystemExit, match="unknown queue scheme 'redis'"):
            main(["worker", "--queue", "redis://localhost:6379"])

    def test_worker_rejects_a_malformed_tcp_locator(self):
        with pytest.raises(SystemExit, match="tcp://HOST:PORT"):
            main(["worker", "--queue", "tcp://nohost"])

    def test_analyze_rejects_an_unknown_queue_scheme(self):
        with pytest.raises(SystemExit, match="unknown queue scheme 'tpc'"):
            main(["analyze", "--workload", "factorial", "--workers", "2",
                  "--queue", "tpc://localhost:1"])

    def test_analyze_rejects_a_portless_tcp_locator(self):
        with pytest.raises(SystemExit, match="tcp://HOST:PORT"):
            main(["analyze", "--workload", "factorial", "--workers", "2",
                  "--queue", "tcp://host"])

    def test_analyze_rejects_an_out_of_range_port(self):
        with pytest.raises(SystemExit, match="port out of range"):
            main(["analyze", "--workload", "factorial", "--workers", "2",
                  "--queue", "tcp://host:99999"])

    @pytest.mark.parametrize("argv", [
        ["worker", "--queue", "/tmp/q"],
        ["analyze", "--workload", "factorial", "--workers", "0",
         "--queue", "/tmp/q"],
        ["worker", "--queue", "./queue"],
        ["analyze", "--workload", "factorial", "--workers", "2",
         "--queue", "queue"]])
    def test_a_directory_queue_names_the_broker_url(self, argv):
        """Queues are brokers: a directory path exits with one line that
        names the tcp://HOST:PORT form instead."""
        with pytest.raises(SystemExit, match="tcp://HOST:PORT") as info:
            main(argv)
        assert "\n" not in str(info.value)


class TestAnalyzeBackends:
    def test_distributed_backend_matches_serial(self, capsys):
        serial = analyze_output(capsys)
        distributed = analyze_output(capsys, "--workers", "2")
        assert "backend        : distributed" in distributed
        assert normalized(serial) == normalized(distributed)

    def test_queue_alone_runs_one_local_worker(self, server, capsys):
        serial = analyze_output(capsys)
        queued = analyze_output(capsys, "--queue", server.url)
        assert "backend        : distributed" in queued
        assert normalized(serial) == normalized(queued)

    def test_results_then_resume_completes_identically(self, tmp_path,
                                                       capsys):
        store = str(tmp_path / "results.sqlite")
        serial = analyze_output(capsys)
        # Partial sweep, then a resumed full sweep over the same store.
        main(["analyze", "--workload", "factorial", "--query", "err-output",
              "--max-injections", "3", "--max-states", "5000",
              "--results", store])
        capsys.readouterr()
        assert main(["analyze", "--workload", "factorial", "--query",
                     "err-output", "--max-injections", "6", "--max-states",
                     "5000", "--results", store, "--resume"]) == 0
        resumed = capsys.readouterr()
        assert normalized(serial) == normalized(resumed.out)
        assert "(campaign 1, 3 injections resumed)" in resumed.err


def fault_model_output(capsys, model, *arguments, workload="memory_walk"):
    code = main(["analyze", "--workload", workload, "--query", "err-output",
                 "--fault-model", model, "--sample", "5", "--seed", "7",
                 "--max-states", "5000", *arguments])
    assert code == 0
    return capsys.readouterr().out


class TestAnalyzeFaultModels:
    @pytest.mark.parametrize("model", ["register", "memory", "control",
                                       "operand"])
    def test_every_model_sweeps_and_reports(self, model, capsys):
        out = fault_model_output(capsys, model)
        assert f"fault model    : {model}" in out
        # The printed count is the *clamped* sample size: memory_walk's
        # memory-model space is a single injection, so --sample 5 sweeps 1.
        import re
        match = re.search(r"sampled        : (\d+) \(seed 7\)", out)
        assert match is not None
        assert int(match.group(1)) <= 5
        run = re.search(r"injections run             : (\d+)", out)
        assert run is not None and int(run.group(1)) == int(match.group(1))

    def test_sampled_sweep_is_reproducible(self, capsys):
        first = fault_model_output(capsys, "operand")
        second = fault_model_output(capsys, "operand")
        assert normalized(first) == normalized(second)

    @pytest.mark.parametrize("model", ["register", "control"])
    def test_fault_model_distributed_backend_matches_serial(self, model,
                                                            capsys):
        serial = fault_model_output(capsys, model)
        distributed = fault_model_output(capsys, model, "--workers", "2")
        assert normalized(serial) == normalized(distributed)

    def test_latent_err_query_is_exposed(self, capsys):
        code = main(["analyze", "--workload", "memory_walk",
                     "--fault-model", "memory", "--query", "latent-err",
                     "--max-states", "5000"])
        assert code == 0
        assert "final state retains err" in capsys.readouterr().out


class TestResultsWarehouse:
    def test_analyze_streams_into_a_store_and_report_reads_it(
            self, tmp_path, capsys):
        db = str(tmp_path / "warehouse.sqlite")
        assert main(["analyze", "--workload", "factorial", "--query",
                     "err-output", "--max-injections", "6",
                     "--results", db]) == 0
        captured = capsys.readouterr()
        assert "results store: " in captured.err
        assert "campaign 1" in captured.err
        assert main(["report", "--results", db]) == 0
        report = capsys.readouterr().out
        assert "campaign 1" in report
        assert "workload=factorial" in report
        assert "outcome distribution (all campaigns):" in report

    def test_store_backed_output_matches_in_memory_output(self, tmp_path,
                                                          capsys):
        plain = fault_model_output(capsys, "register")
        stored = fault_model_output(
            capsys, "register",
            "--results", str(tmp_path / "warehouse.sqlite"))
        assert normalized(plain) == normalized(stored)

    def test_report_accumulates_campaigns_across_runs(self, tmp_path, capsys):
        db = str(tmp_path / "warehouse.sqlite")
        fault_model_output(capsys, "register", "--results", db)
        fault_model_output(capsys, "operand", "--results", db)
        assert main(["report", "--results", db]) == 0
        report = capsys.readouterr().out
        assert "campaign 1" in report and "campaign 2" in report
        assert main(["report", "--results", db, "--campaign", "2"]) == 0
        assert "injections run" in capsys.readouterr().out

    def test_report_on_a_missing_store_exits_cleanly(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["report", "--results", str(tmp_path / "missing.sqlite")])

    def test_oversized_sample_clamps_at_the_cli(self, capsys):
        with pytest.warns(RuntimeWarning, match="exceeds the enumerated"):
            code = main(["analyze", "--workload", "factorial", "--query",
                         "err-output", "--fault-model", "register",
                         "--sample", "100000", "--max-states", "5000"])
        assert code == 0
        out = capsys.readouterr().out
        assert "sampled" in out
        assert "100000" not in out  # the printed count is the clamped one


class TestIsaSelection:
    def test_isa_line_printed_only_when_selected(self, capsys):
        default = analyze_output(capsys)
        assert "isa            :" not in default
        retargeted = analyze_output(capsys, "--isa", "rv32im")
        assert "isa            : rv32im" in retargeted

    @pytest.mark.parametrize("isa", ["mips", "rv32im"])
    def test_retargeted_campaign_matches_native_sweep(self, isa, capsys):
        """Retargeting is structurally 1:1: apart from the extra header line
        and source-line provenance (witnesses quote the target ISA's assembly
        spelling), the campaign results must match the native build."""
        def masked(output):
            return [line if "source line" not in line
                    else line.split("source line")[0]
                    for line in normalized(output)
                    if not line.startswith("isa")]
        native = analyze_output(capsys)
        retargeted = analyze_output(capsys, "--isa", isa)
        assert masked(native) == masked(retargeted)

    def test_rv32im_register_distributed_matches_serial(self, capsys):
        """--isa rv32im --fault-model register is byte-identical across the
        serial and distributed backends."""
        serial = analyze_output(capsys, "--isa", "rv32im",
                                "--fault-model", "register")
        distributed = analyze_output(capsys, "--isa", "rv32im",
                                     "--fault-model", "register",
                                     "--workers", "2")
        assert normalized(serial) == normalized(distributed)

    def test_isa_applies_to_run_and_concrete(self, capsys):
        assert main(["run", "--workload", "factorial", "--input", "4",
                     "--isa", "rv32im"]) == 0
        assert "24" in capsys.readouterr().out
        assert main(["concrete", "--workload", "factorial",
                     "--max-injections", "4", "--isa", "rv32im"]) == 0
        capsys.readouterr()

    def test_isa_retargets_translated_mips_sources(self, tmp_path, capsys):
        path = tmp_path / "prog.s"
        path.write_text("""
        read $t0
        addi $t1, $t0, 10
        print $t1
        halt
        """)
        assert main(["run", "--mips", str(path), "--input", "7",
                     "--isa", "rv32im"]) == 0
        assert "17" in capsys.readouterr().out


class TestIsaAndFaultModelValidation:
    def test_unknown_isa_is_one_line_error_listing_registered(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["analyze", "--workload", "factorial", "--isa", "z80"])
        message = str(excinfo.value)
        assert "unknown ISA frontend 'z80'" in message
        assert "mips" in message and "rv32im" in message
        assert "\n" not in message.strip()

    def test_unknown_isa_rejected_for_run_too(self):
        with pytest.raises(SystemExit, match="unknown ISA frontend"):
            main(["run", "--workload", "factorial", "--isa", "z80"])

    def test_unknown_fault_model_is_one_line_error_listing_registered(
            self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["analyze", "--workload", "factorial",
                  "--fault-model", "gamma-ray"])
        message = str(excinfo.value)
        assert "unknown fault model 'gamma-ray'" in message
        assert "register" in message and "memory" in message
        assert "burst" in message and "bitflip" in message
        assert "\n" not in message.strip()
