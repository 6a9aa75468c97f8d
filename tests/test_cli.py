"""Command-line behavior: formats, exit codes, settings precedence, cache.

Everything runs in-process through run(argv) so exit codes and both output
streams are observable without spawning subprocesses.
"""

import hashlib
import json
import signal

import pytest

from chardeg.cli import run


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------------ formats


def test_gvalue_pretty(capsys):
    code, out, _ = invoke(capsys, "gvalue", "--degree", "5", "--no-timestamp")
    assert code == 0
    assert "g(5) = 55" in out
    assert "frob:11^1:5" in out
    assert "verified: yes" in out


def test_gvalue_json_mirrors_report_fields(capsys):
    code, out, _ = invoke(
        capsys, "gvalue", "--degree", "5", "--format", "json", "--no-timestamp"
    )
    assert code == 0
    data = json.loads(out)
    assert set(data) == {
        "n",
        "candidates",
        "min_order",
        "case_label",
        "witness_specs",
        "verified",
        "anomalies",
    }
    assert data["n"] == 5
    assert data["min_order"] == 55
    assert data["case_label"] == "b"
    assert data["witness_specs"] == ["frob:11^1:5"]
    assert data["verified"] is True
    labels = {c["label"]: c for c in data["candidates"]}
    assert labels["psl2"]["order"] == 60
    assert labels["frobenius"]["spec"] == "frob:11^1:5"


def test_gvalue_csv(capsys):
    code, out, _ = invoke(
        capsys, "gvalue", "--degree", "5", "--format", "csv", "--no-timestamp"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,label,order,spec,winner"
    assert "5,frobenius,55,frob:11^1:5,1" in lines
    assert "5,psl2,60,psl2:5,0" in lines


def test_timestamp_present_by_default(capsys):
    _, out, _ = invoke(capsys, "gvalue", "--degree", "2")
    assert "generated" in out
    _, out, _ = invoke(capsys, "gvalue", "--degree", "2", "--no-timestamp")
    assert "generated" not in out


def test_json_timestamp_key(capsys):
    _, out, _ = invoke(capsys, "gvalue", "--degree", "2", "--format", "json")
    assert "timestamp" in json.loads(out)


def test_identical_invocations_byte_identical(capsys):
    argv = ("scan-b", "--max-p", "20", "--format", "json", "--no-timestamp")
    _, first, _ = invoke(capsys, *argv)
    _, second, _ = invoke(capsys, *argv)
    assert first == second


# ------------------------------------------------------------- subcommands


def test_degrees_trivial_spec(capsys):
    code, out, _ = invoke(
        capsys, "degrees", "--spec", "cyclic:1", "--format", "json", "--no-timestamp"
    )
    assert code == 0
    data = json.loads(out)
    assert data["degrees"] == [1]
    assert data["group_order"] == 1
    assert data["spec"] == "cyclic:1"


def test_degrees_csv_counts(capsys):
    code, out, _ = invoke(
        capsys, "degrees", "--spec", "named:A4", "--format", "csv", "--no-timestamp"
    )
    assert code == 0
    assert out == "degree,count\n1,3\n3,1\n"


# stdout of `degrees --spec S --no-timestamp`: the csv text, and the sha256
# of the json text, whose degree lists run to 249 entries.
DEGREES_GOLDEN = {
    "prod(xsp:3:2,cyclic:3)": (
        "degree,count\n1,243\n9,6\n",
        "c830432cba0f77c40080157ed5a6b08c95e001092b453597eb69a023eac8b399",
    ),
    "prod(xsp:3:2,cyclic:2)": (
        "degree,count\n1,162\n9,4\n",
        "b4a928f40409bfb48a7deea58610a78a06b0436f52259b218cc2559d857333c4",
    ),
    "xsp:3:2": (
        "degree,count\n1,81\n9,2\n",
        "840bd9f11ee6cb2f7b92a148a2563ad062024402fdd117e9b4419825ba71efd6",
    ),
    "psl2:37": (
        "degree,count\n1,1\n19,2\n36,9\n37,1\n38,8\n",
        "98b5eea5fa037aafd0402e4080e1a4d33c47d6433a17147f76db1fd7ca79df34",
    ),
    "frob:191^1:19": (
        "degree,count\n1,19\n19,10\n",
        "0b38932526da609ee8c3a8915f20f7401a29305ee063ebf46f05b8006fc43759",
    ),
}


@pytest.mark.parametrize("spec", sorted(DEGREES_GOLDEN))
def test_degrees_stdout_golden(capsys, spec):
    csv_text, json_sha = DEGREES_GOLDEN[spec]
    code, out, _ = invoke(
        capsys, "degrees", "--spec", spec, "--format", "csv", "--no-timestamp"
    )
    assert (code, out) == (0, csv_text)
    code, out, _ = invoke(
        capsys, "degrees", "--spec", spec, "--format", "json", "--no-timestamp"
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == json_sha


# sha256 of `--format json --no-timestamp` stdout, taken before scans were
# answered by one batched search.
SCAN_GOLDEN = {
    ("scan-a", "30000"): "e0535944baaa29aae477a48be17b34b8c9c84db3e1cbebecb31dc6a8adae49ab",
    ("scan-b", "300"): "7b76a18cb353db3c96bb5789b00d07593f8824c79c3b238e12cef626d48b3e97",
    ("kanold", "30000"): "c3c12b216d3375039fa6ac56392bf2cddec61a61f00a5330964865f53c0074cb",
}


@pytest.mark.parametrize("command,max_p", sorted(SCAN_GOLDEN))
def test_scan_stdout_golden(capsys, command, max_p):
    code, out, _ = invoke(
        capsys, command, "--max-p", max_p, "--format", "json", "--no-timestamp"
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SCAN_GOLDEN[command, max_p]


def test_gvalue_beyond_exact_primality(capsys):
    """psi_12 is a strong pseudoprime to bases 2..37 but composite, so it is
    no prime degree (exit 2); psi_13 is where the witnesses stop (exit 3)."""
    code, out, err = invoke(
        capsys, "gvalue", "--degree", "318665857834031151167461", "--no-verify"
    )
    assert (code, out) == (2, "")
    assert "no catalog witness claims degree" in err
    code, out, err = invoke(
        capsys, "gvalue", "--degree", "3317044064679887385961981", "--no-verify"
    )
    assert (code, out) == (3, "")
    assert "Miller-Rabin" in err


def test_gvalue_catalog_degree(capsys):
    code, out, _ = invoke(
        capsys, "gvalue", "--degree", "6", "--format", "json", "--no-timestamp"
    )
    assert code == 0
    data = json.loads(out)
    assert data["min_order"] == 42
    assert data["case_label"] == "catalog"
    assert data["witness_specs"] == ["named:C7C6"]


def test_scan_a_csv_ends_with_case_a(capsys):
    code, out, _ = invoke(
        capsys, "scan-a", "--max-p", "25", "--format", "csv", "--no-timestamp"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p,case_label,min_order"
    assert lines[-1] == "# case_a 19"
    assert "19,a,3420" in lines


def test_kanold_json(capsys):
    code, out, _ = invoke(
        capsys, "kanold", "--max-p", "10", "--format", "json", "--no-timestamp"
    )
    assert code == 0
    data = json.loads(out)
    assert data["all_hold"] is True
    rows = {r["p"]: r for r in data["rows"]}
    assert rows[5] == {"p": 5, "q": 11, "holds": True, "companion_holds": True}
    assert rows[7]["companion_holds"] is False


def test_witness_cycle_notation(capsys):
    code, out, _ = invoke(capsys, "witness", "--degree", "4", "--no-timestamp")
    assert code == 0
    assert "frob:5^1:4" in out
    assert "(0 1 2 3 4)" in out  # kernel generator acts as a 5-cycle
    # frob:2^3:7: three translations, then the 3x3 multiplier on the 8 points
    code, out, _ = invoke(capsys, "witness", "--degree", "7", "--no-timestamp")
    assert code == 0
    assert out.splitlines()[1:] == [
        "  gen 0: (0 1)(2 3)(4 5)(6 7)",
        "  gen 1: (0 2)(1 3)(4 6)(5 7)",
        "  gen 2: (0 4)(1 5)(2 6)(3 7)",
        "  gen 3: (1 2 4 3 6 7 5)",
    ]


def test_witness_json_fields(capsys):
    code, out, _ = invoke(
        capsys, "witness", "--degree", "3", "--format", "json", "--no-timestamp"
    )
    assert code == 0
    data = json.loads(out)
    assert data["order"] == 12
    assert data["spec"] == "frob:2^2:3"
    assert len(data["generators"]) == 3


def test_verify_json_mirrors_status_fields(capsys):
    code, out, _ = invoke(
        capsys, "verify", "--degree", "5", "--format", "json", "--no-timestamp"
    )
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "WitnessOnly"
    assert data["residual_orders"] == [30, 40, 45, 50]
    assert data["lower_bound"] == 30
    assert data["witness_order"] == 55


def test_verify_exhaustive(capsys):
    code, out, _ = invoke(
        capsys, "verify", "--degree", "4", "--format", "json", "--no-timestamp"
    )
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "Exhaustive"
    assert data["residual_orders"] == []


def test_budget_setting_bounds_verify(capsys, monkeypatch):
    """CHARDEG_BUDGET reaches verify's oracle, so order 30 stops at once."""
    monkeypatch.setenv("CHARDEG_BUDGET", "1000")

    def overrun(*_):
        raise TimeoutError("verify ran on past its node budget")

    old = signal.signal(signal.SIGALRM, overrun)
    signal.alarm(10)
    try:
        code, out, _ = invoke(
            capsys, "verify", "--degree", "5", "--oracle-cap", "30",
            "--format", "json", "--no-timestamp",
        )
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "WitnessOnly"
    assert "order 30: enumeration of order 30 exceeded 1000 nodes" in data["notes"]


def test_enumerate_json(capsys):
    code, out, _ = invoke(
        capsys, "enumerate", "--order", "6", "--format", "json", "--no-timestamp"
    )
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 2
    degree_sets = sorted(tuple(c["degrees"]) for c in data["classes"])
    assert degree_sets == [(1, 1, 1, 1, 1, 1), (1, 1, 2)]


def test_version_flag(capsys):
    code, out, _ = invoke(capsys, "--version")
    assert code == 0
    assert "chardeg 0.1.0" in out


# -------------------------------------------------------------- exit codes


def test_bad_spec_exits_2(capsys):
    code, out, err = invoke(capsys, "degrees", "--spec", "bogus", "--no-timestamp")
    assert code == 2
    assert out == ""
    assert "bogus" in err or "offset" in err or "ERROR" in err


def test_unsupported_degree_exits_2(capsys):
    code, _, err = invoke(capsys, "gvalue", "--degree", "10", "--no-timestamp")
    assert code == 2
    assert "10" in err


def test_argparse_error_exits_2(capsys):
    code, _, _ = invoke(capsys, "gvalue")  # missing --degree
    assert code == 2
    code, _, _ = invoke(capsys, "no-such-command")
    assert code == 2


def test_cap_exceeded_exits_3(capsys):
    code, out, err = invoke(capsys, "enumerate", "--order", "17", "--no-timestamp")
    assert code == 3
    assert out == ""
    # refused from its predicted order, before any of its elements is built
    code, out, err = invoke(capsys, "degrees", "--spec", "frob:2^16:3", "--no-timestamp")
    assert code == 3
    assert out == ""
    assert "order 196608 exceeds cap 50000" in err


def test_element_cap_above_default_is_honoured(capsys):
    # 50,616 elements: over the default cap of 50,000, under the one given
    code, out, err = invoke(
        capsys, "degrees", "--spec", "prod(psl2:37,cyclic:2)",
        "--element-cap", "60000", "--format", "json", "--no-timestamp",
    )
    assert code == 0, err
    data = json.loads(out)
    assert data["group_order"] == 50616
    assert len(data["degrees"]) == 42


def test_degrees_over_class_cap_exits_3(capsys):
    """xsp:5:2 has 629 classes, over the default class cap of 500."""
    code, out, err = invoke(capsys, "degrees", "--spec", "xsp:5:2", "--no-timestamp")
    assert (code, out) == (3, "")
    assert "629 conjugacy classes exceed cap 500" in err


def test_budget_exceeded_exits_3(capsys):
    code, _, _ = invoke(
        capsys, "enumerate", "--order", "12", "--budget", "10", "--no-timestamp"
    )
    assert code == 3


def test_deeply_nested_spec_exits_2(capsys):
    spec = "prod(" * 1200 + "cyclic:2" + ",cyclic:2)" * 1200
    code, out, err = invoke(capsys, "degrees", "--spec", spec, "--no-timestamp")
    assert code == 2
    assert out == ""
    assert "nested deeper" in err
    assert "Traceback" not in err


def test_memory_error_exits_3(capsys, monkeypatch):
    import chardeg.cli

    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(chardeg.cli, "character_degrees", exhausted)
    code, out, err = invoke(capsys, "degrees", "--spec", "named:S3", "--no-timestamp")
    assert code == 3
    assert out == ""
    assert err.strip() == "ERROR: out of memory"


@pytest.mark.parametrize(
    "exc,code,message",
    [(RecursionError, 3, "recursion too deep"), (KeyboardInterrupt, 130, "interrupted")],
)
def test_recursion_and_interrupt_exit_codes(capsys, monkeypatch, exc, code, message):
    import chardeg.cli

    def stop(*args, **kwargs):
        raise exc

    monkeypatch.setattr(chardeg.cli, "enumerate_groups", stop)
    got, out, err = invoke(capsys, "enumerate", "--order", "6", "--no-timestamp")
    assert got == code
    assert out == ""
    assert err.strip() == f"ERROR: {message}"  # no traceback


def test_verify_failure_exits_1(capsys):
    # degree 7 with an inflated oracle cap is still fine; a failing check is
    # simulated by asking for a degree whose catalog minimum fails its claim.
    code, out, _ = invoke(
        capsys, "verify", "--degree", "7", "--format", "json", "--no-timestamp"
    )
    assert code == 0  # honest witness: no failure
    data = json.loads(out)
    assert data["status"] == "Exhaustive"


# ------------------------------------------------------ settings precedence


def test_env_sets_format(capsys, monkeypatch):
    monkeypatch.setenv("CHARDEG_FORMAT", "json")
    code, out, _ = invoke(capsys, "gvalue", "--degree", "2", "--no-timestamp")
    assert code == 0
    assert json.loads(out)["min_order"] == 6


def test_flag_beats_env(capsys, monkeypatch):
    monkeypatch.setenv("CHARDEG_FORMAT", "json")
    code, out, _ = invoke(
        capsys, "gvalue", "--degree", "2", "--format", "csv", "--no-timestamp"
    )
    assert code == 0
    assert out.startswith("n,label,order,spec,winner")


def test_env_beats_config(capsys, monkeypatch, tmp_path):
    cfg = tmp_path / "cfg"
    cfg.write_text("format = csv\n")
    monkeypatch.setenv("CHARDEG_FORMAT", "json")
    code, out, _ = invoke(
        capsys, "gvalue", "--degree", "2", "--config", str(cfg), "--no-timestamp"
    )
    assert code == 0
    json.loads(out)


def test_config_file_applies(capsys, tmp_path):
    cfg = tmp_path / "cfg"
    cfg.write_text("# comment line\nformat = json\n")
    code, out, _ = invoke(
        capsys, "gvalue", "--degree", "2", "--config", str(cfg), "--no-timestamp"
    )
    assert code == 0
    json.loads(out)


def test_missing_config_exits_2(capsys, tmp_path):
    code, _, _ = invoke(
        capsys, "gvalue", "--degree", "2", "--config", str(tmp_path / "nope")
    )
    assert code == 2


def test_malformed_config_exits_2(capsys, tmp_path):
    cfg = tmp_path / "cfg"
    cfg.write_text("no equals sign here\n")
    code, _, _ = invoke(capsys, "gvalue", "--degree", "2", "--config", str(cfg))
    assert code == 2


def test_bad_env_integer_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("CHARDEG_ORACLE_CAP", "sixteen")
    code, _, err = invoke(capsys, "verify", "--degree", "2", "--no-timestamp")
    assert code == 2
    assert "oracle_cap" in err


SETTING_USERS = {
    "element_cap": ["degrees", "--spec", "cyclic:5"],
    "budget": ["enumerate", "--order", "4"],
    "oracle_cap": ["verify", "--degree", "2"],
}


@pytest.mark.parametrize("source", ["flag", "env", "config"])
@pytest.mark.parametrize("key", sorted(SETTING_USERS))
def test_negative_integer_setting_exits_2(capsys, monkeypatch, tmp_path, source, key):
    """A negative cap or budget is invalid input, not a cap already tripped."""
    argv = SETTING_USERS[key] + ["--no-timestamp"]
    if source == "flag":
        argv += [f"--{key.replace('_', '-')}", "-5"]
    elif source == "env":
        monkeypatch.setenv(f"CHARDEG_{key.upper()}", "-5")
    else:
        cfg = tmp_path / "cfg"
        cfg.write_text(f"{key} = -5\n")
        argv += ["--config", str(cfg)]
    code, out, err = invoke(capsys, *argv)
    assert code == 2
    assert out == ""
    assert key in err and "negative" in err


def test_zero_oracle_cap_is_legal(capsys):
    """0 means enumerate nothing: every residual order is left unchecked."""
    code, out, _ = invoke(
        capsys, "verify", "--degree", "5", "--oracle-cap", "0", "--no-timestamp"
    )
    assert code == 0
    assert "above oracle cap 0" in out


# ------------------------------------------------------------------- cache


def test_cache_hit_is_byte_identical(capsys, tmp_path):
    argv = (
        "degrees",
        "--spec",
        "named:A4",
        "--cache",
        "--cache-dir",
        str(tmp_path),
        "--format",
        "json",
        "--no-timestamp",
    )
    _, miss, _ = invoke(capsys, *argv)
    _, hit, _ = invoke(capsys, *argv)
    assert miss == hit


def test_cache_agrees_with_uncached_run(capsys, tmp_path):
    base = ("degrees", "--spec", "frob:3^1:2", "--format", "json", "--no-timestamp")
    _, plain, _ = invoke(capsys, *base)
    cached = base + ("--cache", "--cache-dir", str(tmp_path))
    _, first, _ = invoke(capsys, *cached)
    _, second, _ = invoke(capsys, *cached)
    assert plain == first == second


def test_cache_hit_reported_on_stderr_only(capsys, tmp_path):
    argv = (
        "degrees",
        "--spec",
        "named:A4",
        "--cache",
        "--cache-dir",
        str(tmp_path),
        "--verbose",
        "--no-timestamp",
    )
    invoke(capsys, *argv)
    _, out, err = invoke(capsys, *argv)
    assert "cache hit" in err
    assert "cache hit" not in out


def test_corrupt_cache_is_not_fatal(capsys, tmp_path):
    (tmp_path / "degrees.jsonl").write_text("garbage\n{}\n")
    code, out, _ = invoke(
        capsys,
        "degrees",
        "--spec",
        "named:A4",
        "--cache",
        "--cache-dir",
        str(tmp_path),
        "--format",
        "json",
        "--no-timestamp",
    )
    assert code == 0
    assert json.loads(out)["degrees"] == [1, 1, 1, 3]


def test_cache_stats_and_clear(capsys, tmp_path):
    invoke(
        capsys,
        "degrees",
        "--spec",
        "cyclic:4",
        "--cache",
        "--cache-dir",
        str(tmp_path),
        "--no-timestamp",
    )
    code, out, _ = invoke(
        capsys, "cache", "--stats", "--cache-dir", str(tmp_path), "--format", "json",
        "--no-timestamp",
    )
    assert code == 0
    stats = json.loads(out)
    assert stats["entries"] == 1
    assert stats["specs"] == ["cyclic:4"]
    code, out, _ = invoke(
        capsys, "cache", "--clear", "--cache-dir", str(tmp_path), "--format", "json",
        "--no-timestamp",
    )
    assert code == 0
    assert json.loads(out)["cleared"] == 1


def test_cache_requires_action(capsys):
    code, _, _ = invoke(capsys, "cache")
    assert code == 2


# ------------------------------------------------------------ stream purity


def test_data_stream_carries_only_payload(capsys):
    code, out, err = invoke(
        capsys, "degrees", "--spec", "cyclic:12", "--format", "json", "--no-timestamp",
        "--verbose",
    )
    assert code == 0
    json.loads(out)  # single parseable JSON document, nothing else
