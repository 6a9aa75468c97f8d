"""Command-line behavior: formats, exit codes, settings precedence, cache.

Everything runs in-process through run(argv) so exit codes and both output
streams are observable without spawning subprocesses, except a closed
stdout, which only a process of its own can meet.
"""

import hashlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from chardeg import __version__, cli, errors, groups
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


# sha256 of the pretty and CSV stdout (`--no-timestamp`) of the same scans,
# taken while every format was still rendered on every request; each request
# now renders only the format it prints.
SCAN_FORMAT_GOLDEN = {
    ("scan-a", "30000", "pretty"): "3b5f13983c36a7d816f43ade52fd1af4e2e1764f2dd226f114fbddd4ee9b45e7",
    ("scan-a", "30000", "csv"): "a982cfdee1ddea2511a452088a92b569fb7eaccb757b128fbb248f4d95cf9678",
    ("scan-b", "300", "pretty"): "bbc2cc2c094d0c745691879b051579bddef9c60860f16e293084ce28c3f206c6",
    ("scan-b", "300", "csv"): "5bc479050cbe3b59d4a639e973a3ee7778241c60a6b985304c92774f5da0ac75",
    ("kanold", "30000", "pretty"): "b8c15673ae97e4025cad4cb4a70a67abed25ebaea4da4902811b69d7ff8a2cc2",
    ("kanold", "30000", "csv"): "30e9a150c9a4fdc09d3858fc24716f923eb4466d3c882cacb15b44c4fb002f0a",
}


@pytest.mark.parametrize("command,max_p,fmt", sorted(SCAN_FORMAT_GOLDEN))
def test_scan_pretty_and_csv_golden(capsys, command, max_p, fmt):
    code, out, _ = invoke(capsys, command, "--max-p", max_p, "--format", fmt, "--no-timestamp")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SCAN_FORMAT_GOLDEN[command, max_p, fmt]


# sha256 of `enumerate --order n --format json --no-timestamp` stdout, taken
# before the sub-searches pruned relabelled tables.
ENUMERATE_GOLDEN = {
    6: "56bd69c33887673a7850878fbcf183c2d9dac28faceb0a7293bf275a32b83c6f",
    8: "9edced4871c4a78033151decd026f59cc29090f7dde33c26a1289ee7fc035022",
    12: "b47d3293a34abe851437c1087c63a633b3a75c1439323809ebd00d94846d632f",
    16: "54640652673cfe70eee13e57be6e6c13aaa68fe6f0609dc293475401947dbbdd",
}


@pytest.mark.parametrize("order", sorted(ENUMERATE_GOLDEN))
def test_enumerate_stdout_golden(capsys, order):
    code, out, _ = invoke(
        capsys, "enumerate", "--order", str(order), "--format", "json", "--no-timestamp"
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ENUMERATE_GOLDEN[order]


# sha256 of the concatenated `gvalue --degree n --no-verify --format json
# --no-timestamp` stdout over the 168 primes n <= 1,000 and the squares of
# the 25 primes p <= 100, taken while a single report still ran its own
# comparison beside the scans'.
GVALUE_GOLDEN = "19f9b439c73e8d8141fd650aaeac80496acdaa6ce67ebec5b8e5025003589d0a"


def test_gvalue_stdout_golden(capsys):
    primes = [n for n in range(2, 1001) if all(n % d for d in range(2, int(n**0.5) + 1))]
    degrees = primes + [p * p for p in primes if p <= 100]
    assert len(degrees) == 193
    out = ""
    for n in degrees:
        code, text, _ = invoke(
            capsys, "gvalue", "--degree", str(n), "--no-verify", "--format", "json", "--no-timestamp"
        )
        assert code == 0, n
        out += text
    assert hashlib.sha256(out.encode()).hexdigest() == GVALUE_GOLDEN


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


# sha256 of `witness --degree n --format fmt --no-timestamp` stdout, taken
# while the CLI printed elements by a match on the spec family of its own.
WITNESS_GOLDEN = {
    (2, "json"): "add6b9ed282ae541baadc84437a4c7a446e680f736e26bcdf98e55f8339a7046",
    (2, "pretty"): "90c80935bd1955e717787c1382b2019051367871b6b759c05af8ae9d246d5d0b",
    (2, "csv"): "03d914e98935a0432688e769f4a8819aca8b4b84519c18d31e816762cfa64c6c",
    (5, "json"): "c3f7bca43b59408cbb022334094bd96b10dcfa093a4e41bd570faf1462627aa1",
    (5, "pretty"): "f8d719df4246ff375f5af0326c01763ca408334fb933143a1072a0759dbb2602",
    (5, "csv"): "a461d4a4dab23de4301d9984d29aaec3a1b3c8ce419be26c8c6b5d820c613571",
    (8, "json"): "bbbe5dac2fa1a66921ca50475e37bb38e838f2da3a7ba3f12930efb408f0f446",
    (8, "pretty"): "5253d771e40c00ea073ed8390532012fc5504cccbd5e8224131be0f8fc2b6693",
    (8, "csv"): "cce4bd4d4463edcb7078da262f2cf154273b286b4674d716d082c54bd029c4fa",
    (9, "json"): "1b71dc54520213dcb15500adb2c5e7b078db5a0ea9080345cd1c6ceea25d0e28",
    (9, "pretty"): "2ee2eca521c7dd4d4f9f18c4ac4afb696fe81dbfb199a39bf5ec92dddb5c121b",
    (9, "csv"): "4cc40bed4a813cb18f2fa8840b5bb6599c3c864f00d1768d43cbeeaf3316dc3c",
    (19, "json"): "d33c68c79550580062fdd25d69d9b893bf4d51898519aec7ad565f96ee5dd620",
    (19, "pretty"): "e1b7c20a6ea3b3607397ec78a3a2dfeea562c99273b7c26a67c1d4b4290cb2bc",
    (19, "csv"): "5053938d77113288aecbd57d7bc8aa2ccb5ea6865ef0e34c20b2b9bad33c5927",
}


@pytest.mark.parametrize("degree,fmt", sorted(WITNESS_GOLDEN))
def test_witness_stdout_golden(capsys, degree, fmt):
    code, out, _ = invoke(
        capsys, "witness", "--degree", str(degree), "--format", fmt, "--no-timestamp"
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == WITNESS_GOLDEN[degree, fmt]


@pytest.mark.parametrize("degree", ["7", "8"])
def test_gvalue_past_the_element_cap_is_unverified(capsys, degree):
    """A witness above the element cap is not checked: the report says
    `verified: no` and exits 0, for a catalog degree as for a prime one."""
    code, out, err = invoke(
        capsys, "gvalue", "--degree", degree, "--element-cap", "20",
        "--format", "json", "--no-timestamp",
    )
    data = json.loads(out)
    assert (code, err, data["verified"], data["anomalies"]) == (0, "", False, [])
    want = {"7": ["frob:2^3:7"], "8": ["named:G72D", "named:G72Q"]}[degree]
    assert data["witness_specs"] == want


def test_unverified_witness_skips_a_refuted_claim(capsys):
    """Without verification the degree-8 report lists G72D, whose degrees
    top out at 4; the witness is the first entry that is not refuted."""
    code, out, err = invoke(
        capsys, "witness", "--degree", "8", "--no-verify", "--format", "json",
        "--no-timestamp",
    )
    data = json.loads(out)
    assert (code, err, data["spec"], data["verified"]) == (0, "", "named:G72Q", False)


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


def test_one_parser_serves_every_run(capsys):
    """The parser is built once per process: a failed parse and --help
    leave it as a fresh one, so every run reads as with its own parser."""
    runs = [
        ("gvalue",),  # missing --degree: exit 2
        ("--help",),
        ("degrees", "--help"),
        ("degrees", "--spec", "named:S3", "--format", "json", "--no-timestamp"),
        ("gvalue", "--degree", "5", "--no-timestamp"),
    ]
    cli._build_parser.cache_clear()
    shared = [invoke(capsys, *argv) for argv in runs]
    assert cli._build_parser() is cli._build_parser()
    fresh = []
    for argv in runs:
        cli._build_parser.cache_clear()
        fresh.append(invoke(capsys, *argv))
    assert shared == fresh
    assert [code for code, _, _ in shared] == [2, 0, 0, 0, 0]
    assert "usage: chardeg gvalue" in shared[0][2]


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


@pytest.mark.parametrize(
    "argv",
    [["scan-a", "--max-p", "30000", "--format", "csv"], ["gvalue", "--degree", "5"]],
    ids=["write", "flush at exit"],
)
def test_closed_stdout_exits_141_quietly(argv):
    """A stdout whose reader has gone, as behind `| head`: the long scan
    fails while it writes, the short report when it is flushed, and both
    exit 141 with nothing on stderr, not even Python's message from the
    flush at shutdown."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    read, write = os.pipe()
    os.close(read)  # no reader: every write to the pipe fails
    try:
        done = subprocess.run(
            [sys.executable, "-m", "chardeg", *argv, "--no-timestamp"],
            stdout=write,
            stderr=subprocess.PIPE,
            env=env,
            timeout=120,
        )
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (141, b"")


def test_verify_failure_exits_1(capsys):
    # degree 7's witness is honest, so verify exits 0; the exit 1 of a
    # failing self-check is test_self_check_failure_exits_1's.
    code, out, _ = invoke(
        capsys, "verify", "--degree", "7", "--format", "json", "--no-timestamp"
    )
    assert code == 0  # honest witness: no failure
    data = json.loads(out)
    assert data["status"] == "Exhaustive"


@pytest.mark.parametrize(
    "exc", [errors.SelfCheckFailed, errors.NotPerfectSquare, errors.SumOfSquaresMismatch]
)
def test_self_check_failure_exits_1(capsys, monkeypatch, exc):
    """A failed self-check of the engine exits 1, with one error line."""

    def fail(*args, **kwargs):
        raise exc("walked order does not divide |G|")

    monkeypatch.setattr(cli, "character_degrees", fail)
    code, out, err = invoke(capsys, "degrees", "--spec", "named:S3", "--no-timestamp")
    assert code == 1
    assert out == ""
    assert err == "ERROR: internal verification failure: walked order does not divide |G|\n"


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


def test_cache_closes_affine_matrices_once(capsys, monkeypatch, tmp_path):
    """A miss closes the matrix group of an affine spec once, for realize;
    a hit closes it once, for the order its line is checked against."""
    closed = []
    closure = groups._closure

    def counted(*args):
        closed.append(args[4])  # the descriptor
        return closure(*args)

    monkeypatch.setattr(groups, "_closure", counted)
    argv = (
        "degrees", "--spec", "affine:3^2:0,2,1,0;1,0,0,2", "--cache",
        "--cache-dir", str(tmp_path), "--format", "json", "--no-timestamp",
    )
    _, miss, _ = invoke(capsys, *argv)
    assert closed.count("matrix group over F_3") == 1
    closed.clear()
    _, hit, _ = invoke(capsys, *argv)
    assert closed == ["matrix group over F_3"] and hit == miss


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


@pytest.mark.parametrize(
    "spec,order,degrees,want",
    [
        ("named:S3", 12, [1, 1, 1, 1, 2, 2], (6, [1, 1, 2])),  # another order
        ("cyclic:1", 1, [1, 0], (1, [1])),  # a degree 0
    ],
)
def test_cache_entry_contradicting_its_spec_is_recomputed(
    capsys, tmp_path, spec, order, degrees, want
):
    line = {
        "spec_text": spec,
        "order": order,
        "degrees": degrees,
        "engine_version": __version__,
        "timestamp": "2026-01-01T00:00:00Z",
    }
    (tmp_path / "degrees.jsonl").write_text(json.dumps(line) + "\n")
    argv = (
        "degrees", "--spec", spec, "--cache", "--cache-dir", str(tmp_path),
        "--format", "json", "--no-timestamp", "--verbose",
    )
    code, out, err = invoke(capsys, *argv)
    assert code == 0
    data = json.loads(out)
    assert (data["group_order"], data["degrees"]) == want
    assert "skipping" in err and "cache hit" not in err
    code, again, err = invoke(capsys, *argv)  # the recomputed line is served
    assert code == 0 and again == out
    assert "cache hit" in err
    # the store dropped the line that broke the degree laws; a line of
    # another order is a valid entry and stays, warned about when met
    assert ("skipping" in err) == (order != want[0])


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
