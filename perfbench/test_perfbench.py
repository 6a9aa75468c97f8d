"""Fast checks of the benchmark itself: textbook references and a smoke run.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import reference as ref

HERE = Path(__file__).resolve().parent


def test_psl2_degrees_match_known_tables():
    assert ref.psl2_degrees(5) == (1, 3, 3, 4, 5)  # A5
    assert ref.psl2_degrees(7) == (1, 3, 3, 6, 7, 8)  # GL3(2)
    g = ref.group("psl2:37")
    assert (g.order, g.classes, g.modulus) == (25308, 21, 25309)


def test_family_references_square_sum_to_their_orders():
    for spec, order, classes in [
        ("frob:2^8:17", 4352, 32),
        ("frob:191^1:19", 3629, 29),
        ("xsp:3:2", 243, 83),
        ("prod(xsp:3:2,cyclic:3)", 729, 249),
        ("prod(xsp:3:2,cyclic:2)", 486, 166),
    ]:
        g = ref.group(spec)
        assert (g.order, g.classes) == (order, classes), spec


def test_small_group_census_counts():
    counts = tuple(len(ref.SMALL_GROUP_DEGREES[n]) for n in range(1, 14))
    assert counts == (1, 1, 1, 2, 1, 2, 1, 5, 2, 2, 1, 5, 1)
    for n, multisets in ref.SMALL_GROUP_DEGREES.items():
        assert all(sum(d * d for d in m) == n for m in multisets)


def test_g_table_and_the_p19_exception():
    assert {n: ref.g_value(n) for n in range(2, 10)} == ref.G_TABLE
    assert ref.g_value(25) == 2525
    for squared, max_p in ((False, 4000), (True, 71)):
        rows, anomalies = ref.scan(max_p, squared)
        assert [r["p"] for r in rows if r["case_label"] == "a"] == [19]
        assert anomalies == 0
    assert ref.minimality(5)["residual_orders"] == [30, 40, 45, 50]


def test_witness_specs_follow_the_case_rules():
    assert ref.prime_power_parts(32) == (2, 5) and ref.prime_power_parts(36) is None
    assert ref.witness_spec(19) == "psl2:19"  # case a
    assert ref.witness_spec(31) == "frob:2^5:31"  # case b, a prime-power kernel
    assert ref.witness_spec(9) == "prod(frob:2^2:3,frob:2^2:3)"  # case c
    assert ref.witness_spec(8) == "named:G72Q"


def test_gvalue_8_requires_the_known_anomaly(tmp_path):
    sys.path.insert(0, str(HERE.parent / "src"))
    import workloads

    pool = workloads.build("reports", smoke=True).requests(str(tmp_path), None)
    check = next(r.check for r in pool if r.key == "gvalue 8")
    answer = {"min_order": 72, "verified": True, "witness_specs": ["named:G72Q"],
              "anomalies": list(ref.KNOWN_ANOMALIES[8])}
    assert check((0, json.dumps(answer), "")) is None
    assert check((0, json.dumps({**answer, "anomalies": []}), "")) is not None
    assert check((0, json.dumps({**answer, "witness_specs": ["named:G72D"]}), "")) is not None


def test_smoke_run_checks_schema_and_answers():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "reports", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
    assert json.loads((tmp_path / "BENCHMARK.json").read_text())["paths"] == ["perfbench"]
