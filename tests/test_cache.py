"""Degree-cache behavior: round trips, version keying, corruption tolerance."""

import json

import pytest

from chardeg.cache import CacheEntry, DegreeCache, utc_now


def entry(spec="cyclic:6", version="0.1.0"):
    return CacheEntry(
        spec_text=spec,
        order=6,
        degrees=(1, 1, 1, 1, 1, 1),
        engine_version=version,
        timestamp=utc_now(),
    )


def test_json_round_trip():
    e = entry()
    assert CacheEntry.from_json(e.to_json()) == e


def test_from_json_rejects_inconsistent_degrees():
    raw = json.loads(entry().to_json())
    raw["degrees"] = [1, 2]  # squares sum to 5, not 6
    with pytest.raises(ValueError):
        CacheEntry.from_json(json.dumps(raw))


@pytest.mark.parametrize(
    "order,degrees",
    [
        (1, [1, 0]),  # no degree 0, and the least degree is not 1
        (8, [2, 2]),  # no linear character
        (5, [1, 2]),  # 2 does not divide 5
    ],
)
def test_from_json_rejects_broken_degree_laws(order, degrees):
    raw = json.loads(entry().to_json())
    raw["order"], raw["degrees"] = order, degrees  # squares still sum to the order
    with pytest.raises(ValueError):
        CacheEntry.from_json(json.dumps(raw))


def test_utc_now_shape():
    stamp = utc_now()
    assert stamp.endswith("Z") and "T" in stamp and len(stamp) == 20


def test_store_then_lookup(tmp_path):
    cache = DegreeCache(tmp_path)
    assert cache.lookup("cyclic:6", "0.1.0", lambda: 6) is None
    e = entry()
    cache.store(e)
    assert cache.lookup("cyclic:6", "0.1.0", lambda: 6) == e


def test_lookup_keyed_by_engine_version(tmp_path):
    cache = DegreeCache(tmp_path)
    cache.store(entry(version="0.0.9"))
    assert cache.lookup("cyclic:6", "0.1.0", lambda: 6) is None
    assert cache.lookup("cyclic:6", "0.0.9", lambda: 6) is not None


def test_lookup_skips_entry_of_another_order(tmp_path, caplog):
    cache = DegreeCache(tmp_path)
    wrong = CacheEntry("named:S3", 12, (1, 1, 1, 1, 2, 2), "0.1.0", utc_now())
    right = CacheEntry("named:S3", 6, (1, 1, 2), "0.1.0", utc_now())
    cache.store(wrong)  # obeys the degree laws, but S3 has order 6
    with caplog.at_level("WARNING"):
        assert cache.lookup("named:S3", "0.1.0", lambda: 6) is None
    assert any("order 12, not 6" in r.getMessage() for r in caplog.records)
    cache.store(right)
    assert cache.lookup("named:S3", "0.1.0", lambda: 6) == right
    assert cache.lookup("named:S3", "0.1.0", lambda: 12) == wrong


def test_lookup_keyed_by_spec_text(tmp_path):
    cache = DegreeCache(tmp_path)
    cache.store(entry(spec="cyclic:6"))
    assert cache.lookup("cyclic:7", "0.1.0", lambda: 6) is None


def test_corrupt_lines_skipped_with_warning(tmp_path, caplog):
    cache = DegreeCache(tmp_path)
    cache.store(entry())
    with open(cache.path, "a", encoding="utf-8") as fh:
        fh.write("not json at all\n")
        fh.write(json.dumps({"spec_text": "x"}) + "\n")  # missing fields
    with caplog.at_level("WARNING"):
        found = cache.lookup("cyclic:6", "0.1.0", lambda: 6)
    assert found is not None
    assert any("skip" in r.message or "cache" in r.message for r in caplog.records)


def test_corrupt_invariant_line_skipped(tmp_path):
    cache = DegreeCache(tmp_path)
    bad = json.loads(entry().to_json())
    bad["order"] = 7  # breaks the sum-of-squares invariant
    with open(cache.path.parent / "degrees.jsonl", "w", encoding="utf-8") as fh:
        fh.write(json.dumps(bad) + "\n")
    assert cache.lookup("cyclic:6", "0.1.0", lambda: 6) is None
    assert cache.stats()["entries"] == 0


def test_store_drops_lines_that_fail_their_checks(tmp_path, caplog):
    """A hand-edited line that breaks the degree laws is warned about once;
    the next store rewrites the file without it, so later lookups are
    silent."""
    cache = DegreeCache(tmp_path)
    first = entry()
    cache.store(first)
    bad = json.loads(entry(spec="cyclic:1").to_json())
    bad["order"], bad["degrees"] = 1, [1, 0]
    with open(cache.path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(bad) + "\n")
    with caplog.at_level("WARNING"):
        assert cache.lookup("cyclic:1", "0.1.0", lambda: 1) is None
    assert [r.getMessage()[:23] for r in caplog.records] == ["cache line 2 corrupt, s"]
    good = CacheEntry("cyclic:1", 1, (1,), "0.1.0", utc_now())
    cache.store(good)
    lines = cache.path.read_text(encoding="utf-8").splitlines()
    assert [CacheEntry.from_json(line) for line in lines] == [first, good]
    caplog.clear()
    with caplog.at_level("WARNING"):
        assert cache.lookup("cyclic:1", "0.1.0", lambda: 1) == good
        assert cache.lookup("cyclic:6", "0.1.0", lambda: 6) == first
    assert not caplog.records


def test_store_keeps_a_last_line_without_newline(tmp_path):
    cache = DegreeCache(tmp_path)
    first = entry()
    cache.path.write_text(first.to_json(), encoding="utf-8")  # no trailing newline
    second = entry(spec="cyclic:7")
    cache.store(second)
    assert cache.lookup("cyclic:6", "0.1.0", lambda: 6) == first
    assert cache.lookup("cyclic:7", "0.1.0", lambda: 6) == second


def test_stats_and_clear(tmp_path):
    cache = DegreeCache(tmp_path)
    assert cache.stats()["entries"] == 0
    cache.store(entry(spec="cyclic:6"))
    cache.store(entry(spec="cyclic:6"))  # duplicate lines both load
    stats = cache.stats()
    assert stats["entries"] == 2
    assert stats["specs"] == ["cyclic:6"]
    assert cache.clear() == 2
    assert cache.stats()["entries"] == 0
    assert cache.clear() == 0
