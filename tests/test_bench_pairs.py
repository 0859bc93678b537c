"""tools/bench_pairs.py against two stub source trees."""

import importlib.util
import json
import textwrap
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

# A stand-in for perfbench/run.py: logs its tree and seed beside the trees, prints a
# report line and a result line whose metrics are the tree's SCALE times the seed.
_STUB = textwrap.dedent("""
    import argparse, json, sys
    from pathlib import Path
    SCALE = {scale}
    p = argparse.ArgumentParser()
    for name in ("--workload", "--seed", "--seconds"):
        p.add_argument(name, required=True)
    args = p.parse_args()
    here = Path(__file__).resolve().parents[1]
    with open(here.parent / "order.log", "a") as fh:
        fh.write("%s %s %s\\n" % (here.name, args.workload, args.seed))
    if SCALE < 0:
        print("no such workload", file=sys.stderr)
        sys.exit(2)
    seed = int(args.seed)
    print(json.dumps({{"report": {{"workload": args.workload}}}}))
    print(json.dumps({{"correct": True, "attempted": 3, "failed": 0, "metrics": {{
        "primary_s": {{"value": SCALE * seed, "unit": "s"}},
        "peak_rss_mb": {{"value": 100.0 - SCALE * (seed == 2), "unit": "MB"}}}}}}))
""")


def _tree(root, name, scale):
    (root / name / "perfbench").mkdir(parents=True)
    (root / name / "perfbench" / "run.py").write_text(_STUB.format(scale=scale))
    return root / name


def test_pairs_alternate_and_summarize(tmp_path, capsys):
    old, new = _tree(tmp_path, "old", 2.0), _tree(tmp_path, "new", 1.0)
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main([str(old), str(new), "--workload", "mexframe", "--workload", "cli",
                             "--pairs", "3", "--seconds", "1", "--out", str(out)]) == 0
    order = (tmp_path / "order.log").read_text().split("\n")[:6]
    assert order == ["old mexframe 1", "new mexframe 1", "new mexframe 2", "old mexframe 2",
                     "old mexframe 3", "new mexframe 3"]
    doc = json.loads(out.read_text())
    assert list(doc["workloads"]) == ["mexframe", "cli"]
    summary = doc["workloads"]["mexframe"]["summary"]
    primary = summary["primary_s"]
    assert primary["old"]["median"] == 4.0 and primary["new"]["median"] == 2.0
    assert primary["old"]["q1"] <= 4.0 <= primary["old"]["q3"]
    assert primary["ratios"] == [0.5, 0.5, 0.5] and primary["new_lower"] == 3
    rss = summary["peak_rss_mb"]
    assert rss["ratios"] == [1.0, 99.0 / 98.0, 1.0] and rss["new_lower"] == 0
    pairs = doc["workloads"]["mexframe"]["pairs"]
    assert [p["first"] for p in pairs] == ["old", "new", "old"]
    assert pairs[1]["old"]["metrics"]["primary_s"]["value"] == 4.0
    printed = capsys.readouterr().out
    assert "mexframe: 3 pairs; failed operations old 0, new 0" in printed
    assert "new lower in 3 of 3" in printed
    assert "0.500 0.500 0.500" in printed
    assert sorted(p.name for p in old.rglob("*")) == ["perfbench", "run.py"]


def test_a_failing_run_stops_with_its_error(tmp_path):
    old, new = _tree(tmp_path, "old", 1.0), _tree(tmp_path, "new", -1.0)
    with pytest.raises(SystemExit, match="no such workload"):
        bench_pairs.main([str(old), str(new), "--workload", "mexframe", "--pairs", "1",
                          "--seconds", "1"])


def test_one_pair_is_its_own_quartiles():
    assert bench_pairs.spread([3.0]) == (3.0, 3.0, 3.0)
    q1, median, q3 = bench_pairs.spread([1.0, 2.0, 3.0, 4.0])
    assert q1 <= median == 2.5 <= q3
