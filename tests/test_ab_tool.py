import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def ab(monkeypatch):
    spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # no checkout is unpacked and no run.py is started; the handler stays the test's
    monkeypatch.setattr(module, "unpack", lambda rev, into: into)
    monkeypatch.setattr(module.signal, "signal", lambda *args: None)
    return module


def fake_run(root, args):
    if args.trace:
        return {"verify.count.busy_ms_per_item": 2.0}, True
    return {"items_per_s": 250.0 if root == ROOT else 240.0}, True


@pytest.mark.parametrize("trace, pair_line", [
    ("0", "pair 1/2: base 240 items/s, change 250 items/s"),
    ("1", "pair 1/2: base, change"),
])
def test_pair_lines_name_only_metrics_the_runs_have(ab, monkeypatch, capsys, trace, pair_line):
    monkeypatch.setattr(ab, "run", fake_run)
    assert ab.main(["--workload", "oracle", "--pairs", "2", "--trace", trace]) == 0
    out, err = capsys.readouterr()
    lines = err.splitlines()
    assert lines[0] == pair_line
    assert "nan" not in err
    assert "runs that answered wrongly or failed: base 0/2, change 0/2" in out
