"""The timing harness ``tools/time_parts.py`` runs end to end on small cases."""

import importlib.util
import json
import math
from pathlib import Path


def _leaves(value):
    """Every value of a nested dict that is not itself a dict."""
    if isinstance(value, dict):
        for v in value.values():
            yield from _leaves(v)
    else:
        yield value


def test_time_parts_prints_finite_numbers(monkeypatch, capsys):
    # one n=200 case per section: a renamed or removed function in src/
    # makes a wrapper fail here rather than a field read null
    spec = importlib.util.spec_from_file_location("time_parts", Path(__file__).parents[1] / "tools" / "time_parts.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    monkeypatch.setattr(tool, "UPSWEEP_CASES", (("uniform", 200, 5, 16),))
    monkeypatch.setattr(tool, "SPARSE_CASES", (("uniform", 200),))
    monkeypatch.setattr(tool, "BUILD_CASES", (("uniform", 200),))
    monkeypatch.setattr(tool, "STEP_ONE_SIZES", (200,))
    tool.main(["--repeats", "1"])
    out = json.loads(capsys.readouterr().out)
    assert list(out) == ["upsweep_ms", "held_share", "peak_mb", "tree", "sparse_one_tree_ms", "ascent_100_steps_ms",
                         "candidate_build_ms", "mst_ms", "step_one_ms", "derived_seeds",
                         "source", "python", "numpy", "cpus"]
    fields = list(_leaves({key: out[key] for key in list(out)[:10]}))
    assert len(fields) == 27
    assert all(type(x) in (int, float) and math.isfinite(x) for x in fields)
    assert out["tree"]["uniform-n200-DT_5_16"]["node_steps"] > 0
