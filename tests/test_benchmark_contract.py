"""The traced benchmark names gptsim functions in BENCHMARK.json; a traced
run raises on any name it cannot find, so a rename must fail here first."""

import importlib
import json
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def test_traced_functions_are_public_in_their_layers():
    checked, missing = 0, []
    for metric in json.loads(BENCHMARK.read_text())["per_layer"]:
        parts = metric["name"].split(".")
        if len(parts) != 3 or parts[2] not in ("self_us", "self_ms",
                                                "calls_per_op"):
            continue
        layer, function = parts[:2]
        module = importlib.import_module(f"gptsim.{layer}")
        fn = getattr(module, function, None)
        checked += 1
        if (function.startswith("_") or not callable(fn)
                or isinstance(fn, type)
                or getattr(fn, "__module__", None) != module.__name__):
            missing.append(metric["name"])
    assert checked >= 10
    assert missing == []
