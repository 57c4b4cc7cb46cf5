"""The functions that the benchmark's traced run wraps still exist.

``perfbench/spans.py`` names each layer function it wraps by module and
function name, and its gate counts one ``nomalink.scenario.receive_user``
call per user-frame. A renamed or deleted function would fail only the
traced benchmark run, which the tests under ``tests/`` never start.
"""

import importlib
import importlib.util
from pathlib import Path

import nomalink.receiver
import nomalink.scenario

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _layer_functions():
    # spans.py imports only the standard library
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.LAYER_FUNCTIONS


def test_every_wrapped_layer_function_exists():
    layers = _layer_functions()
    assert layers
    for module_name, function_name in layers:
        module = importlib.import_module(f"nomalink.{module_name}")
        assert callable(getattr(module, function_name, None)), f"{module_name}.{function_name}"


def test_the_replay_receives_through_the_wrapped_binding():
    assert nomalink.scenario.receive_user is nomalink.receiver.receive_user
