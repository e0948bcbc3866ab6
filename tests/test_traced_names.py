"""Every function the benchmark's tracer wraps exists in the package.

clibench/spans.py names the functions it traces by module and string;
a traced function that was renamed or deleted would otherwise fail only
the traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "clibench" / "spans.py"


def _traced():
    spec = importlib.util.spec_from_file_location("clibench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TRACED


def test_traced_names_resolve():
    missing = []
    for short, names in _traced().items():
        module = importlib.import_module(f"tokenslide.{short}")
        missing += [f"{short}.{name}" for name in names
                    if not callable(getattr(module, name, None))]
    assert missing == []
