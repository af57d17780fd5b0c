"""The bench tracer's targets still name functions of the package.

``bench/spans.py`` patches ``(owner, attribute)`` pairs by name; a rename
or deletion there would otherwise show only when the bench runs traced.
The module is compiled from its source and executed into a fresh module,
so no bytecode is written under ``bench/``.
"""

import pathlib
import types

import cplab
import cplab.cli  # noqa: F401  (layer_targets reads cplab.cli)

SPANS = pathlib.Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans() -> types.ModuleType:
    module = types.ModuleType("bench_spans")
    module.__file__ = str(SPANS)
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"),
         module.__dict__)
    return module


def test_every_traced_target_resolves():
    targets = load_spans().layer_targets(cplab)
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, *_ in targets
               if not callable(getattr(owner, attr, None))]
    assert missing == []
    assert targets
