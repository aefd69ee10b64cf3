"""Run one ``repro`` CLI command with spans around each layer's public calls.

    python3 perfbench/trace_cli.py SPANS.json TRACE_ID check f.gds --top top ...

The program is not changed: this wrapper times the import of
``repro.cli``, then replaces ``repro.gdsii.read``,
``repro.layout.builder.layout_from_gdsii``, ``HierarchyTree.__init__``,
``Engine.compile``, ``Engine.check``, ``CheckReport.to_json`` and
``repro.core.markers.save_markers`` by spanned calls of the originals,
runs ``repro.cli.main`` on the remaining arguments, and writes the spans
to ``SPANS.json``. Exits with the command's own exit code.
"""

import sys
import time

STARTED = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402


def main() -> int:
    out, trace_id, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = common.Tracer(trace_id)
    with tracer.span("cli.import"):
        import repro.cli
    import repro.core.markers
    import repro.gdsii
    import repro.layout.builder
    from repro.core.engine import Engine
    from repro.core.results import CheckReport
    from repro.hierarchy.tree import HierarchyTree

    tracer.wrap(repro.gdsii, "read", "gdsii.read")
    tracer.wrap(repro.layout.builder, "layout_from_gdsii", "layout.build")
    tracer.wrap(HierarchyTree, "__init__", "hierarchy.tree")
    tracer.wrap(Engine, "compile", "plan.compile")
    tracer.wrap(Engine, "check", "engine.check")
    tracer.wrap(CheckReport, "to_json", "reporting.render")
    tracer.wrap(repro.core.markers, "save_markers", "reporting.markers")
    try:
        code = repro.cli.main(argv)
    finally:
        Path(out).write_text(json.dumps({
            "spans": tracer.spans, "pid": os.getpid(),
            "in_process_s": time.perf_counter() - STARTED,
        }))
    return code


if __name__ == "__main__":
    sys.exit(main())
