"""Input generation: every design, injected violation and edit version.

Runs as its own process before any clock starts, so the benchmark process
imports the program cold and never synthesizes or encodes during a timed
operation::

    python3 perfbench/gen.py --seed 7 --out DIR [--designs aes,uart] [--serve jpeg,ethmac]

writes the GDSII inputs into ``DIR`` and describes them in ``DIR/inputs.json``.

* Designs come from ``repro.workloads.build_design(name, "paper")``; they are
  clean by construction (``confirm_clean.py`` re-checks that with the flat
  KLayout-like baseline). Violations are planted with ``inject_violations``
  on a seed derived from ``--seed``; its returned list is the oracle.
  Enclosures are planted as V1 vias on M1 pads: a V2 via planted on an M2
  pad also lacks M3 cover, which the engine rightly reports as
  ``V2.M3.EN.1`` but the returned list omits.
* A served design additionally carries an ``EDITS`` cell placed once by
  ``top`` (empty in the base version) and one small pattern cell per edit
  round, each holding one planted violation at its origin. Round ``r``
  plants pattern ``r`` in ``EDITS`` at slot A, moves that instance to slot
  B, then removes it, which returns the layout to the base version. Only
  the trailing ``EDITS`` structure differs between versions, so a version is
  the shared prefix bytes plus its own small suffix.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from oracle import shifted  # noqa: E402

from repro.gdsii import write_bytes  # noqa: E402
from repro.gdsii.model import GdsLibrary, GdsSref, GdsStructure  # noqa: E402
from repro.geometry import Polygon  # noqa: E402
from repro.hierarchy.tree import HierarchyTree  # noqa: E402
from repro.layout import Layout, gdsii_from_layout  # noqa: E402
from repro.layout.cell import Cell, CellReference  # noqa: E402
from repro.geometry.transform import Transform  # noqa: E402
from repro.workloads import DESIGN_NAMES, InjectionPlan, asap7, build_design, inject_violations  # noqa: E402

#: Violations planted in every design: 9, one rule kind after another.
PLAN = dict(spacing=3, width=2, area=2, enclosure=2)
#: Edit rounds per served design; a run that gets further repeats them.
ROUNDS = 24
#: Rule kinds planted by the edit rounds, in turn.
KINDS = ("spacing", "width", "area", "enclosure")
SLOT_PITCH = 600
SLOT_HEIGHT = 1000


def inject(layout: Layout, plan: dict, seed: int):
    """Plant ``plan`` with V1-on-M1 enclosures; returns payload-style dicts."""
    found = inject_violations(
        layout, InjectionPlan(**plan), layer=asap7.M2,
        via_layer=asap7.V1, metal_layer=asap7.M1, seed=seed,
    )
    return [violation_dict(v) for v in found]


def design_seed(seed: int, name: str, served: bool = False) -> int:
    """The injection seed of one design under the run's ``--seed``."""
    return seed * 7919 + (100 if served else 0) + sorted(DESIGN_NAMES).index(name)


def violation_dict(v) -> dict:
    kind = v.kind.value
    if kind == "enclosure":
        rule = asap7.rule_name("EN", v.layer, v.other_layer)
    else:
        rule = asap7.rule_name({"spacing": "S", "width": "W", "area": "A"}[kind], v.layer)
    r = v.region
    return {
        "rule": rule, "kind": kind, "layer": v.layer, "other_layer": v.other_layer,
        "region": [r.xlo, r.ylo, r.xhi, r.yhi], "measured": v.measured, "required": v.required,
    }


def _extent(layout: Layout):
    """(xhi, yhi) of everything placed under ``top``."""
    tree = HierarchyTree(layout)
    boxes = [tree.top_mbr(L) for L in layout.layers()]
    boxes = [b for b in boxes if not b.is_empty]
    return max(b.xhi for b in boxes), max(b.yhi for b in boxes)


def _slot_box(x: int, y: int):
    """A query box covering one slot and nothing of its neighbours."""
    return [x - 100, y - 100, x + SLOT_PITCH - 200, y + SLOT_HEIGHT + 100]


def _pattern(index: int, kind: str, seed: int):
    """One planted violation of ``kind`` as a cell with its pattern at the origin."""
    scratch = Layout("pattern")
    scratch.new_cell("top")
    scratch.set_top("top")
    expected = inject(scratch, {kind: 1}, seed)
    # inject_violations starts an empty layout's strip at (100, 500).
    cell = Cell(f"PAT{index}")
    for layer, polygon in scratch.top_cell().all_polygons():
        cell.add_polygon(layer, Polygon.from_rect_coords(
            polygon.mbr.xlo - 100, polygon.mbr.ylo - 500,
            polygon.mbr.xhi - 100, polygon.mbr.yhi - 500,
        ))
    return cell, shifted(expected, -100, -500)


def plain_design(name: str, seed: int, out: Path) -> dict:
    layout = build_design(name, "paper")
    expected = inject(layout, PLAN, design_seed(seed, name))
    path = out / f"{name}.gds"
    path.write_bytes(write_bytes(gdsii_from_layout(layout)))
    return {"gds": path.name, "expected": expected}


def served_design(name: str, seed: int, out: Path) -> dict:
    layout = build_design(name, "paper")
    expected = inject(layout, PLAN, design_seed(seed, name, served=True))
    rng = random.Random(f"perfbench-edits-{seed}-{name}")
    xhi, yhi = _extent(layout)
    strip_y = yhi + SLOT_PITCH
    slots = max(2, (xhi - 400) // SLOT_PITCH)
    rounds, patterns = [], []
    for r in range(ROUNDS):
        kind = KINDS[r % len(KINDS)]
        cell, pattern = _pattern(r, kind, rng.randrange(2**31))
        patterns.append(cell)
        a, b = rng.sample(range(slots), 2)
        rounds.append({
            "kind": kind, "rule": pattern[0]["rule"], "pattern": pattern,
            "slot_a": [200 + a * SLOT_PITCH, strip_y], "slot_b": [200 + b * SLOT_PITCH, strip_y],
            "box_a": _slot_box(200 + a * SLOT_PITCH, strip_y),
            "box_b": _slot_box(200 + b * SLOT_PITCH, strip_y),
        })
    for cell in patterns:
        layout.add_cell(cell)
    layout.add_cell(Cell("EDITS"))
    layout.top_cell().add_reference(CellReference("EDITS", Transform()))

    library = gdsii_from_layout(layout)
    tail = {c.name for c in patterns} | {"EDITS"}
    body = [s for s in library.structures if s.name not in tail]
    pattern_structs = [library.structure(c.name) for c in patterns]
    library.structures = body + pattern_structs + [library.structure("EDITS")]
    full = write_bytes(library)

    def suffix(refs) -> bytes:
        small = GdsLibrary(name=library.name, user_unit=library.user_unit,
                           meters_per_unit=library.meters_per_unit)
        head = len(write_bytes(small)) - 4  # header records, without ENDLIB
        small.structures = pattern_structs + [GdsStructure("EDITS", [
            GdsSref(sname=f"PAT{r}", origin=tuple(xy)) for r, xy in refs
        ])]
        return write_bytes(small)[head:]

    base = suffix([])
    if not full.endswith(base):
        raise RuntimeError("EDITS structure is not the stream's last structure")
    (out / f"{name}.prefix").write_bytes(full[: len(full) - len(base)])
    blobs = [base]
    for r, rnd in enumerate(rounds):
        rnd["plant"] = len(blobs)
        blobs.append(suffix([(r, rnd["slot_a"])]))
        rnd["move"] = len(blobs)
        blobs.append(suffix([(r, rnd["slot_b"])]))
    offsets, at = [], 0
    for blob in blobs:
        offsets.append([at, at + len(blob)])
        at += len(blob)
    (out / f"{name}.suffixes").write_bytes(b"".join(blobs))
    return {"prefix": f"{name}.prefix", "suffixes": f"{name}.suffixes", "offsets": offsets,
            "expected": expected, "rounds": rounds}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--designs", default="")
    parser.add_argument("--serve", default="")
    args = parser.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    inputs = {"seed": args.seed, "plan": PLAN, "designs": {}, "serve": {}}
    for name in filter(None, args.designs.split(",")):
        inputs["designs"][name] = plain_design(name, args.seed, out)
    for name in filter(None, args.serve.split(",")):
        inputs["serve"][name] = served_design(name, args.seed, out)
    (out / "inputs.json").write_text(json.dumps(inputs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
