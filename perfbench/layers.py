"""The program's layers as the traced run sees them: which functions are
wrapped, which counters their calls feed, and the per-layer metrics derived
from the spans.

Layers are the package modules.  Every metric named here is reported on
every workload, as zero where the workload does not reach the layer.
"""

from __future__ import annotations

from collections import Counter
from math import comb
from pathlib import Path

from spans import Target, Tracer, self_times

LAYERS = ("graphs", "tsc", "complexes", "cohen_macaulay", "homology", "covers", "cli")
CLI_COMMANDS = ("gen", "tsc", "fvector", "homology", "check", "covers", "decompose",
                "verify-friendship")
SRC_MODULES = ("__init__", "__main__", "cli", "cohen_macaulay", "complexes", "covers",
               "graphs", "homology", "tsc")

#: Functions reported with ``.calls`` and ``.s`` (inclusive seconds).
FUNCTIONS = (
    ("graphs", "total_graph"), ("graphs", "is_connected"),
    ("tsc", "build_tsc"), ("tsc", "total_indices"),
    ("complexes", "link"), ("complexes", "all_faces"), ("complexes", "is_facet_connected"),
    ("cohen_macaulay", "is_cm"), ("cohen_macaulay", "is_cm_t"),
    ("cohen_macaulay", "vertex_links_connected"),
    ("homology", "rank_q"), ("homology", "rank_gf"), ("homology", "boundary_matrix"),
    ("homology", "homology_summary"),
    ("covers", "minimal_vertex_covers"), ("covers", "facet_ideal_decomposition"),
    ("covers", "stanley_reisner_generators"),
) + tuple(("cli", command) for command in CLI_COMMANDS)

COUNTS = (
    "tsc.triples_scanned", "tsc.triples_kept", "tsc.facets",
    "complexes.link.facets_scanned", "complexes.faces",
    "cohen_macaulay.links_visited", "cohen_macaulay.links_with_homology",
    "homology.rank_q.max_entries", "homology.boundary_matrix.entries",
    "covers.covers_emitted", "covers.sr_generators", "covers.sr_candidates",
)
RATIOS = ("tsc.index_yield", "cohen_macaulay.homology_per_link",
          "covers.enumerations_per_request")


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for layer, fn in FUNCTIONS:
        units[f"{layer}.{fn}.calls"] = "count"
        units[f"{layer}.{fn}.s"] = "s"
    units.update({name: "count" for name in COUNTS})
    units.update({name: "ratio" for name in RATIOS})
    units["homology.boundary_matrix.bytes_computed"] = "B"
    units.update({"cli.import_s": "s", "cli.startup_s": "s", "cli.json_io_s": "s"})
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    units["src.loc"] = "lines"
    units.update({f"src.{module}.loc": "lines" for module in SRC_MODULES})
    units.update({"trace.overhead_s": "s", "trace.untraced_wall_s": "s"})
    return units


# -- counter hooks -----------------------------------------------------------


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _rank_name(args, kwargs):
    field = _arg(args, kwargs, 1, "field")
    return "rank_gf" if hasattr(field, "p") else "rank_q"


def _count_rank(counters, args, kwargs, result, state):
    if _rank_name(args, kwargs) == "rank_q":
        size = _arg(args, kwargs, 0, "mat").size
        key = "homology.rank_q.max_entries"
        counters[key] = max(counters[key], size)


def _count_triples(counters, args, kwargs, result, state):
    labeling = _arg(args, kwargs, 1, "labeling")
    counters["tsc.triples_scanned"] += comb(labeling.label_count, 3)
    counters["tsc.triples_kept"] += len(result.triples)


def _count_facets(counters, args, kwargs, result, state):
    counters["tsc.facets"] += len(result.facets)


def _count_link(counters, args, kwargs, result, state):
    counters["complexes.link.facets_scanned"] += len(args[0].facets)


def _faces_cached(args, kwargs):
    return getattr(args[0], "_faces_by_dim", None) is not None


def _count_faces(counters, args, kwargs, result, cached):
    if not cached:
        counters["complexes.faces"] += sum(len(faces) for faces in result.values())


def _count_boundary(counters, args, kwargs, result, state):
    rows, cols = result.shape
    counters["homology.boundary_matrix.entries"] += rows * cols


def _count_covers(counters, args, kwargs, result, state):
    counters["covers.covers_emitted"] += len(result.covers)


def _count_sr(counters, args, kwargs, result, state):
    cx = _arg(args, kwargs, 0, "cx")
    counters["covers.sr_generators"] += len(result)
    counters["covers.sr_candidates"] += sum(
        comb(len(cx.vertices), size) for size in range(2, cx.dimension() + 3))


def _t(layer, name, module, qualname=None, **kw):
    return Target(layer, name, f"tscomplex.{module}", qualname or name, **kw)


TARGETS = (
    _t("graphs", "total_graph", "graphs"),
    _t("graphs", "is_connected", "graphs"),
    _t("tsc", "build_tsc", "tsc", hook=_count_facets),
    _t("tsc", "total_indices", "tsc", hook=_count_triples),
    _t("complexes", "link", "complexes", "SimplicialComplex.link", hook=_count_link),
    _t("complexes", "all_faces", "complexes", "SimplicialComplex.all_faces",
       before=_faces_cached, hook=_count_faces),
    _t("complexes", "is_facet_connected", "complexes", "SimplicialComplex.is_facet_connected"),
    _t("cohen_macaulay", "is_cm", "cohen_macaulay"),
    _t("cohen_macaulay", "is_cm_t", "cohen_macaulay"),
    _t("cohen_macaulay", "vertex_links_connected", "cohen_macaulay"),
    _t("homology", "rank", "homology", "matrix_rank", name_of=_rank_name, hook=_count_rank),
    _t("homology", "boundary_matrix", "homology", hook=_count_boundary),
    _t("homology", "homology_summary", "homology"),
    _t("covers", "minimal_vertex_covers", "covers", hook=_count_covers),
    _t("covers", "facet_ideal_decomposition", "covers"),
    _t("covers", "stanley_reisner_generators", "covers", hook=_count_sr),
    # The CLI's file and JSON handling, reported together as cli.json_io_s.
    _t("cli", "json_io", "cli", "_load_graph"),
    _t("cli", "json_io", "cli", "_load_complex"),
    _t("cli", "json_io", "cli", "_render"),
    _t("cli", "json_io", "cli", "_emit"),
)

PACKAGE_MODULES = ("tscomplex",) + tuple(
    f"tscomplex.{m}" for m in SRC_MODULES if m not in ("__init__", "__main__"))


# -- derived metrics -----------------------------------------------------------


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics from the spans and counters of a traced pass."""
    layer_of = [tracer.labels[lid][0] for lid in tracer.label]
    name_of = [tracer.labels[lid][1] for lid in tracer.label]
    calls: Counter = Counter()
    seconds: Counter = Counter()
    for i in range(len(layer_of)):
        key = (layer_of[i], name_of[i])
        calls[key] += 1
        seconds[key] += tracer.end[i] - tracer.start[i]

    out = {}
    for key in FUNCTIONS:
        out[f"{key[0]}.{key[1]}.calls"] = float(calls[key])
        out[f"{key[0]}.{key[1]}.s"] = seconds[key]
    counters = tracer.counters
    for name in COUNTS:
        out[name] = float(counters[name])

    links = with_homology = 0
    decompose_requests = set()
    enumerations = 0
    for i, parent in enumerate(tracer.parent):
        caller = layer_of[parent] if parent >= 0 else None
        if caller == "cohen_macaulay":
            links += name_of[i] == "link"
            with_homology += name_of[i] == "homology_summary"
        root = tracer.root[i]
        if name_of[root] == "decompose":
            decompose_requests.add(root)
            enumerations += name_of[i] == "minimal_vertex_covers"
    out["cohen_macaulay.links_visited"] = float(links)
    out["cohen_macaulay.links_with_homology"] = float(with_homology)

    out["tsc.index_yield"] = _ratio(counters["tsc.triples_kept"], counters["tsc.triples_scanned"])
    out["cohen_macaulay.homology_per_link"] = _ratio(with_homology, links)
    out["covers.enumerations_per_request"] = _ratio(enumerations, len(decompose_requests))
    # Dense int64 matrices: computed from the shapes, not measured.
    entries = counters["homology.boundary_matrix.entries"]
    out["homology.boundary_matrix.bytes_computed"] = 8.0 * entries
    out["cli.json_io_s"] = seconds[("cli", "json_io")]

    selfs = self_times(layer_of, tracer.start, tracer.end, tracer.parent)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = selfs.get(layer, 0.0)
    return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def src_line_counts(src: Path) -> dict[str, float]:
    """Line counts of the package's Python sources: total and per module."""
    counts = {}
    total = 0
    for path in sorted((src / "tscomplex").rglob("*.py")):
        with path.open("rb") as fh:
            lines = sum(1 for _ in fh)
        total += lines
        counts[path.relative_to(src / "tscomplex").with_suffix("").as_posix()] = lines
    out = {"src.loc": float(total)}
    out.update({f"src.{m}.loc": float(counts.get(m, 0)) for m in SRC_MODULES})
    return out
