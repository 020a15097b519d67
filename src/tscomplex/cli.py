"""Command-line front end: generate graphs, build complexes, run checks.

Commands communicate through canonical JSON files so that every artifact is
byte-reproducible and diffable.  Exit codes: 0 success, 2 input error,
3 failed --assert check.  A command refuses input by raising ``ValueError``
(or hitting an ``OSError`` on a file); every command turns either into one
``Error:`` line and exit 2.

The bundled 73-facet reference complex is available to every command that
takes a complex file by passing the literal name ``c42-fixture`` instead of
a path.

Only ``complexes`` is imported with this module; each command imports the
other library modules it runs when it runs, so a process loads only what
its command needs (``gen`` adds ``graphs``, ``fvector`` on a file nothing).
"""

from __future__ import annotations

from pathlib import Path

import click

from .complexes import SimplicialComplex, canonical_json, complex_dumps, complex_loads


class _Command(click.Command):
    """A command whose ``ValueError`` or ``OSError`` is an input error."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (ValueError, OSError) as exc:
            raise click.UsageError(str(exc), ctx) from exc


def _emit(text: str, out: str | None):
    if out is not None:
        Path(out).write_text(text)
    else:
        click.echo(text, nl=False)


def _read(kind: str, path: str, loads):
    try:
        return loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read {kind} file {path!r}: {exc}") from exc


def _load_graph(path: str):
    from .graphs import graph_loads

    return _read("graph", path, graph_loads)


def _load_complex(path: str) -> SimplicialComplex:
    if path == "c42-fixture":
        from .tsc import c42_fixture

        return c42_fixture()
    return _read("complex", path, complex_loads)


def _field(spec: str | None):
    """The field a ``--field`` spec names; ``homology.DEFAULT_FIELD`` without one."""
    from .homology import DEFAULT_FIELD, parse_field

    return DEFAULT_FIELD if spec is None else parse_field(spec)


def _render(payload: dict, text: str, fmt: str) -> str:
    if fmt == "json":
        return canonical_json(payload)
    return text + "\n"


@click.group()
def main():
    """Total simplicial complexes: build, inspect, verify."""


main.command_class = _Command


@main.group()
def gen():
    """Write a labeled graph as canonical JSON."""


gen.command_class = _Command
_out = click.option("--out", type=str, default=None, help="Output file (stdout otherwise).")


@gen.command("friendship")
@click.option("--n", type=int, required=True, help="Triangle count.")
@_out
def gen_friendship_graph(n, out):
    """Friendship graph: n triangles sharing one vertex."""
    from .graphs import gen_friendship, graph_dumps

    _emit(graph_dumps(*gen_friendship(n)), out)


@gen.command("c42")
@_out
def gen_c42_graph(out):
    """Two 4-cycles sharing a path of length two."""
    from .graphs import gen_c42, graph_dumps

    _emit(graph_dumps(*gen_c42()), out)


@gen.command("edge-list")
@click.option("-m", "--m", "m", type=int, required=True, help="Vertex count.")
@click.option("-e", "--edge", "edges", multiple=True, help="Edge 'u,v' (repeatable).")
@_out
def gen_edge_list(m, edges, out):
    """Any graph on vertices 1..m, with the default labeling."""
    from .graphs import Graph, default_labeling, graph_dumps

    pairs = []
    for text in edges:
        u, _, v = text.partition(",")
        try:
            pairs.append((int(u), int(v)))
        except ValueError:
            raise ValueError(f"bad edge {text!r}; expected 'u,v'") from None
    g = Graph(m, pairs)
    _emit(graph_dumps(g, default_labeling(g)), out)


@main.command()
@click.argument("graph_file")
@click.option("--out", type=str, default=None)
def tsc(graph_file, out):
    """Build the total simplicial complex of a labeled graph file."""
    from .tsc import build_tsc

    _emit(complex_dumps(build_tsc(*_load_graph(graph_file))), out)


@main.command()
@click.argument("complex_file")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
@click.option("--out", type=str, default=None)
def fvector(complex_file, fmt, out):
    """Face counts per dimension."""
    cx = _load_complex(complex_file)
    alpha = cx.f_vector()
    payload = {"alpha": list(alpha), "dimension": cx.dimension(), "pure": cx.is_pure()}
    _emit(_render(payload, str(tuple(alpha)), fmt), out)


@main.command()
@click.argument("complex_file")
@click.option("--field", "field_str", default=None, help="'q' or 'gf:<p>'.")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
@click.option("--out", type=str, default=None)
def homology(complex_file, field_str, fmt, out):
    """Ranks and Betti numbers over a field."""
    from .homology import homology_summary

    field = _field(field_str)
    cx = _load_complex(complex_file)
    summary = homology_summary(cx, field)
    text = (
        f"field={summary.field} alpha={summary.alpha} rank_im={summary.rank_im} "
        f"betti={summary.betti} reduced={summary.reduced_betti}"
    )
    _emit(_render(summary.to_json_dict(), text, fmt), out)


@main.command()
@click.argument("kind", type=click.Choice(["cm", "buchsbaum", "cmt"]))
@click.argument("complex_file")
@click.option("--t", "t", type=int, default=None, help="Level for the cmt check.")
@click.option("--field", "field_str", default=None)
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
@click.option("--assert", "assert_verdict", is_flag=True, default=False,
              help="Exit 3 when the verdict is false.")
@click.option("--out", type=str, default=None)
def check(kind, complex_file, t, field_str, fmt, assert_verdict, out):
    """Cohen-Macaulay / Buchsbaum / CM_t verdicts with failure witnesses."""
    from .cohen_macaulay import is_cm, is_cm_t

    field = _field(field_str)
    if t is not None and kind != "cmt":
        raise ValueError(f"--t applies only to check cmt, not to check {kind}")
    if t is None and kind == "cmt":
        raise ValueError("check cmt requires --t")
    cx = _load_complex(complex_file)
    report = is_cm(cx, field) if kind == "cm" else is_cm_t(cx, 1 if t is None else t, field)
    payload = report.to_json_dict()
    text = f"{kind}: verdict={report.verdict} purity_ok={report.purity_ok}"
    if report.witness is not None:
        w = report.witness
        text += f" witness(face={w.face}, r={w.r}, betti={w.betti})"
    _emit(_render(payload, text, fmt), out)
    if assert_verdict and not report.verdict:
        raise SystemExit(3)


@main.command()
@click.argument("complex_file")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
@click.option("--assert", "assert_verdict", is_flag=True, default=False,
              help="Exit 3 when the complex is not unmixed.")
@click.option("--out", type=str, default=None)
def covers(complex_file, fmt, assert_verdict, out):
    """Enumerate all minimal vertex covers."""
    from .covers import minimal_vertex_covers

    cx = _load_complex(complex_file)
    report = minimal_vertex_covers(cx)
    lines = [f"unmixed={report.unmixed} count={len(report.covers)} "
             f"cardinalities={sorted(set(report.cardinalities))}"]
    lines += ["  {" + ", ".join(map(str, c)) + "}" for c in report.covers]
    _emit(_render(report.to_json_dict(), "\n".join(lines), fmt), out)
    if assert_verdict and not report.unmixed:
        raise SystemExit(3)


@main.command()
@click.argument("complex_file")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
@click.option("--out", type=str, default=None)
def decompose(complex_file, fmt, out):
    """Primary decomposition of the facet ideal (one prime per cover)."""
    from .covers import decomposition_to_json_dict, minimal_vertex_covers

    cx = _load_complex(complex_file)
    report = minimal_vertex_covers(cx)
    text = " ∩ ".join("(" + ", ".join(f"x{v}" for v in c) + ")" for c in report.covers)
    _emit(_render(decomposition_to_json_dict(cx, report), text, fmt), out)


# --- friendship-family verification -------------------------------------------


def _cell(computed, expected) -> dict:
    return {"computed": computed, "expected": expected,
            "status": "PASS" if computed == expected else "FAIL"}


def friendship_verification_rows(n_max: int) -> tuple[list[dict], bool]:
    """Recompute the friendship-family claims for n = 1..n_max
    (``verify-friendship --n-max`` holds n_max to 1..6).

    Each row compares the constructed complex against the closed forms:
    f-vector, boundary ranks over both GF(32003) and the rationals, Betti
    numbers, and the minimal-cover census.  Enumeration is authoritative for
    the covers: the closed-form count matches only the covers of cardinality
    3n+1 (reported alongside), the full census is larger for n >= 2, and the
    n = 1 count cell is reported as OPEN with all candidate values.
    """
    from .covers import _friendship_cover_formula, friendship_cover_count, minimal_vertex_covers
    from .graphs import gen_friendship
    from .homology import PrimeField, Rationals, homology_summary
    from .tsc import build_tsc

    rows = []
    all_pass = True
    for n in range(1, n_max + 1):
        cx = build_tsc(*gen_friendship(n))
        alpha_expected = (5 * n + 1, 10 * n * n + 5 * n,
                          (4 * n ** 3 + 42 * n * n + 14 * n) // 3)
        row: dict = {"n": n, "alpha": _cell(list(cx.f_vector()), list(alpha_expected))}

        summaries = {name: homology_summary(cx, fld)
                     for name, fld in (("gf", PrimeField(32003)), ("q", Rationals()))}
        row["rank_d1"] = _cell({k: s.rank_im[1] for k, s in summaries.items()},
                               {"gf": 5 * n, "q": 5 * n})
        row["rank_d2"] = _cell({k: s.rank_im[2] for k, s in summaries.items()},
                               {"gf": 10 * n * n, "q": 10 * n * n})

        betti_expected = [1, 0, (4 * n ** 3 + 12 * n * n + 14 * n) // 3]
        row["betti"] = _cell({k: list(s.betti) for k, s in summaries.items()},
                             {"gf": betti_expected, "q": betti_expected})

        report = minimal_vertex_covers(cx)
        at_card = sum(1 for c in report.covers if len(c) == 3 * n + 1)
        row["cover_cardinality"] = _cell(sorted(set(report.cardinalities)), [3 * n + 1])
        if n == 1:
            row["cover_count"] = {
                "computed": len(report.covers),
                "formula": _friendship_cover_formula(n),
                "analytic": 15,
                "status": "OPEN",
            }
        else:
            row["cover_count"] = dict(
                _cell(len(report.covers), friendship_cover_count(n)),
                at_expected_cardinality=at_card,
            )
        all_pass &= all(
            cell.get("status") != "FAIL" for cell in row.values() if isinstance(cell, dict)
        )
        rows.append(row)
    return rows, all_pass


def _row_text(row: dict) -> str:
    """``n=<n>``, then one ``key: k=v ... STATUS`` part per cell, in row order."""
    parts = [f"n={row['n']}"]
    for key, cell in row.items():
        if key != "n":
            pairs = " ".join(f"{k}={v}" for k, v in cell.items() if k != "status")
            parts.append(f"{key}: {pairs} {cell['status']}")
    return " | ".join(parts)


@main.command("verify-friendship")
@click.option("--n-max", type=click.IntRange(1, 6), default=3, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
@click.option("--assert", "assert_verdict", is_flag=True, default=False,
              help="Exit 3 when any cell fails.")
@click.option("--out", type=str, default=None)
def verify_friendship(n_max, fmt, assert_verdict, out):
    """Recompute every friendship-family claim and report PASS/FAIL cells."""
    rows, all_pass = friendship_verification_rows(n_max)
    payload = {"rows": rows, "all_pass": all_pass}
    _emit(_render(payload, "\n".join(_row_text(r) for r in rows), fmt), out)
    if assert_verdict and not all_pass:
        raise SystemExit(3)


if __name__ == "__main__":
    main()
