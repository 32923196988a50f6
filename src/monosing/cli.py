"""Command-line front end.

Commands: info, basis, perfect, gproj, gorenstein, singcat, graded, glue,
oracle.  Default output is aligned text; --json selects the documented JSON
schemas.  Exit codes: 0 success, 1 analysis refusal (not 1-Gorenstein, not
Gorenstein, infinite-dimensional), 2 input errors.

Paths are printed in traversal order (first-traversed arrow first) with
middle-dot separators; orbit categories print as D^b(A_r)/[tau^n].
"""

from __future__ import annotations

import argparse
import sys

from .errors import (
    InfiniteDimensional,
    MonosingError,
    NotGorenstein,
    NotOneGorenstein,
    ParseError,
)
from .gluing import Involution, bar_presentation, equivalence_report, glue
from .gorenstein import (
    detect_self_injective_nakayama,
    gentle_check,
    gorenstein_to_json,
    is_one_gorenstein,
    relation_cycles,
    singularity_decomposition,
)
from .graded import graded_singularity_description
from .oracle import (
    crosscheck_classification,
    injective_dimension_profile,
    verify_omega_T_ext_vanishing,
)
from .perfection import classify_stable_gproj, perfect_paths, perfection_to_json
from .presentation import (
    dumps_json,
    minimal_relations,
    parse_presentation_file,
    presentation_to_json,
)


def _emit(text):
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _kv(label, value):
    if len(label) >= 14:
        return f"{label} {value}"
    return f"{label:<14}{value}"


def cmd_info(pres, args):
    if args.json:
        data = presentation_to_json(pres)
        data["dimension"] = pres.dimension()
        data["minimal_relations"] = [list(f.traversal) for f in minimal_relations(pres)]
        _emit(dumps_json(data))
        return 0
    basis = pres.basis()
    lines = [
        _kv("vertices", " ".join(pres.quiver.vertices)),
        _kv("arrows", " ".join(f"{a.name}:{a.source}->{a.target}" for a in pres.quiver.arrows)),
        _kv("relations", " ".join(str(g) for g in pres.generators) or "(none)"),
        _kv("minimal", " ".join(str(f) for f in minimal_relations(pres))or "(none)"),
        _kv("dimension", basis.dimension),
        _kv("max length", basis.max_length()),
    ]
    _emit("\n".join(lines))
    return 0


def cmd_basis(pres, args):
    basis = pres.basis()
    if args.json:
        _emit(dumps_json({
            "dimension": basis.dimension,
            "paths": [str(p) for p in basis],
        }))
        return 0
    lines = [_kv("dimension", basis.dimension)]
    for k in sorted({p.length for p in basis}):
        lines.append(_kv(f"length {k}", " ".join(str(p) for p in basis.of_length(k))))
    _emit("\n".join(lines))
    return 0


def cmd_perfect(pres, args):
    data = perfection_to_json(pres)
    if args.json:
        _emit(dumps_json(data))
        return 0
    graph = perfect_paths(pres)
    lines = [
        _kv("pairs", " ".join(f"({p},{q})" for p, q in graph.pairs) or "(none)"),
        _kv("cycles", "  ".join("[" + " -> ".join(str(p) for p in c) + "]" for c in graph.cycles)
            or "(none)"),
        _kv("cm type", data["cm_type"]),
    ]
    _emit("\n".join(lines))
    return 0


def cmd_gproj(pres, args):
    descriptors = classify_stable_gproj(pres)
    if args.json:
        _emit(dumps_json(perfection_to_json(pres)))
        return 0
    lines = [_kv("cm type", len(descriptors))]
    for d in descriptors:
        vec = " ".join(f"{v}:{n}" for v, n in d.dim_vector.items() if n)
        lines.append(_kv(f"A·({d.generator})", f"dim {vec}  top {d.top_vertex}"))
    _emit("\n".join(lines))
    return 0


def cmd_gorenstein(pres, args):
    prof = injective_dimension_profile(pres)
    data = gorenstein_to_json(pres, oracle_profile=prof.to_json())
    if args.json:
        _emit(dumps_json(data))
        return 0
    verdict = is_one_gorenstein(pres)
    lines = [_kv("1-Gorenstein", verdict.verdict)]
    if verdict.verdict:
        for c in relation_cycles(pres):
            lines.append(_kv("cycle", f"{c} (n={c.n}, r={c.r})"))
    else:
        f, p, q = verdict.failing
        lines.append(_kv("witness", f"p={p}, relation {f}"))
    nak = detect_self_injective_nakayama(pres)
    lines.append(_kv("nakayama", f"basic {nak[0]}-cycle, relations length {nak[1]}" if nak else "no"))
    g = gentle_check(pres)
    if g.is_gentle:
        lines.append(_kv("gentle", f"yes; cycle criterion {g.gentle_one_gorenstein}"))
    else:
        lines.append(_kv("gentle", f"no ({g.reason})"))
    lines.append(_kv("oracle", f"gorenstein={prof.gorenstein} level={prof.level}"))
    _emit("\n".join(lines))
    return 0


def cmd_singcat(pres, args):
    verdict = is_one_gorenstein(pres)
    if not verdict.verdict:
        f, p, _ = verdict.failing
        if args.json:
            _emit(dumps_json({"one_gorenstein": False,
                              "witness": {"left_factor": str(p), "relation": str(f)}}))
        else:
            _emit(f"not 1-Gorenstein; witness p={p}, relation {f}")
        return 1
    descriptors = singularity_decomposition(pres)
    if args.json:
        _emit(dumps_json({
            "one_gorenstein": True,
            "singularity": [{"type": "A", "rank": d.rank, "period": d.period}
                            for d in descriptors],
        }))
        return 0
    if descriptors:
        _emit("\n".join(str(d) for d in descriptors))
    else:
        _emit("trivial")
    return 0


def cmd_graded(pres, args):
    data = graded_singularity_description(pres)
    if args.json:
        _emit(dumps_json(data))
        return 0
    lines = [_kv("singularity", data["graded_singularity"])]
    if "QB" in data:
        chains = data["QB"]["chains"]
        shown = "  ".join("[" + " -> ".join(c) + "]" for c in chains) or "(empty)"
        lines.append(_kv("Q^B", shown))
    omega = " ".join(f"A·({s['path']})({s['shift']})" for s in data["omega_T"])
    lines.append(_kv("omega T", omega or "(none)"))
    _emit("\n".join(lines))
    return 0


def _parse_pairs(spec_text, pres):
    pairs = []
    for chunk in spec_text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        if len(parts) != 2:
            raise ParseError(f"involution pair {chunk!r} is not of the form x:y")
        pairs.append((parts[0], parts[1]))
    return Involution.from_pairs(pres.quiver.vertices, pairs)


def cmd_glue(pres, args):
    E = _parse_pairs(args.pairs, pres)
    if args.report:
        rep = equivalence_report(pres, E)
        if args.json:
            _emit(dumps_json(rep.to_json()))
            return 0
        lines = []
        for side, info in (("S", rep.original), ("S_E", rep.glued)):
            lines.append(_kv(side, f"dim={info['dimension']} perfect={info['perfect_paths']} "
                                   f"1-Gorenstein={info['one_gorenstein']} "
                                   f"orbits={info['orbit_descriptors']} "
                                   f"oracle={info['oracle_gorenstein']}"))
        lines.append(_kv("agreement", " ".join(f"{k}={v}" for k, v in rep.agreement.items())))
        _emit("\n".join(lines))
        return 0
    glued = glue(pres, E)
    if args.bar:
        glued = bar_presentation(pres, E)
    if args.json:
        _emit(dumps_json(presentation_to_json(glued)))
    else:
        from .presentation import presentation_to_text

        _emit(presentation_to_text(glued))
    return 0


def cmd_oracle(pres, args):
    window = args.window if args.window is not None else 2 * pres.dimension()
    if args.check == "gorenstein":
        prof = injective_dimension_profile(pres)
        data = prof.to_json()
        if args.trace:
            from .oracle import resolution_trace_report

            data["traces"] = resolution_trace_report(pres)
        if args.json:
            _emit(dumps_json(data))
            return 0
        lines = [_kv("gorenstein", f"{prof.gorenstein} (level {prof.level})")]
        if args.trace:
            for side, per_vertex in data["traces"].items():
                for v, tr in per_vertex.items():
                    lines.append(_kv(f"{side}@{v}",
                                     f"{tr['status']} pd={tr['pd']} "
                                     f"syzygy dims {tr['syzygy_dims']}"))
        _emit("\n".join(lines))
        return 0
    if args.check == "classification":
        report = crosscheck_classification(pres)
        if args.json:
            _emit(dumps_json(report))
        else:
            _emit(_kv("match", report["match"]) + "\n" +
                  _kv("classes", report["homological_classes"]))
        return 0
    if args.check == "tilting":
        ok = verify_omega_T_ext_vanishing(pres, window)
        if args.json:
            _emit(dumps_json({"window": window, "vanishing": ok}))
        else:
            _emit(_kv("vanishing", f"{ok} (window {window})"))
        return 0 if ok else 1
    raise ParseError(f"unknown oracle check {args.check!r}")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="monosing",
        description="Analyze monomial quiver algebras: Gorenstein projectives, "
                    "1-Gorenstein tests, singularity-category reports, gluing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "info": "echo the presentation with dimension and minimal relations",
        "basis": "list the nonzero-path basis",
        "perfect": "perfect pairs, successor cycles, GP modules",
        "gproj": "classify stable Gorenstein projective modules",
        "gorenstein": "1-Gorenstein verdict, relation cycles, Nakayama/gentle checks",
        "singcat": "orbit-category decomposition of the singularity category",
        "graded": "graded singularity category and the type-A quiver",
        "glue": "glue vertices along an involution",
        "oracle": "homological oracle checks",
    }
    for name, help_text in specs.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="presentation file")
        p.add_argument("--json", action="store_true", help="emit JSON")
        if name == "glue":
            p.add_argument("--pairs", required=True,
                           help='involution pairs, e.g. "3:6" or "1:2,3:4"')
            p.add_argument("--report", action="store_true",
                           help="emit the singularity-equivalence report")
            p.add_argument("--bar", action="store_true",
                           help="emit the bar presentation instead of the glued one")
        if name == "oracle":
            p.add_argument("--check", required=True,
                           choices=["classification", "tilting", "gorenstein"])
            p.add_argument("--window", type=int, default=None,
                           help="Ext window (default 2 * dim A)")
            p.add_argument("--trace", action="store_true",
                           help="include per-vertex resolution traces")
    return parser


HANDLERS = {
    "info": cmd_info,
    "basis": cmd_basis,
    "perfect": cmd_perfect,
    "gproj": cmd_gproj,
    "gorenstein": cmd_gorenstein,
    "singcat": cmd_singcat,
    "graded": cmd_graded,
    "glue": cmd_glue,
    "oracle": cmd_oracle,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        pres = parse_presentation_file(args.file)
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    try:
        return HANDLERS[args.command](pres, args)
    except (NotOneGorenstein, NotGorenstein, InfiniteDimensional) as e:
        print(f"refused: {e}", file=sys.stderr)
        return 1
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MonosingError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
