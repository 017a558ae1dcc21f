"""Command line front end.

Subcommands::

    gen        emit a seeded family document
    pack       find a complete labeling for a family
    verify     check a labeling document against a family document
    enumerate  list every essential complete labeling of a family
    sweep      pack every family of a given size, optionally to CSV
    certify    evaluate or canonicalize the certificate polynomial
    compose    exhaustive composition-implication audit for a size
    selftest   frozen cross-checks of the whole pipeline

Exit codes: 0 on success, 1 when a verification fails (incomplete
labeling, exhausted or timed-out search, vanishing certificate, audit
violations, failed selftest), 2 for usage, parse, or validation errors.

Documents are JSON.  A family document is ``{"n": 4, "trees": [[0],
[0, 0], [0, 0, 1], [0, 0, 1, 1]]}`` — one parent array per component
size, fixed point marking the root.  A labeling document is ``{"n": 2,
"sigma": [[0, 1], [1, 0]]}`` — one permutation per slot.  Emission is
deterministic byte-for-byte, and ``parse_family(emit_family(f))``
returns an equal family.

Commands that generate input (``gen``, or any command given ``--n``
instead of ``--family``) fall back to a fixed default seed and print the
seed they used, so every run can be reproduced.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import asdict
from itertools import chain
from operator import itemgetter
from pathlib import Path

from .certificate import (
    CANONICAL_LATTICE_MAX_N,
    CANONICAL_PHI_MAX_N,
    CANONICAL_REP_MODES,
    canonical_rep,
    certificate_eval,
    composition_implication_check,
    nonvanishing_equivalence_check,
)
from .errors import (
    BoundExceededError,
    DimensionMismatchError,
    InvalidFamilyError,
    ParseError,
    TreePackError,
    ValidationError,
)
from .functree import (
    GENERATOR_KINDS,
    AugTreeFamily,
    build_tree,
    family_enumerate,
    generate_family,
    is_int,
    star_family,
)
from .packing import (
    PHI_ESSENTIAL_MAX_N,
    EdgeOrientation,
    Labeling,
    full_count_multiplier,
    is_complete,
    orientation,
    phi_enumerate,
)
from .solver import PACKED, SolveConfig, pack, star_identity_labeling, sweep

DEFAULT_SEED = 1729

ORIENTATION_FORMATS = ("dot", "json")

# members per write: `enumerate` writes its output a batch at a time
_ENUMERATE_BATCH = 4096


# === documents ==========================================================


def parse_family(text: str) -> AugTreeFamily:
    """Family from a JSON document; ParseError for malformed structure,
    ValidationError (or a sharper subclass) for impossible content."""
    doc = _load_object(text, "family")
    n = _int_field(doc, "n")
    trees = doc.get("trees")
    if not isinstance(trees, list):
        raise ParseError("field 'trees' must be a list of parent arrays")
    for k, row in enumerate(trees):
        if not isinstance(row, list) or not all(is_int(x) for x in row):
            raise ParseError(f"field 'trees[{k}]' must be a list of integers")
    # check the shape before build_tree allocates n entries per row
    if len(trees) != n:
        raise InvalidFamilyError(
            f"family on Z_{n} needs {n} trees, got {len(trees)}"
        )
    for k, row in enumerate(trees):
        if len(row) != k + 1:
            raise InvalidFamilyError(
                f"slot {k} must have component size {k + 1}, got {len(row)}"
            )
    return AugTreeFamily(n=n, trees=tuple(build_tree(row, n) for row in trees))


def emit_family(family: AugTreeFamily) -> str:
    doc = {
        "n": family.n,
        "trees": [list(t.map[: t.m]) for t in family.trees],
    }
    return json.dumps(doc, sort_keys=True)


def parse_labeling(text: str) -> Labeling:
    doc = _load_object(text, "labeling")
    n = _int_field(doc, "n")
    sigma = doc.get("sigma")
    if not isinstance(sigma, list):
        raise ParseError("field 'sigma' must be a list of permutations")
    for k, row in enumerate(sigma):
        if not isinstance(row, list) or not all(is_int(x) for x in row):
            raise ParseError(f"field 'sigma[{k}]' must be a list of integers")
    return Labeling(n=n, sigmas=tuple(tuple(row) for row in sigma))


def _labeling_doc(labeling: Labeling) -> dict:
    return {"n": labeling.n, "sigma": [list(s) for s in labeling.sigmas]}


def emit_labeling(labeling: Labeling) -> str:
    return json.dumps(_labeling_doc(labeling), sort_keys=True)


def emit_orientation(orient: EdgeOrientation, format: str = "dot") -> str:
    """Deterministic rendering of a complete orientation.

    ``dot`` lists every arc (loops included) of the directed graph;
    ``json`` gives ``{"arcs": [...], "n": n}`` with arcs sorted.  The
    EdgeOrientation type itself refuses incomplete arc sets, so anything
    that reaches this function renders.
    """
    if format not in ORIENTATION_FORMATS:
        raise ValidationError(f"unknown orientation format {format!r}")
    arcs = orient.sorted_arcs()
    if format == "json":
        return json.dumps({"arcs": [list(a) for a in arcs], "n": orient.n})
    lines = ["digraph packing {"]
    lines += [f"    {a} -> {b};" for a, b in arcs]
    lines.append("}")
    return "\n".join(lines)


def _load_object(text: str, what: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{what} document line {exc.lineno} col {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{what} document must be a JSON object")
    return doc


def _int_field(doc: dict, name: str) -> int:
    value = doc.get(name)
    if not is_int(value):
        raise ParseError(f"field {name!r} must be an integer")
    return value


# === shared plumbing ====================================================


def _report(args: argparse.Namespace, payload: dict, text: str) -> None:
    """Print ``payload`` as sorted JSON with --json, ``text`` otherwise."""
    print(json.dumps(payload, sort_keys=True) if args.json else text)


def _write_out(text: str, path: str | None) -> None:
    _write_pieces([text if text.endswith("\n") else text + "\n"], path)


def _write_pieces(pieces, path: str | None) -> None:
    """Write the strings of ``pieces`` in turn, to stdout or to ``path``."""
    if path is None:
        sys.stdout.writelines(pieces)
    else:
        with open(path, "w") as f:
            f.writelines(pieces)


def _family_from_args(
    args: argparse.Namespace, max_n: int | None = None
) -> tuple[AugTreeFamily, int | None]:
    """Resolve --family FILE / --n SIZE into a family, plus the seed used
    (None when the family came from a file).  ``max_n`` is the size cap
    of the command that reads the family: a larger --n is refused
    (BoundExceededError) before any tree is generated."""
    path = getattr(args, "family", None)
    if path is not None:
        return parse_family(Path(path).read_text()), None
    if getattr(args, "n", None) is None:
        raise ValidationError("provide --family FILE or --n SIZE")
    if max_n is not None and args.n > max_n:
        raise BoundExceededError(f"--n {args.n} exceeds the cap {max_n}")
    return _generated_family(args)


def _generated_family(args: argparse.Namespace) -> tuple[AugTreeFamily, int]:
    """The family --n/--kind/--seed name; without --seed the default
    seed is used and printed to stderr, so the run can be reproduced."""
    seed = args.seed
    if seed is None:
        seed = DEFAULT_SEED
        print(f"seed: {seed}", file=sys.stderr)
    return generate_family(args.n, args.kind, seed), seed


def _solve_config(args: argparse.Namespace) -> SolveConfig:
    return SolveConfig(
        time_limit_ms=getattr(args, "time_limit_ms", None),
        classical_mode=getattr(args, "classical_mode", False),
    )


# === subcommands ========================================================


def _cmd_gen(args: argparse.Namespace) -> int:
    family, seed = _generated_family(args)
    if args.json:
        doc = json.loads(emit_family(family))
        payload = {"family": doc, "kind": args.kind, "seed": seed}
        _write_out(json.dumps(payload, sort_keys=True), args.output)
    else:
        _write_out(emit_family(family), args.output)
    return 0


def _cmd_pack(args: argparse.Namespace) -> int:
    if args.classical_mode and args.output is not None:
        # an orientation holds every root loop, and classical labelings
        # may root two slots on one vertex
        raise ValidationError("-o writes an orientation of looped K_n; --classical-mode has none")
    family, seed = _family_from_args(args)
    result = pack(family, _solve_config(args))
    packed = result.status == PACKED
    payload = {
        "status": result.status,
        "nodes": result.nodes_expanded,
        "millis": round(result.elapsed_ms, 3),
        "labeling": _labeling_doc(result.labeling) if packed else None,
    }
    if seed is not None:
        payload["seed"] = seed
    text = f"status: {result.status}\nnodes: {result.nodes_expanded}\n"
    text += f"millis: {result.elapsed_ms:.3f}"
    if packed:
        for k, sig in enumerate(result.labeling.sigmas):
            text += f"\nsigma {k}: {' '.join(map(str, sig))}"
    _report(args, payload, text)
    if packed and args.output is not None:
        orient = orientation(family, result.labeling)
        _write_out(emit_orientation(orient, args.format), args.output)
    return 0 if packed else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    family = parse_family(Path(args.family).read_text())
    labeling = parse_labeling(Path(args.labeling).read_text())
    ok = is_complete(family, labeling, classical=args.classical_mode)
    _report(args, {"complete": ok}, "complete" if ok else "incomplete")
    return 0 if ok else 1


def _cmd_enumerate(args: argparse.Namespace) -> int:
    family, _ = _family_from_args(args, PHI_ESSENTIAL_MAX_N)
    members, essential = phi_enumerate(family, mode="essential")
    members.sort(key=itemgetter(1))  # listed by orbit, printed sorted; n ties
    n = family.n
    full = essential * full_count_multiplier(n)
    # members share their slot tuples, so each distinct one is encoded
    # once, as json.dumps encodes it, and a member joins its slots' codes
    slots = dict.fromkeys(chain.from_iterable(m.sigmas for m in members))
    code = {sig: json.dumps(sig) for sig in slots}.__getitem__
    if args.json:
        # the bytes of json.dumps(payload, sort_keys=True): the keys below,
        # and a member's n and sigma, are in sorted order
        start, end, sep = f'{{"n": {n}, "sigma": [', "]}", ", "
        head = f'{{"essential": {essential}, "full": {full}, "members": ['
        tail = f'], "n": {n}}}\n'
    else:
        start, end, sep = "[", "]\n", ""
        head, tail = "", f"essential: {essential}\nfull: {full}\n"
    step = _ENUMERATE_BATCH
    body = (
        (sep if i else "")
        + sep.join([start + ", ".join(map(code, m.sigmas)) + end for m in members[i : i + step]])
        for i in range(0, len(members), step)
    )
    _write_pieces(chain([head], body, [tail]), args.output)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    report = sweep(args.n, _solve_config(args), workers=args.parallel)
    if args.output is not None:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["family-index", "status", "nodes", "millis"])
        for row in report.rows:
            writer.writerow([row.index, row.status, row.nodes, f"{row.millis:.3f}"])
        _write_out(buf.getvalue(), args.output)
    payload = {
        "exhausted": report.exhausted,
        "millis": round(report.elapsed_ms, 3),
        "n": report.n,
        "nodes": report.nodes_total,
        "packed": report.packed,
        "timed_out": report.timed_out,
        "total": report.total,
    }
    text = (
        f"n={report.n} families={report.total} packed={report.packed} "
        f"exhausted={report.exhausted} timed-out={report.timed_out} "
        f"nodes={report.nodes_total} millis={report.elapsed_ms:.1f}"
    )
    _report(args, payload, text)
    return 0 if report.packed == report.total else 1


def _cmd_certify(args: argparse.Namespace) -> int:
    if args.labeling is not None:
        # the labeling fixes n: a --n that disagrees is refused before
        # the family is generated.  One evaluation at a labeling is
        # polynomial in n and has no cap
        labeling = parse_labeling(Path(args.labeling).read_text())
        if args.family is None and args.n is not None and args.n != labeling.n:
            raise DimensionMismatchError(
                f"--n {args.n} differs from the labeling's n = {labeling.n}"
            )
        family, _ = _family_from_args(args)
        value = certificate_eval(family, labeling.sigmas)
        nonzero = not value.is_zero()
        text = f"coeffs: {' '.join(map(str, value.coeffs))}\nnonzero: {'yes' if nonzero else 'no'}"
        _report(args, {"coeffs": list(value.coeffs), "nonzero": nonzero}, text)
        return 0 if nonzero else 1
    caps = {"phi-sum": CANONICAL_PHI_MAX_N, "lattice": CANONICAL_LATTICE_MAX_N}
    family, _ = _family_from_args(args, caps[args.mode])
    rep = canonical_rep(family, mode=args.mode)
    nonzero = not rep.is_zero()
    if args.json:
        payload = {
            "mode": args.mode,
            "nonzero": nonzero,
            "terms": len(rep.terms),
            "text": rep.to_text(),
        }
        _write_out(json.dumps(payload, sort_keys=True), args.output)
    else:
        print(f"mode: {args.mode}", file=sys.stderr)
        print(f"terms: {len(rep.terms)}", file=sys.stderr)
        _write_out(rep.to_text(), args.output)
    return 0 if nonzero else 1


def _cmd_compose(args: argparse.Namespace) -> int:
    report = composition_implication_check(args.n)
    text = (
        f"n={report.n} families={report.families_checked} "
        f"steps={report.steps_checked} ok={'yes' if report.ok else 'no'}"
    )
    for v in report.violations:
        text += f"\nviolation: {v}"
    _report(args, asdict(report) | {"ok": report.ok}, text)
    return 0 if report.ok else 1


def _selftest_checks():
    fam2 = next(family_enumerate(2))
    yield (
        "certificate-values-n2",
        certificate_eval(fam2, ((0, 1), (0, 1))).coeffs == (0, -1, 2)
        and certificate_eval(fam2, ((1, 0), (1, 0))).coeffs == (1, -3, 2),
    )
    yield (
        "canonical-agreement-n2",
        canonical_rep(fam2, mode="phi-sum") == canonical_rep(fam2, mode="lattice"),
    )
    yield (
        "star-identity",
        all(
            is_complete(star_family(n), star_identity_labeling(n))
            for n in range(1, 9)
        ),
    )
    report = sweep(3)
    yield ("sweep-n3", report.packed == report.total == 2)
    yield (
        "phi-equivalence-n3",
        all(nonvanishing_equivalence_check(f) for f in family_enumerate(3)),
    )


def _cmd_selftest(args: argparse.Namespace) -> int:
    results = []
    for name, ok in _selftest_checks():
        results.append({"check": name, "ok": ok})
        if not args.json:
            print(f"{'pass' if ok else 'FAIL'} {name}")
    good = all(r["ok"] for r in results)
    if args.json:
        print(json.dumps({"checks": results, "ok": good}, sort_keys=True))
    return 0 if good else 1


# === parser and entry points ============================================


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treepack",
        description="Pack one spanning tree per size into looped K_n.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    jsonish = argparse.ArgumentParser(add_help=False)
    jsonish.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    outish = argparse.ArgumentParser(add_help=False)
    outish.add_argument(
        "-o", "--output", metavar="PATH", help="write the result here instead of stdout"
    )
    generator = argparse.ArgumentParser(add_help=False)
    generator.add_argument(
        "--kind",
        choices=GENERATOR_KINDS + ("mixed",),
        default="random-uniform",
        help="generator for --n (default random-uniform)",
    )
    generator.add_argument(
        "--seed", type=int, help=f"generator seed (default {DEFAULT_SEED}, printed)"
    )
    famsrc = argparse.ArgumentParser(add_help=False)
    famsrc.add_argument("-f", "--family", metavar="PATH", help="family document")
    famsrc.add_argument("--n", type=int, help="generate a family of this size")

    p = sub.add_parser(
        "gen", parents=[jsonish, outish, generator], help="emit a seeded family document"
    )
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser(
        "pack",
        parents=[jsonish, outish, famsrc, generator],
        help="find a complete labeling",
    )
    p.add_argument("--time-limit-ms", type=int)
    p.add_argument("--classical-mode", action="store_true")
    p.add_argument(
        "--format",
        choices=ORIENTATION_FORMATS,
        default="dot",
        help="orientation format for -o (default dot)",
    )
    p.set_defaults(func=_cmd_pack)

    p = sub.add_parser(
        "verify", parents=[jsonish], help="check a labeling against a family"
    )
    p.add_argument("-f", "--family", metavar="PATH", required=True)
    p.add_argument("--labeling", metavar="PATH", required=True)
    p.add_argument("--classical-mode", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser(
        "enumerate",
        parents=[jsonish, outish, famsrc, generator],
        help="list the essential complete labelings",
    )
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser(
        "sweep", parents=[jsonish, outish], help="pack every family of a size"
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--parallel", type=int, default=1, metavar="T")
    p.add_argument("--time-limit-ms", type=int)
    p.add_argument("--classical-mode", action="store_true")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser(
        "certify",
        parents=[jsonish, outish, famsrc, generator],
        help="evaluate or canonicalize the certificate",
    )
    p.add_argument("--labeling", metavar="PATH", help="evaluate at this labeling")
    p.add_argument("--mode", choices=CANONICAL_REP_MODES, default="phi-sum")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser(
        "compose", parents=[jsonish], help="composition-implication audit"
    )
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_compose)

    p = sub.add_parser(
        "selftest", parents=[jsonish], help="frozen pipeline cross-checks"
    )
    p.set_defaults(func=_cmd_selftest)

    return parser


def run(argv) -> int:
    """Parse and dispatch; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:  # argparse handles --help and usage errors
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (TreePackError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
