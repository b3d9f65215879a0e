"""Command-line surface.

Subcommands wrap the library one-to-one: generate polytope files, check
colouring files, enumerate classes, search extensions, build covers,
certify chains and re-verify certificates.  Every file-producing run also
writes a run manifest with input digests, the tool version, and the wall
time.

Exit codes: 0 all checks passed, 1 a mathematical expectation failed (an
improper colouring, an exhausted search, a failed certificate), 2 usage
or file errors.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from . import __version__, fileio
from .colouring import (
    Colouring,
    ColouringError,
    PartialColouring,
    dependent_vertex,
    from_k_colouring,
    image_dimension,
    is_orientable,
    is_proper,
    non_orientability_witness,
)
from .covers import CoverError, build_cover, cover_summary
from .fileio import FileFormatError
from .pipeline import (
    CheckResult,
    Finding,
    certify,
    extend_from_facet,
    recheck_certificate,
)
from .polytopes import PolytopeError, make_120cell, make_dodecahedron
from .search import (
    BudgetError,
    SearchBudget,
    enumerate_chromatic_colourings,
    enumerate_small_covers,
)

EXIT_OK = 0
EXIT_FINDING = 1
EXIT_USAGE = 2


def _outdir(args: argparse.Namespace) -> Path:
    out = args.out or os.environ.get("RACOVER_OUT") or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _budget(args: argparse.Namespace) -> SearchBudget:
    return SearchBudget(args.budget_nodes, args.budget_seconds)


def _write_run_manifest(
    args: argparse.Namespace,
    inputs: Dict[str, Path],
    primary: Optional[Path],
    outdir: Path,
    t0: float,
) -> None:
    digests = {name: fileio.sha256_file(path) for name, path in inputs.items()}
    manifest = fileio.RunManifest(
        args.command,
        list(args.raw_argv),
        digests,
        __version__,
        time.monotonic() - t0,
        fileio.sha256_file(primary) if primary else None,
    )
    fileio.write_manifest(manifest, outdir / "run-manifest.json")


def _load_total_colouring(P, path: str) -> Colouring:
    lam = fileio.load_colouring(P, path)
    if isinstance(lam, PartialColouring):
        raise FileFormatError(f"{path}: colouring is partial; all facets needed here")
    return lam


def cmd_generate(args: argparse.Namespace, t0: float) -> int:
    maker = {"dodecahedron": make_dodecahedron, "120cell": make_120cell}[args.kind]
    outdir = _outdir(args)
    path = outdir / f"{args.kind}.json"
    fileio.write_polytope(maker(), path)
    print(f"wrote {path}")
    _write_run_manifest(args, {}, path, outdir, t0)
    return EXIT_OK


def cmd_check(args: argparse.Namespace, t0: float) -> int:
    P = fileio.load_polytope(args.polytope)
    lam = fileio.load_colouring(P, args.colouring)
    if isinstance(lam, PartialColouring):
        print(f"partial colouring: {lam.assigned}/{P.facet_count} facets assigned")
        print("proper so far at every fully assigned vertex")
        return EXIT_OK
    print(f"facets: {P.facet_count}, rank: {lam.rank}")
    if not is_proper(P, lam):
        print(f"proper: no; vertex {dependent_vertex(P, lam.colours)} carries dependent colours")
        return EXIT_FINDING
    dim = image_dimension(lam)
    print(f"proper: yes")
    print(f"image dimension: {dim} (cover degree {2 ** dim})")
    chi = is_orientable(P, lam)
    if chi is not None:
        print(f"orientable: yes (covector {chi:#x})")
    else:
        print("orientable: no")
    witness = non_orientability_witness(P, lam)
    if witness is not None:
        print(f"witness triple: facets {witness} with colours summing to zero")
    else:
        print("witness triple: none")
    return EXIT_OK


def cmd_enumerate(args: argparse.Namespace, t0: float) -> int:
    P = fileio.load_polytope(args.polytope)
    outdir = _outdir(args)
    budget = _budget(args)
    if args.chromatic is not None:
        result = enumerate_chromatic_colourings(P, args.chromatic, budget)
        rep_files = []
        for i, rep in enumerate(result.representatives):
            name = f"chromatic-{i:03d}.txt"
            fileio.write_colouring(from_k_colouring(P, rep), outdir / name)
            rep_files.append(name)
        summary = {
            "k": args.chromatic,
            "count": result.count,
            "orbit_count": result.orbit_count,
            "complete": result.complete,
            "nodes": result.nodes,
            "representatives": rep_files,
        }
        path = outdir / "chromatic-summary.json"
        fileio.write_json(summary, path)
        state = "complete" if result.complete else "incomplete (lower bounds)"
        print(
            f"{result.count} colouring(s) up to renaming, "
            f"{result.orbit_count} up to symmetry; {state}"
        )
    else:
        result = enumerate_small_covers(P, budget)
        class_files = []
        classes = []
        for i, rec in enumerate(result.classes):
            name = f"class-{i:03d}.txt"
            fileio.write_colouring(rec.colouring, outdir / name)
            class_files.append(name)
            classes.append(
                {
                    "file": name,
                    "orientable": rec.orientable,
                    "automorphisms": rec.automorphisms,
                    "image_dimension": image_dimension(rec.colouring),
                }
            )
        orientable = sum(1 for r in result.classes if r.orientable)
        summary = {
            "classes": len(result.classes),
            "orientable": orientable,
            "non_orientable": len(result.classes) - orientable,
            "automorphism_orders": sorted(r.automorphisms for r in result.classes),
            "complete": result.complete,
            "nodes": result.nodes,
            "class_records": classes,
        }
        path = outdir / "enumeration-summary.json"
        fileio.write_json(summary, path)
        state = "complete" if result.complete else "incomplete (lower bound)"
        print(
            f"{len(result.classes)} class(es): {orientable} orientable, "
            f"{len(result.classes) - orientable} non-orientable; {state}"
        )
    _write_run_manifest(args, {"polytope": Path(args.polytope)}, path, outdir, t0)
    return EXIT_OK


def cmd_extend(args: argparse.Namespace, t0: float) -> int:
    mu = _load_total_colouring(make_dodecahedron(), args.colouring)
    # an improper class is a finding, as for `check` and `cover`; the seed refuses other ranks
    if mu.rank == 3 and not is_proper(mu.polytope, mu):
        raise Finding(f"{args.colouring}: facet colouring is not proper")
    outcome = extend_from_facet(mu, args.seed_facet, args.rank, _budget(args))
    outdir = _outdir(args)
    summary = {
        "status": outcome.status,
        "rank": args.rank,
        "seed_facet": args.seed_facet,
        "nodes": outcome.nodes,
    }
    if outcome.colouring is not None:
        fileio.write_colouring(outcome.colouring, outdir / "extension.txt")
        summary["colouring"] = "extension.txt"
        print(f"found: extension.txt ({outcome.nodes} nodes)")
    else:
        print(f"{outcome.status} after {outcome.nodes} nodes")
    path = outdir / "extension-summary.json"
    fileio.write_json(summary, path)
    _write_run_manifest(args, {"colouring": Path(args.colouring)}, path, outdir, t0)
    # an exhausted space is a definitive mathematical result, not a failure
    # of the run, but scripts need to see it is not a success either
    return EXIT_FINDING if outcome.status == "exhausted" else EXIT_OK


def cmd_cover(args: argparse.Namespace, t0: float) -> int:
    P = fileio.load_polytope(args.polytope)
    lam = _load_total_colouring(P, args.colouring)
    C = build_cover(P, lam)
    summary = cover_summary(C)
    outdir = _outdir(args)
    path = outdir / "cover-summary.json"
    fileio.write_json(summary, path)
    print(
        f"{summary['copies']} copies, chi {summary['euler_characteristic']}, "
        f"orientable: {summary['orientable']}, volume {summary['volume']['exact']}"
    )
    _write_run_manifest(
        args,
        {"polytope": Path(args.polytope), "colouring": Path(args.colouring)},
        path,
        outdir,
        t0,
    )
    return EXIT_OK


def _report_checks(checks: Sequence[CheckResult]) -> bool:
    """Print one line per check and a summary; true if every check passed."""
    for c in checks:
        mark = "pass" if c.passed else "FAIL"
        print(f"[{mark}] {c.name}: {c.detail}")
    good = sum(1 for c in checks if c.passed)
    passed = good == len(checks)
    print(f"{'PASS' if passed else 'FAIL'} ({good}/{len(checks)} checks)")
    return passed


def cmd_certify(args: argparse.Namespace, t0: float) -> int:
    cert = certify(args.n, args.policy, _budget(args))
    outdir = _outdir(args)
    path = fileio.write_certificate(cert, outdir)
    print(f"certificate: {path}")
    print(
        f"class {cert.chosen.index} (automorphisms {cert.chosen.automorphisms}), "
        f"witness {cert.chosen.witness}, glue facet {cert.chosen.glue_facet}"
    )
    _report_checks(cert.checks)
    _write_run_manifest(args, {}, path, outdir, t0)
    return EXIT_OK if cert.passed else EXIT_FINDING


def cmd_verify(args: argparse.Namespace, t0: float) -> int:
    path = Path(args.dir) / "certificate.json"
    checks, mismatch = recheck_certificate(fileio.load_certificate(path))
    print(f"certificate: {path}")
    passed = _report_checks(checks)
    if mismatch is not None:
        raise Finding(mismatch)
    return EXIT_OK if passed else EXIT_FINDING


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="racover",
        description="Vector colourings, manifold covers and boundary chains "
        "of right-angled polytopes.",
    )
    parser.add_argument(
        "--version", action="version", version=f"racover {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_budget(sp: argparse.ArgumentParser) -> None:
        sp.add_argument(
            "--budget-nodes", type=int, default=SearchBudget.nodes, metavar="N"
        )
        sp.add_argument(
            "--budget-seconds", type=float, default=SearchBudget.seconds, metavar="S"
        )

    def add_out(sp: argparse.ArgumentParser) -> None:
        sp.add_argument(
            "--out", default=None, help="output directory (default $RACOVER_OUT or .)"
        )

    g = sub.add_parser("generate", help="write a canonical polytope file")
    g.add_argument("kind", choices=["dodecahedron", "120cell"])
    add_out(g)
    g.set_defaults(func=cmd_generate)

    c = sub.add_parser("check", help="report the predicates of a colouring file")
    c.add_argument("polytope")
    c.add_argument("colouring")
    c.set_defaults(func=cmd_check)

    e = sub.add_parser("enumerate", help="enumerate colouring classes")
    e.add_argument("polytope")
    e.add_argument(
        "--chromatic",
        type=int,
        default=None,
        metavar="K",
        help="count proper K-colourings instead of vector colouring classes",
    )
    add_budget(e)
    add_out(e)
    e.set_defaults(func=cmd_enumerate)

    x = sub.add_parser(
        "extend", help="search an orientable 120-cell extension of a class file"
    )
    x.add_argument("colouring", help="rank-3 dodecahedral colouring file")
    x.add_argument("--seed-facet", type=int, default=0, metavar="F")
    x.add_argument("--rank", type=int, default=5, choices=[4, 5])
    add_budget(x)
    add_out(x)
    x.set_defaults(func=cmd_extend)

    v = sub.add_parser("cover", help="build the cover of a colouring file")
    v.add_argument("polytope")
    v.add_argument("colouring")
    add_out(v)
    v.set_defaults(func=cmd_cover)

    f = sub.add_parser("certify", help="run and certify the chain construction")
    f.add_argument("--n", type=int, required=True)
    f.add_argument("--policy", default="max-symmetry", metavar="P",
                   help="max-symmetry or index:<k>")
    add_budget(f)
    add_out(f)
    f.set_defaults(func=cmd_certify)

    r = sub.add_parser("verify", help="re-verify a certificate directory")
    r.add_argument("dir", help="directory holding certificate.json")
    r.set_defaults(func=cmd_verify)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    raw = list(sys.argv[1:] if argv is None else argv)
    args = _build_parser().parse_args(raw)
    args.raw_argv = raw
    t0 = time.monotonic()
    try:
        return args.func(args, t0)
    except FileFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (Finding, CoverError) as exc:
        # CoverError subclasses ValueError, so it must be handled before
        # the usage-error clause below
        print(f"finding: {exc}", file=sys.stderr)
        return EXIT_FINDING
    except BudgetError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_FINDING
    except (PolytopeError, ColouringError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
