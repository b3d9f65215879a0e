"""File surface: polytope JSON, colouring text, the certificate directory
layout, content digests, and the per-run manifest.

Writers are deterministic: the same objects always produce byte-identical
files, so digests can stand in for semantic comparison.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Union

from .colouring import Colouring, ColouringError, PartialColouring
from .pipeline import (
    CERTIFICATE_FILES,
    Certificate,
    Finding,
    _dodecahedron_census,
    _first_difference,
    build_chain,
    certificate_files,
    certificate_object,
    checked_certificate,
    class_record,
    colouring_text,
    polytope_text,
    select_class,
)
from .polytopes import Polytope, PolytopeError


class FileFormatError(ValueError):
    """A file failed to parse or validate; messages carry file positions."""


# ---------------------------------------------------------------------------
# JSON plumbing

def write_json(obj: dict, path: Union[str, Path]) -> None:
    Path(path).write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")


def _text(data: bytes, path: Union[str, Path]) -> str:
    """`data`, the bytes of the file at `path`, as UTF-8 text."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"{path}: {exc}") from None


def _read_json(path: Union[str, Path]) -> dict:
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path}:{exc.lineno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # not UTF-8, too deep, too long an integer
        raise FileFormatError(f"{path}: {exc}") from None
    if not isinstance(obj, dict):
        raise FileFormatError(f"{path}: expected a JSON object")
    return obj


def sha256_file(path: Union[str, Path]) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# polytopes

_POLYTOPE_KEYS = {"format", "dimension", "facets", "adjacency", "vertices"}


def write_polytope(P: Polytope, path: Union[str, Path]) -> None:
    Path(path).write_text(polytope_text(P), encoding="utf-8")


def _index_rows(path: Union[str, Path], obj: dict, key: str, width: Optional[int]) -> list:
    """obj[key] as a list of tuples of facet indices (ints, not bools), each
    of `width` entries when given.  The whole list is accepted in one pass;
    only a failing list is walked row by row, to name its first bad entry."""
    rows = obj[key]
    what = "facet indices" if width is None else f"{width} facet indices"
    if type(rows) is not list:
        raise FileFormatError(f"{path}: {key} must be a list of lists of {what}")
    if not (
        set(map(type, rows)) <= {list}
        and set(map(type, itertools.chain.from_iterable(rows))) <= {int}
        and (width is None or set(map(len, rows)) <= {width})
    ):
        for k, row in enumerate(rows):
            if (
                type(row) is not list
                or not set(map(type, row)) <= {int}
                or width is not None and len(row) != width
            ):
                raise FileFormatError(f"{path}: {key} entry {k} ({json.dumps(row)}) is not a list of {what}")
    return list(map(tuple, rows))


def load_polytope(path: Union[str, Path]) -> Polytope:
    obj = _read_json(path)
    if obj.get("format") != "racover-polytope":
        raise FileFormatError(f"{path}: not a polytope file")
    extra = set(obj) - _POLYTOPE_KEYS
    if extra:
        raise FileFormatError(f"{path}: unknown keys {sorted(extra)}")
    missing = _POLYTOPE_KEYS - set(obj)
    if missing:
        raise FileFormatError(f"{path}: missing keys {sorted(missing)}")
    if type(obj["dimension"]) is not int:
        raise FileFormatError(f"{path}: dimension must be an integer")
    facets = obj["facets"]
    if type(facets) is not list or not {type(x) for x in facets} <= {str}:
        raise FileFormatError(f"{path}: facets must be a list of strings")
    adjacency = _index_rows(path, obj, "adjacency", 2)
    vertices = _index_rows(path, obj, "vertices", None)
    try:
        P = Polytope(obj["dimension"], facets, adjacency, vertices)
        P.edge_flips  # the checks that P is simple (see `_edge_flips`)
    except PolytopeError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc
    return P


# ---------------------------------------------------------------------------
# colourings: first line "rank <s>", then one value per facet in index
# order, decimal bit-packed vectors, "-" for an unassigned facet; numbers
# are ASCII decimal digits only, where int() alone would also take '+1',
# '1_0' and non-ASCII digits

def write_colouring(
    c: Union[Colouring, PartialColouring], path: Union[str, Path]
) -> None:
    Path(path).write_text(colouring_text(c), encoding="utf-8")


def load_colouring(
    P: Polytope, path: Union[str, Path]
) -> Union[Colouring, PartialColouring]:
    return _parse_colouring(P, _text(Path(path).read_bytes(), path), path)


def _parse_colouring(
    P: Polytope, text: str, path: Union[str, Path]
) -> Union[Colouring, PartialColouring]:
    """The colouring in `text`, read from `path`, which errors name."""
    rank: Optional[int] = None
    vals: List[Optional[int]] = []
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        if rank is None:
            parts = line.split()
            if len(parts) != 2 or parts[0] != "rank":
                raise FileFormatError(f"{path}:{ln}: expected 'rank <s>'")
            try:
                if not (parts[1].isascii() and parts[1].isdigit()):
                    raise ValueError
                rank = int(parts[1])
            except ValueError:
                raise FileFormatError(f"{path}:{ln}: bad rank {parts[1]!r}") from None
            continue
        if line == "-":
            vals.append(None)
            continue
        try:
            if not (line.isascii() and line.isdigit()):
                raise ValueError
            vals.append(int(line))
        except ValueError:
            raise FileFormatError(f"{path}:{ln}: bad colour {line!r}") from None
    if rank is None:
        raise FileFormatError(f"{path}: missing 'rank <s>' header")
    if len(vals) != P.facet_count:
        raise FileFormatError(
            f"{path}: {len(vals)} colours for {P.facet_count} facets"
        )
    try:
        if any(v is None for v in vals):
            return PartialColouring(P, rank, tuple(vals))
        return Colouring(P, rank, tuple(vals))  # type: ignore[arg-type]
    except ColouringError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# certificates

def write_certificate(cert: Certificate, outdir: Union[str, Path]) -> Path:
    """Write the certificate directory; returns the certificate.json path."""
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    files = certificate_files(cert.assembly)
    for key, name in CERTIFICATE_FILES.items():
        (out / name).write_bytes(files[key])
    path = out / "certificate.json"
    write_json(certificate_object(cert, files), path)
    return path


def load_certificate(path: Union[str, Path]) -> Certificate:
    """Rebuild a Certificate from certificate.json and its ambient colouring.

    Only the fields the rebuild reads are input, checked here: `n`,
    `policy`, and the `files.<key>.sha256` digests, each against the data
    file at its fixed name.  The class is re-selected from the census under
    the stored policy and must be the recorded one, or a Finding names the
    first field that differs; then `build_chain` rebuilds the chains from
    it and n, as `certify` does, the ambient colouring, the one data file
    parsed, is put on the rebuilt Q, and `checked_certificate` re-runs
    every check.  Every other field is derived: the parsed file is kept as
    `stored`, and re-validation compares it with the rebuild.
    """
    path = Path(path)
    obj = _read_json(path)
    if obj.get("format") != "racover-certificate":
        raise FileFormatError(f"{path}: not a certificate file")
    base = path.parent
    try:
        digests = {key: obj["files"][key]["sha256"] for key in CERTIFICATE_FILES}
    except (KeyError, TypeError):
        raise FileFormatError(f"{path}: files is not an object of file records") from None
    ambient = base / CERTIFICATE_FILES["ambient_colouring"]
    for key, name in CERTIFICATE_FILES.items():
        # the ambient colouring, the one file parsed, is read once; the
        # others are only hashed
        if key == "ambient_colouring":
            data = ambient.read_bytes()
            actual = hashlib.sha256(data).hexdigest()
        else:
            actual = sha256_file(base / name)
        if actual != digests[key]:
            raise FileFormatError(f"{base / name}: digest {actual} differs from the certificate")
    text = _text(data, ambient)
    # a gluing merges two facets away and their 12 neighbours pairwise,
    # so Q has 106n + 14 facets, one colour line each after the header:
    # checked first, this bounds the rebuild by the colouring file's size
    colours = len(list(filter(str.strip, text.splitlines()))) - 1
    n = obj.get("n")
    if type(n) is not int or n < 1:
        raise FileFormatError(f"{path}: n {n!r} is not a chain length of at least 1")
    if colours != 106 * n + 14:
        raise FileFormatError(f"{path}: n {n} does not fit the {colours} colours of {ambient}")
    policy = obj.get("policy")
    if type(policy) is not str:
        raise FileFormatError(f"{path}: policy {policy!r} is not a string")
    try:
        chosen = select_class(_dodecahedron_census(), policy)
    except ValueError as exc:
        raise FileFormatError(f"{path}: policy: {exc}") from None
    # the chains are rebuilt from this class, so it must be the recorded one
    field = _first_difference(obj.get("class"), class_record(chosen), "class")
    if field is not None:
        raise Finding(f"re-validation disagrees with the certificate at {field}")
    assembly = build_chain(chosen, n, lambda Q, _: _parse_colouring(Q, text, ambient))  # type: ignore
    if isinstance(assembly.lam_Q, PartialColouring):
        raise FileFormatError(f"{ambient}: certificate colourings must be total")
    return checked_certificate(policy, chosen, assembly, obj)


# ---------------------------------------------------------------------------
# run manifests

@dataclass(frozen=True)
class RunManifest:
    """Provenance of one CLI run.  Output files themselves are
    deterministic; wall time and other variability live only here."""

    command: str
    arguments: List[str]
    input_digests: Dict[str, str]
    tool_version: str
    wall_time_seconds: float
    result_digest: Optional[str]


def write_manifest(m: RunManifest, path: Union[str, Path]) -> None:
    write_json(
        {
            "format": "racover-run",
            "command": m.command,
            "arguments": list(m.arguments),
            "input_digests": dict(sorted(m.input_digests.items())),
            "tool_version": m.tool_version,
            "wall_time_seconds": m.wall_time_seconds,
            "result_digest": m.result_digest,
        },
        path,
    )
