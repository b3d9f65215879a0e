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
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from .colouring import Colouring, ColouringError, PartialColouring
from .pipeline import (
    CERTIFICATE_FILES,
    Certificate,
    ChainAssembly,
    CheckResult,
    GlueStep,
    _dodecahedron_census,
    certificate_object,
    cut_cover,
    select_class,
)
from .polytopes import Polytope, PolytopeError, make_120cell, make_dodecahedron


class FileFormatError(ValueError):
    """A file failed to parse or validate; messages carry file positions."""


# ---------------------------------------------------------------------------
# JSON plumbing

def write_json(obj: dict, path: Union[str, Path]) -> None:
    Path(path).write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")


def _read_json(path: Union[str, Path]) -> dict:
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path}:{exc.lineno}: {exc.msg}") from exc
    if not isinstance(obj, dict):
        raise FileFormatError(f"{path}: expected a JSON object")
    return obj


def sha256_file(path: Union[str, Path]) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# polytopes

_POLYTOPE_KEYS = {"format", "dimension", "facets", "adjacency", "vertices"}


def _json_list(items: Iterable[str]) -> str:
    """A non-empty list value at depth 1 of `json.dumps(indent=2)`, from its
    item lines."""
    body = ",\n".join(items)
    return f"[\n{body}\n  ]"


def _json_rows(rows: Iterable[Sequence[int]], width: int) -> Iterator[str]:
    """The item lines of a list of integer rows of one width, laid out as
    `json.dumps(indent=2)` lays them out at depth 2."""
    template = "    [\n" + ",\n".join(["      {}"] * width) + "\n    ]"
    return itertools.starmap(template.format, rows)


def write_polytope(P: Polytope, path: Union[str, Path]) -> None:
    """The bytes of `write_json` on the polytope's object, rendered directly:
    `json.dumps(indent=2)` runs CPython's pure-Python encoder, which costs
    most of a certificate write.  Every adjacency row has 2 entries and
    every vertex row `dimension` (the constructor checks both)."""
    labels = map("    {}".format, map(encode_basestring_ascii, P.facet_labels))
    text = (
        '{\n  "format": "racover-polytope",\n'
        f'  "dimension": {P.dimension},\n'
        f'  "facets": {_json_list(labels)},\n'
        f'  "adjacency": {_json_list(_json_rows(P.adjacency, 2))},\n'
        f'  "vertices": {_json_list(_json_rows(P.vertices, P.dimension))}\n'
        "}\n"
    )
    Path(path).write_text(text, encoding="utf-8")


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
        return Polytope(obj["dimension"], facets, adjacency, vertices)
    except PolytopeError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# colourings: first line "rank <s>", then one value per facet in index
# order, decimal bit-packed vectors, "-" for an unassigned facet; numbers
# are ASCII decimal digits only, where int() alone would also take '+1',
# '1_0' and non-ASCII digits

def write_colouring(
    c: Union[Colouring, PartialColouring], path: Union[str, Path]
) -> None:
    lines = [f"rank {c.rank}"]
    for v in c.colours:
        lines.append("-" if v is None else str(v))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_colouring(
    P: Polytope, path: Union[str, Path]
) -> Union[Colouring, PartialColouring]:
    rank: Optional[int] = None
    vals: List[Optional[int]] = []
    for ln, raw in enumerate(
        Path(path).read_text(encoding="utf-8").splitlines(), 1
    ):
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
    write_polytope(cert.assembly.P, out / CERTIFICATE_FILES["chain"])
    write_polytope(cert.assembly.Q, out / CERTIFICATE_FILES["ambient"])
    write_colouring(cert.assembly.mu_P, out / CERTIFICATE_FILES["chain_colouring"])
    write_colouring(cert.assembly.lam_Q, out / CERTIFICATE_FILES["ambient_colouring"])
    digests = {key: sha256_file(out / name) for key, name in CERTIFICATE_FILES.items()}
    path = out / "certificate.json"
    write_json(certificate_object(cert, digests), path)
    return path


def _int_field(
    path: Path, value: object, name: str, lo: int, hi: Optional[int], what: str
) -> int:
    """The integer field `name`, required to lie in [lo, hi)."""
    if type(value) is not int or value < lo or (hi is not None and value >= hi):
        raise FileFormatError(f"{path}: {name} {value!r} is not {what}")
    return value


def _str_field(path: Path, value: object, name: str) -> str:
    if type(value) is not str:
        raise FileFormatError(f"{path}: {name} {value!r} is not a string")
    return value


def _facets_field(
    path: Path, value: object, name: str, facets: int, what: str, distinct: Optional[int] = None
) -> Tuple[int, ...]:
    """The list field `name` of facet indices in [0, facets), required to
    hold `distinct` distinct ones when that is given."""
    if (
        type(value) is not list
        or not all(type(f) is int and 0 <= f < facets for f in value)
        or distinct is not None and not len(value) == len(set(value)) == distinct
    ):
        raise FileFormatError(f"{path}: {name} {value!r} is not {what}")
    return tuple(value)


def _check_class_record(path: Path, cls: dict) -> None:
    """Check the kind and range of each field of the `class` record; whether
    they match the class re-selected from the census is re-validation's
    check."""
    facets = make_dodecahedron().facet_count
    for key, hi, what in (
        ("index", None, "a non-negative integer"),
        ("automorphisms", None, "a non-negative integer"),
        ("glue_facet", facets, "a facet of the dodecahedron"),
    ):
        _int_field(path, cls[key], f"class.{key}", 0, hi, what)
    _str_field(path, cls["id"], "class.id")
    _facets_field(
        path, cls["witness"], "class.witness", facets,
        "three distinct facets of the dodecahedron", 3,
    )


def _glue_steps(path: Path, records: object, n: int) -> Tuple[GlueStep, ...]:
    """The n - 1 glue step records, each field checked for kind and range;
    whether they match the chains is not checked here."""
    if type(records) is not list or len(records) != n - 1:
        raise FileFormatError(f"{path}: glue_steps is not a list of n - 1 = {n - 1} records")
    fields = (
        ("step", 2, n + 1, "a summand from 2 to n"),
        ("dodeca_facet", 0, make_dodecahedron().facet_count, "a facet of the dodecahedron"),
        ("z_facet", 0, make_120cell().facet_count, "a facet of the 120-cell"),
    )
    steps = []
    for k, s in enumerate(records):
        if type(s) is not dict or s.keys() != {key for key, *_ in fields}:
            raise FileFormatError(f"{path}: glue_steps[{k}] {s!r} is not a glue step record")
        steps.append(GlueStep(*(
            _int_field(path, s[key], f"glue_steps[{k}].{key}", lo, hi, what)
            for key, lo, hi, what in fields
        )))
    return tuple(steps)


def load_certificate(path: Union[str, Path]) -> Certificate:
    """Rebuild a Certificate from certificate.json and its referenced files.

    Referenced files must match their recorded digests; the cover, cut
    locus and cut report are rebuilt from the loaded chains, and
    `validate_certificate` re-runs the checks on these, so it exercises the
    stored data, not cached results.  The class is re-selected from the
    census under the stored policy, as `certify` selects it.
    The parsed file is kept as `stored`, so re-validation can read back
    every field it states.
    """
    path = Path(path)
    obj = _read_json(path)
    if obj.get("format") != "racover-certificate":
        raise FileFormatError(f"{path}: not a certificate file")
    base = path.parent
    try:
        refs = obj["files"]
        if not isinstance(refs, dict) or not all(isinstance(r, dict) for r in refs.values()):
            raise FileFormatError(f"{path}: files is not an object of file records")
        for ref in refs.values():
            actual = sha256_file(base / ref["path"])
            if actual != ref["sha256"]:
                raise FileFormatError(
                    f"{base / ref['path']}: digest {actual} differs from the certificate"
                )
        P = load_polytope(base / refs["chain"]["path"])
        Q = load_polytope(base / refs["ambient"]["path"])
        mu = load_colouring(P, base / refs["chain_colouring"]["path"])
        lam = load_colouring(Q, base / refs["ambient_colouring"]["path"])
        if isinstance(mu, PartialColouring) or isinstance(lam, PartialColouring):
            raise FileFormatError(f"{path}: certificate colourings must be total")
        n = _int_field(path, obj["n"], "n", 1, None, "a chain length of at least 1")
        d_facet = _int_field(
            path, obj["d_facet"], "d_facet", 0, Q.facet_count, "a facet of the ambient polytope"
        )
        _int_field(
            path, obj["base_facet"], "base_facet", 0, make_120cell().facet_count,
            "a facet of the 120-cell",
        )
        policy = _str_field(path, obj["policy"], "policy")
        _check_class_record(path, obj["class"])
        if type(obj["notes"]) is not list:
            raise FileFormatError(f"{path}: notes {obj['notes']!r} is not a list")
        try:
            chosen = select_class(_dodecahedron_census(), policy)
        except ValueError as exc:
            raise FileFormatError(f"{path}: policy: {exc}") from None
        assembly = ChainAssembly(
            n,
            P,
            mu,
            Q,
            lam,
            d_facet,
            _facets_field(
                path, obj["witness_facets"], "witness_facets", P.facet_count,
                "three distinct facets of the chain", 3,
            ),
            _glue_steps(path, obj["glue_steps"], n),
            _facets_field(
                path, obj["natural_map"], "natural_map", P.facet_count,
                "a list of facets of the chain",
            ),
        )
        cover, components, cut = cut_cover(assembly)
        checks = tuple(CheckResult(**c) for c in obj["checks"])
        return Certificate(policy, chosen, assembly, cover, components, cut, checks, obj)
    except (KeyError, TypeError) as exc:
        raise FileFormatError(f"{path}: malformed certificate ({exc})") from exc


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
