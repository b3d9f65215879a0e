"""On-disk formats: round trips, determinism, tamper detection."""
from __future__ import annotations

import hashlib
import json
import re
import sys
from pathlib import Path

import pytest

from conftest import dodecahedral_chain
from racover import colouring, covers, fileio, pipeline
from racover.colouring import Colouring, PartialColouring, from_k_colouring
from racover.covers import (
    build_cover,
    cover_summary,
    cut_along,
    facet_preimage,
    json_record,
)
from racover.fileio import (
    FileFormatError,
    RunManifest,
    load_certificate,
    load_colouring,
    load_polytope,
    sha256_file,
    write_certificate,
    write_colouring,
    write_manifest,
    write_polytope,
)
from racover.pipeline import Finding, validate_certificate
from racover.polytopes import Polytope, make_polygon


def test_polytope_round_trip_is_byte_identical(tmp_path, dodecahedron):
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    write_polytope(dodecahedron, p1)
    loaded = load_polytope(p1)
    assert loaded.same_structure(dodecahedron)
    write_polytope(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()


def _odd_labels_polygon():
    """A pentagon whose labels need JSON escapes and non-ASCII escapes."""
    P = make_polygon(5)
    labels = ['a"b', "back\\slash", "caf\u00e9", "\u2202\U0001d49c", "tab\there"]
    return Polytope(2, labels, P.adjacency, P.vertices)


@pytest.mark.parametrize("name", ["pentagon", "dodecahedron", "z120", "3-chain", "odd-labels"])
def test_polytope_writer_matches_json_dumps(request, tmp_path, name):
    if name == "3-chain":
        P = dodecahedral_chain(3)
    elif name == "odd-labels":
        P = _odd_labels_polygon()
    else:
        P = request.getfixturevalue(name)
    obj = {
        "format": "racover-polytope",
        "dimension": P.dimension,
        "facets": list(P.facet_labels),
        "adjacency": [list(e) for e in P.adjacency],
        "vertices": [list(v) for v in P.vertices],
    }
    path = tmp_path / "p.json"
    write_polytope(P, path)
    assert path.read_bytes() == (json.dumps(obj, indent=2) + "\n").encode("utf-8")
    assert load_polytope(path).facet_labels == P.facet_labels


@pytest.mark.parametrize(
    "key, bad, entry",
    [
        ("adjacency", [[0, 1.0], [0, True]], 2),
        ("adjacency", ["01", [0]], 1),
        ("vertices", [[0, True], [1]], 1),
        ("vertices", [{"0": 1}, [0, 1.0]], 0),
    ],
)
def test_malformed_rows_name_the_first_bad_entry(tmp_path, pentagon, key, bad, entry):
    path = tmp_path / "p.json"
    write_polytope(pentagon, path)
    obj = json.loads(path.read_text(encoding="utf-8"))
    for k, row in enumerate(bad):
        obj[key][entry + 2 * k] = row
    path.write_text(json.dumps(obj), encoding="utf-8")
    with pytest.raises(FileFormatError, match=f"{key} entry {entry} "):
        load_polytope(path)


def test_polytope_file_errors(tmp_path, pentagon):
    path = tmp_path / "p.json"
    path.write_text('{"format": "something-else"}', encoding="utf-8")
    with pytest.raises(FileFormatError):
        load_polytope(path)

    write_polytope(pentagon, path)
    obj = json.loads(path.read_text(encoding="utf-8"))
    obj["surprise"] = 1
    path.write_text(json.dumps(obj), encoding="utf-8")
    with pytest.raises(FileFormatError):
        load_polytope(path)

    path.write_text('{"format": "racover-polytope",', encoding="utf-8")
    with pytest.raises(FileFormatError) as err:
        load_polytope(path)
    # parse errors carry a line position
    assert ":1:" in str(err.value)


@pytest.mark.parametrize(
    "data, message",
    [
        (b'{"vertices": ' + b"[" * 200_000 + b"]" * 200_000 + b"}", "maximum recursion depth"),
        (b'{"format": "racover-polytope\xff"}', "codec can't decode byte 0xff"),
        # an interpreter with an integer digit limit refuses an integer of
        # more than 4 300 digits; one without reads it, in no polytope file
        (
            b'{"dimension": ' + b"9" * 5_000 + b"}",
            "Exceeds the limit" if hasattr(sys, "set_int_max_str_digits") else "not a polytope file",
        ),
    ],
    ids=["deep", "not-utf8", "long-int"],
)
def test_undecodable_polytope_files_name_the_file(tmp_path, data, message):
    path = tmp_path / "p.json"
    path.write_bytes(data)
    with pytest.raises(FileFormatError, match=f"^{re.escape(str(path))}: .*{message}"):
        load_polytope(path)


def test_colouring_round_trip(tmp_path, pentagon):
    lam = Colouring(pentagon, 2, (1, 2, 1, 2, 3))
    path = tmp_path / "c.txt"
    write_colouring(lam, path)
    assert path.read_text(encoding="utf-8") == "rank 2\n1\n2\n1\n2\n3\n"
    loaded = load_colouring(pentagon, path)
    assert isinstance(loaded, Colouring)
    assert (loaded.rank, loaded.colours) == (2, (1, 2, 1, 2, 3))


def test_partial_colouring_round_trip(tmp_path, pentagon):
    part = PartialColouring(pentagon, 2, (1, None, 1, 2, None))
    path = tmp_path / "p.txt"
    write_colouring(part, path)
    loaded = load_colouring(pentagon, path)
    assert isinstance(loaded, PartialColouring)
    assert loaded.colours == (1, None, 1, 2, None)


def test_colouring_file_errors(tmp_path, pentagon):
    path = tmp_path / "c.txt"
    path.write_text("rank x\n1\n2\n1\n2\n3\n", encoding="utf-8")
    with pytest.raises(FileFormatError) as err:
        load_colouring(pentagon, path)
    assert ":1:" in str(err.value)

    path.write_text("rank 2\n1\nbanana\n1\n2\n3\n", encoding="utf-8")
    with pytest.raises(FileFormatError) as err:
        load_colouring(pentagon, path)
    assert ":3:" in str(err.value)

    path.write_text("rank 2\n1\n2\n", encoding="utf-8")
    with pytest.raises(FileFormatError):
        load_colouring(pentagon, path)

    path.write_text("rank 2\n1\n2\n1\n2\n9\n", encoding="utf-8")
    with pytest.raises(FileFormatError):
        load_colouring(pentagon, path)

    path.write_text("1\n2\n1\n2\n3\n", encoding="utf-8")
    with pytest.raises(FileFormatError):
        load_colouring(pentagon, path)

    # only ASCII decimal digits: int() would also take a sign, underscores
    # and non-ASCII digits
    for rank in ("+2", "+0_3", "0_2", "\u0662"):
        path.write_text(f"rank {rank}\n1\n2\n1\n2\n3\n", encoding="utf-8")
        with pytest.raises(FileFormatError, match="bad rank"):
            load_colouring(pentagon, path)
    for colour in ("+1", "1_0", "\u0664", "-1"):
        path.write_text(f"rank 2\n1\n2\n1\n2\n{colour}\n", encoding="utf-8")
        with pytest.raises(FileFormatError, match="bad colour"):
            load_colouring(pentagon, path)


# the message of a file that is not UTF-8, after its path
UNDECODABLE = "'utf-8' codec can't decode byte 0xff "


def test_an_undecodable_colouring_file_is_named(tmp_path, pentagon):
    path = tmp_path / "c.txt"
    path.write_bytes(b"rank 2\n1\n2\n1\n2\n\xff\n")
    with pytest.raises(FileFormatError, match=f"^{re.escape(str(path))}: {UNDECODABLE}"):
        load_colouring(pentagon, path)


def test_volume_and_summary_records(dodecahedron):
    lam = from_k_colouring(dodecahedron, [1, 2, 3, 4, 2, 4, 3, 4, 1, 3, 1, 2])
    C = build_cover(dodecahedron, lam)
    rec = cover_summary(C)
    assert rec["copies"] == 16
    assert rec["orientable"] is True
    assert rec["euler_characteristic"] == 0
    assert rec["volume"]["exact"] == "16*V_D"
    assert rec["volume"]["pi2_multiple"] is None
    assert set(rec["facet_preimage_pieces"]) == set(dodecahedron.facet_labels)

    cut = cut_along(C, facet_preimage(C, 0)[0])
    crec = json_record(cut)
    assert crec["one_sided"] is False
    assert crec["boundary_components"] == 2
    assert crec["ambient_volume"] == json_record(cut.ambient_volume)


def test_cover_summary_skips_preimages_in_dimension_two(pentagon):
    C = build_cover(pentagon, Colouring(pentagon, 2, (1, 2, 1, 2, 3)))
    rec = cover_summary(C)
    assert "facet_preimage_pieces" not in rec
    assert rec["volume"]["exact"] == "(2)*pi"


def test_certificate_round_trip(tmp_path, cert1):
    outdir = tmp_path / "cert"
    path = write_certificate(cert1, outdir)
    assert path.name == "certificate.json"
    for name in ("chain.json", "ambient.json", "chain-colouring.txt",
                 "ambient-colouring.txt"):
        assert (outdir / name).exists()

    loaded = load_certificate(path)
    assert loaded.n == cert1.n
    assert loaded.chosen == cert1.chosen
    assert loaded.assembly.glue_steps == cert1.assembly.glue_steps
    assert [(c.name, c.passed) for c in loaded.checks] == [
        (c.name, c.passed) for c in cert1.checks
    ]
    assert all(c.passed for c in validate_certificate(loaded))

    # writing the loaded certificate again reproduces the bytes exactly
    second = tmp_path / "again"
    write_certificate(loaded, second)
    assert (second / "certificate.json").read_bytes() == path.read_bytes()


# sha256 of each file `certify(1)` writes
CERT1_DIGESTS = {
    "ambient-colouring.txt": "62902afe0b9f261257a334460dec320248315b8f28c9f96340770d785fb994e3",
    "ambient.json": "5d5e49b1863556737c5c1f7951b6b1887449eb110c2509498180341e62d4e156",
    "certificate.json": "7f0d87f3ea99d92c830a417deda830ca7de68d9b5fa9cf83ea3772acf500b5e0",
    "chain-colouring.txt": "25189dae2c77f279c6d6de25e14f94ef052c12e244a55abe8225f5b7024b4f29",
    "chain.json": "d26bd1b6acfd34a394c031ecb0c011313c5954f2daa29cc8091caf17d07b432f",
}


def test_certificate_bytes_are_pinned(tmp_path, cert1):
    outdir = tmp_path / "cert"
    write_certificate(cert1, outdir)
    assert {p.name: sha256_file(p) for p in outdir.iterdir()} == CERT1_DIGESTS


def test_writer_reuses_the_checked_euler_characteristic(monkeypatch, tmp_path, cert1):
    # certify's euler-characteristic check has already computed chi both ways
    def recompute(C):
        raise AssertionError("Euler characteristic computed again")

    monkeypatch.setattr(covers, "_checked_euler_characteristic", recompute)
    path = write_certificate(cert1, tmp_path / "cert")
    chi = json.loads(path.read_text())["cover"]["euler_characteristic"]
    assert chi == 272


def test_validation_reads_back_the_stored_records(monkeypatch, tmp_path, cert1):
    path = write_certificate(cert1, tmp_path / "cert")
    calls = []
    real = covers._checked_euler_characteristic
    monkeypatch.setattr(
        covers, "_checked_euler_characteristic", lambda C: calls.append(C) or real(C)
    )
    validate_certificate(load_certificate(path))
    # chi is computed once, for the rebuilt cover; the record read back
    # takes that cover's cached value
    assert len(calls) == 1

    obj = json.loads(path.read_text(encoding="utf-8"))
    obj["cover"]["copies"] = 33
    path.write_text(json.dumps(obj), encoding="utf-8")
    with pytest.raises(Finding, match=r"at cover\.copies$"):
        validate_certificate(load_certificate(path))


def test_verify_computes_the_class_id_once(monkeypatch, tmp_path, cert1):
    path = write_certificate(cert1, tmp_path / "cert")
    calls = []
    real = colouring.canonical_form

    def counting(P, lam):
        calls.append(lam)
        return real(P, lam)

    for module in (colouring, pipeline):
        monkeypatch.setattr(module, "canonical_form", counting)
    # the loader compares the class record, and re-validation renders it
    # again, from the same class
    validate_certificate(load_certificate(path))
    assert len(calls) == 1


def test_verify_builds_the_cover_once(monkeypatch, tmp_path, cert1):
    path = write_certificate(cert1, tmp_path / "cert")
    built = []
    real = pipeline.cut_cover
    counting = lambda a: built.append(a) or real(a)  # noqa: E731
    monkeypatch.setattr(pipeline, "cut_cover", counting)
    # loading rebuilds the cover from the stored chains and runs the checks
    # on it, and validation compares the result with the stored file
    loaded = load_certificate(path)
    assert built == [loaded.assembly]
    validate_certificate(loaded)
    assert built == [loaded.assembly]
    # a certificate built in memory is re-derived, not trusted
    validate_certificate(cert1)
    assert built == [loaded.assembly, cert1.assembly]


def test_loading_reads_the_ambient_colouring_once(monkeypatch, tmp_path, cert3):
    # one read serves its digest, its line count and its parse
    path = write_certificate(cert3, tmp_path / "cert")
    opened = []
    real = Path.open

    def counting(self, *args, **kwargs):
        opened.append(self.name)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(Path, "open", counting)
    loaded = load_certificate(path)
    assert opened.count("ambient-colouring.txt") == 1
    assert loaded.assembly.lam_Q.colours == cert3.assembly.lam_Q.colours


def test_certificate_detects_tampered_files(tmp_path, cert1):
    outdir = tmp_path / "cert"
    path = write_certificate(cert1, outdir)
    chain = outdir / "chain-colouring.txt"
    text = chain.read_text(encoding="utf-8")
    chain.write_text(text.replace("rank 3", "rank 4", 1), encoding="utf-8")
    with pytest.raises(FileFormatError):
        load_certificate(path)


def test_undecodable_certificate_files_are_named(tmp_path, cert1):
    outdir = tmp_path / "cert"
    path = write_certificate(cert1, outdir)
    obj = json.loads(path.read_text(encoding="utf-8"))
    # the ambient colouring, the one data file decoded, with its digest recorded
    ambient = outdir / "ambient-colouring.txt"
    data = ambient.read_bytes().replace(b"rank 5", b"rank \xff5", 1)
    ambient.write_bytes(data)
    obj["files"]["ambient_colouring"]["sha256"] = hashlib.sha256(data).hexdigest()
    path.write_text(json.dumps(obj), encoding="utf-8")
    with pytest.raises(FileFormatError, match=f"^{re.escape(str(ambient))}: {UNDECODABLE}"):
        load_certificate(path)
    path.write_bytes(b'{"format": "\xff"}')
    with pytest.raises(FileFormatError, match=f"^{re.escape(str(path))}: {UNDECODABLE}"):
        load_certificate(path)


def test_loading_reads_no_chain_file(monkeypatch, tmp_path, cert3):
    # the chains are rebuilt from the class and n; only their digests are read
    def refuse(path):
        raise AssertionError(f"{path} parsed")

    path = write_certificate(cert3, tmp_path / "cert")
    monkeypatch.setattr(fileio, "load_polytope", refuse)
    assert all(c.passed for c in validate_certificate(load_certificate(path)))


# every field the rebuild does not read is derived, so an out-of-range
# value of it is a disagreement with the rebuild, as an edited cover.copies is
@pytest.mark.parametrize("d_facet", [10**6, -1])
def test_certificate_rejects_an_out_of_range_d_facet(tmp_path, cert1, d_facet):
    path = write_certificate(cert1, tmp_path / "cert")
    obj = json.loads(path.read_text(encoding="utf-8"))
    obj["d_facet"] = d_facet
    path.write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")
    with pytest.raises(Finding, match="at d_facet$"):
        validate_certificate(load_certificate(path))


@pytest.mark.parametrize(
    "key, value",
    [
        ("n", 0), ("n", -1), ("n", "1"), ("base_facet", 10**6), ("base_facet", -1),
        ("files", []), ("files", "x"), ("files", {"chain": "x"}),
        ("policy", 5),
        ("glue_steps", [{"step": "x", "dodeca_facet": None, "z_facet": [1]}]),
        ("witness_facets", [10**6, 0, 1]), ("witness_facets", [True, 2, 3]),
        ("natural_map", [1.0, *range(1, 12)]), ("notes", "x"),
    ],
)
def test_certificate_rejects_an_out_of_range_field(tmp_path, cert1, key, value):
    path = write_certificate(cert1, tmp_path / "cert")
    obj = json.loads(path.read_text(encoding="utf-8"))
    obj[key] = value
    path.write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")
    derived = key in ("base_facet", "glue_steps", "witness_facets", "natural_map", "notes")
    with pytest.raises(Finding if derived else FileFormatError, match=key):
        validate_certificate(load_certificate(path))


@pytest.mark.parametrize(
    "edit, field",
    [
        (lambda steps: steps.clear(), "glue_steps"),
        (lambda steps: steps[0].update(z_facet=10**6), r"glue_steps\[0\]\.z_facet"),
        (lambda steps: steps[1].update(step=True), r"glue_steps\[1\]\.step"),
        (lambda steps: steps[1].update(dodeca_facet=12), r"glue_steps\[1\]\.dodeca_facet"),
        (lambda steps: steps[0].update(extra=1), r"glue_steps\[0\]"),
    ],
    ids=["empty", "z_facet", "step", "dodeca_facet", "extra-key"],
)
def test_certificate_rejects_a_malformed_glue_step(tmp_path, cert3, edit, field):
    path = write_certificate(cert3, tmp_path / "cert")
    obj = json.loads(path.read_text(encoding="utf-8"))
    edit(obj["glue_steps"])
    path.write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")
    with pytest.raises(Finding, match=f"at {field}"):
        validate_certificate(load_certificate(path))


def test_sha256_file_matches_digest_of_bytes(tmp_path):
    path = tmp_path / "x"
    path.write_bytes(b"abc")
    assert sha256_file(path) == (
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    )


def test_run_manifest_shape(tmp_path):
    m = RunManifest(
        command="generate",
        arguments=["generate", "dodecahedron"],
        input_digests={},
        tool_version="0.0.0-test",
        wall_time_seconds=0.25,
        result_digest="00" * 32,
    )
    path = tmp_path / "run-manifest.json"
    write_manifest(m, path)
    obj = json.loads(path.read_text(encoding="utf-8"))
    assert obj["format"] == "racover-run"
    assert obj["command"] == "generate"
    assert obj["result_digest"] == "00" * 32
