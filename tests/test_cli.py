"""End-to-end command-line behaviour, including exit-code contracts."""
from __future__ import annotations

import dataclasses
import hashlib
import json
import shutil
import time

import pytest

from conftest import torus_dual, two_tetrahedra
from racover import __version__, fileio, pipeline, polytopes
from racover.cli import EXIT_FINDING, EXIT_OK, EXIT_USAGE, main
from racover.colouring import Colouring
from racover.fileio import load_colouring, write_colouring, write_polytope
from racover.pipeline import extend_class, select_class
from racover.polytopes import make_polygon


def _manifest(outdir):
    return json.loads((outdir / "run-manifest.json").read_text(encoding="utf-8"))


def _output_files(outdir):
    """Every file a run wrote except its manifest, which records wall time."""
    return {
        str(p.relative_to(outdir)): p.read_bytes()
        for p in sorted(outdir.rglob("*"))
        if p.is_file() and p.name != "run-manifest.json"
    }


def test_generate_is_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(["generate", "dodecahedron", "--out", str(a)]) == EXIT_OK
    assert main(["generate", "dodecahedron", "--out", str(b)]) == EXIT_OK
    assert (a / "dodecahedron.json").read_bytes() == (b / "dodecahedron.json").read_bytes()
    m = _manifest(a)
    assert m["command"] == "generate"
    assert m["tool_version"] == __version__
    assert m["result_digest"] == _manifest(b)["result_digest"]

    # every other file-producing command reruns byte for byte too
    poly = str(a / "dodecahedron.json")
    cls = str(a / "census" / "class-000.txt")
    for name, argv in [
        ("census", ["enumerate", poly]),
        ("chromatic", ["enumerate", poly, "--chromatic", "4"]),
        ("extension", ["extend", cls]),
        ("cover", ["cover", poly, cls]),
        ("certificate", ["certify", "--n", "1"]),
    ]:
        for root in (a, b):
            assert main(argv + ["--out", str(root / name)]) == EXIT_OK, name
        files = _output_files(a / name)
        assert files, name
        assert files == _output_files(b / name), name
        assert _manifest(a / name)["result_digest"] == _manifest(b / name)["result_digest"]


def test_generate_respects_racover_out(tmp_path, monkeypatch):
    target = tmp_path / "env-out"
    monkeypatch.setenv("RACOVER_OUT", str(target))
    assert main(["generate", "dodecahedron"]) == EXIT_OK
    assert (target / "dodecahedron.json").exists()


def test_unknown_kind_is_a_usage_error(tmp_path):
    with pytest.raises(SystemExit):
        main(["generate", "icosahedron", "--out", str(tmp_path)])


def test_check_reports_a_proper_orientable_colouring(tmp_path, pentagon, capsys):
    write_polytope(pentagon, tmp_path / "p.json")
    lam = Colouring(pentagon, 3, (1, 2, 1, 2, 4))
    write_colouring(lam, tmp_path / "c.txt")
    code = main(["check", str(tmp_path / "p.json"), str(tmp_path / "c.txt")])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "proper: yes" in out
    assert "orientable: yes" in out
    assert "witness triple: none" in out


def test_check_flags_an_improper_colouring(tmp_path, pentagon, capsys):
    write_polytope(pentagon, tmp_path / "p.json")
    (tmp_path / "c.txt").write_text("rank 2\n1\n1\n2\n1\n2\n", encoding="utf-8")
    code = main(["check", str(tmp_path / "p.json"), str(tmp_path / "c.txt")])
    out = capsys.readouterr().out
    assert code == EXIT_FINDING
    assert "dependent colours" in out


def test_check_names_the_first_dependent_vertex(tmp_path, pentagon, capsys):
    # the vertices are (0, 1), (0, 4), (1, 2), (2, 3), (3, 4); both colourings
    # are dependent at (0, 4) and (3, 4), and the total one also at (1, 2)
    write_polytope(pentagon, tmp_path / "p.json")
    (tmp_path / "c.txt").write_text("rank 2\n1\n2\n2\n1\n1\n", encoding="utf-8")
    code = main(["check", str(tmp_path / "p.json"), str(tmp_path / "c.txt")])
    assert code == EXIT_FINDING
    assert capsys.readouterr().out == (
        "facets: 5, rank: 2\nproper: no; vertex (0, 4) carries dependent colours\n"
    )
    (tmp_path / "q.txt").write_text("rank 2\n1\n-\n2\n1\n1\n", encoding="utf-8")
    code = main(["check", str(tmp_path / "p.json"), str(tmp_path / "q.txt")])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == (
        f"error: {tmp_path / 'q.txt'}: dependent colours at vertex (0, 4)\n"
    )


def test_check_accepts_a_partial_colouring(tmp_path, pentagon, capsys):
    write_polytope(pentagon, tmp_path / "p.json")
    (tmp_path / "c.txt").write_text("rank 2\n1\n-\n1\n2\n-\n", encoding="utf-8")
    code = main(["check", str(tmp_path / "p.json"), str(tmp_path / "c.txt")])
    assert code == EXIT_OK
    assert "partial colouring: 3/5" in capsys.readouterr().out


def test_check_takes_a_huge_rank_header(tmp_path, dodecahedron, census, capsys):
    # the colour range check must not build 2^rank, which at this rank
    # raises OverflowError
    write_polytope(dodecahedron, tmp_path / "d.json")
    write_colouring(census.classes[0].colouring, tmp_path / "c.txt")
    lines = (tmp_path / "c.txt").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "rank 3"
    lines[0] = f"rank {10**20}"
    (tmp_path / "c.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    code = main(["check", str(tmp_path / "d.json"), str(tmp_path / "c.txt")])
    out, err = capsys.readouterr()
    assert code == EXIT_OK
    assert out.startswith(f"facets: 12, rank: {10**20}\nproper: yes\n")
    assert err == ""


def test_malformed_colouring_is_a_usage_error(tmp_path, pentagon, capsys):
    write_polytope(pentagon, tmp_path / "p.json")
    (tmp_path / "c.txt").write_text("rank x\n", encoding="utf-8")
    code = main(["check", str(tmp_path / "p.json"), str(tmp_path / "c.txt")])
    assert code == EXIT_USAGE
    assert "bad rank" in capsys.readouterr().err


def test_missing_file_is_a_usage_error(tmp_path, capsys):
    code = main(["check", str(tmp_path / "nope.json"), str(tmp_path / "c.txt")])
    assert code == EXIT_USAGE


def test_a_blank_colouring_file_is_a_usage_error(tmp_path, pentagon, capsys):
    write_polytope(pentagon, tmp_path / "p.json")
    (tmp_path / "c.txt").write_text("\n  \n\n", encoding="utf-8")
    code = main(["check", str(tmp_path / "p.json"), str(tmp_path / "c.txt")])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {tmp_path / 'c.txt'}: missing 'rank <s>' header\n"


def test_a_partial_colour_outside_the_rank_is_a_usage_error(tmp_path, pentagon, capsys):
    write_polytope(pentagon, tmp_path / "p.json")
    (tmp_path / "c.txt").write_text("rank 3\n9\n-\n1\n2\n-\n", encoding="utf-8")
    code = main(["check", str(tmp_path / "p.json"), str(tmp_path / "c.txt")])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {tmp_path / 'c.txt'}: colour 9 outside GF(2)^3\n"


def test_a_polytope_file_that_is_not_an_object_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]", encoding="utf-8")
    assert main(["enumerate", str(path), "--out", str(tmp_path)]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {path}: expected a JSON object\n"


@pytest.mark.parametrize("chromatic", [[], ["--chromatic", "4"]])
def test_enumerate_rejects_a_non_simple_polytope(tmp_path, dodecahedron, capsys, chromatic):
    # without one vertex, three edges lie on a single vertex
    path = tmp_path / "broken.json"
    path.write_text(json.dumps({
        "format": "racover-polytope",
        "dimension": 3,
        "facets": list(dodecahedron.facet_labels),
        "adjacency": [list(e) for e in dodecahedron.adjacency],
        "vertices": [list(v) for v in dodecahedron.vertices[1:]],
    }))
    code = main(["enumerate", str(path), "--out", str(tmp_path)] + chromatic)
    assert code == EXIT_USAGE
    assert "does not lie on exactly two vertices (1 found)" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["check", "cover", "enumerate", "chromatic"])
@pytest.mark.parametrize(
    "name,extra",
    [
        pytest.param("dodecahedron", None, id="dodecahedron"),
        pytest.param("pentagon", None, id="pentagon"),
        pytest.param("dodecahedron", (0, 6), id="dodecahedron-extra-pair"),
        pytest.param("pentagon", (0, 2), id="pentagon-chord"),
        pytest.param("torus", None, id="torus-dual"),
    ],
)
def test_every_command_rejects_a_deleted_vertex_row(
    request, tmp_path, capsys, census, name, extra, command
):
    # without the extra pair, the first vertex row is deleted; each edge of
    # that vertex then lies on one vertex only.  The torus's dual is written
    # as it is: its rows close up into a torus, not a sphere
    P = torus_dual() if name == "torus" else request.getfixturevalue(name)
    path = tmp_path / "broken.json"
    write_polytope(P, path)
    obj = json.loads(path.read_text(encoding="utf-8"))
    if name == "torus":
        pass
    elif extra is None:
        assert tuple(obj["vertices"].pop(0)) == P.vertices[0]
    else:
        assert not P.adjacent(*extra)
        obj["adjacency"].append(list(extra))
    path.write_text(json.dumps(obj), encoding="utf-8")
    if name == "dodecahedron":
        write_colouring(census.classes[24].colouring, tmp_path / "c.txt")
    elif name == "torus":
        write_colouring(Colouring(P, 3, tuple(range(1, 8))), tmp_path / "c.txt")
    else:
        write_colouring(Colouring(P, 2, (1, 2, 1, 2, 3)), tmp_path / "c.txt")
    out = ["--out", str(tmp_path / "out")]
    argv = {
        "check": ["check", str(path), str(tmp_path / "c.txt")],
        "cover": ["cover", str(path), str(tmp_path / "c.txt")] + out,
        "enumerate": ["enumerate", str(path)] + out,
        "chromatic": ["enumerate", str(path), "--chromatic", "4"] + out,
    }[command]
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    if name == "torus":
        assert err == f"error: {path}: faces break the Euler relation: sum of (-1)^dim is -1, not 1\n"
    elif extra is not None:
        assert err == f"error: {path}: adjacent facets {extra[0]},{extra[1]} share no vertex\n"
    elif name == "pentagon":
        # a polygon's vertex rows are its adjacent pairs, so the deleted
        # row's pair is an adjacency that no vertex shows
        assert err == f"error: {path}: adjacent facets 0,1 share no vertex\n"
    else:
        v = P.vertices[0]
        edges = [v[:i] + v[i + 1:] for i in range(len(v))]
        assert any(
            err == f"error: {path}: edge {e} does not lie on exactly two vertices (1 found)\n"
            for e in edges
        )


def test_chromatic_enumerate_builds_one_edge_table(tmp_path, z120, monkeypatch, capsys):
    # the reader's check and the symmetry engine read the same table; the
    # reader's module is patched too, should it hold its own reference
    builds = []
    real = polytopes._edge_flips

    def counting(P):
        builds.append(len(P.vertices))
        return real(P)

    monkeypatch.setattr(polytopes, "_edge_flips", counting)
    monkeypatch.setattr(fileio, "_edge_flips", counting, raising=False)
    polytopes.symmetry_generators.cache_clear()
    path = tmp_path / "120cell.json"
    write_polytope(z120, path)
    code = main(["enumerate", str(path), "--chromatic", "5", "--out", str(tmp_path / "out")])
    assert code == EXIT_OK
    assert "10 colouring(s) up to renaming, 1 up to symmetry" in capsys.readouterr().out
    assert builds == [600]


@pytest.mark.parametrize("chromatic", [[], ["--chromatic", "4"]])
def test_enumerate_rejects_a_disconnected_vertex_graph(tmp_path, capsys, chromatic):
    path = tmp_path / "tetrahedra.json"
    write_polytope(two_tetrahedra(), path)
    code = main(["enumerate", str(path), "--out", str(tmp_path / "out")] + chromatic)
    assert code == EXIT_USAGE
    assert "vertex graph is disconnected" in capsys.readouterr().err


def _set_facets(obj, value):
    obj["facets"] = value


def _set_entry(key, k, value):
    def edit(obj):
        obj[key][k] = value

    return edit


@pytest.mark.parametrize(
    "edit",
    [
        lambda obj: _set_facets(obj, "abcde"),
        lambda obj: _set_facets(obj, [0, 1, 2, 3, 4]),
        _set_entry("adjacency", 0, [0, 1, 2]),
        _set_entry("adjacency", 0, [0]),
        _set_entry("adjacency", 0, [0, 1.0]),
        _set_entry("adjacency", 0, [0, True]),
        _set_entry("adjacency", 0, "01"),
        _set_entry("vertices", 0, [0, 1.0]),
        _set_entry("vertices", 0, [False, 1]),
        lambda obj: obj.update(dimension=2.0),
        lambda obj: obj.update(vertices={"0": [0, 1]}),
        lambda obj: obj.pop("adjacency"),
    ],
    ids=[
        "facets-string", "facets-ints", "adjacency-triple", "adjacency-single",
        "adjacency-float", "adjacency-bool", "adjacency-string", "vertex-float",
        "vertex-bool", "dimension-float", "vertices-object", "adjacency-missing",
    ],
)
def test_enumerate_rejects_a_malformed_polytope_file(tmp_path, pentagon, capsys, edit):
    path = tmp_path / "bad.json"
    write_polytope(pentagon, path)
    obj = json.loads(path.read_text(encoding="utf-8"))
    edit(obj)
    path.write_text(json.dumps(obj), encoding="utf-8")
    code = main(["enumerate", str(path), "--out", str(tmp_path / "out")])
    assert code == EXIT_USAGE
    assert str(path) in capsys.readouterr().err


def test_enumerate_writes_class_files(tmp_path, pentagon, capsys):
    write_polytope(pentagon, tmp_path / "p.json")
    code = main(["enumerate", str(tmp_path / "p.json"), "--out", str(tmp_path)])
    assert code == EXIT_OK
    assert "1 class(es): 0 orientable, 1 non-orientable; complete" in capsys.readouterr().out
    summary = json.loads((tmp_path / "enumeration-summary.json").read_text("utf-8"))
    assert summary["classes"] == 1
    assert summary["automorphism_orders"] == [2]
    lam = load_colouring(pentagon, tmp_path / "class-000.txt")
    assert isinstance(lam, Colouring)


# sha256 of each file `racover enumerate dodecahedron.json` writes, but its
# manifest, which records wall time
CENSUS_DIGESTS = {
    "class-000.txt": "67a43d72a0f33e9a6db33a79cb40293a23e48cf981a94846f08fef44a41827f8",
    "class-001.txt": "8e4a76186c34edb786075496a698890b373a6a0546969ab78e58a1bb9396721c",
    "class-002.txt": "49dd72bedbb113f76b34d89aa3fe6327c5602a0ee929dd0c15857f5feec6d040",
    "class-003.txt": "bace2015c76e97d761429e352e9ca0db5a87f966ca71ae05d123204a1f4307a5",
    "class-004.txt": "09265a1e783206a657d59c0485ff0d5ddf170f6a386a03b248318568f8216e5c",
    "class-005.txt": "0898cd01476b7bc6b1bd08261ae4b5698354b17448b7c3cdb590ce706047c877",
    "class-006.txt": "931c4b17a5fd87480f6c2ec89c2661b54f3cca4fc7a9ea56a124a4c44641eeee",
    "class-007.txt": "cabdbee90f7560ee173d9f7780fbfbce0301031b1f48712b2f073a8a0b1d1296",
    "class-008.txt": "d6d852b99228e2c384d4ba2c5ed4a247ae579650a40a9907d26f81fcf2e1d9f9",
    "class-009.txt": "6e5322b4655ba8905d726345373b88b44275b093c05000435d13e93f970fb597",
    "class-010.txt": "120b9c54fc35c55f74173f7c7d5f76bbe36ed89c8987aacc4b298294fbb034bb",
    "class-011.txt": "c83c6380b20230d1264641652f3430445944b6769f643d1a8604375a7f91b85c",
    "class-012.txt": "5ea833dab8897d5eb9aa7e45b1b11c83ec66e03243f7703411c8580f3f091ffe",
    "class-013.txt": "93eb4937e078f953c76f9b46febdcd5a7abababaf259d6262a516a2babe33c96",
    "class-014.txt": "4687fcc87bc1c339f612cdb568d8d7b3e55c506569d77ad47e6c0dd8d972625b",
    "class-015.txt": "fc850343ed33d51a269cdfad8668de6cf88ef5d658cdef8c81450427a305bb6f",
    "class-016.txt": "1d887b07c5cf4c310519bd65aa40c83dbed496e98a7c71afe4885aefe0eb7f40",
    "class-017.txt": "74d7536af3fdc4e9b0104595ceeaea16b7c9812254acfcfa232df04ac8e1d38f",
    "class-018.txt": "3436bdbdeff27c69b119f150c3bd5844274f290542f5bdf0ea4ff9e2bf09608e",
    "class-019.txt": "cc4f77cc6f71c4fa5c596dd97c3e2d5f6fbfd836e8972995d2076e9f45f1d46d",
    "class-020.txt": "4a207d87923bde32d39d603376f7692f37dc584ccf41545721f684f1554d4169",
    "class-021.txt": "975d7e8d4d6ebbba058162e933d9ce848ea1b617a1519256cb2478e605b6fa25",
    "class-022.txt": "025de2ad091d986823995884ef9519108ec4073a4985ec4fa7747ed087759d17",
    "class-023.txt": "c6b1303cd76d6eb377c877faf7131f197b527ddf950cffc1d7fbb1bc3ced4faf",
    "class-024.txt": "25189dae2c77f279c6d6de25e14f94ef052c12e244a55abe8225f5b7024b4f29",
    "enumeration-summary.json": "109526f99d594fae305d19d889094a71980c5ab90a2896b828410d3956f06a01",
}


def test_census_bytes_are_pinned(tmp_path):
    assert main(["generate", "dodecahedron", "--out", str(tmp_path)]) == EXIT_OK
    out = tmp_path / "census"
    assert main(["enumerate", str(tmp_path / "dodecahedron.json"), "--out", str(out)]) == EXIT_OK
    files = _output_files(out)
    assert {name: hashlib.sha256(data).hexdigest() for name, data in files.items()} == CENSUS_DIGESTS


def test_enumerate_chromatic_summary(tmp_path, pentagon, capsys):
    write_polytope(pentagon, tmp_path / "p.json")
    code = main([
        "enumerate", str(tmp_path / "p.json"), "--chromatic", "3",
        "--out", str(tmp_path),
    ])
    assert code == EXIT_OK
    assert "5 colouring(s) up to renaming, 1 up to symmetry" in capsys.readouterr().out
    summary = json.loads((tmp_path / "chromatic-summary.json").read_text("utf-8"))
    assert summary["count"] == 5
    assert summary["orbit_count"] == 1
    assert summary["complete"] is True
    assert len(summary["representatives"]) == 5
    for name in summary["representatives"]:
        assert (tmp_path / name).exists()


def test_enumerate_chromatic_on_a_ten_summand_chain(tmp_path, capsys):
    # the ambient chain has 1 074 facets, one search depth each
    assert main(["certify", "--n", "10", "--out", str(tmp_path / "cert")]) == EXIT_OK
    capsys.readouterr()
    code = main([
        "enumerate", str(tmp_path / "cert" / "ambient.json"), "--chromatic", "5",
        "--budget-nodes", "100000", "--out", str(tmp_path / "chromatic"),
    ])
    assert code == EXIT_OK
    assert capsys.readouterr().out.endswith(
        "10 colouring(s) up to renaming, 1 up to symmetry; complete\n"
    )


def test_enumerate_chromatic_below_the_dimension_is_a_usage_error(tmp_path, dodecahedron, capsys):
    write_polytope(dodecahedron, tmp_path / "d.json")
    code = main(["enumerate", str(tmp_path / "d.json"), "--chromatic", "2", "--out", str(tmp_path)])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == "error: 2 colours cannot colour a 3-polytope (clique bound)\n"


def test_extend_finds_an_extension(tmp_path, z120, census, capsys):
    write_colouring(census.classes[0].colouring, tmp_path / "class.txt")
    code = main(["extend", str(tmp_path / "class.txt"), "--out", str(tmp_path)])
    assert code == EXIT_OK
    assert "found: extension.txt" in capsys.readouterr().out
    summary = json.loads((tmp_path / "extension-summary.json").read_text("utf-8"))
    assert summary["status"] == "found"
    assert summary["rank"] == 5
    lam = load_colouring(z120, tmp_path / "extension.txt")
    assert lam.rank == 5


def test_extend_on_an_improper_class_is_a_finding(tmp_path, capsys):
    path = tmp_path / "class.txt"
    path.write_text("rank 3\n" + "1\n" * 12, encoding="utf-8")
    assert main(["extend", str(path), "--out", str(tmp_path)]) == EXIT_FINDING
    assert capsys.readouterr().err == f"finding: {path}: facet colouring is not proper\n"
    # a class of another rank stays a usage error
    path.write_text("rank 2\n" + "1\n" * 12, encoding="utf-8")
    assert main(["extend", str(path), "--out", str(tmp_path)]) == EXIT_USAGE
    assert "facet colouring must have rank 3" in capsys.readouterr().err


def test_a_deeply_nested_polytope_file_is_a_file_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
    assert main(["enumerate", str(path), "--out", str(tmp_path)]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith(f"error: {path}: maximum recursion depth")


def test_extend_matches_extend_class(tmp_path, z120, census):
    write_colouring(census.classes[0].colouring, tmp_path / "class.txt")
    code = main(["extend", str(tmp_path / "class.txt"), "--out", str(tmp_path)])
    assert code == EXIT_OK
    outcome = extend_class(select_class(census, "index:0"))
    summary = json.loads((tmp_path / "extension-summary.json").read_text("utf-8"))
    assert summary["seed_facet"] == 0
    assert summary["nodes"] == outcome.nodes
    lam = load_colouring(z120, tmp_path / "extension.txt")
    assert (lam.rank, lam.colours) == (outcome.colouring.rank, outcome.colouring.colours)


def test_extend_budget_out_keeps_exit_zero(tmp_path, census, capsys):
    write_colouring(census.classes[0].colouring, tmp_path / "class.txt")
    code = main([
        "extend", str(tmp_path / "class.txt"), "--budget-nodes", "50",
        "--out", str(tmp_path),
    ])
    assert code == EXIT_OK
    assert "budget-out after" in capsys.readouterr().out
    summary = json.loads((tmp_path / "extension-summary.json").read_text("utf-8"))
    assert summary["status"] == "budget-out"
    assert not (tmp_path / "extension.txt").exists()


@pytest.mark.parametrize("facet", ["120", "-1"])
def test_extend_from_a_facet_outside_the_120cell_is_a_usage_error(tmp_path, census, capsys, facet):
    write_colouring(census.classes[0].colouring, tmp_path / "class.txt")
    code = main([
        "extend", str(tmp_path / "class.txt"), "--seed-facet", facet, "--out", str(tmp_path),
    ])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == f"error: no facet {facet}\n"


def test_cover_summary_output(tmp_path, dodecahedron, census, capsys):
    write_polytope(dodecahedron, tmp_path / "d.json")
    write_colouring(census.classes[24].colouring, tmp_path / "c.txt")
    code = main([
        "cover", str(tmp_path / "d.json"), str(tmp_path / "c.txt"),
        "--out", str(tmp_path),
    ])
    assert code == EXIT_OK
    assert "8 copies, chi 0" in capsys.readouterr().out
    summary = json.loads((tmp_path / "cover-summary.json").read_text("utf-8"))
    assert summary["copies"] == 8
    assert summary["orientable"] is False
    assert set(summary["facet_preimage_pieces"]) == set(dodecahedron.facet_labels)


def test_cover_rejects_partial_colourings(tmp_path, pentagon, capsys):
    write_polytope(pentagon, tmp_path / "p.json")
    (tmp_path / "c.txt").write_text("rank 2\n1\n-\n1\n2\n-\n", encoding="utf-8")
    code = main([
        "cover", str(tmp_path / "p.json"), str(tmp_path / "c.txt"),
        "--out", str(tmp_path),
    ])
    assert code == EXIT_USAGE


@pytest.mark.parametrize("k", [3, 4, 5])
def test_cover_says_why_a_small_polygon_has_no_volume(tmp_path, capsys, k):
    # a right-angled k-gon has area (k - 4)*pi/2, so it needs 5 edges
    P = make_polygon(k)
    write_polytope(P, tmp_path / "p.json")
    write_colouring(Colouring(P, 2, tuple([1, 2] * (k // 2) + [3] * (k % 2))), tmp_path / "c.txt")
    code = main([
        "cover", str(tmp_path / "p.json"), str(tmp_path / "c.txt"), "--out", str(tmp_path / "out"),
    ])
    out, err = capsys.readouterr()
    if k == 5:
        assert code == EXIT_OK
        assert "volume (2)*pi" in out
    else:
        assert code == EXIT_FINDING
        assert err == f"finding: a right-angled {k}-gon is not hyperbolic (it needs at least 5 edges)\n"


def test_certify_writes_a_passing_certificate(tmp_path, capsys):
    code = main(["certify", "--n", "1", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "PASS (18/18 checks)" in out
    assert (tmp_path / "certificate.json").exists()
    m = _manifest(tmp_path)
    assert m["command"] == "certify"
    assert m["result_digest"]


def test_certify_reports_a_broken_natural_map_as_a_finding(tmp_path, capsys, monkeypatch):
    # a wrong merged-facet map is a failed check in a written certificate
    # (exit 1), not an error before anything is written (exit 2)
    real = pipeline._natural_map

    def swapped(*args):
        nat = list(real(*args))
        nat[0], nat[1] = nat[1], nat[0]
        return tuple(nat)

    monkeypatch.setattr(pipeline, "_natural_map", swapped)
    assert main(["certify", "--n", "1", "--out", str(tmp_path)]) == EXIT_FINDING
    out = capsys.readouterr().out
    assert (
        "[FAIL] long-facet-subpolytope: PolytopeError: facet map breaks the vertex family" in out
    )
    assert "[FAIL] induced-colouring" in out
    assert out.endswith("FAIL (16/18 checks)\n")
    stored = json.loads((tmp_path / "certificate.json").read_text(encoding="utf-8"))
    failed = [c["name"] for c in stored["checks"] if not c["passed"]]
    assert failed == ["long-facet-subpolytope", "induced-colouring"]


def test_certify_budget_out_is_a_finding(tmp_path, capsys):
    code = main(["certify", "--n", "1", "--budget-nodes", "1", "--out", str(tmp_path)])
    assert code == EXIT_FINDING
    assert capsys.readouterr().err == (
        "budget exhausted: extension search stopped after 2 nodes\n"
    )
    assert not (tmp_path / "certificate.json").exists()


def test_readme_extend_example(tmp_path, monkeypatch, capsys):
    # the README's own commands, so a change to the search tree shows here
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("RACOVER_OUT", raising=False)
    assert main(["generate", "dodecahedron"]) == EXIT_OK
    assert main(["enumerate", "dodecahedron.json", "--out", "census"]) == EXIT_OK
    capsys.readouterr()
    assert main(["extend", "census/class-000.txt", "--out", "ext"]) == EXIT_OK
    assert capsys.readouterr().out == "found: extension.txt (546 nodes)\n"


@pytest.fixture(scope="module")
def cert1_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cert1")
    assert main(["certify", "--n", "1", "--out", str(out)]) == EXIT_OK
    return out


@pytest.fixture(scope="module")
def cert3_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cert3")
    assert main(["certify", "--n", "3", "--out", str(out)]) == EXIT_OK
    return out


def _cert_copy(cert1_dir, tmp_path):
    target = tmp_path / "cert"
    shutil.copytree(cert1_dir, target)
    return target


def _edit_checks(cert_dir, index):
    """Flip the recorded outcome of one stored check."""
    path = cert_dir / "certificate.json"
    obj = json.loads(path.read_text(encoding="utf-8"))
    obj["checks"][index]["passed"] = not obj["checks"][index]["passed"]
    path.write_text(json.dumps(obj), encoding="utf-8")


def test_verify_accepts_a_written_certificate(cert1_dir, capsys):
    assert main(["verify", str(cert1_dir)]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith(f"certificate: {cert1_dir / 'certificate.json'}\n")
    assert out.endswith("PASS (18/18 checks)\n")


def test_verify_flags_a_flipped_check(cert1_dir, tmp_path, capsys):
    target = _cert_copy(cert1_dir, tmp_path)
    _edit_checks(target, 7)
    assert main(["verify", str(target)]) == EXIT_FINDING
    assert "re-validation disagrees" in capsys.readouterr().err


def test_verify_flags_a_recorded_failure(cert1_dir, tmp_path, capsys, monkeypatch):
    # a certificate whose stored and re-run checks agree on one failure
    target = _cert_copy(cert1_dir, tmp_path)
    _edit_checks(target, 7)
    real = pipeline.run_checks

    def failing_run_checks(*args):
        checks = real(*args)
        failed = dataclasses.replace(checks[7], passed=False)
        return checks[:7] + (failed,) + checks[8:]

    monkeypatch.setattr(pipeline, "run_checks", failing_run_checks)
    assert main(["verify", str(target)]) == EXIT_FINDING
    out = capsys.readouterr().out
    assert "[FAIL] euler-characteristic" in out
    assert out.endswith("FAIL (17/18 checks)\n")


def _edit_certificate(cert_dir, edit):
    path = cert_dir / "certificate.json"
    obj = json.loads(path.read_text(encoding="utf-8"))
    edit(obj)
    path.write_text(json.dumps(obj), encoding="utf-8")


def test_verify_reads_back_the_stored_verdict_and_records(cert1_dir, tmp_path, capsys):
    # the checks still agree, but the stored verdict and cut locus do not
    target = _cert_copy(cert1_dir, tmp_path)

    def edit(obj):
        obj["passed"] = False
        obj["cut_locus"]["components"] = 99

    _edit_certificate(target, edit)
    assert main(["verify", str(target)]) == EXIT_FINDING
    out, err = capsys.readouterr()
    assert out.endswith("PASS (18/18 checks)\n")
    assert err == "finding: re-validation disagrees with the certificate at passed\n"

    _edit_certificate(target, lambda obj: obj.update(passed=True))
    assert main(["verify", str(target)]) == EXIT_FINDING
    assert "at cut_locus.components\n" in capsys.readouterr().err


@pytest.mark.parametrize(
    "keys, name",
    [
        (("cover", "euler_characteristic"), "cover.euler_characteristic"),
        (("cut", "boundary_components"), "cut.boundary_components"),
        (("volumes", 1, "cells"), "volumes[1].cells"),
    ],
)
def test_verify_names_each_tampered_record(cert1_dir, tmp_path, capsys, keys, name):
    target = _cert_copy(cert1_dir, tmp_path)

    def edit(obj):
        for key in keys[:-1]:
            obj = obj[key]
        obj[keys[-1]] += 1

    _edit_certificate(target, edit)
    assert main(["verify", str(target)]) == EXIT_FINDING
    assert capsys.readouterr().err.endswith(f"at {name}\n")


def test_verify_flags_an_edited_check_detail(cert1_dir, tmp_path, capsys):
    target = _cert_copy(cert1_dir, tmp_path)

    def edit(obj):
        obj["checks"][7]["detail"] = "chi = 0 by both computations"

    _edit_certificate(target, edit)
    assert main(["verify", str(target)]) == EXIT_FINDING
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "finding: re-validation disagrees with the certificate at checks[7].detail\n"


def test_verify_reads_back_the_notes(cert1_dir, tmp_path, capsys):
    target = _cert_copy(cert1_dir, tmp_path)
    _edit_certificate(target, lambda obj: obj["notes"].__setitem__(0, "edited"))
    assert main(["verify", str(target)]) == EXIT_FINDING
    out, err = capsys.readouterr()
    assert out.endswith("PASS (18/18 checks)\n")
    assert err == "finding: re-validation disagrees with the certificate at notes[0]\n"


@pytest.mark.parametrize(
    "edit, field",
    [
        (lambda obj: obj.__setitem__("extra", 1), "extra"),
        (lambda obj: obj["files"]["chain"].__setitem__("extra", 1), "files.chain.extra"),
        (lambda obj: obj["files"].__setitem__("extra", obj["files"]["chain"]), "files.extra"),
        (lambda obj: obj["files"]["chain"].__setitem__("path", "./chain.json"),
         "files.chain.path"),
        # data files are read at their fixed names, so this path is never opened
        (lambda obj: obj["files"]["chain"].__setitem__("path", "../missing.json"),
         "files.chain.path"),
    ],
    ids=["top-level", "in-files-chain", "files-entry", "path", "foreign-path"],
)
def test_verify_names_a_key_the_writer_does_not_write(cert1_dir, tmp_path, capsys, edit, field):
    target = _cert_copy(cert1_dir, tmp_path)
    _edit_certificate(target, edit)
    assert main(["verify", str(target)]) == EXIT_FINDING
    out, err = capsys.readouterr()
    assert out.endswith("PASS (18/18 checks)\n")
    assert err == f"finding: re-validation disagrees with the certificate at {field}\n"


@pytest.mark.parametrize(
    "edit, field",
    [
        (lambda obj: obj.pop("checks"), "checks"),
        (lambda obj: obj["checks"][0].pop("detail"), "checks[0].detail"),
    ],
    ids=["no-checks", "no-detail"],
)
def test_verify_rejects_a_certificate_with_malformed_checks(
    cert1_dir, tmp_path, capsys, edit, field
):
    # the checks are derived, so a malformed record disagrees with the re-run
    # ones, and is reported before any check is printed
    target = _cert_copy(cert1_dir, tmp_path)
    _edit_certificate(target, edit)
    assert main(["verify", str(target)]) == EXIT_FINDING
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"finding: re-validation disagrees with the certificate at {field}\n"


def test_verify_accepts_an_untampered_copy(cert1_dir, tmp_path, capsys):
    # a certificate round-tripped through the JSON parser reads back equal
    target = _cert_copy(cert1_dir, tmp_path)
    _edit_certificate(target, lambda obj: None)
    assert main(["verify", str(target)]) == EXIT_OK
    out, err = capsys.readouterr()
    assert out.endswith("PASS (18/18 checks)\n")
    assert err == ""


@pytest.mark.parametrize("damage", ["truncated", "missing"])
def test_verify_rejects_a_broken_certificate_file(cert1_dir, tmp_path, capsys, damage):
    target = _cert_copy(cert1_dir, tmp_path)
    path = target / "certificate.json"
    if damage == "truncated":
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
    else:
        path.unlink()
    assert main(["verify", str(target)]) == EXIT_USAGE
    assert "certificate.json" in capsys.readouterr().err


def test_verify_rejects_a_files_record_that_is_not_an_object(cert1_dir, tmp_path, capsys):
    target = _cert_copy(cert1_dir, tmp_path)
    _edit_certificate(target, lambda obj: obj.update(files=[]))
    assert main(["verify", str(target)]) == EXIT_USAGE
    assert "files is not an object" in capsys.readouterr().err


def test_verify_rejects_a_file_of_another_format(cert1_dir, tmp_path, capsys):
    target = _cert_copy(cert1_dir, tmp_path)
    _edit_certificate(target, lambda obj: obj.update(format="x"))
    assert main(["verify", str(target)]) == EXIT_USAGE
    assert capsys.readouterr().err == (
        f"error: {target / 'certificate.json'}: not a certificate file\n"
    )


def _swap(items, i, j):
    items[i], items[j] = items[j], items[i]


def _swap_glue_facets(steps):
    steps[0]["dodeca_facet"], steps[1]["dodeca_facet"] = (
        steps[1]["dodeca_facet"], steps[0]["dodeca_facet"]
    )


def _relabel_chain(obj, cert_dir):
    """Rename one facet of chain.json and record the edited file's digest."""
    chain = cert_dir / "chain.json"
    text = chain.read_text(encoding="utf-8").replace('"1.f0"', '"1.g0"')
    chain.write_text(text, encoding="utf-8")
    obj["files"]["chain"]["sha256"] = hashlib.sha256(chain.read_bytes()).hexdigest()


@pytest.mark.parametrize(
    "edit, field",
    [
        (lambda obj, _: obj["class"].update(index=3), "class.index"),
        (lambda obj, _: obj["class"].update(automorphisms=7), "class.automorphisms"),
        (lambda obj, _: obj["class"].update(witness=[0, 2, 4]), "class.witness[1]"),
        (lambda obj, _: obj["class"].update(glue_facet=6), "class.glue_facet"),
        (lambda obj, _: obj["class"].update(id="x"), "class.id"),
        # class 3 is re-selected, and its index is the first field to differ
        (lambda obj, _: obj.update(policy="index:3"), "class.index"),
        (lambda obj, _: obj.update(base_facet=5), "base_facet"),
        (lambda obj, _: obj["glue_steps"][0].update(dodeca_facet=4),
         "glue_steps[0].dodeca_facet"),
        (lambda obj, _: obj["glue_steps"][0].update(z_facet=7), "glue_steps[0].z_facet"),
        (lambda obj, _: _swap_glue_facets(obj["glue_steps"]), "glue_steps[0].dodeca_facet"),
        (lambda obj, _: obj["witness_facets"].reverse(), "witness_facets[0]"),
        (lambda obj, _: obj.update(d_facet=1), "d_facet"),
        (lambda obj, _: _swap(obj["natural_map"], 2, 3), "natural_map[2]"),
        (_relabel_chain, "files.chain.sha256"),
    ],
    ids=[
        "index", "automorphisms", "witness", "glue_facet", "id", "policy", "base_facet",
        "glue-dodeca-facet", "glue-z-facet", "glue-steps-swapped", "witness-facets-reordered",
        "d-facet", "natural-map-swapped", "chain-relabelled",
    ],
)
def test_verify_re_derives_the_class_and_base_facet(cert3_dir, tmp_path, capsys, edit, field):
    target = _cert_copy(cert3_dir, tmp_path)
    _edit_certificate(target, lambda obj: edit(obj, target))
    assert main(["verify", str(target)]) == EXIT_FINDING
    out, err = capsys.readouterr()
    # the chains are rebuilt from the class, so it is compared before any check runs
    assert (out == "") if field.startswith("class.") else out.endswith("PASS (18/18 checks)\n")
    assert err == f"finding: re-validation disagrees with the certificate at {field}\n"


@pytest.mark.parametrize("n", [10**6, 2])
def test_verify_bounds_the_rebuild_by_the_ambient_colouring(cert1_dir, tmp_path, capsys, n):
    # unbounded, n = 10**6 would glue 10**6 120-cells before any check
    target = _cert_copy(cert1_dir, tmp_path)
    _edit_certificate(target, lambda obj: obj.update(n=n))
    start = time.perf_counter()
    assert main(["verify", str(target)]) == EXIT_USAGE
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert f"certificate.json: n {n} does not fit the 120 colours of" in err


@pytest.mark.parametrize(
    "policy, reason",
    [("bogus", "unknown policy 'bogus'"), ("index:5", "class 5 is orientable")],
    ids=["unknown", "orientable-class"],
)
def test_verify_rejects_a_policy_the_census_cannot_serve(
    cert1_dir, tmp_path, capsys, census, policy, reason
):
    assert census.classes[5].orientable
    target = _cert_copy(cert1_dir, tmp_path)
    _edit_certificate(target, lambda obj: obj.update(policy=policy))
    assert main(["verify", str(target)]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert f"certificate.json: policy: {reason}" in err


# certify(1) picks class 24, whose witness is (0, 1, 3)
@pytest.mark.parametrize(
    "field, value, named",
    [
        ("index", -1, "index"), ("index", 1.0, "index"), ("index", True, "index"),
        ("automorphisms", "2", "automorphisms"), ("automorphisms", -1, "automorphisms"),
        ("glue_facet", 12, "glue_facet"), ("glue_facet", -1, "glue_facet"),
        ("glue_facet", "x", "glue_facet"),
        ("witness", [0, 0, 1], "witness[1]"), ("witness", [99, 100, 101], "witness[0]"),
        ("witness", [0, 1], "witness"), ("witness", [0, 1, True], "witness[2]"),
        ("witness", "012", "witness"),
        ("id", 123, "id"),
    ],
    ids=[
        "index--1", "index-1.0", "index-True", "automorphisms-2", "automorphisms--1",
        "glue_facet-12", "glue_facet--1", "glue_facet-x", "witness-value8", "witness-value9",
        "witness-value10", "witness-value11", "witness-012", "id-123",
    ],
)
def test_verify_rejects_a_malformed_class_record(
    cert1_dir, tmp_path, capsys, field, value, named
):
    # the class record is derived: a value of the wrong kind or out of range
    # disagrees with the re-selected class, before anything is rebuilt
    target = _cert_copy(cert1_dir, tmp_path)
    _edit_certificate(target, lambda obj: obj["class"].update({field: value}))
    assert main(["verify", str(target)]) == EXIT_FINDING
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"finding: re-validation disagrees with the certificate at class.{named}\n"


def test_certify_rejects_a_malformed_policy(tmp_path, capsys):
    code = main(["certify", "--n", "1", "--policy", "loudest", "--out", str(tmp_path)])
    assert code == EXIT_USAGE
    # int() would read each of these as class 22
    for policy in ["index:+2_2", "index: 22", "index:22 ", "index:+22", "index:\u0662\u0662"]:
        code = main(["certify", "--n", "1", "--policy", policy, "--out", str(tmp_path)])
        assert code == EXIT_USAGE
        assert f"malformed policy {policy!r}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, field, value",
    [
        ("--budget-nodes", "nodes", "0"),
        ("--budget-seconds", "seconds", "0"),
        # NaN compares false with every clock reading, so it would turn the
        # wall-clock budget off
        ("--budget-seconds", "seconds", "nan"),
    ],
    ids=["nodes", "seconds", "seconds-nan"],
)
def test_bad_budget_is_a_usage_error(tmp_path, census, capsys, flag, field, value):
    write_colouring(census.classes[0].colouring, tmp_path / "class.txt")
    code = main([
        "extend", str(tmp_path / "class.txt"), flag, value,
        "--out", str(tmp_path),
    ])
    assert code == EXIT_USAGE
    assert field in capsys.readouterr().err
