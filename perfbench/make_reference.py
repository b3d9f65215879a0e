"""Record the reference answers the benchmark's gate compares against.

    PYTHONPATH=src python3 perfbench/make_reference.py

Run it on the program version the benchmark was defined on; it rewrites
perfbench/reference.json.  It records the dodecahedral census (also the
extend workload's input classes), the chromatic counts, the rank-4
status and node count of every class at every facet in EXTEND_FACETS,
the chain workload's class policies, and the digests of the default
seed's certificate files.
"""
import json
import shutil
import sys
from pathlib import Path

import workloads as w
from racover import colouring, fileio, pipeline, polytopes, search


def main() -> int:
    D = polytopes.make_dodecahedron()
    Z = polytopes.make_120cell()
    census = search.enumerate_small_covers(D)
    ref = {
        "census": [
            {"colours": list(r.colouring.colours), "orientable": r.orientable,
             "automorphisms": r.automorphisms}
            for r in census.classes
        ],
        "classify": {
            "classes": len(census.classes),
            "orientable": sum(r.orientable for r in census.classes),
            "automorphism_orders": sorted(r.automorphisms for r in census.classes),
            "chromatic": {},
        },
        "extend": {},
        "chain": {
            "policies": ["max-symmetry"] + [
                f"index:{k}" for k, r in enumerate(census.classes) if not r.orientable
            ],
            "digests": {},
        },
    }
    for name, P, k in (("dodecahedron", D, 4), ("120-cell", Z, 5)):
        r = search.enumerate_chromatic_colourings(P, k)
        ref["classify"]["chromatic"][name] = [r.count, r.orbit_count]
    budget = w.rank4_budget(w.FULL)
    for facet in w.EXTEND_FACETS:
        sub, _ = polytopes.facet_subpolytope(Z, facet)
        psi = polytopes.find_isomorphism(sub, D)
        rec = {"status": {}, "nodes": {}, "rank5_nodes": {}}
        for k, lam, orientable in w.census_classes(ref, D):
            if orientable:
                continue
            mu = colouring.Colouring(sub, 3, tuple(lam.colours[psi[j]] for j in range(12)))
            o5 = search.search_orientable_extension(Z, search.seed_from_facet(Z, facet, mu, 5))
            o4 = search.search_orientable_extension(
                Z, search.seed_from_facet(Z, facet, mu, 4), budget)
            rec["status"][str(k)] = o4.status
            rec["nodes"][str(k)] = o4.nodes
            rec["rank5_nodes"][str(k)] = o5.nodes
        ref["extend"][str(facet)] = rec
        print(f"facet {facet}: {sorted(set(rec['status'].values()))}", file=sys.stderr)
    tmp = Path(".perfbench") / "reference"
    for n in w.FULL.chain_lengths:
        out = tmp / f"cert-n{n}"
        fileio.write_certificate(pipeline.certify(n, "max-symmetry"), out)
        ref["chain"]["digests"][str(n)] = w.digests(out)
    shutil.rmtree(tmp)
    w.REFERENCE.write_text(json.dumps(ref, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
