"""Write the benchmark's job documents into perfbench/docs/.

    python3 perfbench/generate.py --seed 20261018

Each workload gets one JSON-lines file.  A line holds one job document
exactly as it is submitted to `chatelet` (`doc`) and the facts the output
checks need (`meta`).  The files are committed, so what the benchmark
measures does not move when the library changes; this script only has to be
run again to change the workloads themselves.

Generation uses the library in two places, both as a judge of inputs and
never as the source of an expected answer: unramified steps are drawn from
seeded residue-lift coefficients until the library accepts the polynomial as
irreducible, and the square class basis of the dyadic base fields is the
one the library reports.  Everything the checks compare against is derived
here from first principles or left to the checks themselves.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from chatelet.groups import (  # noqa: E402
    FiniteGroup,
    Subgroup,
    all_subgroups,
    cyclic_group,
    dihedral_group,
    quaternion_group,
    symmetric_group,
)
from chatelet.intmat import IntMatrix  # noqa: E402
from chatelet.modules import (  # noqa: E402
    GModule,
    GModuleMap,
    direct_sum,
    equivariant_hom_basis,
    hom_module,
    permutation_module,
    restrict_module,
    trivial_module,
)
from chatelet.padic import LocalField, square_class_group  # noqa: E402

DOCS = HERE / "docs"
WORKLOADS = ("local-verdicts", "group-cohomology", "snf-dense")


def _doc(job: dict) -> dict:
    return {"version": 1, "jobs": [job]}


# -- local-verdicts -----------------------------------------------------------


def _field_spec(p: int, steps: list) -> dict:
    return {"p": p, "steps": steps}


def _unramified_step(rng, field, lifts, degree):
    """A seeded draw of residue-lift coefficients that the library accepts as
    an unramified step; returns the JSON step."""
    for _ in range(5000):
        picks = [rng.choice(lifts) for _ in range(degree)]
        try:
            field.extend_unramified([value for _, value in picks])
        except ValueError:
            continue
        return {"kind": "unramified", "poly": [text for text, _ in picks]}
    raise RuntimeError("found no irreducible residue polynomial")


def _residue_lifts(field, gen_name):
    """(expression, element) for every lift of the residue field, which is
    the prime field or generated by the field's unramified generator."""
    p = field.p
    if field.residue_degree == 1:
        return [(a, field.integer(a)) for a in range(p)]
    g = field.gen(0)
    return [(f"{a} + {b}*{gen_name}", field.integer(a) + field.integer(b) * g)
            for a in range(p) for b in range(p)]


def _legendre(a: int, p: int) -> int:
    a %= p
    return 0 if a == 0 else (1 if pow(a, (p - 1) // 2, p) == 1 else -1)


def _odd_basis(p: int, base_kind: str, steps: list):
    """Square class basis [uniformizer, nonsquare unit] of an odd-p base
    field, with the valuation and residue-square flag of each vector."""
    if base_kind == "unramified-quadratic":
        c0, c1 = steps[0]["poly"]
        # N(t1 + c) = c^2 - c1 c + c0; t1 + c is a residue square exactly
        # when its norm to F_p is a square
        c = next(c for c in range(p) if _legendre(c * c - c1 * c + c0, p) == -1)
        unit = f"t1 + {c}"
        pi = str(p)
    else:
        unit = str(next(a for a in range(2, p) if _legendre(a, p) == -1))
        pi = "t1" if base_kind == "ramified-quadratic" else str(p)
    return pi, [pi, unit]


def local_verdicts(rng: random.Random) -> list:
    entries = []
    roots = ["1", "2", "3", "4"]
    for p in (2, 3, 5):
        qp = LocalField.qp(p)
        unr_step = _unramified_step(rng, qp, _residue_lifts(qp, ""), 2)
        bases = [
            ("base", []),
            ("ramified-quadratic", [{"kind": "eisenstein", "poly": [-p, 0]}]),
            ("unramified-quadratic", [unr_step]),
        ]
        for base_kind, base_steps in bases:
            K = qp
            if base_steps:
                K = (qp.extend_eisenstein([-p, 0]) if base_kind == "ramified-quadratic"
                     else qp.extend_unramified(base_steps[0]["poly"]))
            gen_name = f"t{len(base_steps)}"
            if p == 2:
                pi = "t1" if base_kind == "ramified-quadratic" else "2"
                basis = [b.as_string() for b in square_class_group(K)]
            else:
                pi, basis = _odd_basis(p, base_kind, base_steps)
            lifts = _residue_lifts(K, gen_name)
            neg_pi = f"-({pi})"

            towers = []
            unr2 = None
            for degree in (2, 3, 4):
                step = _unramified_step(rng, K, lifts, degree)
                if degree == 2:
                    unr2 = step
                towers.append((f"unramified-{degree}", [step], 1, degree))
                towers.append((f"eisenstein-{degree}",
                               [{"kind": "eisenstein", "poly": [neg_pi] + [0] * (degree - 1)}],
                               degree, 1))
            towers.append(("mixed-4", [unr2, {"kind": "eisenstein", "poly": [neg_pi, 0]}], 2, 2))

            base_spec = _field_spec(p, base_steps)
            k = len(basis)
            masks = list(range(1, 2 ** k))
            d_text = {m: "*".join(f"({basis[i]})" for i in range(k) if m >> i & 1)
                      for m in masks}
            for m in masks:
                v = ures = None
                if p != 2:
                    v = m & 1          # bit 0 is the uniformizer
                    ures = not m >> 1 & 1  # bit 1 is the nonsquare unit
                for tower_kind, tower_steps, e, f in towers:
                    job = {"type": "analyze",
                           "surface": {"base": base_spec, "d": d_text[m], "roots": roots},
                           "extension": _field_spec(p, base_steps + tower_steps)}
                    meta = {"kind": "analyze", "p": p, "base": base_kind,
                            "base_degree": K.degree, "tower": tower_kind,
                            "e": e, "f": f, "mask": m, "v": v, "ures": ures,
                            "root_of_pi": tower_kind in ("eisenstein-2", "eisenstein-4",
                                                         "mixed-4")}
                    entries.append((_doc(job), meta))
            elements = [d_text[m] for m in masks] + ["1", pi, f"({d_text[masks[-1]]})^2"]
            elem_masks = masks + [0, None, 0]
            job = {"type": "square-class", "field": base_spec, "elements": elements}
            meta = {"kind": "square-class", "p": p, "base": base_kind,
                    "base_degree": K.degree, "basis_size": k, "masks": elem_masks,
                    "pi_index": len(masks) + 1,
                    "valuations": ([m & 1 for m in masks] + [0, 1, 2 * (masks[-1] & 1)]
                                   if p != 2 else None)}
            entries.append((_doc(job), meta))
    return entries


# -- group-cohomology ------------------------------------------------------------


def _table_groups():
    """Explicit multiplication tables: abelian products in mixed radix and a
    relabelled S3."""
    out = []
    for orders in ((2, 2), (3, 3), (2, 4), (2, 2, 2), (2, 6)):
        size = 1
        for o in orders:
            size *= o

        def digits(x, orders=orders):
            ds = []
            for o in orders:
                ds.append(x % o)
                x //= o
            return ds

        def encode(ds, orders=orders):
            x, scale = 0, 1
            for d, o in zip(ds, orders):
                x += d * scale
                scale *= o
            return x

        table = [[encode([(a + b) % o for a, b, o in zip(digits(x), digits(y), orders)])
                  for y in range(size)] for x in range(size)]
        out.append((f"table-{'x'.join(map(str, orders))}", table))
    perms = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1), (2, 1, 0), (1, 0, 2)]
    order = [3, 0, 5, 1, 4, 2]  # element i of the table is perms[order[i]]
    pos = {perms[j]: i for i, j in enumerate(order)}
    table = [[pos[tuple(perms[order[x]][perms[order[y]][k]] for k in range(3))]
              for y in range(6)] for x in range(6)]
    out.append(("table-S3", table))
    return out


def _library_group(spec):
    kind = spec["kind"]
    if kind == "cyclic":
        return cyclic_group(spec["n"])
    if kind == "dihedral":
        return dihedral_group(spec["n"])
    if kind == "symmetric":
        return symmetric_group(spec["n"])
    if kind == "quaternion":
        return quaternion_group()
    return FiniteGroup(spec["table"])


def _explicit(module: GModule) -> dict:
    spec = {"kind": "explicit", "rank": module.rank,
            "action": [[list(r) for r in module.act(g).rows] for g in module.group.elements()]}
    if module.relations:
        spec["relations"] = [list(r) for r in module.relations]
    return spec


def _sign_module(G, K: Subgroup, modulus: int, rank: int) -> GModule:
    """(Z/modulus)^rank on which elements outside K act as -1 (rank one) or
    by swapping the two coordinates (rank two)."""
    mats = []
    for g in G.elements():
        inside = K.contains(g)
        if rank == 1:
            mats.append(IntMatrix([[1 if inside else -1]]))
        else:
            mats.append(IntMatrix([[1, 0], [0, 1]] if inside else [[0, 1], [1, 0]]))
    relations = [tuple(modulus if i == j else 0 for j in range(rank)) for i in range(rank)]
    return GModule(G, rank, relations, mats, name="sign")


def _h1_jobs(rng: random.Random) -> list:
    groups = [({"kind": "cyclic", "n": n}, f"C{n}") for n in (2, 3, 4, 5, 6, 8, 9, 10, 12)]
    groups += [({"kind": "dihedral", "n": n}, f"D{n}") for n in (3, 4, 5, 6)]
    groups += [({"kind": "quaternion"}, "Q8"), ({"kind": "symmetric", "n": 4}, "S4")]
    groups += [({"kind": "table", "table": t}, name) for name, t in _table_groups()]
    torsion = [[[2]], [[3]], [[4]], [[6]], [[2, 0], [0, 4]], [[3, 0], [0, 3]]]
    entries = []

    def add(gspec, gname, mspec, mkind, degree, sub):
        job = {"type": "h1", "group": gspec, "module": mspec, "degree": degree}
        if sub is not None:
            job["subgroup"] = list(sub)
        meta = {"kind": "h1", "group": gname, "module": mkind, "degree": degree}
        entries.append((_doc(job), meta))

    for gspec, gname in groups:
        G = _library_group(gspec)
        proper = [s.elements for s in all_subgroups(G) if 1 < s.order < G.order]
        # trivial coefficients with torsion, both degrees, with and without a
        # subgroup
        for degree in (0, 1):
            rels = rng.choice(torsion)
            mspec = {"kind": "trivial", "rank": len(rels), "relations": rels}
            add(gspec, gname, mspec, "trivial", degree, None)
            if proper:
                rels = rng.choice(torsion)
                mspec = {"kind": "trivial", "rank": len(rels), "relations": rels}
                add(gspec, gname, mspec, "trivial", degree, rng.choice(proper))
        # the regular module, whose cohomology Shapiro's lemma fixes: degree
        # one with a subgroup (S4: one subgroup of every proper order) and
        # degree zero without
        if gname == "S4":
            orders = sorted({len(members) for members in proper})
            for order in orders:
                members = rng.choice([s for s in proper if len(s) == order])
                add(gspec, gname, {"kind": "regular"}, "regular", 1, members)
        else:
            add(gspec, gname, {"kind": "regular"}, "regular", 1,
                rng.choice(proper) if proper else None)
        add(gspec, gname, {"kind": "regular"}, "regular", 0, None)
        # explicit finite modules twisted by an index-two subgroup
        index2 = [s for s in all_subgroups(G) if s.index == 2]
        if index2:
            for rank in (1, 2):
                modulus = rng.choice((3, 4)) if rank == 1 else 2
                M = _sign_module(G, rng.choice(index2), modulus, rank)
                add(gspec, gname, _explicit(M), "explicit", rng.choice((0, 1)),
                    rng.choice(proper) if proper and rng.random() < 0.5 else None)
    return entries


# The two sound families of the commuting-square check: a comparison map
# equivariant over the whole group, or a target killed by the subgroup index
# with the index coprime to the subgroup order.


def _coset_permutation_module(G, H):
    reps = H.left_coset_reps()
    perms = [tuple(H.coset_of(G.mul(g, r)) for r in reps) for g in G.elements()]
    return permutation_module(G, perms, name="cosets")


def _module_pool(G, rng):
    subs = all_subgroups(G)
    pool = [trivial_module(G),
            trivial_module(G, relations=[(rng.choice([2, 3, 4]),)]),
            trivial_module(G, rank=2, relations=[(2, 0)])]
    proper = [s for s in subs if 1 < s.index <= 4]
    if proper:
        pool.append(_coset_permutation_module(G, rng.choice(proper)))
    index2 = [s for s in subs if s.index == 2]
    if index2:
        K = rng.choice(index2)
        for modulus in (0, 4):
            mats = [IntMatrix([[1 if K.contains(g) else -1]]) for g in G.elements()]
            pool.append(GModule(G, 1, [(modulus,)] if modulus else (), mats,
                                name="sign", check=False))
    return pool


def _random_module(G, rng, max_rank=2):
    pool = _module_pool(G, rng)
    choice = rng.random()
    if choice < 0.55:
        M = rng.choice(pool)
    elif choice < 0.85:
        M = direct_sum(rng.choice(pool), rng.choice(pool))
    else:
        small = [m for m in pool if m.rank == 1]
        M = hom_module(rng.choice(small), rng.choice(small))
    if M.rank > max_rank or M.rank == 0:
        # the CLI takes modules of rank one or more
        M = rng.choice(pool)
    return M


def _combination(basis, rows, cols, rng):
    matrix = IntMatrix.zeros(rows, cols)
    for b in basis:
        matrix = matrix + b.scale(rng.randint(-2, 2))
    return matrix


def _ext_jobs(rng: random.Random, count: int) -> list:
    entries = []
    for i in range(count):
        if i % 2 == 0:
            family = "equivariant"
            gspec = rng.choice([{"kind": "cyclic", "n": 4}, {"kind": "cyclic", "n": 6},
                                {"kind": "cyclic", "n": 8}, {"kind": "cyclic", "n": 9},
                                {"kind": "dihedral", "n": 3}])
            G = _library_group(gspec)
            H = rng.choice([s for s in all_subgroups(G) if 1 < s.order < G.order])
            P, Q, R = (_random_module(G, rng) for _ in range(3))
            matrix = _combination(equivariant_hom_basis(Q, R), R.rank, Q.rank, rng)
        else:
            family = "torsion-annihilated"
            gspec, members, exponent = rng.choice([
                ({"kind": "cyclic", "n": 6}, [0, 2, 4], 2),
                ({"kind": "cyclic", "n": 6}, [0, 3], 3),
                ({"kind": "dihedral", "n": 3}, None, 2)])
            G = _library_group(gspec)
            H = (Subgroup(G, members) if members is not None
                 else next(s for s in all_subgroups(G) if s.order == 3))
            P, Q = _random_module(G, rng), _random_module(G, rng)
            rank = rng.choice([1, 2])
            R = trivial_module(G, rank=rank, relations=[
                [exponent if a == b else 0 for b in range(rank)] for a in range(rank)])
            matrix = _combination(equivariant_hom_basis(restrict_module(Q, H),
                                                        restrict_module(R, H)),
                                  R.rank, Q.rank, rng)
        # the CLI validates the same map; fail here rather than in the run
        GModuleMap(restrict_module(Q, H), restrict_module(R, H), matrix)
        job = {"type": "ext-check", "group": gspec, "subgroup": list(H.elements),
               "quotient_module": _explicit(P), "sub_module": _explicit(Q),
               "push_target": _explicit(R), "push_map": [list(r) for r in matrix.rows]}
        meta = {"kind": "ext-check", "family": family, "index": H.index}
        entries.append((_doc(job), meta))
    return entries


def group_cohomology(rng: random.Random) -> list:
    return _h1_jobs(rng) + _ext_jobs(rng, 24)


# -- snf-dense --------------------------------------------------------------------


def snf_dense(rng: random.Random) -> list:
    """Dense integer matrices from 4x4 to 30x30: square and rectangular, full
    and deficient rank, entries of one or two digits."""
    entries = []
    for i in range(120):
        m = 4 + (26 * i) // 119          # sizes rise steadily from 4 to 30
        n = m if i % 2 == 0 else max(4, min(30, m + rng.choice((-6, -3, 3, 6))))
        bound = 9 if rng.random() < 0.7 else 99
        rows = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(m)]
        deficient = i % 3 == 0
        if deficient:
            # replace a few rows by differences of two others: the entries
            # stay within two digits and the rank drops
            for r in rng.sample(range(m), max(1, m // 8)):
                a, b = rng.sample([x for x in range(m) if x != r], 2)
                rows[r] = [x - y for x, y in zip(rows[a], rows[b])]
        job = {"type": "snf", "matrix": rows}
        meta = {"kind": "snf", "m": m, "n": n, "bound": bound, "deficient": deficient}
        entries.append((_doc(job), meta))
    return entries


GENERATORS = {
    "local-verdicts": local_verdicts,
    "group-cohomology": group_cohomology,
    "snf-dense": snf_dense,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    DOCS.mkdir(exist_ok=True)
    for offset, name in enumerate(WORKLOADS):
        rng = random.Random(args.seed * 1000 + offset)
        entries = GENERATORS[name](rng)
        with open(DOCS / f"{name}.jsonl", "w", encoding="utf-8") as fh:
            for i, (doc, meta) in enumerate(entries):
                fh.write(json.dumps({"id": i, "meta": meta, "doc": doc},
                                    separators=(",", ":")) + "\n")
        print(f"{name}: {len(entries)} jobs", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
