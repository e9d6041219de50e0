"""The three workloads: inputs generated at set-up, and the operations of one round.

Each workload has a `setup(runner, rng)` that writes the input files (the
timed set-up, which includes the `arrfan catalog` and `arrfan fan --out`
calls) and a `plan(runner, inputs, rng, errors)` that fixes the operations
of a round together with their expected results, computed by `oracle`.
"""
from __future__ import annotations

import json
import xml.etree.ElementTree as ET
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from oracle import (
    arrangement_rays,
    autos_order,
    blowup_weights,
    canonical_arrangement,
    canonical_text,
    catalan,
    chamber_fan_errors,
    chamber_rays_at,
    consecutive_pairs,
    coxeter_f_vector,
    dihedral_symmetries,
    dot,
    flat_count,
    generic_point,
    hyperplane_count,
    is_simplicial,
    mat_vec,
    parse_type,
    primitive,
    canonical_sign,
    random_unimodular,
    rank,
    rank2_coverage,
    rank2_crystallographic,
    rank2_det,
    rank2_weights,
    same_cycle,
    sign_chambers,
    weyl_order,
    zaslavsky_chambers,
)
from runner import Op, Runner

# ------------------------------------------------------------------ inputs


@dataclass
class Arr:
    """A generated arrangement file and the closed-form facts about it."""

    label: str
    path: str
    rank: int
    covs: list[tuple[int, ...]]
    family: str  # "A", "B", "C", "D", or "ngon"
    size: int  # the rank for A-D, t for ngon:t:*
    fan_path: str = ""

    @property
    def chambers(self) -> int:
        return 2 * self.size if self.family == "ngon" else weyl_order(self.family, self.size)

    @property
    def hyperplanes(self) -> int:
        return self.size if self.family == "ngon" else hyperplane_count(self.family, self.size)

    @property
    def f_vector(self) -> list[int]:
        if self.family == "ngon":
            return [1, 2 * self.size, 2 * self.size]
        return coxeter_f_vector(self.family, self.size)


def _read_json(path: str):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _write(path: str, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")


def _transformed(runner: Runner, rng, label, rank_, covs, family, size) -> Arr:
    """Write the arrangement after a seeded unimodular change of coordinates."""
    g = random_unimodular(rng, rank_)
    obj = canonical_arrangement(rank_, [mat_vec(c, g) for c in covs])
    path = runner.path(f"{label}.json")
    _write(path, canonical_text(obj))
    return Arr(label, path, rank_, [tuple(c) for c in obj["positive_covectors"]], family, size)


def _catalog(runner: Runner, rng, name: str) -> Arr:
    """`arrfan catalog NAME`, then a seeded change of coordinates; ngon indices are seeded."""
    if name.startswith("ngon:"):
        t = int(name.split(":")[1])
        label, family, size = f"N{t}", "ngon", t
        name = f"ngon:{t}:{rng.randrange(catalan(t - 2))}"
    else:
        label = name.replace("_", "")
        family, size = parse_type(name)
    raw = runner.path(f"catalog-{label}.json")
    runner.setup_call(["catalog", name, "--out", raw])
    obj = _read_json(raw)
    return _transformed(runner, rng, label, obj["rank"], obj["positive_covectors"], family, size)


def _with_fan(runner: Runner, x: Arr) -> Arr:
    x.fan_path = runner.path(f"{x.label}.fan.json")
    runner.setup_call(["fan", x.path, "--out", x.fan_path])
    return x


def _fan_file(path: str, rank_: int, cones) -> None:
    rays = sorted({tuple(v) for c in cones for v in c})
    index = {v: i for i, v in enumerate(rays)}
    obj = {
        "rank": rank_,
        "rays": [list(v) for v in rays],
        "max_cones": [[index[tuple(v)] for v in c] for c in cones],
    }
    _write(path, json.dumps(obj) + "\n")


# ------------------------------------------------------------------ checks


def _verdicts(report, **expected) -> list[str]:
    if report is None:
        return ["no report on stdout"]
    got = report.get("verdicts", {})
    return [
        f"{k} = {got.get(k)!r}, expected {want!r}"
        for k, want in expected.items()
        if got.get(k) != want
    ]


def _random_face(rng, cone, rank_: int) -> list[int]:
    return sorted(rng.sample(list(cone), rng.randint(1, rank_ - 1)))


def _vertex(covs, point) -> tuple[int, ...]:
    """Doubled chamber vertex: the sum of the covectors signed positive at the point."""
    out = [0] * len(point)
    for c in covs:
        s = 1 if dot(c, point) > 0 else -1
        out = [o + s * x for o, x in zip(out, c)]
    return tuple(out)


def op_verify(x: Arr, top=False) -> Op:
    return Op(["verify", x.path], 0,
              lambda rep: _verdicts(rep, simplicial=True, crystallographic=True), top)


def op_fan(runner: Runner, x: Arr, top=False) -> Op:
    out = runner.path(f"{x.label}.fan.out.json")
    f = x.f_vector

    def check(rep):
        errs = _verdicts(rep, rays=f[1], max_cones=f[-1], smooth=True, complete=True,
                         centrally_symmetric=True, strongly_symmetric=True)
        return errs + chamber_fan_errors(x.covs, _read_json(out), x.chambers, f)

    return Op(["fan", x.path, "--out", out], 0, check, top)


def op_polytope(runner: Runner, x: Arr, fan_out: str | None = None, top=False) -> Op:
    """Vertices: as many as chambers, distinct, negation-stable, of the parity of the sum
    of all covectors; with the chamber fan at hand, exactly the chamber sums."""
    out = runner.path(f"{x.label}.polytope.json")
    parity = tuple(sum(c[k] for c in x.covs) % 2 for k in range(x.rank))

    def check(rep):
        errs = _verdicts(rep, vertices=x.chambers, normal_fan_verified=True)
        verts = {tuple(v) for v in _read_json(out)["doubled_vertices"]}
        if len(verts) != x.chambers:
            errs.append(f"{len(verts)} distinct vertices, expected {x.chambers}")
        if {tuple(-a for a in v) for v in verts} != verts:
            errs.append("vertex set is not negation-stable")
        if any(tuple(a % 2 for a in v) != parity for v in verts):
            errs.append("a vertex is not a signed sum of all covectors")
        if fan_out:
            fan = _read_json(fan_out)
            expected = {
                _vertex(x.covs, [sum(col) for col in zip(*(fan["rays"][i] for i in cone))])
                for cone in fan["max_cones"]
            }
            if verts != expected:
                errs.append("vertices differ from the chamber sums of the signed covectors")
        return errs

    return Op(["polytope", x.path, "--out", out], 0, check, top)


def op_embed(runner: Runner, x: Arr, top=False) -> Op:
    """Smith form all ones, one sign vector per cone of the fan, and a 2n x r matrix whose
    first r rows (the base chamber's walls on its rays) are the identity."""
    out = runner.path(f"{x.label}.embed.json")
    faces = sum(x.f_vector)
    r = x.rank

    def check(rep):
        errs = _verdicts(rep, invariant_factors=[1] * r, sign_vectors_distinct=True)
        obj = _read_json(out)
        if obj["sign_vectors"] != faces:
            errs.append(f"{obj['sign_vectors']} sign vectors, expected {faces} cones")
        rows = [tuple(row) for row in obj["matrix"]]
        if len(rows) != 2 * len(x.covs) or len(set(rows)) != len(rows):
            errs.append(f"matrix has {len(set(rows))} distinct rows, expected {2 * len(x.covs)}")
        if rows[:r] != [tuple(int(i == j) for j in range(r)) for i in range(r)]:
            errs.append("wall rows are not the identity on the base chamber's rays")
        if {tuple(-a for a in row) for row in rows} != set(rows):
            errs.append("matrix rows are not closed under negation")
        return errs

    return Op(["embed", x.path, "--out", out], 0, check, top)


def op_decompose(runner: Runner, x: Arr, factors: list[tuple[int, int]]) -> Op:
    """factors: (rank, hyperplanes) of each irreducible factor."""
    out = runner.path(f"{x.label}.decompose.json")

    def check(rep):
        errs = _verdicts(rep, factors=len(factors))
        obj = _read_json(out)
        got = sorted((f["rank"], len(f["positive_covectors"])) for f in obj["factors"])
        if got != sorted(factors):
            errs.append(f"factors {got}, expected {sorted(factors)}")
        if sorted(len(p) for p in obj["partition"]) != sorted(r for r, _ in factors):
            errs.append("partition sizes differ from the factor ranks")
        return errs

    return Op(["decompose", x.path, "--out", out], 0, check)


def op_insert(runner: Runner, x: Arr, rng) -> Op:
    """Rank 2: blow up a seeded chamber at the sum of its rays; the new chamber count
    comes from a Fourier-Motzkin sign enumeration."""
    u, w = rng.choice(consecutive_pairs(arrangement_rays(x.covs, 2)))
    v = (u[0] + w[0], u[1] + w[1])
    h = canonical_sign(primitive((-v[1], v[0])))
    expected = len(sign_chambers(x.covs + [h]))
    out = runner.path(f"{x.label}.insert.json")

    def check(rep):
        errs = _verdicts(rep, max_cones=expected)
        if not errs and rep["verdicts"]["max_cones"] != x.chambers + rep["verdicts"]["splits"]:
            errs.append("chamber count is not the old count plus the splits")
        if len(_read_json(out)["max_cones"]) != expected:
            errs.append("written fan has the wrong number of cones")
        return errs

    return Op(["insert", x.path, "--hyperplane", f"{h[0]},{h[1]}", "--out", out], 0, check)


def op_plot_rank3(runner: Runner, x: Arr) -> Op:
    """One line per covector whose chart line meets the viewport disc of radius 3."""
    out = runner.path(f"{x.label}.svg")
    expected = sum(
        1 for a, b, c in x.covs if (a == 0 and b == 0) or c * c < 9 * (a * a + b * b)
    )

    def check(rep):
        errs = _verdicts(rep, format="svg")
        drawn = [e for e in ET.parse(out).getroot().iter() if e.get("class") == "hyperplane"]
        if len(drawn) != expected:
            errs.append(f"{len(drawn)} hyperplanes drawn, expected {expected}")
        return errs

    return Op(["plot", x.path, "--out", out], 0, check)


def op_roots(runner: Runner, x: Arr, top=False) -> Op:
    out = runner.path(f"{x.label}.roots.json")

    def check(rep):
        errs = _verdicts(rep, rank=x.rank, hyperplanes=x.hyperplanes)
        if Path(out).read_bytes() != Path(x.path).read_bytes():
            errs.append("recovered arrangement differs from the generated file")
        return errs

    return Op(["roots", x.fan_path, "--out", out], 0, check, top)


def op_star(x: Arr, fan: dict, rng) -> Op:
    face = _random_face(rng, rng.choice(fan["max_cones"]), x.rank)
    cones = sum(1 for c in fan["max_cones"] if set(face) <= set(c))
    return Op(["star", x.fan_path, "--cone", ",".join(map(str, face))], 0,
              lambda rep: _verdicts(rep, rank=x.rank - len(face), max_cones=cones))


def op_autos(runner: Runner, x: Arr, fan: dict, order: int, top=False) -> Op:
    """The order, and every written matrix permutes the rays."""
    out = runner.path(f"{x.label}.autos.json")
    rays = {tuple(v) for v in fan["rays"]}

    def check(rep):
        errs = _verdicts(rep, order=order)
        mats = [tuple(tuple(row) for row in m) for m in _read_json(out)["matrices"]]
        if len(set(mats)) != order:
            errs.append(f"{len(set(mats))} distinct matrices, expected {order}")
        if any({mat_vec(v, g) for v in rays} != rays for g in mats):
            errs.append("a matrix does not permute the rays")
        return errs

    return Op(["autos", x.fan_path, "--out", out], 0, check, top)


def op_restrict(x: Arr, fan: dict, rng) -> Op:
    face = _random_face(rng, rng.choice(fan["max_cones"]), x.rank)
    rows = [fan["rays"][i] for i in face]
    d = len(face)
    rays = sum(1 for v in fan["rays"] if rank(rows + [v]) == d)
    return Op(["restrict", x.fan_path, "--subspace", json.dumps(rows)], 0,
              lambda rep: _verdicts(rep, rank=d, rays=rays, smooth=True,
                                    strongly_symmetric=True))


def rank2_surface_ops(runner: Runner, x: Arr, fan: dict) -> list[Op]:
    """graph, divisor, picard and plot on a centrally symmetric smooth rank-2 fan."""
    _, weights = rank2_weights(fan["rays"])
    s = len(weights)
    divisor_out = runner.path(f"{x.label}.divisor.json")
    svg = runner.path(f"{x.label}.fan.svg")

    def graph(rep):
        errs = _verdicts(rep, weights=weights)
        if sum(weights) != 12 - 3 * s:
            errs.append(f"weights sum to {sum(weights)}, Noether gives {12 - 3 * s}")
        return errs

    def divisor(rep):
        errs = _verdicts(rep, self_intersection=0)
        c = _read_json(divisor_out)["coefficients"]
        pair = [
            c[j] * weights[j] + c[(j - 1) % s] + c[(j + 1) % s] for j in range(s)
        ]  # (c . D_j) with D_j^2 = w_j and adjacent divisors meeting once
        if sum(a * b for a, b in zip(c, pair)) != 0 or pair[0] != 1:
            errs.append(f"class {c} does not have square 0 and degree 1 on D1")
        return errs

    def plot(rep):
        root = ET.parse(svg).getroot()
        lines = [e for e in root.iter() if e.get("class") == "ray"]
        labels = Counter(e.text for e in root.iter() if e.tag.endswith("text"))
        errs = _verdicts(rep, format="svg")
        if len(lines) != s or labels != Counter(str(w) for w in weights):
            errs.append("plot does not show one labelled line per ray")
        return errs

    return [
        Op(["surface", "graph", x.fan_path], 0, graph),
        Op(["surface", "divisor", x.fan_path, "--out", divisor_out], 0, divisor),
        Op(["surface", "picard", x.fan_path], 0,
           lambda rep: _verdicts(rep, verified=True, picard_rank=s - 2)),
        Op(["plot", x.fan_path, "--out", svg], 0, plot),
    ]


def weights_ops(runner: Runner, weights_path: str, weights: list[int]) -> list[Op]:
    """from-weights, then symmetrize, then desingularize, each read back from its file."""
    fan_out = runner.path("W.fan.json")
    sym_out = runner.path("W.sym.json")
    res_out = runner.path("W.res.json")

    def from_weights(rep):
        errs = _verdicts(rep, rays=len(weights))
        _, got = rank2_weights(_read_json(fan_out)["rays"])
        if not same_cycle(got, weights):
            errs.append(f"fan has weights {got}, not a rotation of {weights}")
        return errs

    def symmetrize(rep):
        rays = {tuple(v) for v in _read_json(fan_out)["rays"]}
        closed = rays | {(-a, -b) for a, b in rays}
        smooth = all(rank2_det(u, w) == 1 for u, w in consecutive_pairs(closed))
        errs = _verdicts(rep, rays=len(closed), smooth=smooth)
        if {tuple(v) for v in _read_json(sym_out)["rays"]} != closed:
            errs.append("symmetrized rays are not the rays and their negatives")
        return errs

    def desingularize(rep):
        sym = {tuple(v) for v in _read_json(sym_out)["rays"]}
        rays = [tuple(v) for v in _read_json(res_out)["rays"]]
        errs = _verdicts(rep, rays=len(rays))
        if not sym <= set(rays) or {(-a, -b) for a, b in rays} != set(rays):
            errs.append("resolution lost a ray or central symmetry")
        if any(rank2_det(u, w) != 1 for u, w in consecutive_pairs(rays)):
            errs.append("resolution is not smooth")
        ordered, w = rank2_weights(rays)
        if any(wt > -2 for v, wt in zip(ordered, w) if v not in sym):
            errs.append("resolution is not minimal: an inserted ray has weight above -2")
        return errs

    return [
        Op(["surface", "from-weights", weights_path, "--out", fan_out], 0, from_weights),
        Op(["surface", "symmetrize", fan_out, "--out", sym_out], 0, symmetrize),
        Op(["surface", "desingularize", sym_out, "--out", res_out], 0, desingularize),
    ]


def op_triangulations(runner: Runner, t: int) -> Op:
    out = runner.path(f"triangulations-{t}.json")

    def check(rep):
        errs = _verdicts(rep, count=catalan(t - 2))
        items = _read_json(out)["items"]
        diagonals = {tuple(tuple(d) for d in it["diagonals"]) for it in items}
        if len(diagonals) != catalan(t - 2) or any(len(d) != t - 3 for d in diagonals):
            errs.append("triangulations are not distinct sets of t-3 diagonals")
        if any(sum(it["weights"]) != -3 * (t - 2) for it in items):
            errs.append("a weight sequence does not count 3(t-2) triangle corners")
        return errs

    return Op(["surface", "triangulations", "--count", str(t), "--out", out], 0, check)


def op_poset(runner: Runner, x: Arr, top=False) -> Op:
    """Flat count in closed form, graded covers, and Zaslavsky's count of the chambers."""
    out = runner.path(f"{x.label}.poset.json")
    r = x.rank

    def check(rep):
        obj = _read_json(out)
        flats, covers = obj["flats"], obj["cover_pairs"]
        errs = _verdicts(rep, flats=flat_count(x.family, x.size), covers=len(covers))
        dims = [f["dim"] for f in flats]
        if any(len(f["basis"]) != f["dim"] for f in flats):
            errs.append("a flat's basis size differs from its dimension")
        by_dim = Counter(dims)
        if by_dim[r] != 1 or by_dim[0] != 1 or by_dim[r - 1] != x.hyperplanes:
            errs.append(f"flats by dimension {dict(by_dim)} do not fit {x.hyperplanes} hyperplanes")
        hyperplanes = [f["basis"] for f in flats if f["dim"] == r - 1]
        for c in x.covs:
            if sum(1 for b in hyperplanes if all(dot(c, v) == 0 for v in b)) != 1:
                errs.append(f"covector {c} does not vanish on exactly one hyperplane flat")
        try:
            total = zaslavsky_chambers(dims, covers)
        except ValueError as e:
            return errs + [str(e)]
        if total != x.chambers:
            errs.append(f"sum of |mu| is {total}, expected {x.chambers} chambers")
        return errs

    return Op(["poset", x.path, "--out", out], 0, check, top)


def op_parabolic(runner: Runner, x: Arr, rng) -> Op:
    rays = arrangement_rays(x.covs, x.rank)
    cone = chamber_rays_at(x.covs, rays, generic_point(rng, x.covs, x.rank))
    face = _random_face(rng, cone, x.rank)
    vanishing = [c for c in x.covs if all(dot(c, rays[i]) == 0 for i in face)]
    out = runner.path(f"{x.label}.parabolic.json")

    def check(rep):
        errs = _verdicts(rep, rank=x.rank - len(face), hyperplanes=len(vanishing))
        if len(_read_json(out)["positive_covectors"]) != len(vanishing):
            errs.append("written arrangement has the wrong number of covectors")
        return errs

    return Op(["parabolic", x.path, "--cone", ",".join(map(str, face)), "--out", out], 0, check)


# ------------------------------------------------------------------ chambers


def setup_chambers(runner: Runner, rng) -> dict:
    st = {n: _catalog(runner, rng, n) for n in
          ("A_3", "B_3", "C_3", "ngon:8", "ngon:10", "A_4", "D_4", "A_5")}
    a2 = [(1, 0), (0, 1), (1, 1)]
    b2 = [(1, 0), (0, 1), (1, 1), (1, 2)]
    product = [a + (0, 0) for a in a2] + [(0, 0) + b for b in b2]
    st["product"] = _transformed(runner, rng, "A2xB2", 4, product, "product", 0)
    st["neg2"] = _transformed(runner, rng, "neg2", 2, [(1, 0), (0, 1), (1, 2)], "neg", 2)
    st["neg3"] = _transformed(runner, rng, "neg3", 3,
                              [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)], "neg", 3)
    return st


def plan_chambers(runner: Runner, st: dict, rng, errors: list[str]) -> list[Op]:
    ops = []
    for name in ("A_3", "B_3", "C_3", "ngon:8", "ngon:10"):
        x = st[name]
        fan_op = op_fan(runner, x)
        fan_out = fan_op.argv[-1]
        ops += [
            op_verify(x),
            fan_op,
            op_polytope(runner, x, fan_out),
            op_embed(runner, x),
            op_decompose(runner, x, [(x.rank, len(x.covs))]),
        ]
    ops += [op_insert(runner, st["ngon:8"], rng), op_insert(runner, st["ngon:10"], rng)]
    ops.append(op_plot_rank3(runner, st["B_3"]))
    ops.append(op_decompose(runner, st["product"], [(2, 3), (2, 4)]))

    neg2 = st["neg2"]
    code2 = 0 if rank2_crystallographic(neg2.covs) else 10
    ops.append(Op(["verify", neg2.path], code2, lambda rep: _verdicts(
        rep, simplicial=True, crystallographic=code2 == 0)))
    neg3 = st["neg3"]
    code3 = 0 if is_simplicial(neg3.covs, 3) else 11
    ops.append(Op(["verify", neg3.path], code3,
                  lambda rep: _verdicts(rep, simplicial=code3 == 0)))

    ops += [
        op_verify(st["A_5"], top=True),
        op_fan(runner, st["A_5"], top=True),
        op_polytope(runner, st["A_4"], top=True),
        op_embed(runner, st["A_4"], top=True),
        op_embed(runner, st["D_4"], top=True),
    ]
    return ops


# ------------------------------------------------------------------ fan-import


def setup_fan_import(runner: Runner, rng) -> dict:
    st = {n: _with_fan(runner, _catalog(runner, rng, n))
          for n in ("A_3", "B_3", "ngon:8", "ngon:10", "A_4")}
    g = random_unimodular(rng, 2)
    square = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    overlap = [[square[i], square[(i + 1) % 4]] for i in range(4)] + [[(1, 1), (-1, 0)]]
    hexagon = [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)]
    wound = [[hexagon[i], hexagon[(i + 2) % 6]] for i in range(6)]
    for name, cones in (("overlap", overlap), ("wound", wound)):
        st[name] = runner.path(f"{name}.fan.json")
        _fan_file(st[name], 2, [[mat_vec(v, g) for v in c] for c in cones])
    fan = _read_json(st["A_3"].fan_path)
    rays = [tuple(v) for v in fan["rays"]]
    cones = list(fan["max_cones"])
    del cones[rng.randrange(len(cones))]
    st["missing"] = runner.path("missing.fan.json")
    _fan_file(st["missing"], 3, [[rays[i] for i in c] for c in cones])
    st["deep"] = runner.path("deep.json")
    _write(st["deep"], "[" * 200000 + "]" * 200000)
    st["weights"] = blowup_weights(rng, rng.randint(3, 5))
    st["weights_path"] = runner.path("W.json")
    _write(st["weights_path"], json.dumps({"weights": st["weights"]}) + "\n")
    st["t"] = rng.randint(6, 8)
    return st


def plan_fan_import(runner: Runner, st: dict, rng, errors: list[str]) -> list[Op]:
    fans = {}
    for name in ("A_3", "B_3", "ngon:8", "ngon:10", "A_4"):
        x = st[name]
        fans[name] = _read_json(x.fan_path)
        errors += [f"set-up fan {x.label}: {e}" for e in
                   chamber_fan_errors(x.covs, fans[name], x.chambers, x.f_vector)]

    a3, b3, a4 = st["A_3"], st["B_3"], st["A_4"]
    ops = [
        op_roots(runner, a3),
        op_star(a3, fans["A_3"], rng),
        op_autos(runner, a3, fans["A_3"], autos_order("A", 3)),
        op_restrict(a3, fans["A_3"], rng),
        op_roots(runner, b3),
        op_star(b3, fans["B_3"], rng),
    ]
    for name in ("ngon:8", "ngon:10"):
        x, fan = st[name], fans[name]
        _, weights = rank2_weights(fan["rays"])
        ops += [
            op_roots(runner, x),
            op_autos(runner, x, fan, dihedral_symmetries(weights)),
            op_star(x, fan, rng),
        ]
    ops += rank2_surface_ops(runner, st["ngon:8"], fans["ngon:8"])
    ops += weights_ops(runner, st["weights_path"], st["weights"])
    ops.append(op_triangulations(runner, st["t"]))

    def malformed(path, rank_):
        fan = _read_json(path)
        if rank_ == 2:
            return 2 if max(rank2_coverage(fan)) > 1 else 0
        facets = Counter(f for c in fan["max_cones"] for f in _facets(c))
        return 10 if min(facets.values()) < 2 else 0  # well-formed but not complete

    for name, rank_ in (("overlap", 2), ("wound", 2), ("missing", 3)):
        ops.append(Op(["roots", st[name]], malformed(st[name], rank_)))
    # Nesting this deep is malformed input, which the exit-code table maps to 2.
    ops.append(Op(["roots", st["deep"]], 2))

    ops.append(op_autos(runner, a4, fans["A_4"], autos_order("A", 4), top=True))
    return ops


def _facets(cone):
    c = sorted(cone)
    return [tuple(c[:i] + c[i + 1 :]) for i in range(len(c))]


# ------------------------------------------------------------------ flats


def setup_flats(runner: Runner, rng) -> dict:
    return {n: _catalog(runner, rng, n) for n in
            ("A_3", "B_3", "C_3", "A_4", "B_4", "D_4", "A_5", "D_5")}


def plan_flats(runner: Runner, st: dict, rng, errors: list[str]) -> list[Op]:
    ops = []
    for name in ("A_3", "B_3", "C_3", "A_4", "B_4", "D_4"):
        ops.append(op_poset(runner, st[name]))
    for name in ("A_3", "B_3", "C_3"):
        ops.append(op_parabolic(runner, st[name], rng))
    ops += [op_poset(runner, st["A_5"], top=True), op_poset(runner, st["D_5"], top=True)]
    return ops


WORKLOADS = {
    "chambers": (setup_chambers, plan_chambers),
    "fan-import": (setup_fan_import, plan_fan_import),
    "flats": (setup_flats, plan_flats),
}
