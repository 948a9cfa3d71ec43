"""Seeded inputs for the benchmark: fan and series JSON files plus argv lists.

Everything here is plain Python and shares no code with ``mcseries``: fans
are built from their rays and cones directly, star subdivisions are done by
hand, and the expected results that the oracles check are derived from the
inputs alone.  The same seed always gives the same files and the same jobs.

A job is a dict ``{"argv": [...], "check": {...}}``.  ``argv`` is what
``mcseries.cli.main`` receives; ``check`` names an oracle in ``oracles.py``
and carries its expected values.

Randomness picks *which* inputs, never *how many* or *how large*: every
seed gives the same number of jobs of each kind and the same multiset of
sizes, so the cost of one pass over the job list barely moves with the seed.
The colinear grid is small enough to run whole, so there the seed sets only
the order of the list.
"""

from __future__ import annotations

import json
import os
import random
from itertools import combinations

WORKLOADS = ("fan-present", "blowup-expand", "colinear", "kring-verify")

# Inputs left out on purpose.  Each stays listed, with its reason, so the
# defect behind it stays visible; add it back once the defect is fixed.
EXCLUDED = (
    {"workload": "fan-present", "input": "face fan of the 4-cube",
     "reason": "divisor series does not finish in 5 min: the grading LP"
               " (Fourier-Motzkin in positive_grading) has no work cap"},
    {"workload": "colinear", "input": "colinear --r 5",
     "reason": "4 to 6 s per job: printing the series enumerates the monoid"
               " (word_for) up to the numerator's degree 18"},
    {"workload": "colinear", "input": "colinear --r 6 and above",
     "reason": "exit code 2: printing the series enumerates more than the"
               " 10^6-element cap (the library build alone takes 4.2 s at"
               " r = 9)"},
)

# (ray count, expansion degree) of the seeded surfaces of blowup-expand.
PLANE_DEGREES = ((5, 9), (6, 8), (7, 7), (8, 6), (9, 5))

# Centre counts the colinear workload can run; see EXCLUDED for r >= 5.
COLINEAR_R = (3, 4)


# ---------------------------------------------------------------------------
# fans as plain dicts


def _fan(rays, cones, names=None):
    rays = [list(v) for v in rays]
    if names is None:
        names = [f"r{i}" for i in range(len(rays))]
    return {"dim": len(rays[0]), "rays": rays,
            "maximal_cones": [sorted(c) for c in cones],
            "ray_names": list(names)}


def projective_space(n):
    rays = [[1 if j == i else 0 for j in range(n)] for i in range(n)]
    rays.append([-1] * n)
    cones = [[j for j in range(n + 1) if j != i] for i in range(n + 1)]
    return _fan(rays, cones, [f"x{i}" for i in range(n + 1)])


def hirzebruch(a):
    return _fan([(1, 0), (0, 1), (-1, a), (0, -1)],
                [(0, 1), (1, 2), (2, 3), (3, 0)], ["f1", "s1", "f2", "s2"])


def product(f1, f2):
    n1, n2 = f1["dim"], f2["dim"]
    rays = [v + [0] * n2 for v in f1["rays"]]
    rays += [[0] * n1 + v for v in f2["rays"]]
    off = len(f1["rays"])
    cones = [c1 + [i + off for i in c2]
             for c1 in f1["maximal_cones"] for c2 in f2["maximal_cones"]]
    names = [f"{s}_{k}" for k, f in ((1, f1), (2, f2)) for s in f["ray_names"]]
    return _fan(rays, cones, names)


def p1_power(k):
    fan = projective_space(1)
    for _ in range(k - 1):
        fan = product(fan, projective_space(1))
    return fan


def cube_face_fan():
    """Face fan of [-1,1]^3: eight rays, six square (non-simplicial) cones."""
    rays = [(x, y, z) for x in (1, -1) for y in (1, -1) for z in (1, -1)]
    cones = [[i for i, v in enumerate(rays) if v[axis] == sign]
             for axis in range(3) for sign in (1, -1)]
    return _fan(rays, cones)


def star_subdivide(fan, cone_index):
    """Blow up the torus-fixed point of a smooth maximal cone: add the sum
    of its rays and replace the cone by the n cones through the new ray."""
    cone = fan["maximal_cones"][cone_index]
    new = [sum(col) for col in zip(*(fan["rays"][i] for i in cone))]
    k = len(fan["rays"])
    cones = [c for j, c in enumerate(fan["maximal_cones"]) if j != cone_index]
    cones += [[i for i in cone if i != drop] + [k] for drop in cone]
    return _fan(fan["rays"] + [new], cones, fan["ray_names"] + [f"e{k}"])


def random_blowups(rng, fan, count):
    for _ in range(count):
        fan = star_subdivide(fan, rng.randrange(len(fan["maximal_cones"])))
    return fan


def is_simplicial(fan):
    return all(len(c) == fan["dim"] for c in fan["maximal_cones"])


def cone_count(fan, k):
    """Number of k-dimensional cones of a simplicial fan: every k-subset of
    the rays of a maximal cone spans a face."""
    return len({tuple(s) for c in fan["maximal_cones"]
                for s in combinations(sorted(c), k)})


# ---------------------------------------------------------------------------
# job lists


class _Writer:
    def __init__(self, workdir):
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)

    def put(self, name, doc):
        path = os.path.join(self.workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
        return path


def _toric_jobs(path, fan, ps, truncate, formats):
    jobs = []
    for p in ps:
        for fmt in formats:
            check = {"kind": "toric", "p": p, "truncate": truncate,
                     "format": fmt,
                     "factors": (cone_count(fan, fan["dim"] - p)
                                 if is_simplicial(fan) else None)}
            jobs.append({"argv": ["toric", "--fan", path, "--p", str(p),
                                  "--truncate", str(truncate),
                                  "--format", fmt],
                         "check": check})
    return jobs


def _macdonald_job(path, fan, truncate):
    return {"argv": ["verify", "macdonald", "--fan", path,
                     "--truncate", str(truncate)],
            "check": {"kind": "macdonald",
                      "chi": len(fan["maximal_cones"])}}


def fan_present(rng, out):
    fans = [("p%d" % n, projective_space(n)) for n in range(2, 7)]
    fans += [("p1x%d" % k, p1_power(k)) for k in range(2, 5)]
    fans.append(("cube3", cube_face_fan()))
    bases = ([("p2", projective_space(2))]
             + [("f%d" % a, hirzebruch(a)) for a in range(1, 4)]
             + [("p1xp1", hirzebruch(0)), ("p3", projective_space(3)),
                ("p1xp2", product(projective_space(1), projective_space(2)))])
    for name, base in bases:
        for blowups in (1, 2):
            fans.append((f"{name}_b{blowups}",
                         random_blowups(rng, base, blowups)))
    jobs = []
    for name, fan in fans:
        path = out.put(f"{name}.json", fan)
        jobs += _toric_jobs(path, fan, range(fan["dim"] + 1), 3, ["json"])
        jobs.append(_macdonald_job(path, fan, 6))
    return jobs


def plane_blowups(rng, count):
    """P^2 blown up `count` times at torus-fixed points, with the surface's
    isomorphism class: the cyclic sequence of self-intersection numbers of
    its boundary curves, up to rotation and reflection."""
    fan = projective_space(2)
    cyclic = [0, 1, 2]                  # ray indices in angular order
    selfint = [1, 1, 1]
    for _ in range(count):
        pos = rng.randrange(len(cyclic))
        a, b = cyclic[pos], cyclic[(pos + 1) % len(cyclic)]
        fan = star_subdivide(fan, fan["maximal_cones"].index(sorted((a, b))))
        cyclic.insert(pos + 1, len(selfint))
        selfint[a] -= 1
        selfint[b] -= 1
        selfint.append(-1)
    seq = [selfint[i] for i in cyclic]
    turns = [seq[k:] + seq[:k] for k in range(len(seq))]
    iso = min(tuple(t) for t in turns + [t[::-1] for t in turns])
    return fan, iso


def commonest_surface(count, samples=400):
    """The most frequent isomorphism class among `count` random blow-ups of
    P^2 (the same for every seed)."""
    rng = random.Random(f"surface:{count}")
    tally = {}
    for _ in range(samples):
        iso = plane_blowups(rng, count)[1]
        tally[iso] = tally.get(iso, 0) + 1
    return max(sorted(tally), key=tally.get)


def seeded_plane_fan(rng, rays):
    """A seeded blow-up of P^2 with the given ray count, drawn until it is
    the commonest surface of that size.

    The seed picks the blow-up order and so the fan's embedding and ray
    order, not the surface: expansion cost depends on the surface (chains
    of very negative curves make the class monoid far more expensive to
    enumerate), and a free draw would let the seed move a run's time 20x."""
    target = commonest_surface(rays - 3)
    while True:
        fan, iso = plane_blowups(rng, rays - 3)
        if iso == target:
            return fan


def blowup_expand(rng, out, repo_root):
    gp_path = os.path.join(repo_root, "fans", "gp.json")
    with open(gp_path, encoding="utf-8") as fh:
        gp = json.load(fh)
    # fans/gp.json is the plane blown up at its three torus-fixed points
    inputs = [(gp_path, gp, 1, 8), (gp_path, gp, 1, 10),
              (out.put("cube3.json", cube_face_fan()), cube_face_fan(), 2, 6)]
    for rays, deg in PLANE_DEGREES:
        for copy in range(2):
            # The 9-ray surfaces do not depend on the seed.  On some
            # embeddings of that surface positive_grading returns a grading
            # of total degree 22 where 11 is the minimum, which shrinks the
            # expansion 4x, so a seeded draw would decide how many of the
            # two hit that defect.  Copy 0 hits it and copy 1 does not.
            draw = rng if rays < 9 else random.Random(f"plane9:{copy}")
            fan = seeded_plane_fan(draw, rays)
            inputs.append((out.put(f"plane{rays}_{copy}.json", fan), fan, 1,
                           deg))
    jobs = []
    for path, fan, p, deg in inputs:
        jobs += _toric_jobs(path, fan, [p], deg, ["pretty", "json"])
    return jobs


def colinear(rng, out, repo_root):
    jobs = [{"argv": ["colinear", "--r", "3", "--truncate", "4", "--compare",
                      os.path.join(repo_root, "fans", "gp.json")],
             "check": {"kind": "compare"}}]
    grid = [(r, n) for r in COLINEAR_R for n in (4, 5, 6)]
    rng.shuffle(grid)
    for r, n in grid:
        for fmt in ("pretty", "json"):
            jobs.append({"argv": ["colinear", "--r", str(r), "--truncate",
                                  str(n), "--format", fmt],
                         "check": {"kind": "colinear", "r": r, "truncate": n,
                                   "format": fmt}})
    return jobs


def curve_zeta_json(genus):
    """The curve zeta series 1 + a1 t + ... + a_2g t^2g over (1-t)(1-Lt)."""
    symbols = [f"a{i}" for i in range(1, 2 * genus + 1)]

    def elem(exp):
        return {"terms": [{"exp": exp, "coeff": 1}]}

    def cls(d):
        return {"free": [d], "torsion": []}

    return {"kind": "rational",
            "ring": {"generators": ["L", "eps"] + symbols},
            "monoid": {"ambient_generators": 1, "relations": [],
                       "generators": [{"name": "t", "ambient": [1]}],
                       "grading": [1]},
            "numerator": [{"class": cls(0), "coeff": elem({})}]
            + [{"class": cls(i), "coeff": elem({s: 1})}
               for i, s in enumerate(symbols, start=1)],
            "denominator": [{"class": cls(1), "coeff": elem({}), "power": 1},
                            {"class": cls(1), "coeff": elem({"L": 1}),
                             "power": 1}]}


def _eq1_job(n, power, truncate, specialize):
    argv = ["verify", "eq1", "--n", str(n), "--denominator",
            f"(1-t)^{power}", "--truncate", str(truncate)]
    if specialize:
        argv += ["--specialize", "L=1"]
    # with L=1 the coefficients are binom(n+d, d), so (1-t)^(n+1) clears
    # them; with L kept the series is not of that form
    return {"argv": argv,
            "check": {"kind": "eq1", "exit": 0 if specialize else 1}}


def _localization_job(remove, truncate):
    return {"argv": ["verify", "localization", "--curve", "p1", "--remove",
                     str(remove), "--truncate", str(truncate)],
            "check": {"kind": "localization"}}


def kring_verify(rng, out):
    # the eq1 grid is the heaviest part and the same for every seed, so the
    # seed cannot decide which of its slow jobs set p90
    jobs = [_eq1_job(2, 4, 8, False),
            _localization_job(rng.randrange(7), rng.choice((8, 10, 12)))]
    jobs += [_eq1_job(n, n + 1, trunc, specialize)
             for n in range(1, 5) for trunc in (8, 10, 12)
             for specialize in (False, True)]
    truncs = [8, 10, 12]
    rng.shuffle(truncs)
    for genus, trunc in zip((1, 2, 3), truncs):
        path = out.put(f"zeta_g{genus}.json", curve_zeta_json(genus))
        for fmt in ("pretty", "json"):
            jobs.append({"argv": ["expand", "--series", path, "--truncate",
                                  str(trunc), "--format", fmt],
                         "check": {"kind": "zeta_expand", "genus": genus,
                                   "truncate": trunc, "format": fmt}})
        jobs.append({"argv": ["specialize", "--series", path, "--assign",
                              "L=1", "--format", "json"],
                     "check": {"kind": "zeta_specialize", "genus": genus}})
    return jobs


def generate(workload, seed, workdir, repo_root):
    """Write the workload's input files under workdir; return its jobs.

    The first job of every list does not depend on the seed; the benchmark
    uses it as the warm-up job of its set-up time."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    out = _Writer(workdir)
    if workload == "fan-present":
        return fan_present(rng, out)
    if workload == "blowup-expand":
        return blowup_expand(rng, out, repo_root)
    if workload == "colinear":
        return colinear(rng, out, repo_root)
    return kring_verify(rng, out)
