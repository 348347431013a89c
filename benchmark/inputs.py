"""Generated inputs and closed-form oracles for the benchmark.

The Beilinson quiver of P^n has vertices 1..n+1, n+1 arrows between each
pair of consecutive vertices and the commutativity relations
x^k_i x^{k+1}_j = x^k_j x^{k+1}_i.  Its path algebra is End(O + ... + O(n))
and is derived equivalent to P^n, so its Hochschild invariants are those of
P^n (HKR).  The seed only permutes how the document lists arrows and
relations; the algebra, and so every expected number, does not depend on it.
"""

from __future__ import annotations

import random
from math import comb


def beilinson_quiver_doc(n: int, field: dict, seed: int) -> dict:
    """Quiver JSON document (the CLI's --file schema) of the P^n quiver."""
    vertices = [str(k) for k in range(1, n + 2)]
    arrows = [{"name": f"x{k}_{i}", "source": str(k), "target": str(k + 1)}
              for k in range(1, n + 1) for i in range(n + 1)]
    relations = [[{"coeff": "1", "path": [f"x{k}_{i}", f"x{k + 1}_{j}"]},
                  {"coeff": "-1", "path": [f"x{k}_{j}", f"x{k + 1}_{i}"]}]
                 for k in range(1, n) for i in range(n + 1)
                 for j in range(i + 1, n + 1)]
    rng = random.Random(seed)
    rng.shuffle(arrows)
    rng.shuffle(relations)
    return {"field": field, "vertices": vertices, "arrows": arrows,
            "relations": relations}


def beilinson_dim(n: int) -> int:
    """dim of the P^n Beilinson algebra: sum over i <= j of dim Sym^{j-i}."""
    return sum(comb(n + d, n) * (n + 1 - d) for d in range(n + 1))


def hh_cohomology_pn(n: int, max_degree: int) -> list:
    """HH^q(P^n) = h^0(Lambda^q T) for q = 0..max_degree.

    The Euler sequence gives h^0(Lambda^q T) =
    C(n+1, q) C(n+q, n) - h^0(Lambda^{q-1} T), with h^0(Lambda^q T) = 0 for
    q > n; higher cohomology of Lambda^q T vanishes, so HH^q has no other
    summands.
    """
    dims, prev = [], 0
    for q in range(max_degree + 1):
        cur = comb(n + 1, q) * comb(n + q, n) - prev if q <= n else 0
        dims.append(cur)
        prev = cur
    return dims


def hh_homology_pn(n: int, max_degree: int) -> list:
    """HH_*(P^n): n+1 in degree 0 (one per exceptional object), else 0."""
    return [n + 1] + [0] * max_degree


def hh_cohomology_kronecker(n: int, max_degree: int) -> list:
    """Kronecker quiver with n arrows: HH^* = (1, n^2 - 1, 0, ...)."""
    return ([1, n * n - 1] + [0] * max_degree)[:max_degree + 1]


def hh_dual_numbers(max_degree: int) -> list:
    """k[x]/x^2 in characteristic 0: HH^* = HH_* = (2, 1, 1, ...)."""
    return [2] + [1] * max_degree


# Catalog entries that are Kronecker quivers, with their number of arrows.
KRONECKER_ARROWS = {"kronecker1": 1, "a2-quiver": 1, "kronecker2": 2,
                    "beilinson-p1": 2, "kronecker3": 3,
                    "kronecker3-gluing": 3}
# Directed catalog entries, with their number of vertices.  HH_* of such an
# algebra is additive over its exceptional collection of projectives, so it
# is (#vertices, 0, ...).
DIRECTED_VERTICES = {**dict.fromkeys(KRONECKER_ARROWS, 2),
                     "beilinson-p2": 3, "kxk": 2}


def catalog_expected(entry: str, subcommand: str, max_degree: int) -> dict:
    """Closed-form dims a catalog report must carry: {report key: dims}.

    Empty when no closed form is known; the op is then judged by its exit
    code and its report checks alone.
    """
    if entry == "loop-x2":
        dims = hh_dual_numbers(max_degree)
        return {"cohomology": {"hh_cohomology": dims},
                "homology": {"hh_homology": dims}}.get(subcommand, {})
    if subcommand == "cohomology":
        if entry in KRONECKER_ARROWS:
            dims = hh_cohomology_kronecker(KRONECKER_ARROWS[entry], max_degree)
        elif entry == "beilinson-p2":
            dims = hh_cohomology_pn(2, max_degree)
        else:                       # kxk = k x k is semisimple
            dims = [2] + [0] * max_degree
        return {"hh_cohomology": dims}
    if subcommand in ("homology", "kernels additivity"):
        return {"hh_homology": [DIRECTED_VERTICES[entry]] + [0] * max_degree}
    return {}
