"""Seeded workload generators and their ground truth.

A workload is one round of items; the runner repeats the round. Every item
is a map file plus what is known about it independently of jacgate:

* ``truth``: ``injective`` or ``not_injective``, proved by construction
  (triangular or diagonal maps whose one-variable parts are monotone or
  fold back on themselves) or, for the named maps, by the argument in the
  map file's header;
* ``pair``: an exact witness pair (F(a) == F(b), a != b) whenever the truth
  is ``not_injective`` and a rational pair exists;
* ``expected``: what jacgate answers today, for the named maps.

The seed changes coefficients, exponents within a slot's class, signs,
weights, variable names and item order (for check-jacbox only the last
two). It never changes a slot's kind (family, even exponent, size
stratum), so the work per round is comparable across seeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from random import Random

import reference as ref

CORPUS = Path(__file__).resolve().parent / "corpus"
NAMED = ("cubic", "shear", "fold", "cusp", "tri3", "tinydet", "coupled3")

WORKLOADS = ("check-corpus", "check-jacbox", "decompose-dense")

# (family, even exponent or None for injective) per seeded slot of
# check-corpus. A fold x^2 gives rational second preimages, so jacgate's
# witnesses there are exact; x^4 and x^6 give numeric ones. Fixing the even
# exponent per slot keeps exact_frac from moving with the seed. The 15
# non-injective slots and the five cheap named maps fill ranks 1 to 20 of
# the 33 item times, the 11 injective slots most of the rest: the median
# (rank 17) and the tail (rank 23) then fall inside a cluster, not where two
# meet. Diagonal maps in three variables cost two to four times as much as
# the rest and spread widely, so the slots stay planar.
CORPUS_SLOTS = (("tri", None),) * 6 + (("tri", 4),) * 4 + (("tri", 6),) * 3 \
    + (("diag", None),) * 5 + (("diag", 2),) * 4 + (("diag", 4),) * 4

# (alpha, beta, gamma) strata of f = x + alpha*(x - beta*y)^3 + gamma*(x + y)^5,
# g = y: det DF = 1 + 3*alpha*(x - beta*y)^2 + 5*gamma*(x + y)^4 >= 1 everywhere.
# The first nine spend about half their time excluding zero from det DF over
# the box (depth 14 to 20; three stay "assumed" at the depth limit); the rest
# are resolved by depth 9 to 16 and spend most of their time in Newton
# searches. Heavier strata exist, but one alone would take a fifth of a
# round: (1/10, -1/2, 1/1000) runs 5 s and (1/20, 1/2, 1/100) 13 s.
F = Fraction
JACBOX_STRATA = (
    (F(1, 5), F(1), F(0)), (F(1, 5), F(2), F(0)), (F(1, 5), F(-1, 2), F(1, 100)),
    (F(1, 20), F(2), F(1, 100)), (F(1, 20), F(-1, 2), F(1, 1000)),
    (F(1, 50), F(-1, 2), F(1, 1000)), (F(1, 50), F(1, 2), F(1, 1000)),
    (F(1, 10), F(2), F(0)), (F(1, 10), F(-1, 2), F(1, 100)),
    (F(1, 20), F(2), F(0)), (F(1, 50), F(2), F(0)), (F(1, 20), F(1), F(0)),
    (F(1, 10), F(1, 2), F(0)), (F(1, 20), F(1, 2), F(0)), (F(1, 10), F(-1, 2), F(0)),
    (F(1, 20), F(-1, 2), F(1, 100)), (F(1, 10), F(1), F(0)), (F(1, 50), F(2), F(1, 1000)),
    (F(1, 20), F(2), F(1, 1000)), (F(1, 10), F(2), F(1, 1000)),
    (F(1, 50), F(1, 2), F(0)), (F(1, 5), F(-1, 2), F(0)),
)

# (n, degree) strata of the dense maps. Costs roughly double from one
# stratum to the next, and a quantile that falls where two strata meet jumps
# with small changes in timing. So most items are (3, 5): the median and the
# tail percentile (the 11th slowest of 28) both fall inside that stratum.
# A dense n=4 degree-5 map alone takes several seconds, so the largest
# stratum is (4, 4).
DENSE_STRATA = ((3, 4),) * 5 + ((3, 5),) * 17 + ((3, 6),) * 4 + ((4, 4),) * 2

NAME_SETS = (("x", "y", "z", "w"), ("u", "v", "s", "t"), ("p", "q", "r", "m"),
             ("a", "b", "c", "d"))


@dataclass(frozen=True)
class Item:
    name: str
    text: str                       # the map file handed to jacgate
    truth: str | None = None        # check items: injective / not_injective
    expected: str | None = None     # named maps: jacgate's verdict today
    pair: tuple | None = None       # exact witness pair backing not_injective
    args: tuple[str, ...] = ()      # extra CLI flags
    weights: tuple[int, ...] | None = None  # decompose items
    components: tuple | None = None         # decompose items: exact map as dicts


def build(workload: str, seed: int) -> list[Item]:
    if workload == "check-corpus":
        return check_corpus(seed)
    if workload == "check-jacbox":
        return check_jacbox(seed)
    if workload == "decompose-dense":
        return decompose_dense(seed)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def named_item(name: str) -> Item:
    text = (CORPUS / f"{name}.map").read_text(encoding="utf-8")
    _, _, notes = ref.read_map(text)
    pair = None
    if "pair" in notes:
        a, b = notes["pair"].split("|")
        pair = (ref.parse_point(a), ref.parse_point(b))
    return Item(name=name, text=text, truth=notes["truth"], expected=notes["expected"], pair=pair)


def _var(n: int, i: int, coefficient=1) -> dict:
    return {tuple(1 if j == i else 0 for j in range(n)): coefficient}


def _mono(n: int, i: int, k: int, coefficient) -> dict:
    return {tuple(k if j == i else 0 for j in range(n)): coefficient}


def fold_or_climb(n: int, i: int, e: int, gamma, r) -> dict:
    """gamma * (x_i^e + r^(e-1) * x_i): strictly monotone for odd e; for even e it
    vanishes at both x_i = 0 and x_i = -r."""
    return ref.add(_mono(n, i, e, gamma), _var(n, i, gamma * r ** (e - 1)))


def triangular_map(rng: Random, even: int | None) -> tuple[list[dict], tuple | None]:
    """(gamma*(x^a + r^(a-1) x) + alpha*y^c, beta*(y^b + y)) with a = ``even``, or a
    seeded odd a when ``even`` is None; injective iff a is odd.

    Mirrors the triangular generator of the test corpus, with linear terms
    added so that det DF does not vanish on the axes when a is odd.
    """
    a = rng.choice((3, 5, 7)) if even is None else even
    b, c = rng.choice((3, 5)), rng.choice((1, 2))
    gamma, r = rng.choice((F(1, 2), F(1), F(2))), rng.choice((F(1, 2), F(1), F(2)))
    alpha = rng.choice((F(-2), F(-1), F(-1, 2), F(1, 2), F(1), F(2)))
    beta = rng.choice((F(-2), F(-1), F(1), F(2)))
    f = ref.add(fold_or_climb(2, 0, a, gamma, r), _mono(2, 1, c, alpha))
    g = fold_or_climb(2, 1, b, beta, F(1))
    pair = None if even is None else ((-r, F(0)), (F(0), F(0)))
    return [f, g], pair


def diagonal_map(rng: Random, n: int, even: int | None) -> tuple[list[dict], tuple | None]:
    """(gamma_i*(x_i^e_i + r_i^(e_i-1) x_i))_i with distinct odd e_i from 1..n+3,
    except that one seeded coordinate gets ``even``; injective iff ``even`` is
    None. Mirrors the diagonal generator of the test corpus."""
    exponents = rng.sample(range(1, n + 4, 2), n)
    if even is not None:
        exponents[rng.randrange(n)] = even
    components, point = [], [F(0)] * n
    for i, e in enumerate(exponents):
        gamma = rng.choice((F(-2), F(-1), F(-1, 2), F(1, 2), F(1), F(2)))
        r = rng.choice((F(1, 2), F(1), F(2)))
        components.append(fold_or_climb(n, i, e, gamma, r))
        if e == even:
            point[i] = -r
    pair = None if even is None else (tuple(point), (F(0),) * n)
    return components, pair


def check_corpus(seed: int) -> list[Item]:
    rng = Random(seed)
    items = [named_item(name) for name in NAMED]
    for k, (family, even) in enumerate(CORPUS_SLOTS):
        if family == "tri":
            components, pair = triangular_map(rng, even)
        else:
            components, pair = diagonal_map(rng, 2, even)
        names = rng.choice(NAME_SETS)[: len(components)]
        truth = "injective" if even is None else "not_injective"
        text = ref.format_map(components, names, (f"{family} family, truth: {truth}",))
        items.append(Item(name=f"{family}-{k:02d}", text=text, truth=truth, pair=pair))
    rng.shuffle(items)
    return items


def jacbox_map(alpha, beta, gamma) -> list[dict]:
    """(x + alpha*(x - beta*y)^3 + gamma*(x + y)^5, y)."""
    x, y = _var(2, 0), _var(2, 1)
    f = ref.add(x, ref.power(ref.add(x, y, -beta), 3, 2), alpha)
    if gamma:
        f = ref.add(f, ref.power(ref.add(x, y), 5, 2), gamma)
    return [f, y]


def check_jacbox(seed: int) -> list[Item]:
    """The strata in a seeded order with seeded variable names. The seed changes
    nothing else: even the reflection y -> -y, which keeps the interval work,
    moves the Newton searches' cost by up to 40% an item, and a handful of
    items a round cannot average that out."""
    rng = Random(seed)
    items = []
    for k, (alpha, beta, gamma) in enumerate(JACBOX_STRATA):
        components = jacbox_map(alpha, beta, gamma)
        names = rng.choice(NAME_SETS)[:2]
        text = ref.format_map(components, names, ("det DF >= 1, truth: injective",))
        items.append(Item(name=f"jacbox-{k:02d}", text=text, truth="injective",
                          args=("--weights-max", "1")))
    rng.shuffle(items)
    return items


def dense_map(rng: Random, n: int, degree: int) -> list[dict]:
    """Every monomial of total degree 1..degree, non-zero integer coefficients in [-3, 3]."""
    components = []
    for _ in range(n):
        p = {}
        for d in range(1, degree + 1):
            for k in ref.monomials(n, d):
                p[k] = rng.choice((-3, -2, -1, 1, 2, 3))
        components.append(p)
    return components


def decompose_dense(seed: int) -> list[Item]:
    rng = Random(seed)
    items = []
    for k, (n, degree) in enumerate(DENSE_STRATA):
        components = dense_map(rng, n, degree)
        weights = tuple(rng.choice((1, 1, 2)) for _ in range(n))
        names = rng.choice(NAME_SETS)[:n]
        text = ref.format_map(components, names, (f"dense n={n} degree={degree}",))
        items.append(Item(name=f"dense-{k:02d}", text=text, weights=weights,
                          components=tuple(components)))
    rng.shuffle(items)
    return items
