"""Executable battery for the six rank-function axioms and the extras.

The six core checks:

* P1  rank 0 exactly on zero tensors; rank 1 on constructed rank-one tensors
      (converse direction only on integer-valued fixtures: their numerical
      and exact ranks coincide while the entries stay small, as the standard
      set's entries up to 27 in magnitude do, but not in general: the
      3x3x3 diagonal tensor diag(1e17, 1, 1) has exact n-rank (3, 3, 3) and
      numerical n-rank (1, 1, 1));
* P2  identity tensors of order m and dimension n evaluate to n;
* P3  tensors with trailing singleton modes match the matrix rank;
* P4  invariance under nonzero scaling;
* P5  invariance under mode permutation;
* P6  monotonicity under subtensor extraction: ten random subtensors per
      fixture, each mode keeping k indices, k uniform on 1..n, as a uniform
      k-subset.  The draws are read from the fixture's generator's 32-bit
      stream as numpy's ``integers`` and ``choice`` would draw them (by
      Floyd's algorithm beyond 10,000 indices, where ``choice`` may shuffle
      a tail instead), and each subtensor is cut straight from the fixture.

Extras checked the same way: proper (cubic fixtures), strongly proper
(second-largest dimension bound), subadditive (fixture pairs).  A failed
check is data, not an error: the report records the first counterexample.

Reports on one :class:`FixtureSet` share its work through the set's two
tables.  The first holds the derived families: a fixture's P4 scalings, P5
permutations or P6 subtensors, or a pair's sum, each made whole on its
first request.  A family that a scaling or sum overflowing ended keeps the
error, which its property raises only if it gets that far.  The second
holds, per tolerance, the n-rank of every tensor the properties rank, from
one stacked :func:`n_ranks` call on the first report under that tolerance
of a rank function that is a rule on the n-rank; such a report evaluates
rf from it.  rf itself is never evaluated past a counterexample.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import generators as gen
from .linalg import DEFAULT_TOL, RankTolerance, matrix_rank
from .ranks import RankFunction, n_rank, n_ranks, _submax
from .tensor import DenseTensor, _cut, add, identity_tensor, permute_modes, scale

__all__ = [
    "Fixture",
    "FixturePair",
    "FixtureSet",
    "PropertyResult",
    "AxiomReport",
    "standard_fixtures",
    "axiom_report",
    "write_report",
]

AXIOMS = ("P1", "P2", "P3", "P4", "P5", "P6")
EXTRAS = ("proper", "strongly_proper", "subadditive")

MAX_DIM = 6
ORDERS = (2, 3, 4)
RANDOM_PAIRS = 100
SCALINGS = (-2.0, -1.0, 0.5, 3.0)
PERMUTATIONS_PER_FIXTURE = 5
SELECTIONS_PER_FIXTURE = 10


@dataclass(frozen=True)
class Fixture:
    name: str
    tensor: DenseTensor
    kind: str  # zero | rank1 | identity | matrix | random | counterexample
    integer_valued: bool = False
    identity_n: int | None = None


@dataclass(frozen=True)
class FixturePair:
    name: str
    x: DenseTensor
    y: DenseTensor


@dataclass(frozen=True)
class FixtureSet:
    """Fixtures and pairs, with two tables of what the battery derives from
    them: the derived families by key, and the n-rank tables by tolerance.
    Each entry is filled in one go on its first request and lives as long
    as the set, which is immutable, so nothing kept can go stale.
    """

    tensors: tuple[Fixture, ...]
    pairs: tuple[FixturePair, ...]
    seed: int
    _derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _n_ranks: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def derived(self, key, make) -> tuple[list, ValueError | None]:
        """(items, error): the items of make(), and the ValueError that
        ended them early (a scaling or sum that overflows) or None.  make()
        runs once, on the first request for key, with numpy's overflow
        warning off: the error speaks for the overflow."""
        if key not in self._derived:
            items, error = [], None
            with np.errstate(over="ignore"):
                try:
                    for item in make():
                        items.append(item)
                except ValueError as e:
                    error = e
            self._derived[key] = items, error
        return self._derived[key]

    def n_rank_table(self, tol: RankTolerance) -> dict:
        """{tensor: n_rank(tensor, tol)} for every tensor the properties
        rank, from one :func:`n_ranks` call on the first request under tol."""
        if tol not in self._n_ranks:
            tensors = list(dict.fromkeys(_ranked_tensors(self)))
            self._n_ranks[tol] = dict(zip(tensors, n_ranks(tensors, tol)))
        return self._n_ranks[tol]


def _is_integer_valued(x: DenseTensor) -> bool:
    return bool(np.array_equal(x.data, np.round(x.data)))


def standard_fixtures(seed: int = 0, random_count: int = 200) -> FixtureSet:
    """The default battery: reference counterexamples first (so they are the
    witnesses when a property fails), then zeros, rank-ones, identities,
    embedded matrices, and seeded random tensors."""
    if random_count < 0:
        raise ValueError(f"random fixture count {random_count} is negative")
    fixtures: list[Fixture] = [
        Fixture("counterexample_3x2x2", gen.counterexample_3x2x2(), "counterexample", True),
        Fixture("counterexample_2x3x4", gen.counterexample_2x3x4(), "counterexample", True),
    ]

    for shape in [(1,), (4,), (2, 3), (3, 3, 3), (2, 3, 4), (1, 1, 5), (2, 2, 2, 2)]:
        fixtures.append(Fixture(f"zero_{_tag(shape)}", gen.zero_tensor(shape), "zero", True))

    rank1_shapes = [(5,), (3, 4), (2, 2), (2, 3, 4), (3, 3, 3), (2, 2, 2, 2), (1, 4, 2)]
    for i, shape in enumerate(rank1_shapes):
        integer = i % 2 == 0
        t = gen.random_rank_one(shape, seed=(seed, 1, i), integer=integer)
        fixtures.append(Fixture(f"rank1_{_tag(shape)}", t, "rank1", _is_integer_valued(t)))

    for m in (2, 3, 4):
        for n in (1, 2, 3, 4):
            fixtures.append(
                Fixture(f"identity_{m}_{n}", identity_tensor(m, n), "identity", True, identity_n=n)
            )

    rng = np.random.default_rng((seed, 2))
    for i, trailing in enumerate((0, 1, 2, 0, 1, 2)):
        n1, n2 = rng.integers(2, MAX_DIM + 1, size=2)
        if i % 2 == 0:
            mat = rng.integers(-3, 4, size=(n1, n2)).astype(float)
        else:
            r = rng.integers(1, min(n1, n2) + 1)
            mat = (
                rng.integers(-2, 3, size=(n1, r)) @ rng.integers(-2, 3, size=(r, n2))
            ).astype(float)
        fixtures.append(
            Fixture(f"matrix_{i}_{n1}x{n2}", gen.matrix_embedded(mat, trailing), "matrix", True)
        )

    rng = np.random.default_rng((seed, 3))
    for i in range(random_count):
        order = ORDERS[rng.integers(len(ORDERS))]
        if i % 10 == 0:  # keep a steady supply of cubic fixtures for the proper check
            shape = (int(rng.integers(2, MAX_DIM + 1)),) * order
        else:
            shape = tuple(int(d) for d in rng.integers(1, MAX_DIM + 1, size=order))
        style = i % 5
        if style == 0:
            t = gen.random_tensor(shape, seed=(seed, 4, i), integer=True)
        elif style == 1:
            core = tuple(int(rng.integers(1, d + 1)) for d in shape)
            t = gen.tucker_structured(shape, core, seed=(seed, 5, i))
        else:
            t = gen.random_tensor(shape, seed=(seed, 6, i))
        fixtures.append(Fixture(f"random_{i:03d}_{_tag(shape)}", t, "random", _is_integer_valued(t)))

    y, z = gen.block_pair(seed=seed)
    pairs = [FixturePair("block_pair", y, z)]
    rng = np.random.default_rng((seed, 7))
    for i in range(RANDOM_PAIRS):
        order = ORDERS[rng.integers(len(ORDERS))]
        shape = tuple(int(d) for d in rng.integers(1, MAX_DIM + 1, size=order))
        pairs.append(
            FixturePair(
                f"pair_{i:03d}_{_tag(shape)}",
                gen.random_tensor(shape, seed=(seed, 8, i), integer=i % 3 == 0),
                gen.random_tensor(shape, seed=(seed, 9, i), integer=i % 3 == 0),
            )
        )
    return FixtureSet(tensors=tuple(fixtures), pairs=tuple(pairs), seed=seed)


def _tag(shape) -> str:
    return "x".join(str(n) for n in shape)


@dataclass
class PropertyResult:
    name: str
    passed: bool
    checks: int
    witness_name: str | None = None
    witness: tuple[DenseTensor, ...] = ()
    detail: str = ""


@dataclass
class AxiomReport:
    rank_function: str
    tol: RankTolerance
    results: list[PropertyResult] = field(default_factory=list)

    def result(self, name: str) -> PropertyResult:
        for r in self.results:
            if r.name == name:
                return r
        raise KeyError(name)

    def axioms_pass(self) -> bool:
        return all(self.result(p).passed for p in AXIOMS)

    def confirms(self, declared: frozenset[str]) -> bool:
        return self.axioms_pass() and all(self.result(p).passed for p in declared)


def _p1(rf, fx, tol):
    # a table under tol holds every fixture; without one, rank and keep nothing
    table = fx._n_ranks.get(tol)
    unfolding_ranks = lambda x: n_rank(x, tol) if table is None else table[x]
    for f in fx.tensors:
        r = rf(f.tensor)
        if f.kind == "zero" and r != 0:
            detail = f"zero tensor got rank {r}"
        elif r == 0 and not f.tensor.is_zero():
            detail = "rank 0 on a nonzero tensor"
        elif f.kind == "rank1" and r != 1:
            detail = f"rank-one tensor got rank {r}"
        elif r == 1 and f.integer_valued and any(v != 1 for v in unfolding_ranks(f.tensor)):
            detail = "rank 1 on a non-rank-one tensor"
        else:
            detail = ""
        yield f.name, (f.tensor,), detail


def _p2(rf, fx, tol):
    for f in fx.tensors:
        if f.kind == "identity":
            r = rf(f.tensor)
            yield f.name, (f.tensor,), r != f.identity_n and f"expected {f.identity_n}, got {r}"


def _p3(rf, fx, tol):
    for f in fx.tensors:
        if f.kind == "matrix":
            n1, n2 = f.tensor.shape[:2]
            expected = matrix_rank(f.tensor.data.reshape(n1, n2), tol)
            r = rf(f.tensor)
            yield f.name, (f.tensor,), r != expected and f"matrix rank {expected}, got {r}"


def _p4(rf, fx, tol):
    for i, f in enumerate(fx.tensors):
        base = rf(f.tensor)
        for alpha, t in zip(SCALINGS, _each(_scalings(fx, i))):
            r = rf(t)
            yield f.name, (f.tensor,), r != base and f"rank {base} became {r} under alpha={alpha}"


def _p5(rf, fx, tol):
    for i, f in enumerate(fx.tensors):
        base = rf(f.tensor)
        for sigma, t in _each(_permutations(fx, i)):
            r = rf(t)
            yield f.name, (f.tensor,), r != base and f"rank {base} became {r} under {sigma}"


# The derived families, one function each: the (items, error) that
# fx.derived keeps for one fixture or pair.  The properties read them
# through _each, and _ranked_tensors reads their items.


def _scalings(fx: FixtureSet, i: int):
    """Fixture i scaled by each of SCALINGS."""
    x = fx.tensors[i].tensor
    return fx.derived(("P4", i), lambda: (scale(x, alpha) for alpha in SCALINGS))


def _permutations(fx: FixtureSet, i: int):
    """(sigma, fixture i with its modes permuted by sigma), sigma random."""
    x = fx.tensors[i].tensor

    def make():
        rng = np.random.default_rng((fx.seed, 10, i))
        for _ in range(PERMUTATIONS_PER_FIXTURE):
            sigma = tuple(int(s) + 1 for s in rng.permutation(x.order))
            yield sigma, permute_modes(x, sigma)

    return fx.derived(("P5", i), make)


def _subtensors(fx: FixtureSet, i: int):
    """Random subtensors of fixture i, cut straight from its entries."""
    x = fx.tensors[i].tensor

    def make():
        rng = np.random.default_rng((fx.seed, 11, i))
        return (_cut(x, picks) for picks in _random_picks(x.shape, SELECTIONS_PER_FIXTURE, rng))

    return fx.derived(("P6", i), make)


def _sums(fx: FixtureSet, j: int):
    """The sum of pair j, as the one item of its family."""
    p = fx.pairs[j]
    return fx.derived(("sum", j), lambda: [add(p.x, p.y)])


def _each(family):
    """A family's items, then the error that ended it, if any."""
    items, error = family
    yield from items
    if error is not None:
        raise error


# P6's draws, made from the generator's 32-bit words: numpy's own integers
# and choice calls give the same integers but spend most of their time on
# argument handling, once per mode.


def _words(rng):
    """rng's stream of 32-bit words, read 64 at a time."""
    while True:
        yield from rng.integers(0, 2**32, size=64, dtype=np.uint32).tolist()


def _uniform(words, n: int) -> int:
    """Uniform on 1..n, n < 2**32, as numpy's integers(1, n + 1) draws it:
    Lemire's bounded draw (ACM TOMACS 2019), rejection step included; n = 1
    reads no word."""
    if n == 1:
        return 1
    m = next(words) * n
    if m & 0xFFFFFFFF < n:
        floor = 2**32 % n
        while m & 0xFFFFFFFF < floor:
            m = next(words) * n
    return 1 + (m >> 32)


def _random_picks(shape, count: int, rng):
    """count random selections of a tensor of this shape, each a sorted list
    of 1-based indices per mode: k uniform on 1..n, then a uniform k-subset
    by Floyd's sampling (Bentley and Floyd, CACM 1987).  The integers are
    those of rng.integers(1, n + 1) and a sorted Generator.choice(n, size=k,
    replace=False), whose shuffle of the subset takes k - 1 more draws, read
    and dropped here.  Above 10,000 indices choice may shuffle a tail
    instead; this stays with Floyd's, which still gives a uniform k-subset."""
    words = _words(rng)
    for _ in range(count):
        picks = []
        for n in shape:
            k, kept = _uniform(words, n), set()
            for j in range(n - k + 1, n + 1):
                t = _uniform(words, j)
                kept.add(j if t in kept else t)
            for j in range(k, 1, -1):
                _uniform(words, j)
            picks.append(sorted(kept))
        yield picks


def _p6(rf, fx, tol):
    for i, f in enumerate(fx.tensors):
        base = rf(f.tensor)
        for t in _each(_subtensors(fx, i)):
            r = rf(t)
            yield f.name, (f.tensor,), r > base and f"subtensor rank {r} exceeds {base}"


def _proper(rf, fx, tol):
    for f in fx.tensors:
        if len(set(f.tensor.shape)) == 1:
            n, r = f.tensor.shape[0], rf(f.tensor)
            yield f.name, (f.tensor,), r > n and f"rank {r} > dimension {n}"


def _strongly_proper(rf, fx, tol):
    for f in fx.tensors:
        if f.tensor.order >= 2:
            bound = _submax(f.tensor.shape)
            r = rf(f.tensor)
            yield f.name, (f.tensor,), r > bound and f"rank {r} > submax dim {bound}"


def _subadditive(rf, fx, tol):
    for j, p in enumerate(fx.pairs):
        rx, ry = rf(p.x), rf(p.y)
        rsum = rf(next(_each(_sums(fx, j))))
        yield p.name, (p.x, p.y), rsum > rx + ry and f"rank(x+y)={rsum} > {rx}+{ry}"


# property name -> cases(rf, fixtures, tol), in report order.  Each case
# is one check: (fixture name, witness tensors, failure detail), the detail
# falsy when the check passes.  Cases are generated lazily, so no property
# evaluates rf past its first counterexample, nor asks for a derived family
# past it.  For a rule on the n-rank, though, the set's n-rank table under
# rf's tolerance has made every family (see FixtureSet.n_rank_table).
PROPERTIES = {
    "P1": _p1,
    "P2": _p2,
    "P3": _p3,
    "P4": _p4,
    "P5": _p5,
    "P6": _p6,
    "proper": _proper,
    "strongly_proper": _strongly_proper,
    "subadditive": _subadditive,
}


def _check(name: str, cases) -> PropertyResult:
    """Count one property's checks up to and including its first failure."""
    checks = 0
    for fixture_name, witness, detail in cases:
        checks += 1
        if detail:
            return PropertyResult(name, False, checks, fixture_name, witness, detail)
    return PropertyResult(name, True, checks)


def _ranked_tensors(fx: FixtureSet):
    """The fixtures, the pair tensors and every derived tensor of fx."""
    yield from (f.tensor for f in fx.tensors)
    for p in fx.pairs:
        yield from (p.x, p.y)
    for i in range(len(fx.tensors)):
        yield from _scalings(fx, i)[0]
        yield from (t for _, t in _permutations(fx, i)[0])
        yield from _subtensors(fx, i)[0]
    for j in range(len(fx.pairs)):
        yield from _sums(fx, j)[0]


def axiom_report(rf: RankFunction, fixtures: FixtureSet) -> AxiomReport:
    """Run every check against the fixture set and collect per-property results.

    P1's converse and P3 compare with unfolding and matrix ranks under rf's
    own tolerance when rf is a rule on the n-rank, and under DEFAULT_TOL
    otherwise; the report records which.  A rule on the n-rank is evaluated
    from the set's n-rank table under its tolerance, so every such function
    on the set shares one table per tolerance.  The table comes from one
    :func:`n_ranks` call that factors the unfoldings one SVD call per
    shape: on the standard set some 160 calls instead of some 7,800.  The
    derived families, the set's other table, are made once for every
    report on the set.
    """
    if rf.nrank_rule is None:
        shared, tol = rf, DEFAULT_TOL
    else:
        rule, tol = rf.nrank_rule
        table = fixtures.n_rank_table(tol)
        shared = lambda x: rule(table[x])
    results = [_check(name, cases(shared, fixtures, tol)) for name, cases in PROPERTIES.items()]
    return AxiomReport(rank_function=rf.name, tol=tol, results=results)


def write_report(report: AxiomReport, json_path, witness_dir=None) -> dict:
    """Serialize a report to JSON; witness tensors go to .tns files alongside."""
    from .io import write_text

    rows = []
    for res in report.results:
        row = {
            "rank_function": report.rank_function,
            "property": res.name,
            "status": "pass" if res.passed else "fail",
            "checks": res.checks,
        }
        if res.detail:
            row["detail"] = res.detail
        if res.witness_name:
            row["witness_fixture"] = res.witness_name
        if res.witness and witness_dir is not None:
            wdir = Path(witness_dir)
            wdir.mkdir(parents=True, exist_ok=True)
            for t, suffix in zip(res.witness, ("", "_b")):  # one tensor, or a pair
                wpath = wdir / f"witness_{report.rank_function}_{res.name}{suffix}.tns"
                write_text(t, wpath)
                key = "witness_file" if suffix == "" else f"witness_file{suffix}"
                row[key] = str(wpath)
        rows.append(row)
    doc = {
        "rank_function": report.rank_function,
        "tolerance": report.tol.describe(),
        "results": rows,
    }
    if json_path is not None:
        Path(json_path).write_text(json.dumps(doc, indent=2) + "\n")
    return doc
