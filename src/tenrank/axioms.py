"""Executable battery for the six rank-function axioms and the extras.

The six core checks:

* P1  rank 0 exactly on zero tensors; rank 1 on constructed rank-one tensors
      (converse direction only on integer-valued fixtures, where numerical
      and exact rank coincide);
* P2  identity tensors of order m and dimension n evaluate to n;
* P3  tensors with trailing singleton modes match the matrix rank;
* P4  invariance under nonzero scaling;
* P5  invariance under mode permutation;
* P6  monotonicity under subtensor extraction.

Extras checked the same way: proper (cubic fixtures), strongly proper
(second-largest dimension bound), subadditive (fixture pairs).  A failed
check is data, not an error: the report records the first counterexample.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import generators as gen
from .linalg import DEFAULT_TOL, RankTolerance, matrix_rank
from .ranks import RankFunction, n_rank, _submax
from .tensor import DenseTensor, IndexSelection, add, identity_tensor, permute_modes, scale, subtensor

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


@dataclass
class FixtureSet:
    tensors: list[Fixture]
    pairs: list[FixturePair]
    seed: int


def _is_integer_valued(x: DenseTensor) -> bool:
    return bool(np.array_equal(x.data, np.round(x.data)))


def standard_fixtures(
    seed: int = 0,
    random_count: int = 200,
    random_pairs: int = 100,
) -> FixtureSet:
    """The default battery: reference counterexamples first (so they are the
    witnesses when a property fails), then zeros, rank-ones, identities,
    embedded matrices, and seeded random tensors."""
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
        order = int(rng.choice(ORDERS))
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
    for i in range(random_pairs):
        order = int(rng.choice(ORDERS))
        shape = tuple(int(d) for d in rng.integers(1, MAX_DIM + 1, size=order))
        pairs.append(
            FixturePair(
                f"pair_{i:03d}_{_tag(shape)}",
                gen.random_tensor(shape, seed=(seed, 8, i), integer=i % 3 == 0),
                gen.random_tensor(shape, seed=(seed, 9, i), integer=i % 3 == 0),
            )
        )
    return FixtureSet(tensors=fixtures, pairs=pairs, seed=seed)


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
    for f in fx.tensors:
        r = rf(f.tensor)
        if f.kind == "zero" and r != 0:
            detail = f"zero tensor got rank {r}"
        elif r == 0 and not f.tensor.is_zero():
            detail = "rank 0 on a nonzero tensor"
        elif f.kind == "rank1" and r != 1:
            detail = f"rank-one tensor got rank {r}"
        elif r == 1 and f.integer_valued and any(v != 1 for v in n_rank(f.tensor, tol).ranks):
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
    for f in fx.tensors:
        base = rf(f.tensor)
        for alpha in SCALINGS:
            r = rf(scale(f.tensor, alpha))
            yield f.name, (f.tensor,), r != base and f"rank {base} became {r} under alpha={alpha}"


def _p5(rf, fx, tol):
    for i, f in enumerate(fx.tensors):
        base = rf(f.tensor)
        rng = np.random.default_rng((fx.seed, 10, i))
        for _ in range(PERMUTATIONS_PER_FIXTURE):
            sigma = tuple(int(s) + 1 for s in rng.permutation(f.tensor.order))
            r = rf(permute_modes(f.tensor, sigma))
            yield f.name, (f.tensor,), r != base and f"rank {base} became {r} under {sigma}"


def _random_selection(shape, rng) -> IndexSelection:
    picks = []
    for n in shape:
        k = int(rng.integers(1, n + 1))
        picks.append(tuple(sorted(rng.choice(n, size=k, replace=False) + 1)))
    return IndexSelection(tuple(picks))


def _p6(rf, fx, tol):
    for i, f in enumerate(fx.tensors):
        base = rf(f.tensor)
        rng = np.random.default_rng((fx.seed, 11, i))
        for _ in range(SELECTIONS_PER_FIXTURE):
            r = rf(subtensor(f.tensor, _random_selection(f.tensor.shape, rng)))
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
    for p in fx.pairs:
        rx, ry, rsum = rf(p.x), rf(p.y), rf(add(p.x, p.y))
        yield p.name, (p.x, p.y), rsum > rx + ry and f"rank(x+y)={rsum} > {rx}+{ry}"


# property name -> cases(rf, fixtures, tol), in report order.  Each case is
# one check: (fixture name, witness tensors, failure detail), the detail
# falsy when the check passes.  Cases are generated lazily, so no property
# evaluates rf past its first counterexample.
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


def axiom_report(
    rf: RankFunction,
    fixtures: FixtureSet | None = None,
    tol: RankTolerance = DEFAULT_TOL,
) -> AxiomReport:
    """Run every check against the fixture set and collect per-property results."""
    fx = fixtures if fixtures is not None else standard_fixtures()
    results = [_check(name, cases(rf, fx, tol)) for name, cases in PROPERTIES.items()]
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
            suffixes = ("", "_b", "_c")
            for t, suffix in zip(res.witness, suffixes):
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
