"""The four benchmark workloads: inputs from a seed, job lists, verification.

A job is one CLI invocation (``dense``, ``sweep``) or one public library
call (``enum``, ``battery``).  Each job has a check that runs after the pass,
outside the timed region, and returns ``(ok, value)``; a workload's
``cross_check`` then compares values between jobs of one pass and against
the first pass.  Checks compare against references the benchmark computes
itself (numpy ranks and singular values of its own unfoldings), against
mathematical bounds, or against other outputs; none pins roundoff digits.
"""
from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import tenrank
from tenrank import generators as gen
from tenrank.io import read_tensor, write_binary, write_text
from tenrank.tucker import load_model

ERR_TOL = 1e-9  # slack on error identities and bounds, far above roundoff
ORDER_TOL = 1e-12  # HOOI starts from ST-HOSVD and never increases the error

# Problem sizes.  "full" is what the benchmark measures; "toy" is for the
# runner's smoke test only.
SIZES = {
    "full": {
        "dense_n": 100,
        "dense_f": 90,
        "dense_core": 10,
        # three 4x4x4x4 walks per pass: with four passes job_tail_s, the
        # 11th-largest job, is the middle of twelve like walks, not an
        # extreme of a few walks or a spike on a millisecond job
        "walks": ((6, 6, 6), (4, 4, 4, 4), (4, 4, 4, 4), (4, 4, 4, 4)),
        "oracle_scale": 1,
        "battery_fixtures": 200,
    },
    "toy": {
        "dense_n": 12,
        "dense_f": 10,
        "dense_core": 4,
        "walks": ((3, 3, 3), (2, 2, 2, 2), (2, 2, 2, 2), (2, 2, 2, 2)),
        "oracle_scale": 0,
        "battery_fixtures": 20,
    },
}


@dataclass
class Job:
    name: str
    check: Callable[[Any], tuple[bool, Any]]
    argv: list[str] | None = None  # CLI job: arguments after `tenrank`
    call: Callable[[dict], Any] | None = None  # library job; gets the pass's earlier results


@dataclass
class CliOutcome:
    returncode: int
    stdout: str
    stderr: str
    max_rss_kb: int = 0


# ----------------------------------------------------------------- references


def unfoldings(a: np.ndarray):
    """The benchmark's own mode-j unfoldings (column order is irrelevant here)."""
    return [np.moveaxis(a, j, 0).reshape(a.shape[j], -1) for j in range(a.ndim)]


def ref_nrank(a: np.ndarray) -> tuple[int, ...]:
    """Unfolding ranks by numpy's default rule, max(rows, cols) * eps * sigma_max."""
    return tuple(int(np.linalg.matrix_rank(m)) for m in unfoldings(a))


def submax(values) -> int:
    ordered = sorted(values, reverse=True)
    return ordered[1] if len(ordered) > 1 else ordered[0]


@dataclass
class FitBounds:
    """Error bounds for a rank-(r_1..r_N) Tucker fit from unfolding spectra.

    Any fit has error >= max_n tail_n; HOSVD and ST-HOSVD have error
    <= sqrt(sum_n tail_n^2) (Vannieuwenhoven, Vandebril & Meerbergen 2012),
    where tail_n is the discarded singular-value energy of unfolding n.
    """

    lower: float
    upper: float

    @classmethod
    def of(cls, a: np.ndarray, ranks) -> "FitBounds":
        norm2 = float(np.sum(a * a))
        tails = [
            float(np.sum(np.linalg.svd(m, compute_uv=False)[r:] ** 2))
            for m, r in zip(unfoldings(a), ranks)
        ]
        return cls(math.sqrt(max(tails) / norm2), math.sqrt(sum(tails) / norm2))

    def holds(self, err: float) -> bool:
        return self.lower - ERR_TOL <= err <= self.upper + ERR_TOL


def check_fit(outcome: CliOutcome, x, outdir: Path, ranks, bounds: FitBounds):
    """The printed error equals the saved model's error and lies within bounds.

    A saved rank may be below the asked one: HOOI keeps at most the product
    of the other modes' ranks, which loses nothing.
    """
    match = re.search(r"relative_error=([^)]+)\)", outcome.stdout)
    if match is None:
        return False, None
    err = float(match.group(1))
    model = load_model(outdir)
    again = tenrank.relative_error(tenrank.tucker.reconstruct(model), x)
    ok = (
        all(got <= asked for got, asked in zip(model.ranks, ranks))
        and abs(again - err) <= ERR_TOL * max(1.0, err)
        and bounds.holds(err)
    )
    return ok, err


def parse_cert(stdout: str) -> tenrank.FullRankCertificate:
    doc = json.loads(stdout)
    sel = tenrank.IndexSelection(tuple(tuple(m) for m in doc["selection"]))
    return tenrank.FullRankCertificate(doc["mode"], tuple(doc["indices"]), doc["rank"], sel)


def full_rank_witness(cert, a: np.ndarray, rank_of) -> bool:
    """cert.rank is a kept dimension of its mode, and the selected subtensor
    has that rank under ``rank_of`` (evaluated on numpy reference ranks)."""
    if cert.mode is None:
        return cert.rank == 0
    kept = cert.selection.result_shape()
    sub = a[np.ix_(*[np.asarray(m) - 1 for m in cert.selection.indices])]
    return cert.rank == kept[cert.mode - 1] and rank_of(ref_nrank(sub)) == cert.rank


# ------------------------------------------------------------------ workloads


class Workload:
    name = ""
    cli = False
    nominal_pass_s = 1.0  # converts --seconds into a fixed pass count

    def __init__(self, seed: int, scale: str):
        self.seed = seed
        self.size = SIZES[scale]
        self.inputs: dict = {}

    def make_inputs(self, directory: Path) -> None:
        """Generate the inputs (timed as set-up); files go to ``directory``."""

    def prepare_reference(self) -> None:
        """Compute reference values for the checks (untimed, once per run)."""

    def jobs(self, pass_dir: Path) -> list[Job]:
        raise NotImplementedError

    def cross_check(self, values: dict, first: dict | None) -> set[str]:
        return set()

    def fit_errors(self, values: dict) -> list[float]:
        return []


class Dense(Workload):
    """Large dense tensors through the CLI on TNS1 binary files."""

    name = "dense"
    cli = True
    nominal_pass_s = 5.0
    METHODS = ("hosvd", "st_hosvd", "hooi")

    def make_inputs(self, directory):
        n, nf, c = self.size["dense_n"], self.size["dense_f"], self.size["dense_core"]
        core = (c, c, c)
        tensors = {
            "L": gen.tucker_structured((n, n, n), core, seed=(self.seed, 1)),
            "N": gen.planted_tucker((n, n, n), core, 20.0, seed=(self.seed, 2)),
            "F": gen.planted_tucker((nf, nf, nf), core, 20.0, seed=(self.seed, 3)),
        }
        for key, x in tensors.items():
            write_binary(x, directory / f"{key}.tns")
        self.inputs = {"dir": directory, **tensors}

    def prepare_reference(self):
        c = self.size["dense_core"]
        self.ranks = (c, c, c)
        self.ref_nrank_L = ref_nrank(self.inputs["L"].data)
        self.ref_max = {key: max(ref_nrank(self.inputs[key].data)) for key in ("L", "F")}
        self.bounds = FitBounds.of(self.inputs["N"].data, self.ranks)

    def jobs(self, pass_dir):
        d = self.inputs["dir"]
        sub = pass_dir / "sub_L.tns"
        ranks = [str(r) for r in self.ranks]
        jobs = [
            Job("nrank_L", self._check_nrank, argv=["nrank", str(d / "L.tns")]),
            Job(
                "fullrank_L",
                lambda o: self._check_cert(o, "L", sub),
                argv=["fullrank", str(d / "L.tns"), "--out-subtensor", str(sub)],
            ),
            Job("fullrank_F", lambda o: self._check_cert(o, "F", None), argv=["fullrank", str(d / "F.tns")]),
        ]
        for method in self.METHODS:
            out = pass_dir / f"model_{method}"
            jobs.append(
                Job(
                    f"tucker_{method}",
                    lambda o, out=out: check_fit(o, self.inputs["N"], out, self.ranks, self.bounds),
                    argv=["tucker", str(d / "N.tns"), "--ranks", *ranks, "--method", method, "--outdir", str(out)],
                )
            )
        return jobs

    def _check_nrank(self, o):
        expected = "nrank=" + ",".join(str(r) for r in self.ref_nrank_L)
        return o.stdout.strip() == expected, None

    def _check_cert(self, o, key, sub_path):
        x = self.inputs[key]
        cert = parse_cert(o.stdout)
        ok = cert.rank == self.ref_max[key] and tenrank.verify_span_certificate(x, cert)
        if ok and sub_path is not None:
            grid = np.ix_(*[np.asarray(m) - 1 for m in cert.selection.indices])
            ok = np.array_equal(read_tensor(sub_path).data, x.data[grid])
        return ok, cert.rank

    def cross_check(self, values, first):
        hooi, st = values.get("tucker_hooi"), values.get("tucker_st_hosvd")
        if hooi is not None and st is not None and hooi > st + ORDER_TOL:
            return {"tucker_hooi"}
        return set()

    def fit_errors(self, values):
        return [values[f"tucker_{m}"] for m in self.METHODS if values.get(f"tucker_{m}") is not None]


class Sweep(Workload):
    """Small fits and short verbs through the CLI on text files."""

    name = "sweep"
    cli = True
    nominal_pass_s = 5.0
    SHAPE, CORE = (100, 11, 11), (20, 4, 4)

    def make_inputs(self, directory):
        ce234, ce322 = directory / "ce234.tns", directory / "ce322.tns"
        write_text(gen.counterexample_2x3x4(), ce234)
        write_text(gen.counterexample_3x2x2(), ce322)
        configs = {}
        for method in ("hooi", "st_hosvd"):
            configs[method] = directory / f"sweep_{method}.json"
            configs[method].write_text(json.dumps({"method": method, "seed": self.seed}))
        self.inputs = {"ce234": ce234, "ce322": ce322, "configs": configs}

    def prepare_reference(self):
        self.traffic = gen.planted_tucker(self.SHAPE, self.CORE, 20.0, self.seed)
        self.traffic_nrank = ref_nrank(self.traffic.data)
        self.bounds = FitBounds.of(self.traffic.data, self.CORE)
        ce234 = gen.counterexample_2x3x4()
        self.ce234 = ce234.data
        self.ce234_submax = submax(ref_nrank(ce234.data))
        self.ce322_closure = tenrank.closure_eval(tenrank.submax_tucker(), gen.counterexample_3x2x2())
        self.configs = {
            "hosvd": tenrank.default_sweep_config(),
            "hooi": tenrank.SweepConfig(method="hooi", seed=self.seed),
            "st_hosvd": tenrank.SweepConfig(method="st_hosvd", seed=self.seed),
        }

    def jobs(self, pass_dir):
        traffic = pass_dir / "traffic.tns"
        model = pass_dir / "model"
        csv = {m: pass_dir / f"sweep_{m}.csv" for m in ("hosvd", "hooi", "st_hosvd")}
        cfg = self.inputs["configs"]
        return [
            Job(
                "sweep_hosvd",
                lambda o: self._check_sweep(csv["hosvd"], "hosvd"),
                argv=["sweep", "--no-timing", "--out", str(csv["hosvd"])],
            ),
            Job(
                "sweep_hooi",
                lambda o: self._check_sweep(csv["hooi"], "hooi"),
                argv=["sweep", "--config", str(cfg["hooi"]), "--no-timing", "--out", str(csv["hooi"])],
            ),
            Job(
                "sweep_st_hosvd",
                lambda o: self._check_sweep(csv["st_hosvd"], "st_hosvd"),
                argv=["sweep", "--config", str(cfg["st_hosvd"]), "--no-timing", "--out", str(csv["st_hosvd"])],
            ),
            Job(
                "gen",
                lambda o: (self._check_gen(traffic), None),
                argv=[
                    "gen", "planted-tucker", "--shape", *map(str, self.SHAPE),
                    "--core", *map(str, self.CORE), "--seed", str(self.seed), "--out", str(traffic),
                ],
            ),
            Job(
                "tucker",
                lambda o: check_fit(o, read_tensor(traffic), model, self.CORE, self.bounds),
                argv=["tucker", str(traffic), "--ranks", *map(str, self.CORE), "--method", "hooi", "--outdir", str(model)],
            ),
            Job(
                "nrank",
                lambda o: (o.stdout.strip() == "nrank=" + ",".join(map(str, self.traffic_nrank)), None),
                argv=["nrank", str(traffic)],
            ),
            Job(
                "rank",
                lambda o: (o.stdout.strip() == f"submax_tucker={self.ce234_submax}", None),
                argv=["rank", str(self.inputs["ce234"]), "--fn", "submax"],
            ),
            Job(
                "fullrank_brute",
                self._check_brute,
                argv=["fullrank", str(self.inputs["ce234"]), "--fn", "submax", "--brute"],
            ),
            Job(
                "closure",
                lambda o: (o.stdout.strip() == f"closure_submax_tucker={self.ce322_closure}", None),
                argv=["closure", str(self.inputs["ce322"]), "--fn", "submax"],
            ),
        ]

    def _check_gen(self, path):
        x = read_tensor(path)
        return x.shape == self.traffic.shape and np.allclose(x.data, self.traffic.data, rtol=1e-12, atol=0.0)

    def _check_sweep(self, path, method):
        """44 rows over the grid with errors in [0, 1]; the HOSVD grid also
        has acceptance criterion 7's dominance (first-mode headroom never
        hurts, which holds for HOSVD because its factors are nested)."""
        raw = path.read_bytes()
        lines = raw.decode().splitlines()
        config = self.configs[method]
        grid = [(r, str(cap)) for r in config.r_values for cap in config.mode1_caps]
        if lines[0] != tenrank.tucker.CSV_HEADER or len(lines) - 1 != len(grid):
            return False, None
        err = {}
        for line in lines[1:]:
            r, cap, row_method, e, _ = line.split(",")
            err[(int(r), cap)] = float(e)
            if row_method != method or not 0.0 <= float(e) <= 1.0:
                return False, None
        if sorted(err) != sorted(grid):
            return False, None
        if method == "hosvd":
            for r, cap in grid:
                if err[(r, cap)] > err[(r, "r")] + ERR_TOL:
                    return False, None
        return True, {"bytes": raw, "errors": err}

    def _check_brute(self, o):
        cert = parse_cert(o.stdout)
        return cert.rank <= self.ce234_submax and full_rank_witness(cert, self.ce234, submax), cert.rank

    def cross_check(self, values, first):
        failed = set()
        hooi, st = values.get("sweep_hooi"), values.get("sweep_st_hosvd")
        if hooi and st and any(hooi["errors"][k] > st["errors"][k] + ORDER_TOL for k in hooi["errors"]):
            failed.add("sweep_hooi")
        for name in ("sweep_hosvd", "sweep_hooi", "sweep_st_hosvd"):
            if first and values.get(name) and first.get(name):
                if values[name]["bytes"] != first[name]["bytes"]:
                    failed.add(name)
        return failed

    def fit_errors(self, values):
        errs = []
        for name in ("sweep_hosvd", "sweep_hooi", "sweep_st_hosvd"):
            if values.get(name):
                errs.extend(values[name]["errors"].values())
        if values.get("tucker") is not None:
            errs.append(values["tucker"])
        return errs


def inflated() -> tenrank.RankFunction:
    """max_tucker_rank + 1 with no shape bound: the ceiling early stop can
    never fire, so extraction walks every selection."""
    return tenrank.RankFunction(
        "inflated", lambda x: 0 if x.is_zero() else tenrank.max_tucker_rank(x) + 1
    )


class Enum(Workload):
    """Subtensor enumeration through in-process library calls."""

    name = "enum"
    nominal_pass_s = 5.0

    def make_inputs(self, directory):
        s = self.seed
        self.inputs = {
            "batch": self._oracle_batch(),
            "closure": self._closure_fixtures(),
            "walks": [
                gen.random_tensor(shape, seed=(s, 30, i)) for i, shape in enumerate(self.size["walks"])
            ],
        }

    def _oracle_batch(self):
        """Acceptance criterion 4's recipe: generic, Tucker-structured,
        duplicated-slice, 8x8 matrix and rank-one tensors.  As there, the
        shapes come from a fixed generator and the seed sets the entries, so
        every seed asks for the same amount of enumeration."""
        s, k = self.seed, self.size["oracle_scale"]
        rng = np.random.default_rng(17)
        batch = []
        for i in range(30 if k else 6):
            order = int(rng.integers(2, 4))
            shape = tuple(int(d) for d in rng.integers(2, 6, size=order))
            batch.append(gen.random_tensor(shape, seed=(s, 1, i)))
        for i in range(10 if k else 2):
            shape = (int(rng.integers(3, 6)),) * 3
            core = tuple(max(1, d - int(rng.integers(1, 3))) for d in shape)
            batch.append(gen.tucker_structured(shape, core, seed=(s, 2, i)))
        for i in range(6 if k else 1):
            base = gen.random_tensor((2, 3, 4), seed=(s, 3, i))
            dup = np.concatenate([base.data, base.data[:, :, :2]], axis=2)
            batch.append(tenrank.DenseTensor(dup))
        for i in range(4 if k else 1):
            batch.append(gen.random_tensor((8, 8), seed=(s, 4, i)))
            batch.append(gen.random_rank_one((4, 4, 4), seed=(s, 5, i)))
        return batch

    def _closure_fixtures(self):
        """Acceptance criterion 5's fixtures as (tensor, expected submax closure or None)."""
        s = self.seed
        plain = [
            gen.counterexample_2x3x4(),
            gen.counterexample_3x2x2(),
            tenrank.identity_tensor(2, 4),
            gen.zero_tensor((2, 3)),
            gen.zero_tensor((2, 2, 2)),
            tenrank.DenseTensor([1.0, -2.0, 0.5, 3.0]),
            gen.random_tensor((2, 3), seed=(s, 100), integer=True),
            gen.random_tensor((3, 3), seed=(s, 101)),
            gen.random_tensor((2, 2, 3), seed=(s, 102), integer=True),
            gen.random_tensor((3, 3, 3), seed=(s, 103)),
            gen.random_tensor((2, 3, 4), seed=(s, 104)),
            gen.tucker_structured((3, 3, 3), (2, 2, 2), seed=(s, 105)),
            gen.tucker_structured((4, 3, 2), (2, 2, 1), seed=(s, 106)),
        ]
        ones = [
            gen.random_rank_one((2, 3, 2), seed=(s, 107)),
            gen.random_rank_one((3, 3), seed=(s, 108)),
            gen.random_rank_one((2, 2, 2, 2), seed=(s, 109)),
        ]
        return (
            [(x, None) for x in plain]
            + [(tenrank.identity_tensor(3, 3), 3)]
            + [(x, 1) for x in ones]
        )

    def prepare_reference(self):
        self.batch_nrank = [ref_nrank(x.data) for x in self.inputs["batch"]]
        self.closure_nrank = [ref_nrank(x.data) for x, _ in self.inputs["closure"]]

    def jobs(self, pass_dir):
        F = tenrank
        jobs = []
        for i, x in enumerate(self.inputs["batch"]):
            nr = self.batch_nrank[i]
            jobs += [
                Job(f"fast_{i}", lambda c, nr=nr: (c[1].rank == max(nr), c[1].rank),
                    call=lambda res, x=x: F.extract_max_tucker(x)),
                Job(f"brute_max_{i}", lambda c, nr=nr: (c[1].rank == max(nr), c[1].rank),
                    call=lambda res, x=x: F.extract_brute_force(F.max_tucker(), x)),
                Job(f"brute_sub_{i}", lambda c, nr=nr, x=x: self._check_brute_sub(c[1], nr, x),
                    call=lambda res, x=x: F.extract_brute_force(F.submax_tucker(), x)),
                Job(f"verify_{i}", lambda v: (v is True, None),
                    call=lambda res, x=x, i=i: F.verify_span_certificate(x, res[f"fast_{i}"][1])),
            ]
        for j, (x, expected) in enumerate(self.inputs["closure"]):
            nr = self.closure_nrank[j]
            jobs += [
                Job(f"closure_max_{j}", lambda v, nr=nr: (v == max(nr), v),
                    call=lambda res, x=x: F.closure_eval(F.max_tucker(), x)),
                Job(f"closure_sub_{j}", lambda v, nr=nr, e=expected: (v <= submax(nr) and (e is None or v == e), v),
                    call=lambda res, x=x: F.closure_rank_function(F.submax_tucker())(x)),
                Job(f"closure2_sub_{j}", lambda v: (True, v),  # compared in cross_check
                    call=lambda res, x=x: F.closure_rank_function(F.closure_rank_function(F.submax_tucker()))(x)),
            ]
        for k, w in enumerate(self.inputs["walks"]):
            jobs.append(
                Job(f"walk_{k}", lambda c, w=w: (full_rank_witness(c[1], w.data, lambda nr: max(nr) + 1), c[1].rank),
                    call=lambda res, w=w: F.extract_brute_force(inflated(), w))
            )
        return jobs

    def _check_brute_sub(self, cert, nr, x):
        ok = cert.rank <= submax(nr) and full_rank_witness(cert, x.data, submax)
        return ok, cert.rank

    def cross_check(self, values, first):
        failed = set()
        for i in range(len(self.inputs["batch"])):
            if values.get(f"fast_{i}") != values.get(f"brute_max_{i}"):
                failed.add(f"brute_max_{i}")
        for j in range(len(self.inputs["closure"])):
            if values.get(f"closure2_sub_{j}") != values.get(f"closure_sub_{j}"):
                failed.add(f"closure2_sub_{j}")
        return failed


class Battery(Workload):
    """The axiom battery for three rank functions, in process."""

    name = "battery"
    nominal_pass_s = 2.5

    def jobs(self, pass_dir):
        F = tenrank
        count = self.size["battery_fixtures"]

        def fixtures(res):
            return F.standard_fixtures(seed=self.seed, random_count=count)

        def check_fixtures(fx):
            randoms = sum(1 for f in fx.tensors if f.kind == "random")
            return randoms == count and len(fx.pairs) >= 2, None

        def check_report(report, rf_factory, must_fail=None):
            declared = rf_factory().declared_properties
            ok = report.confirms(declared)
            if must_fail is not None:
                prop, witness = must_fail
                res = report.result(prop)
                ok = ok and not res.passed and res.witness_name == witness
            return ok, None

        def min_rank():
            return F.min_rank(F.max_tucker(), F.submax_tucker())

        return [
            Job("fixtures", check_fixtures, call=fixtures),
            Job("report_max",
                lambda r: check_report(r, F.max_tucker, ("strongly_proper", "counterexample_3x2x2")),
                call=lambda res: F.axiom_report(F.max_tucker(), res["fixtures"])),
            Job("report_submax",
                lambda r: check_report(r, F.submax_tucker, ("subadditive", "block_pair")),
                call=lambda res: F.axiom_report(F.submax_tucker(), res["fixtures"])),
            Job("report_min", lambda r: check_report(r, min_rank),
                call=lambda res: F.axiom_report(min_rank(), res["fixtures"])),
        ]


WORKLOADS = {cls.name: cls for cls in (Dense, Sweep, Enum, Battery)}
