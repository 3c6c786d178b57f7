"""Command-line front end.

Exit codes: 0 success, 1 property check failed, 2 usage error, 3 I/O or
parse error, 4 enumeration capacity or memory exceeded, 5 numeric failure.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import generators as gen
from .axioms import axiom_report, standard_fixtures, write_report
from .errors import CapacityError, FormatError, NumericError
from .fullrank import closure_eval, extract_brute_force, extract_nrank
from .io import read_tensor, read_utf8, write_tensor
from .linalg import RankTolerance
from .ranks import RANK_FUNCTIONS, n_rank
from .tensor import identity_tensor
from .tucker import (
    METHODS,
    SweepConfig,
    default_sweep_config,
    generate_sweep_source,
    run_sweep,
    save_model,
    sweep_to_csv,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_CAPACITY = 4
EXIT_NUMERIC = 5

def _need_shape(args) -> tuple[int, ...]:
    if not args.shape:
        raise ValueError(f"{args.kind} needs --shape")
    return tuple(args.shape)


def _identity(args):
    if args.m is None or args.n is None:
        raise ValueError("identity needs --m and --n")
    return identity_tensor(args.m, args.n)


# gen kind -> builder from the parsed arguments; block-pair builds two tensors
GENERATORS = {
    "zero": lambda a: gen.zero_tensor(_need_shape(a)),
    "rank1": lambda a: gen.random_rank_one(_need_shape(a), seed=a.seed, integer=a.integer),
    "identity": _identity,
    "counterexample-2x3x4": lambda a: gen.counterexample_2x3x4(),
    "counterexample-3x2x2": lambda a: gen.counterexample_3x2x2(),
    "block-pair": lambda a: gen.block_pair(seed=a.seed),
    "planted-tucker": lambda a: gen.planted_tucker(_need_shape(a), tuple(a.core), a.snr, a.seed),
    "random": lambda a: gen.random_tensor(_need_shape(a), seed=a.seed, integer=a.integer),
}


def _tolerance(args) -> RankTolerance:
    return RankTolerance(args.tol_mode, args.tol)


def _add_tol_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tol", type=float, default=None, help="rank tolerance value (default: max(rows,cols)*eps, relative)")
    p.add_argument("--tol-mode", choices=("relative", "absolute"), default="relative")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tenrank", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("gen", help="generate a tensor file")
    p.add_argument("kind", choices=GENERATORS)
    p.add_argument("--out", required=True)
    p.add_argument("--out2", help="second output file (block-pair writes two tensors)")
    p.add_argument("--shape", type=int, nargs="+")
    p.add_argument("--m", type=int, help="order (identity)")
    p.add_argument("--n", type=int, help="dimension (identity)")
    p.add_argument("--core", type=int, nargs="+", default=[20, 4, 4])
    p.add_argument("--snr", type=float, default=20.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--integer", action="store_true")
    p.add_argument("--binary", action="store_true")

    p = sub.add_parser("rank", help="evaluate one scalar rank")
    p.add_argument("file")
    p.add_argument("--fn", choices=RANK_FUNCTIONS, required=True)
    _add_tol_flags(p)

    p = sub.add_parser("nrank", help="per-mode unfolding ranks")
    p.add_argument("file")
    _add_tol_flags(p)

    p = sub.add_parser("fullrank", help="extract a maximum full-rank subtensor")
    p.add_argument("file")
    p.add_argument("--fn", choices=RANK_FUNCTIONS, default="max")
    p.add_argument("--brute", action="store_true", help="search the subtensors in the documented order (small tensors only) instead of extracting from a row basis")
    p.add_argument("--out-subtensor", help="write the extracted subtensor here")
    _add_tol_flags(p)

    p = sub.add_parser("closure", help="closure value of a rank function")
    p.add_argument("file")
    p.add_argument("--fn", choices=RANK_FUNCTIONS, required=True)
    _add_tol_flags(p)

    p = sub.add_parser("axioms", help="run the rank-function axiom battery")
    p.add_argument("--fn", choices=RANK_FUNCTIONS, required=True)
    p.add_argument("--out", help="JSON report path")
    p.add_argument("--witness-dir", help="directory for counterexample tensors")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=200, help="random fixture count")
    _add_tol_flags(p)

    p = sub.add_parser("tucker", help="fit a Tucker model")
    p.add_argument("file")
    p.add_argument("--ranks", type=int, nargs="+", required=True)
    p.add_argument("--method", choices=METHODS, default="hosvd")
    p.add_argument("--outdir", required=True)

    p = sub.add_parser("sweep", help="run the (r, mode-1 cap) error sweep")
    p.add_argument("--config", help="JSON config file (defaults to the built-in grid)")
    p.add_argument("--input", help="tensor file (default: synthetic planted-Tucker source)")
    p.add_argument("--out", required=True)
    p.add_argument("--no-timing", action="store_true", help="write 0 in elapsed_ms for bytewise-reproducible output")
    return parser


def _cmd_gen(args) -> int:
    built = GENERATORS[args.kind](args)
    tensors = built if isinstance(built, tuple) else (built,)
    paths = [args.out, args.out2 or str(Path(args.out).with_suffix("")) + "_z.tns"][: len(tensors)]
    for t, path in zip(tensors, paths):
        write_tensor(t, path, binary=args.binary)
    print("wrote " + " and ".join(paths))
    return EXIT_OK


def _cmd_rank(args) -> int:
    tol = _tolerance(args)
    x = read_tensor(args.file)
    rf = RANK_FUNCTIONS[args.fn](tol)
    print(f"{rf.name}={rf(x)}")
    print(f"tol: {tol.describe()}", file=sys.stderr)
    return EXIT_OK


def _cmd_nrank(args) -> int:
    tol = _tolerance(args)
    x = read_tensor(args.file)
    print("nrank=" + ",".join(map(str, n_rank(x, tol))))
    print(f"tol: {tol.describe()}", file=sys.stderr)
    return EXIT_OK


def _cmd_fullrank(args) -> int:
    tol = _tolerance(args)
    x = read_tensor(args.file)
    rf = RANK_FUNCTIONS[args.fn](tol)
    sub, cert = extract_brute_force(rf, x) if args.brute else extract_nrank(rf, x)
    doc = cert.to_json()
    doc["rank_function"] = rf.name
    doc["tolerance"] = tol.describe()
    if args.out_subtensor:  # first, so a failed write prints no certificate
        write_tensor(sub, args.out_subtensor)
    print(json.dumps(doc, indent=2))
    return EXIT_OK


def _cmd_closure(args) -> int:
    tol = _tolerance(args)
    x = read_tensor(args.file)
    rf = RANK_FUNCTIONS[args.fn](tol)
    print(f"closure_{rf.name}={closure_eval(rf, x)}")
    print(f"tol: {tol.describe()}", file=sys.stderr)
    return EXIT_OK


def _cmd_axioms(args) -> int:
    tol = _tolerance(args)
    rf = RANK_FUNCTIONS[args.fn](tol)
    fixtures = standard_fixtures(seed=args.seed, random_count=args.count)
    report = axiom_report(rf, fixtures)
    doc = write_report(report, args.out, args.witness_dir)
    if args.out is None:
        print(json.dumps(doc, indent=2))
    else:
        print(f"wrote {args.out}")
    for res in report.results:
        status = "pass" if res.passed else "FAIL"
        print(f"{rf.name} {res.name}: {status} ({res.checks} checks)", file=sys.stderr)
    return EXIT_OK if report.confirms(rf.declared_properties) else EXIT_CHECK_FAILED


def _cmd_tucker(args) -> int:
    x = read_tensor(args.file)
    model = METHODS[args.method](x, args.ranks)
    save_model(model, args.outdir)
    print(f"wrote {args.outdir} (relative_error={model.relative_error!r})")
    return EXIT_OK


def _read_sweep_config(path) -> SweepConfig:
    try:
        raw = json.loads(read_utf8(path))
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    except RecursionError as exc:
        raise FormatError(f"{path}: JSON nested too deeply") from exc
    if not isinstance(raw, dict):
        raise FormatError(f"{path}: sweep config must be a JSON object")
    unknown = sorted(set(raw) - set(SweepConfig.__dataclass_fields__))
    if unknown:
        raise FormatError(f"{path}: unknown field {unknown[0]!r}")
    # fields left out keep SweepConfig's defaults; lists become tuples as in the defaults
    config = SweepConfig(**{k: tuple(v) if isinstance(v, list) else v for k, v in raw.items()})
    try:
        config.validate()
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    return config


def _cmd_sweep(args) -> int:
    config = _read_sweep_config(args.config) if args.config else default_sweep_config()
    if args.input:
        source = read_tensor(args.input)
        if source.shape != config.shape:
            raise FormatError(f"{args.input}: shape {source.shape} is not the sweep's shape {config.shape}")
    else:
        try:
            source = generate_sweep_source(config)
        except ValueError as exc:  # only a --config file can give a core that does not fit
            raise FormatError(f"{args.config}: {exc}") from exc
    rows = run_sweep(config, source)
    Path(args.out).write_text(sweep_to_csv(rows, include_timing=not args.no_timing))
    print(f"wrote {args.out} ({len(rows)} rows)")
    return EXIT_OK


_COMMANDS = {
    "gen": _cmd_gen,
    "rank": _cmd_rank,
    "nrank": _cmd_nrank,
    "fullrank": _cmd_fullrank,
    "closure": _cmd_closure,
    "axioms": _cmd_axioms,
    "tucker": _cmd_tucker,
    "sweep": _cmd_sweep,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "seed", 0) < 0:  # numpy's own message does not name the option
            raise ValueError(f"--seed {args.seed} is negative")
        return _COMMANDS[args.verb](args)
    except (FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (CapacityError, MemoryError) as exc:  # numpy names the allocation it refused
        print(f"capacity error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_CAPACITY
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
