"""Command line front end.

Commands:
  analyze       exact G report (plus concurrence) for a state file, or a
                G estimate when given a measurement-record file
  scan-bounds   CSV of (C, G) samples plus the two analytic bound curves
  purity-slice  CSV of a fixed-purity ensemble plus a per-bin spread summary
  sample        finite-shot simulation of the 9-setting protocol
  ensemble      run a generator described by an ensemble-spec JSON file

scan-bounds, purity-slice and sample take --seed with a fixed default, so
bare invocations are reproducible.  Exit codes: 0 success, 1 runtime
error, 2 input error (bad integer options included, reported by argparse).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import __version__
from .concurrence import _concurrence_from_spectrum, concurrence_mixed
from .ensembles import (
    _INT_FIELDS,
    _RANKS,
    EnsembleSpec,
    InfeasibleWindowError,
    _chunks,
    _ginibre_stack,
    _rank_cycle,
    _stack,
    ensemble_spec_from_dict,
)
from .gmeasure import (
    _g_from_moments,
    analyze,
    bounds_violated,
    greport_to_dict,
    mixed_state_ceiling,
    pure_state_floor,
)
from .jsonio import _integer, dumps, format_float
from .observables import _moments
from .sampler import (
    MAX_RECORD_SHOTS,
    estimate_g,
    estimate_to_dict,
    record_from_dict,
    simulate_record,
)
from .states import (
    DensityMatrix,
    _purity,
    _validated_spectrum,
    density_matrix_from_dict,
    from_pure,
    pure_state_from_dict,
)

DEFAULT_SEED = 12345
BOUND_CURVE_POINTS = 200
BIN_WIDTH = 0.05

CSV_SCAN_HEADER = "kind,concurrence,g,purity,rank,violates"

# The format_float row of one state in `ensemble --format json`: the state's
# dumps text inside the list, every number a field, then its comma.
_JSON_STATE_ROW = (
    dumps([{"index": "{}", "re": [["{}"] * 4] * 4, "im": [["{}"] * 4] * 4}])[2:-2]
    .replace('"{}"', "{}") + ","
)


class CliInputError(Exception):
    """Any problem with user-supplied files or arguments (exit code 2)."""


def _load(path: str, parse):
    """parse(the JSON value in path); an unreadable, malformed or invalid file is an input error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise CliInputError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # malformed JSON, text that is not UTF-8, an overlong integer
        raise CliInputError(f"parse error in {path}: {exc}") from exc
    try:
        return parse(data)
    except ValueError as exc:
        raise CliInputError(f"{path}: {exc}") from exc


def _state(data) -> DensityMatrix:
    if isinstance(data, dict) and "amps" in data:
        return from_pure(pure_state_from_dict(data))
    return density_matrix_from_dict(data)


def _state_or_record(data):
    if isinstance(data, dict) and "counts" in data:
        return record_from_dict(data)
    return _state(data)


def _emit(path: str, *pieces: str) -> None:
    """Write each piece of text, newline-terminated, to the file at path or to stdout for "-".

    The pieces are written one after another: joining them, or adding a
    newline to one, would copy the whole text.
    """
    parts = (part for piece in pieces for part in (piece, "\n"))
    if path == "-":
        sys.stdout.writelines(parts)
        return
    try:
        fh = open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise CliInputError(f"cannot write {path}: {exc}") from exc
    with fh:
        fh.writelines(parts)


def _int_option(name: str, *bounds: int):
    """argparse type of an integer option, checked by the package's integer rule."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = text  # not an integer literal; the rule rejects it by name
        try:
            return _integer(name, value, *bounds)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc

    return parse


def cmd_analyze(args) -> int:
    rho = _load(args.state_file, _state_or_record)
    if not isinstance(rho, DensityMatrix):  # a measurement record
        if args.format == "csv":
            raise CliInputError("CSV output is for state files; a record's G estimate is JSON only")
        _emit(args.output, dumps(estimate_to_dict(estimate_g(rho))))
        return 0

    out = greport_to_dict(analyze(rho))
    out["concurrence"] = concurrence_mixed(rho)
    if args.format == "csv":
        row = (v if isinstance(v, str) else format_float(v) for v in out.values())
        _emit(args.output, ",".join(out), ",".join(row))
    else:
        _emit(args.output, dumps(out))
    return 0


def _rank_list(text: str) -> list[int]:
    """argparse type of --rank: a nonempty comma list of Ginibre ranks."""
    parse = _int_option("rank", *_RANKS)
    ranks = [parse(part) for part in text.split(",") if part.strip()]
    if not ranks:
        raise argparse.ArgumentTypeError(f"rank list is empty: {text!r}")
    return ranks


def _sweep(count: int, stack):
    """Yield the (indices, concurrence, G, purity) arrays of each chunk of 0..count-1, in order.

    stack gives the raw matrices of each chunk of indices (see
    ``ensembles._chunks``); each stack is validated once and measured as a
    whole.  One eigendecomposition of its Hermitian parts decides the PSD
    rule and gives the concurrence its square root; the measures check
    nothing again.
    """
    for indices, mats in _chunks(count, stack):
        mats, w, v = _validated_spectrum(mats)
        c = _concurrence_from_spectrum(mats, w, v)
        yield indices, c, _g_from_moments(_moments(mats)), _purity(mats)


def cmd_scan_bounds(args) -> int:
    stack = functools.partial(_ginibre_stack, args.seed, ranks=args.rank)
    # Each chunk's rows become one piece of the CSV text as soon as it is measured.
    pieces = [CSV_SCAN_HEADER]
    for indices, c, g, p in _sweep(args.count, stack):
        columns = (c, g, p, _rank_cycle(indices, args.rank), bounds_violated(c, g))
        pieces.append(format_float(columns, "sample,{},{},{},{},{}"))
    c = np.linspace(0.0, 1.0, BOUND_CURVE_POINTS)
    for kind, curve in (("lower_bound", pure_state_floor), ("upper_bound", mixed_state_ceiling)):
        pieces.append(format_float((c, curve(c)), kind + ",{},{},,,0"))
    _emit(args.output, *pieces)
    return 0


def bin_spreads(cs, gs) -> list[tuple[float, float, int, float]]:
    """Per concurrence bin: (lo, hi, count, spread of G above the pure-state floor).

    The spread is max - min of G - C^2 (2 + C^2) inside the bin, i.e. the
    vertical extent of the scatter measured against the pure-state curve;
    for an ensemble lying exactly on that curve it vanishes no matter how G
    itself varies across the bin.
    """
    cs = np.asarray(cs, dtype=float)
    gs = np.asarray(gs, dtype=float)
    excess = gs - pure_state_floor(cs)
    out = []
    n_bins = int(np.ceil(1.0 / BIN_WIDTH))
    for k in range(n_bins):
        lo, hi = k * BIN_WIDTH, (k + 1) * BIN_WIDTH
        mask = (cs >= lo) & (cs < hi) if k < n_bins - 1 else (cs >= lo) & (cs <= 1.0)
        n = int(np.count_nonzero(mask))
        if n == 0:
            continue
        spread = float(excess[mask].max() - excess[mask].min())
        out.append((lo, hi, n, spread))
    return out


def cmd_purity_slice(args) -> int:
    # A rank-4 rejection sweep essentially never reaches purity 1; the pure
    # slice is sampled directly from Haar states instead.
    kind = "haar_pure" if args.purity == 1.0 else "fixed_purity"
    try:
        spec = EnsembleSpec(
            kind, args.count, args.seed, purity_target=args.purity, purity_window=args.window
        )
    except ValueError as exc:
        raise CliInputError(str(exc)) from exc
    pieces, cs, gs = ["concurrence,g,purity"], [], []
    for _, c, g, p in _sweep(spec.count, functools.partial(_stack, spec)):
        pieces.append(format_float((c, g, p), "{},{},{}"))
        cs.append(c)
        gs.append(g)
    _emit(args.output, *pieces)

    print(
        "# per-bin spread of G above the pure-state curve C^2(2+C^2), bin width "
        f"{BIN_WIDTH}",
        file=sys.stderr,
    )
    for lo, hi, n, spread in bin_spreads(np.concatenate(cs), np.concatenate(gs)):
        print(f"bin [{lo:.2f},{hi:.2f}) n={n} g_spread={format_float(spread)}", file=sys.stderr)
    return 0


def cmd_sample(args) -> int:
    rho = _load(args.state_file, _state)
    out = estimate_to_dict(estimate_g(simulate_record(rho, args.shots, args.seed)))
    out["g_exact"] = float(_g_from_moments(_moments(rho.mat)))
    _emit(args.output, dumps(out))
    return 0


def cmd_ensemble(args) -> int:
    spec = _load(args.spec, ensemble_spec_from_dict)
    stack = functools.partial(_stack, spec)
    if args.format == "json":  # the states only: no measures are computed
        pieces = ["["]  # each chunk's states are one piece, a comma after each state
        for indices, mats in _chunks(spec.count, stack):
            mats = _validated_spectrum(mats)[0].reshape(-1, 16)
            pieces.append(format_float((indices, *mats.real.T, *mats.imag.T), _JSON_STATE_ROW))
        pieces[-1] = pieces[-1][:-1]  # no comma after the last state
        _emit(args.output, *pieces, "]")
    else:
        pieces = ["index,kind,concurrence,g,purity"]
        for indices, c, g, p in _sweep(spec.count, stack):
            pieces.append(format_float((indices, c, g, p), "{}," + spec.kind + ",{},{},{}"))
        _emit(args.output, *pieces)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entcov",
        description="Covariance-based entanglement quantification for two-qubit states.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    # --count and --seed follow the integer rule of the ensemble spec's fields.
    count, seed = (_int_option(name, *_INT_FIELDS[name]) for name in ("count", "seed"))

    p = sub.add_parser("analyze", help="exact G report for a state file")
    p.add_argument("state_file", help="density-matrix, pure-state or record JSON file")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--output", default="-", help="output path or - for stdout")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("scan-bounds", help="CSV of (C, G) samples plus bound curves")
    p.add_argument("--count", type=count, default=1000)
    p.add_argument("--seed", type=seed, default=DEFAULT_SEED)
    p.add_argument(
        "--rank", type=_rank_list, default="1,2,3,4", help="comma list of Ginibre ranks to cycle"
    )
    p.add_argument("--output", default="-")
    p.set_defaults(func=cmd_scan_bounds)

    p = sub.add_parser("purity-slice", help="CSV of a fixed-purity ensemble")
    p.add_argument("--purity", type=float, required=True)
    p.add_argument("--window", type=float, default=0.005)
    p.add_argument("--count", type=count, default=5000)
    p.add_argument("--seed", type=seed, default=DEFAULT_SEED)
    p.add_argument("--output", default="-")
    p.set_defaults(func=cmd_purity_slice)

    p = sub.add_parser("sample", help="simulate the 9-setting protocol at finite shots")
    p.add_argument("state_file")
    p.add_argument("--shots", type=_int_option("shots", 1, MAX_RECORD_SHOTS), default=10000)
    p.add_argument("--seed", type=seed, default=DEFAULT_SEED)
    p.add_argument("--output", default="-")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("ensemble", help="run a generator from an ensemble-spec JSON")
    p.add_argument("spec", help="EnsembleSpec JSON file")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output", default="-")
    p.set_defaults(func=cmd_ensemble)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliInputError, InfeasibleWindowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failures
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
