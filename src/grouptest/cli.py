"""Command-line front end.

Subcommands:

* ``design``    -- generate a pooling design, emit it as JSON.
* ``decode``    -- run one decoder on a design JSON + outcome bit-string.
* ``simulate``  -- run a success-curve sweep from a JSON config, emit CSV.
* ``rates``     -- tabulate the theoretical rate curves over a theta grid.
* ``verify``    -- run the oracle/invariant suite, report pass/fail counts.

Exit codes: 0 success, 1 invalid configuration or arguments, 2 verification
failures, 3 I/O errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from typing import IO, Iterator

from . import analysis, decoders, model, simlab, verify

EXIT_OK = 0
EXIT_BAD_CONFIG = 1
EXIT_VERIFY_FAILED = 2
EXIT_IO = 3


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_BAD_CONFIG):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so we own the exit codes."""

    def error(self, message: str):  # noqa: D102 - argparse override
        raise CliError(f"{self.prog}: {message}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="grouptest", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_design = sub.add_parser("design", help="generate and emit a pooling design")
    p_design.add_argument("--kind", required=True, choices=["bernoulli", "ncc", "ccw"])
    p_design.add_argument("--N", dest="n_items", type=int, required=True)
    p_design.add_argument("--T", dest="n_tests", type=int, required=True)
    p_design.add_argument("--nu", type=float, help="density parameter; needs --K")
    p_design.add_argument("--p", type=float, help="Bernoulli inclusion probability")
    p_design.add_argument("--L", dest="draws", type=int, help="draws per column")
    p_design.add_argument("--K", dest="k", type=int, help="defective count, used with --nu")
    p_design.add_argument("--seed", type=int, default=0)
    p_design.add_argument("--out", default="-", help="output path, '-' for stdout")

    p_decode = sub.add_parser("decode", help="decode an outcome against a design")
    p_decode.add_argument("--design", required=True, help="design JSON path")
    p_decode.add_argument("--outcome", required=True, help="bit-string of length T, e.g. 1011")
    p_decode.add_argument("--alg", required=True, choices=list(decoders.ALGORITHMS))
    p_decode.add_argument("--node-budget", type=int, default=decoders.DEFAULT_NODE_BUDGET)
    p_decode.add_argument("--out", default="-")

    p_sim = sub.add_parser("simulate", help="run a success-curve sweep")
    p_sim.add_argument("--config", required=True, help="experiment config JSON path")
    p_sim.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a config key (value parsed as JSON when possible)",
    )
    p_sim.add_argument("--out", default="-", help="CSV output path")

    p_rates = sub.add_parser("rates", help="tabulate rate curves over a theta grid")
    p_rates.add_argument("--theta-min", type=float, default=0.01)
    p_rates.add_argument("--theta-max", type=float, default=0.99)
    p_rates.add_argument("--step", type=float, default=0.01)
    p_rates.add_argument("--out", default="-")

    p_verify = sub.add_parser("verify", help="run the invariant/oracle suite")
    p_verify.add_argument("--quick", action="store_true", help="smaller instance counts")

    return parser


@contextmanager
def _open_out(path: str) -> Iterator[IO[str]]:
    if path == "-":
        yield sys.stdout
        return
    try:
        handle = open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot open {path!r}: {exc}", EXIT_IO) from exc
    try:
        with handle:
            yield handle
    except OSError as exc:
        raise CliError(f"error writing {path!r}: {exc}", EXIT_IO) from exc


def _load_json(path: str) -> object:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise CliError(f"cannot read {path!r}: {exc}", EXIT_IO) from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(
            f"invalid JSON in {path!r}: {exc.msg} at line {exc.lineno} column {exc.colno}"
        ) from exc


def _cmd_design(args: argparse.Namespace) -> int:
    given = [name for name, val in (("--nu", args.nu), ("--p", args.p), ("--L", args.draws)) if val is not None]
    if len(given) != 1:
        raise CliError("exactly one of --nu, --p, --L is required")
    kind = simlab.DESIGN_ALIASES[args.kind]
    # build_design floors K at 1 for the lab's K = 0 configs; here K must be given
    if args.nu is not None and (args.k is None or args.k < 1):
        raise CliError("--nu requires --K >= 1 to derive p or L")
    if args.p is not None and kind != model.KIND_BERNOULLI:
        raise CliError("--p applies to bernoulli designs only")
    if args.draws is not None and kind == model.KIND_BERNOULLI:
        raise CliError("--L applies to weight designs only (ncc, ccw)")
    try:
        if args.nu is not None:
            arm = simlab.DesignArm(kind, args.nu)
            design = simlab.build_design(arm, args.n_items, args.k, args.n_tests, args.seed)
        else:
            design = model.generate_design(
                kind, args.n_items, args.n_tests, args.seed, p=args.p, draws=args.draws
            )
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    with _open_out(args.out) as out:
        out.write(model.design_to_json(design, indent=2))
        out.write("\n")
    return EXIT_OK


def _cmd_decode(args: argparse.Namespace) -> int:
    obj = _load_json(args.design)
    try:
        design = model.design_from_json_dict(obj)
    except ValueError as exc:
        raise CliError(f"bad design file: {exc}") from exc
    bits = args.outcome.strip()
    if len(bits) != design.n_tests or any(c not in "01" for c in bits):
        raise CliError(
            f"--outcome must be a string of '0'/'1' of length T={design.n_tests}"
        )
    outcome = model.OutcomeVector(tuple(c == "1" for c in bits))
    payload: dict[str, object]
    try:
        result = decoders.decode(args.alg, design, outcome, args.node_budget)
    except decoders.UnresolvedSearchError as exc:
        payload = {
            "algorithm": args.alg,
            "status": "unresolved",
            "best_incumbent": list(exc.best),
            "search_nodes": exc.nodes,
        }
    except decoders.MalformedOutcomeError as exc:
        raise CliError(f"malformed outcome: {exc}") from exc
    except ValueError as exc:  # a node budget below 1
        raise CliError(str(exc)) from exc
    else:
        payload = {
            "algorithm": result.algorithm,
            "status": "ok",
            "estimate": list(result.estimate),
            "pd_set": list(result.pd_set),
            "pd_count": result.pd_count,
            "definite_defectives": list(result.definite_defectives),
        }
        if result.search_nodes is not None:
            payload["search_nodes"] = result.search_nodes
    with _open_out(args.out) as out:
        json.dump(payload, out, indent=2)
        out.write("\n")
    return EXIT_OK


def _parse_override(text: str) -> tuple[str, object]:
    if "=" not in text:
        raise CliError(f"override {text!r} is not KEY=VALUE")
    key, raw = text.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key, value


def _cmd_simulate(args: argparse.Namespace) -> int:
    obj = _load_json(args.config)
    if not isinstance(obj, dict):
        raise CliError("config must be a JSON object")
    for text in args.overrides:
        key, value = _parse_override(text)
        obj[key] = value
    try:
        config = simlab.ExperimentConfig.from_dict(obj)
    except (ValueError, TypeError, KeyError) as exc:
        raise CliError(f"invalid config: {exc}") from exc
    curve = simlab.run_success_curve(config)
    with _open_out(args.out) as out:
        curve.write_csv(out)
    return EXIT_OK


def _format_theta(theta: float) -> str:
    text = f"{theta:.6f}".rstrip("0")
    if len(text.split(".")[1]) < 2:
        text = f"{theta:.2f}"
    return text


def _cmd_rates(args: argparse.Namespace) -> int:
    if args.step <= 0:
        raise CliError("--step must be positive")
    if not 0.0 < args.theta_min <= args.theta_max < 1.0:
        raise CliError("need 0 < theta-min <= theta-max < 1")
    thetas = []
    idx = 0
    while True:
        theta = args.theta_min + idx * args.step
        if theta > args.theta_max + 1e-12:
            break
        thetas.append(min(theta, args.theta_max))
        idx += 1
    with _open_out(args.out) as out:
        out.write("theta,curve,rate\n")
        for theta in thetas:
            for curve in analysis.CURVES:
                rate = analysis.theoretical_rate(curve, theta)
                out.write(f"{_format_theta(theta)},{curve},{rate:.6f}\n")
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    results = verify.run_verification(quick=args.quick)
    failed = 0
    for res in results:
        status = "ok  " if res.ok else "FAIL"
        print(f"{status} {res.name}: {res.detail}")
        failed += 0 if res.ok else 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_VERIFY_FAILED


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "design":
            return _cmd_design(args)
        if args.command == "decode":
            return _cmd_decode(args)
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "rates":
            return _cmd_rates(args)
        return _cmd_verify(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
