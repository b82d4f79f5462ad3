"""Command-line front end; the only module that owns I/O.

Exit codes: 0 success, 1 validation failure, 2 inconclusive or an
uncertified bound, 3 usage error, 4 resource ceiling.  Reports are human
text by default and stable-ordered JSON under ``--json``; the report
schema ships in ``schemas/report.schema.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

from .algebra import DEFAULT_MAX_DIM, Algebra, validate_algebra
from .algfile import load_presentation, presentation_to_dict, save_algebra
from .catalog import builtin_names, builtin_presentation
from .errors import ResourceLimitError, ValidationError, ZclkitError
from .invariants import cup_length, verify_witness, zcl_auto, zcl_bounds, zcl_exact
from .pipeline import series_pipeline
from .series import (
    DEFAULT_MIN_RUN,
    RATIONAL_FORM_DETECTED,
    IntSequence,
    analyze_sequence,
    polynomial_at_one,
    polynomial_to_text,
)

ENV_MAX_DIM = "ZCLKIT_MAX_DIM"

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3
EXIT_RESOURCE = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _default_max_dim() -> int:
    raw = os.environ.get(ENV_MAX_DIM)
    if raw is None:
        return DEFAULT_MAX_DIM
    try:
        value = int(raw)
    except ValueError:
        raise ValidationError(f"{ENV_MAX_DIM} must be an integer, got {raw!r}") from None
    if value < 1:
        raise ValidationError(f"{ENV_MAX_DIM} must be positive")
    return value


def _int_at_least(low: int):
    """argparse type for an integer >= ``low``, so a bad value is a usage error."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="zclkit",
        description="Exact cup-length, zero-divisor cup-length, and series tools "
        "for finite-dimensional graded-commutative algebras.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True, metavar="command")

    def alg_cmd(name, help_text, **extra):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("algebra", help="algebra file path or builtin:<name>")
        sp.add_argument("--json", action="store_true", help="emit a JSON report")
        sp.add_argument(
            "--max-dim",
            type=_int_at_least(1),
            default=None,
            help=f"tensor dimension ceiling (default {DEFAULT_MAX_DIM}, env {ENV_MAX_DIM})",
        )
        return sp

    alg_cmd("check", "validate an algebra and report its shape")
    alg_cmd("cl", "cup-length with a maximal chain")

    sp = alg_cmd("zcl", "zero-divisor cup-length at a given r")
    sp.add_argument("--r", type=_int_at_least(2), required=True)
    sp.add_argument("--method", choices=["exact", "bounds"], default="exact")

    sp = alg_cmd("series", "zcl profile for r = 2..rmax+1 plus sequence analysis")
    sp.add_argument("--rmax", type=_int_at_least(3), required=True)
    sp.add_argument("--min-run", type=_int_at_least(2), default=DEFAULT_MIN_RUN)

    sp = alg_cmd("witness", "explicit zero-divisor witness at a given r")
    sp.add_argument("--r", type=_int_at_least(2), required=True)

    sp = alg_cmd("tensor", "write the r-th tensor power as an algebra file")
    sp.add_argument("--r", type=_int_at_least(1), required=True)
    sp.add_argument("--out", required=True, help="output file path")

    sp = sub.add_parser("analyze", help="analyze an integer sequence directly")
    sp.add_argument("--seq", required=True, help="comma-separated integers")
    sp.add_argument("--offset", type=_int_at_least(0), default=0)
    sp.add_argument("--min-run", type=_int_at_least(2), default=DEFAULT_MIN_RUN)
    sp.add_argument("--json", action="store_true")

    sp = sub.add_parser("builtins", help="list builtin algebras")
    sp.add_argument("--json", action="store_true")
    return parser


# -- input resolution ------------------------------------------------------------


def _resolve_algebra(spec: str, max_dim: int):
    """Return (algebra, source info dict); accepts a path or builtin:<name>.

    A presentation whose basis exceeds ``max_dim`` is refused before it is
    validated.
    """
    if spec.startswith("builtin:"):
        name = spec[len("builtin:"):]
        pres = builtin_presentation(name)
        canonical = json.dumps(presentation_to_dict(pres), sort_keys=True).encode()
        digest = hashlib.sha256(canonical).hexdigest()
        source = {"source": spec, "sha256": digest}
    else:
        path = Path(spec)
        if not path.is_file():
            raise ValidationError(f"no such algebra file: {spec}")
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        pres = load_presentation(path)
        source = {"source": str(path), "sha256": digest}
    if len(pres.basis) > max_dim:
        raise ResourceLimitError(
            f"algebra dim {len(pres.basis)} exceeds the ceiling {max_dim}; "
            "raise the ceiling to opt in"
        )
    return validate_algebra(pres), source


def _warnings_for(alg: Algebra) -> list:
    warnings = []
    if alg.field.characteristic == 2:
        warnings.append(
            "characteristic-2 field: odd-degree squares are not forced to vanish; "
            "only the literal sign rule is enforced"
        )
    return warnings


# -- payload builders --------------------------------------------------------------


def _witness_payload(alg, witness) -> dict:
    if witness is None:
        return None
    report = verify_witness(alg, witness)
    return {
        "r": witness.r,
        "length": len(witness.factors),
        "factors": [str(f) for f in witness.factors],
        "product": str(witness.product),
        "verified": report.ok,
        "projection_checked": report.projection_checked,
        "problems": list(report.problems),
    }


def _analysis_payload(report) -> dict:
    payload = {
        "verdict": report.verdict,
        "a": report.a,
        "d": report.d,
        "stabilization_index": report.stabilization_index,
        "p_coeffs": list(report.p_coeffs) if report.p_coeffs is not None else None,
        "p_text": polynomial_to_text(report.p_coeffs) if report.p_coeffs is not None else None,
        "p_at_one": polynomial_at_one(report.p_coeffs) if report.p_coeffs is not None else None,
        "window_used": report.window_used,
    }
    return payload


# -- command implementations ---------------------------------------------------------


def _cmd_check(alg, source, args):
    payload = {
        "kind": "check",
        "name": alg.name,
        "field": str(alg.field),
        "dim": alg.dim,
        "degrees": list(alg.degrees),
        "unit": alg.label_of(alg.unit_index),
        "valid": True,
    }
    return payload, EXIT_OK


def _cmd_cl(alg, source, args):
    res = cup_length(alg)
    payload = {
        "kind": "cl",
        "name": alg.name,
        "value": res.value,
        "chain": [str(e) for e in res.chain],
    }
    return payload, EXIT_OK


def _cmd_zcl(alg, source, args):
    if args.method == "exact":
        res = zcl_exact(alg, args.r, max_dim=args.max_dim)
    else:
        res = zcl_bounds(alg, args.r, max_dim=args.max_dim)
    payload = {
        "kind": "zcl",
        "name": alg.name,
        "r": res.r,
        "method": res.method,
        "value": res.value,
        "lower": res.lower,
        "upper": res.upper,
        "witness": _witness_payload(alg, res.witness),
    }
    status = EXIT_OK if res.value is not None else EXIT_INCONCLUSIVE
    return payload, status


def _cmd_series(alg, source, args):
    outcome = series_pipeline(alg, args.rmax, min_run=args.min_run, max_dim=args.max_dim)
    entries = [
        {
            "r": e.r,
            "method": e.method,
            "value": e.value,
            "lower": e.lower,
            "upper": e.upper,
        }
        for e in outcome.entries
    ]
    payload = {
        "kind": "series",
        "name": alg.name,
        "rmax": outcome.rmax,
        "cl": outcome.cl_value,
        "entries": entries,
        "sequence": (
            {"offset": outcome.sequence.offset, "values": list(outcome.sequence.values)}
            if outcome.sequence is not None
            else None
        ),
        "analysis": _analysis_payload(outcome.analysis) if outcome.analysis else None,
        "p_at_one_equals_cl": (
            outcome.p_at_one == outcome.cl_value if outcome.p_at_one is not None else None
        ),
        "certified": outcome.certified,
    }
    return payload, EXIT_OK if outcome.certified else EXIT_INCONCLUSIVE


def _cmd_witness(alg, source, args):
    res = zcl_auto(alg, args.r, max_dim=args.max_dim)
    payload = {
        "kind": "witness",
        "name": alg.name,
        "r": args.r,
        "method": res.method,
        "length": len(res.witness.factors) if res.witness else 0,
        "witness": _witness_payload(alg, res.witness),
    }
    status = EXIT_OK if res.witness is not None else EXIT_INCONCLUSIVE
    return payload, status


def _cmd_tensor(alg, source, args):
    power = alg.tensor_power(args.r, max_dim=args.max_dim)
    save_algebra(power, args.out)
    payload = {
        "kind": "tensor",
        "name": power.name,
        "r": args.r,
        "dim": power.dim,
        "out": str(args.out),
    }
    return payload, EXIT_OK


def _cmd_analyze(args):
    try:
        values = tuple(int(x.strip()) for x in args.seq.split(","))
    except ValueError:
        raise ValidationError(f"--seq must be comma-separated integers, got {args.seq!r}") from None
    seq = IntSequence(args.offset, values)
    report = analyze_sequence(seq, min_run=args.min_run)
    payload = {
        "kind": "analysis",
        "offset": seq.offset,
        "values": list(seq.values),
        "min_run": args.min_run,
    }
    payload.update(_analysis_payload(report))
    status = EXIT_OK if report.verdict == RATIONAL_FORM_DETECTED else EXIT_INCONCLUSIVE
    return payload, status


def _cmd_builtins():
    return {"kind": "builtins", "names": list(builtin_names())}, EXIT_OK


# -- rendering -------------------------------------------------------------------


def _render_text(report: dict, out) -> None:
    payload = report["result"]
    kind = payload["kind"]
    w = out.write
    if kind == "check":
        w(f"{payload['name']}: valid; dim {payload['dim']} over {payload['field']}; "
          f"degrees {payload['degrees']}\n")
    elif kind == "cl":
        w(f"cl({payload['name']}) = {payload['value']}\n")
        if payload["chain"]:
            w("chain: " + " , ".join(payload["chain"]) + "\n")
    elif kind == "zcl":
        value = payload["value"]
        shown = value if value is not None else f"in [{payload['lower']}, {payload['upper']}]"
        w(f"zcl_{payload['r']}({payload['name']}) = {shown} ({payload['method']})\n")
        if payload["witness"]:
            w(f"witness length {payload['witness']['length']}, "
              f"verified={payload['witness']['verified']}\n")
    elif kind == "series":
        w(f"{payload['name']}: cl = {payload['cl']}\n")
        for e in payload["entries"]:
            value = e["value"] if e["value"] is not None else f"[{e['lower']}, {e['upper']}]"
            w(f"  r={e['r']}: zcl = {value} ({e['method']})\n")
        if payload["sequence"]:
            w(f"sequence t_r = zcl_(r+1), r >= {payload['sequence']['offset']}: "
              f"{payload['sequence']['values']}\n")
        if payload["analysis"]:
            an = payload["analysis"]
            w(f"verdict: {an['verdict']} (window {an['window_used']})\n")
            if an["p_coeffs"] is not None:
                w(f"P(x) = {an['p_text']}; P(1) = {an['p_at_one']}; "
                  f"equals cl: {payload['p_at_one_equals_cl']}\n")
        else:
            w("analysis skipped: some entries are uncertified bounds\n")
    elif kind == "witness":
        if payload["witness"]:
            wt = payload["witness"]
            w(f"witness for zcl_{payload['r']}({payload['name']}), "
              f"length {wt['length']}, verified={wt['verified']}\n")
            for n, f in enumerate(wt["factors"], 1):
                w(f"  factor {n}: {f}\n")
            w(f"  product: {wt['product']}\n")
            for problem in wt["problems"]:
                w(f"  problem: {problem}\n")
        else:
            w("no witness available\n")
    elif kind == "analysis":
        w(f"verdict: {payload['verdict']} (window {payload['window_used']})\n")
        if payload["p_coeffs"] is not None:
            w(f"tail: t_r = {payload['a']}*r + {payload['d']} from r = "
              f"{payload['stabilization_index']} (within window)\n")
            w(f"P(x) = {payload['p_text']}; P(1) = {payload['p_at_one']}\n")
    elif kind == "tensor":
        w(f"wrote {payload['name']} (dim {payload['dim']}) to {payload['out']}\n")
    elif kind == "builtins":
        for name in payload["names"]:
            w(name + "\n")
    for warning in report["warnings"]:
        w(f"warning: {warning}\n")


def _emit(report: dict, as_json: bool, out) -> None:
    if as_json:
        out.write(json.dumps(report, indent=2, ensure_ascii=False) + "\n")
    else:
        _render_text(report, out)


# -- entry point ------------------------------------------------------------------


def run(argv=None, stdout=None, stderr=None) -> int:
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    echo = list(argv) if argv is not None else sys.argv[1:]
    source = None
    warnings = []
    try:
        if args.cmd == "builtins":
            payload, status = _cmd_builtins()
        elif args.cmd == "analyze":
            payload, status = _cmd_analyze(args)
        else:
            if args.max_dim is None:
                args.max_dim = _default_max_dim()
            alg, source = _resolve_algebra(args.algebra, args.max_dim)
            warnings = _warnings_for(alg)
            handler = {
                "check": _cmd_check,
                "cl": _cmd_cl,
                "zcl": _cmd_zcl,
                "series": _cmd_series,
                "witness": _cmd_witness,
                "tensor": _cmd_tensor,
            }[args.cmd]
            payload, status = handler(alg, source, args)
    except ResourceLimitError as exc:
        stderr.write(f"zclkit: resource ceiling: {exc}\n")
        return EXIT_RESOURCE
    except ZclkitError as exc:
        stderr.write(f"zclkit: error: {exc}\n")
        return EXIT_INVALID
    report = {
        "command": echo,
        "input": source,
        "result": payload,
        "warnings": warnings,
        "status": status,
    }
    _emit(report, getattr(args, "json", False), stdout)
    return status


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
