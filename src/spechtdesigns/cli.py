"""Command-line interface.

Subcommands map one-to-one onto library entry points and print JSON
(CSV for survey). build_parser names each subcommand's handler on its
subparser, and main calls the handler the parse returns; construct's
--method choices are the keys of the table it dispatches on,
_construct_methods. construct writes its element through
tabloid.element_to_text, which gives exactly the bytes of
json.dumps(element_to_json(u), indent=...) without building the dict;
verify reads it back through tabloid.element_from_text, which reads the
digit runs of a text as an element and takes it when element_to_text
writes that element back byte for byte, and reads any other text as
json.loads and element_from_json would, with their errors.
Exit codes: 0 success, 2 invalid input or an input past a byte or size
limit, 1 a constructed object failed its own verification.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache

from .designs import (
    DesignParams,
    construct_integral_design,
    find_t_design_fp,
    integral_design_exists,
    poset_X,
)
from .h1 import brute_force_h1, classify, survey, survey_csv
from .hemmer import (
    SelfCheckError,
    construct_auto,
    construct_base_case,
    construct_james,
    construct_pointed,
    find_hemmer_by_solver,
    verify_hemmer,
)
from .tabloid import element_from_text, element_to_json, element_to_text

__all__ = ["main", "build_parser"]


def _int_list(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="spechtdesigns",
        description="Exact tabloid designs, spectra, and H^1 verification mod p",
    )
    ap.add_argument("--pretty", action="store_true", help="indent JSON output")
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name: str, handler, summary: str, shape: bool = True):
        sp = sub.add_parser(name, help=summary)
        sp.set_defaults(handler=handler)
        if shape:
            sp.add_argument("--a", type=int, required=True, help="first row length")
            sp.add_argument("--b", type=int, required=True, help="second row length")
            sp.add_argument("--p", type=int, required=True, help="odd prime modulus")
        return sp

    command("classify", _cmd_classify, "kind of (a, b) mod p")

    sp = command("construct", _cmd_construct, "build a certified element")
    sp.add_argument("--method", choices=list(_construct_methods()), default="auto")
    sp.add_argument("--out", help="write element JSON to this file")

    sp = command("verify", _cmd_verify, "check the three conditions for an element",
                 shape=False)
    sp.add_argument("--file", required=True, help="element JSON file")

    sp = command("design", _cmd_design, "find a design with constant level sums",
                 shape=False)
    sp.add_argument("--g", type=int, required=True, help="ground set size")
    sp.add_argument("--b", type=int, required=True, help="block size")
    sp.add_argument("--t", type=int, required=True, help="strength")
    sp.add_argument("--mode", choices=["fp", "integral"], default="fp")
    sp.add_argument("--p", type=int, help="odd prime modulus (fp mode)")
    sp.add_argument("--target", type=int, default=1, help="level-t constant (fp mode)")
    sp.add_argument(
        "--mu", type=_int_list, help="level constants mu_0..mu_t (integral mode)"
    )

    command("poset", _cmd_poset, "digit-compatible levels and components")

    command("h1dim", _cmd_h1dim, "brute-force quotient dimension")

    sp = command("survey", _cmd_survey, "CSV of brute force vs prediction", shape=False)
    sp.add_argument("--nmax", type=int, required=True, help="max a + b")
    sp.add_argument("--p", type=_int_list, required=True, help="primes, e.g. 3,5")
    sp.add_argument("--out", help="write CSV to this file")

    return ap


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """build_parser() once per process; parsing leaves a parser unchanged."""
    return build_parser()


def _emit(args, payload: dict) -> None:
    indent = 2 if args.pretty else None
    print(json.dumps(payload, indent=indent))


def _cmd_classify(args) -> None:
    _emit(args, classify(args.a, args.b, args.p).to_json())


def _construct_methods() -> dict:
    """construct's --method table, in its --help order. It is built per call,
    so a name rebound in this module since import is the one called."""
    return {
        "auto": construct_auto,
        "base": construct_base_case,
        "james": construct_james,
        "pointed": construct_pointed,
        "solve": _construct_by_solver,
    }


def _construct_by_solver(a: int, b: int, p: int):
    u = find_hemmer_by_solver(a, b, p)
    if u is None:
        raise ValueError(f"no qualifying element exists for (a={a}, b={b}) mod {p}")
    return u


def _cmd_construct(args) -> None:
    u = _construct_methods()[args.method](args.a, args.b, args.p)
    text = element_to_text(u, 2 if args.pretty else None)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            print(text, file=fh)
    else:
        print(text)


def _cmd_verify(args) -> None:
    with open(args.file, encoding="utf-8") as fh:
        u = element_from_text(fh.read())
    _emit(args, verify_hemmer(u).to_json())


def _cmd_design(args) -> None:
    if args.mode == "fp":
        if args.p is None:
            raise ValueError("fp mode needs --p")
        u = find_t_design_fp(DesignParams(args.g, args.b, args.t, args.p), args.target)
        if u is None:
            _emit(args, {"exists": False})
        else:
            _emit(args, {"exists": True, "element": element_to_json(u)})
    else:
        if args.mu is None:
            raise ValueError("integral mode needs --mu with t + 1 values")
        ratio_ok = integral_design_exists(args.g, args.b, args.t, args.mu)
        design = construct_integral_design(args.g, args.b, args.t, args.mu)
        out: dict = {"ratio_ok": ratio_ok, "exists": design is not None}
        if design is not None:
            out["coeffs"] = list(design.coeffs)
        _emit(args, out)


def _cmd_poset(args) -> None:
    _emit(args, poset_X(args.a, args.b, args.p).to_json())


def _cmd_h1dim(args) -> None:
    _emit(args, brute_force_h1(args.a, args.b, args.p).to_json())


def _cmd_survey(args) -> None:
    text = survey_csv(survey(args.nmax, args.p))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        args.handler(args)
    except (SelfCheckError, AssertionError) as exc:
        print(f"self-check failed: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
