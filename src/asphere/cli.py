"""Command-line entry point.

Exit codes: 0 success / Yes / verified; 1 No / refuted / illegal
certificate; 2 Exhausted / Unknown; 3 usage or parse errors.  Machine JSON
goes to stdout when --json is set, human-readable text otherwise;
diagnostics go to stderr.  Randomized commands report their seed.

A command is declared once, in ``build_parser``: ``group(name)`` adds a
top-level word with subcommands, and ``command(parent, name, handler,
*positionals)`` adds a command with the shared ``--json`` flag, its handler
and its positional arguments; its options follow as ``add_argument`` calls.
A handler takes the parsed arguments and returns ``(exit_code, payload,
human_text)``.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import peiffer, relmod, suite as suite_mod, xmod
from .actions import MonoidError, Submonoid, dominion, tensor_product, weak_dominion
from .fixtures import monoid_from_json
from .partial import EXHAUSTED, Tri
from .peiffer import IllegalMoveError
from .presentations import (
    GroupPresentation,
    MonoidPresentation,
    ParseError,
    coset_enumeration,
    lot_presentation,
    parse,
    solve_single_occurrence,
    to_text,
    universal_group_presentation,
)
from .words import (
    Alphabet,
    abelianize,
    conjugate,
    exponent_sum,
    invert,
    multiply,
    word_from_text,
    word_to_text,
)
from .xmod import InconsistencyError, ReducibleFixture

# every input error the package raises is a ValueError, as is json.JSONDecodeError
USAGE_ERRORS = (FileNotFoundError, KeyError, ValueError)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _read(path: str) -> str:
    return Path(path).read_text()


def _load_presentation(path: str, kind: type) -> GroupPresentation | MonoidPresentation:
    """The presentation in the file at ``path``, which must be a ``kind``."""
    p = parse(_read(path))
    if not isinstance(p, kind):
        noun = "group" if kind is GroupPresentation else "monoid"
        raise ParseError(f"expected a {noun} presentation", 1)
    return p


def _load_table(path: str):
    return monoid_from_json(json.loads(_read(path)))


def _load_sequence(presentation: str, sequence: str):
    """The group presentation at ``presentation`` and the Y-sequence over it at ``sequence``."""
    gp = _load_presentation(presentation, GroupPresentation)
    return gp, peiffer.ysequence_from_json(gp, json.loads(_read(sequence)))


def _load_submonoid(args) -> Submonoid:
    """The submonoid ``--u``, comma-separated elements, of the monoid table in ``args.file``."""
    elements = frozenset(int(tok) for tok in args.u.split(",") if tok.strip() != "")
    return Submonoid(_load_table(args.file), elements)


def _alphabet(gens: str) -> Alphabet:
    return Alphabet(tuple(gens.split()))


# --- command handlers: return (exit_code, payload, human_text) -----------------


def cmd_word(args):
    alphabet = _alphabet(args.gens)
    w = word_from_text(alphabet, args.word)
    if args.action == "reduce":
        out = w
    elif args.action == "invert":
        out = invert(w)
    elif args.action == "multiply":
        out = multiply(w, word_from_text(alphabet, args.other))
    elif args.action == "conjugate":
        out = conjugate(w, word_from_text(alphabet, args.other))
    elif args.action == "exponent":
        if not args.gen:
            raise ValueError("exponent needs --gen")
        total = exponent_sum(w, args.gen)
        return 0, {"exponent": total}, str(total)
    else:
        vec = abelianize(w)
        return 0, {"vector": list(vec)}, " ".join(map(str, vec))
    return 0, {"word": word_to_text(out)}, word_to_text(out)


def cmd_present_validate(args):
    p = parse(_read(args.file))
    return 0, {"kind": type(p).__name__, "text": to_text(p)}, to_text(p).rstrip()


def cmd_present_hat(args):
    mp = _load_presentation(args.file, MonoidPresentation)
    gp = universal_group_presentation(mp)
    return 0, {"text": to_text(gp)}, to_text(gp).rstrip()


def cmd_present_solve(args):
    gp = _load_presentation(args.file, GroupPresentation)
    retr = solve_single_occurrence(gp, args.gen)
    payload = {
        "eliminated": retr.z,
        "solved": word_to_text(retr.solved),
        "source_relator": retr.source_relator,
    }
    return 0, payload, f"{retr.z} = {word_to_text(retr.solved)}  (from {retr.source_relator})"


def cmd_present_lot(args):
    edges = []
    for part in filter(str.strip, args.edges.split(";")):
        pieces = [int(x) for x in part.split(",")]
        if len(pieces) != 3:
            raise ParseError(f"bad edge {part!r}", 1)
        edges.append(tuple(pieces))
    gp = lot_presentation(args.n, edges)
    return 0, {"text": to_text(gp)}, to_text(gp).rstrip()


def cmd_present_cosets(args):
    gp = _load_presentation(args.file, GroupPresentation)
    subgroup = []
    if args.subgroup:
        subgroup = [word_from_text(gp.alphabet, w) for w in args.subgroup.split(";")]
    result = coset_enumeration(gp, subgroup, args.budget)
    if result is EXHAUSTED:
        return 2, {"result": "exhausted", "budget": args.budget}, "Exhausted"
    return 0, {"index": result}, str(result)


def cmd_monoid_validate(args):
    m = _load_table(args.file)
    payload = {"size": m.size, "identity": m.identity}
    return 0, payload, f"monoid of size {m.size}, identity {m.identity}"


def cmd_monoid_tensor(args):
    u = _load_submonoid(args)
    t = tensor_product(u)
    payload = {
        "classes": t.num_classes,
        "partition": [sorted(map(list, cls)) for cls in t.classes()],
    }
    return 0, payload, f"{t.num_classes} classes"


def cmd_monoid_dominion(args):
    u = _load_submonoid(args)
    dom = sorted(dominion(u))
    return 0, {"dominion": dom}, "{" + ", ".join(map(str, dom)) + "}"


def cmd_monoid_wdom(args):
    u = _load_submonoid(args)
    if not 0 <= args.d < u.parent.size:
        raise MonoidError(f"element {args.d} out of range")
    wd = weak_dominion(u, args.budget)
    answer = Tri.UNKNOWN if wd is EXHAUSTED else Tri.YES if args.d in wd else Tri.NO
    code = {Tri.YES: 0, Tri.NO: 1, Tri.UNKNOWN: 2}[answer]
    return code, {"element": args.d, "answer": answer.value}, answer.value


def cmd_peiffer_boundary(args):
    gp, d = _load_sequence(args.presentation, args.sequence)
    w = peiffer.boundary(d)
    return 0, {"boundary": word_to_text(w)}, word_to_text(w)


def cmd_peiffer_check(args):
    gp, d = _load_sequence(args.presentation, args.sequence)
    ok = peiffer.is_identity(d)
    return (0 if ok else 1), {"identity": ok}, "identity" if ok else "not an identity"


def cmd_peiffer_search(args):
    gp, d = _load_sequence(args.presentation, args.sequence)
    cert = peiffer.search_trivialization(d, node_budget=args.budget, depth_limit=args.depth)
    if cert is EXHAUSTED:
        depth = peiffer.default_depth_limit(d) if args.depth is None else args.depth
        bound = peiffer.length_lower_bound(d)
        payload = {
            "result": "exhausted",
            "budget": args.budget,
            "depth_limit": depth,
            "lower_bound": bound,
        }
        if len(d.symbols) % 2:
            reason = "odd length: every move keeps the parity, so no certificate exists"
            return 2, payload, f"Exhausted ({reason})"
        if depth < bound:
            return 2, payload, f"Exhausted (depth limit {depth} below lower bound {bound})"
        return 2, payload, "Exhausted"
    payload = {"certificate": peiffer.certificate_to_json(cert)}
    return 0, payload, f"certificate with {len(cert.moves)} moves"


def cmd_peiffer_verify(args):
    gp, d = _load_sequence(args.presentation, args.sequence)
    cert = peiffer.certificate_from_json(gp, json.loads(_read(args.certificate)))
    report = peiffer.verify_certificate(d, cert)
    payload = {"verified": report.ok}
    if not report.ok:
        payload["failed_step"] = report.failed_step
        payload["reason"] = report.reason
        return 1, payload, f"invalid at step {report.failed_step}: {report.reason}"
    return 0, payload, "verified"


def cmd_peiffer_scramble(args):
    gp = _load_presentation(args.presentation, GroupPresentation)
    d, cert = peiffer.scramble(gp, seed=args.seed, k=args.k)
    payload = {
        "seed": args.seed,
        "sequence": peiffer.ysequence_to_json(d),
        "certificate": peiffer.certificate_to_json(cert),
    }
    return 0, payload, f"seed {args.seed}: scrambled to {len(d.symbols)} symbols"


def cmd_peiffer_fiber(args):
    gp, d = _load_sequence(args.presentation, args.sequence)
    n0 = word_from_text(gp.alphabet, args.n0)
    result = peiffer.fiber_pair(n0, d)
    return 0, {"sequence": peiffer.ysequence_to_json(result)}, f"{len(result.symbols)} symbols"


def cmd_relmod_gmap(args):
    gp, d = _load_sequence(args.presentation, args.sequence)
    if args.oracle == "free":
        oracle = relmod.FreeOracle(gp.alphabet)
    elif args.oracle == "cosets":
        try:
            oracle = relmod.CosetOracle(gp, args.budget)
        except relmod.QuotientExhausted:
            return 2, {"result": "exhausted", "budget": args.budget}, "Exhausted"
    else:
        oracle = relmod.AbelianizationOracle(gp)
    element = relmod.module_image(d, oracle, signed=args.signed)
    nested: dict[str, dict[str, int]] = {}
    for (rel, w), coeff in element.terms:
        nested.setdefault(rel, {})[word_to_text(w)] = coeff
    return 0, {"image": nested}, json.dumps(nested, sort_keys=True)


def _battery_lines(batteries) -> list[str]:
    lines = []
    for b in batteries:
        state = "ok " if b.passed else "FAIL"
        counters = "".join(f" {k}={v}" for k, v in b.counters)
        lines.append(f"{state} {b.name} ({b.samples} samples, {b.failures} failures){counters}")
        lines.extend(f"      {line}" for line in b.detail)
    return lines


def cmd_xmod_check(args):
    gp = _load_presentation(args.fixture, GroupPresentation)
    fx = ReducibleFixture.from_presentation(gp)
    config = suite_mod.RunConfig(seed=args.seed, samples=args.samples)
    batteries = suite_mod.fixture_batteries(fx, config)
    passed = all(b.passed for b in batteries)
    payload = {
        "fixture": gp.name,
        "seed": args.seed,
        "passed": passed,
        "batteries": [b.to_json() for b in batteries],
    }
    return (0 if passed else 1), payload, "\n".join(_battery_lines(batteries))


def cmd_xmod_project(args):
    gp, d = _load_sequence(args.fixture, args.sequence)
    fx = ReducibleFixture.from_presentation(gp)
    d1 = xmod.project_identity_sequence(fx, d)
    payload = {
        "kernel_component": "1",
        "residual": peiffer.ysequence_to_json(d1),
    }
    return 0, payload, f"kernel component 1, residual of {len(d1.symbols)} symbols"


def cmd_suite(args):
    config = suite_mod.RunConfig(
        seed=args.seed,
        samples=args.samples,
        fixtures_dir=args.fixtures,
    )
    report = suite_mod.run_suite(config)
    payload = report.to_json()
    lines = _battery_lines(report.batteries)
    lines.append(f"seed {report.seed}: {'all batteries passed' if report.passed else 'FAILURES'}")
    return (0 if report.passed else 1), payload, "\n".join(lines)


# --- argument wiring -------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="asphere")
    parser.add_argument("--json", action="store_true", help="machine JSON on stdout")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", default=argparse.SUPPRESS)
    top = parser.add_subparsers(dest="command", required=True)

    def group(name):
        words = top.add_parser(name, parents=[common])
        return words.add_subparsers(dest="subcommand", required=True)

    def command(parent, name, handler, *positionals):
        cp = parent.add_parser(name, parents=[common])
        cp.set_defaults(handler=handler)
        for positional in positionals:
            cp.add_argument(positional)
        return cp

    w = command(top, "word", cmd_word)
    w.add_argument("action", choices=["reduce", "invert", "multiply", "conjugate", "exponent", "abelianize"])
    w.add_argument("--gens", required=True, help="space-separated generator names")
    w.add_argument("word")
    w.add_argument("other", nargs="?", default="1")
    w.add_argument("--gen", default="", help="generator for exponent sums")

    present = group("present")
    command(present, "validate", cmd_present_validate, "file")
    command(present, "hat", cmd_present_hat, "file")
    command(present, "solve", cmd_present_solve, "file").add_argument("--gen", required=True)
    pl = command(present, "lot", cmd_present_lot)
    pl.add_argument("--n", type=int, required=True)
    pl.add_argument("--edges", required=True, help='"i,j,k;i,j,k;..."')
    pc = command(present, "cosets", cmd_present_cosets, "file")
    pc.add_argument("--budget", type=int, default=1000)
    pc.add_argument("--subgroup", default="", help='subgroup generator words, ";" separated')

    monoid = group("monoid")
    command(monoid, "validate", cmd_monoid_validate, "file")
    mt = command(monoid, "tensor", cmd_monoid_tensor, "file")
    mt.add_argument("--u", required=True, help='submonoid elements, e.g. "0,3,5"')
    command(monoid, "dominion", cmd_monoid_dominion, "file").add_argument("--u", required=True)
    mw = command(monoid, "wdom", cmd_monoid_wdom, "file")
    mw.add_argument("--u", required=True)
    mw.add_argument("--d", type=int, required=True)
    mw.add_argument("--budget", type=int, default=1000)

    pf = group("peiffer")
    command(pf, "boundary", cmd_peiffer_boundary, "presentation", "sequence")
    command(pf, "check", cmd_peiffer_check, "presentation", "sequence")
    ps = command(pf, "search", cmd_peiffer_search, "presentation", "sequence")
    ps.add_argument("--budget", type=int, default=50_000)
    ps.add_argument("--depth", type=int, default=None)
    command(pf, "verify", cmd_peiffer_verify, "presentation", "sequence", "certificate")
    pfi = command(pf, "fiber", cmd_peiffer_fiber, "presentation", "sequence")
    pfi.add_argument("--n0", required=True, help="conjugating word")
    sc = command(pf, "scramble", cmd_peiffer_scramble, "presentation")
    sc.add_argument("--seed", type=int, default=0)
    sc.add_argument("--k", type=int, default=4)

    rg = command(group("relmod"), "gmap", cmd_relmod_gmap, "presentation", "sequence")
    rg.add_argument("--oracle", choices=["free", "cosets", "abelian"], default="free")
    rg.add_argument("--budget", type=int, default=2000)
    rg.add_argument("--signed", action="store_true", help="send symbol signs to coefficients")

    x = group("xmod")
    xc = command(x, "check", cmd_xmod_check, "fixture")
    xc.add_argument("--samples", type=int, default=None)
    xc.add_argument("--seed", type=int, default=0)
    command(x, "project", cmd_xmod_project, "fixture", "sequence")

    s = command(top, "suite", cmd_suite)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--samples", type=int, default=None)
    s.add_argument("--fixtures", default=None, help="directory of the .pres presentation files")

    return parser


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 3
    try:
        code, payload, human = args.handler(args)
    except IllegalMoveError as exc:
        print(f"illegal move: {exc}", file=sys.stderr)
        return 1
    except InconsistencyError as exc:
        print(f"inconsistency: {exc}", file=sys.stderr)
        return 1
    except USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    elif human:
        print(human)
    return code


def main(argv=None) -> int:
    return dispatch(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
