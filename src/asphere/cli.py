"""Command-line entry point.

Exit codes: 0 success / Yes / verified; 1 No / refuted / illegal
certificate; 2 Exhausted / Unknown; 3 usage or parse errors.  Machine JSON
goes to stdout when --json is set, human-readable text otherwise;
diagnostics go to stderr.  Randomized commands report their seed.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import peiffer, relmod, suite as suite_mod, xmod
from .actions import Submonoid, dominion, tensor_product, weak_dominion_membership
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


def _load_ysequence(gp: GroupPresentation, path: str):
    return peiffer.ysequence_from_json(gp, json.loads(_read(path)))


def _parse_subset(text: str) -> frozenset[int]:
    return frozenset(int(tok) for tok in text.split(",") if tok.strip() != "")


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
    m = _load_table(args.file)
    u = Submonoid(m, _parse_subset(args.u))
    t = tensor_product(u)
    payload = {
        "classes": t.num_classes,
        "partition": [sorted(map(list, cls)) for cls in t.classes()],
    }
    return 0, payload, f"{t.num_classes} classes"


def cmd_monoid_dominion(args):
    m = _load_table(args.file)
    u = Submonoid(m, _parse_subset(args.u))
    dom = sorted(dominion(u))
    return 0, {"dominion": dom}, "{" + ", ".join(map(str, dom)) + "}"


def cmd_monoid_wdom(args):
    m = _load_table(args.file)
    u = Submonoid(m, _parse_subset(args.u))
    answer = weak_dominion_membership(u, args.d, args.budget)
    payload = {"element": args.d, "answer": answer.value}
    code = {Tri.YES: 0, Tri.NO: 1, Tri.UNKNOWN: 2}[answer]
    return code, payload, answer.value


def cmd_peiffer_boundary(args):
    gp = _load_presentation(args.presentation, GroupPresentation)
    d = _load_ysequence(gp, args.sequence)
    w = peiffer.boundary(d)
    return 0, {"boundary": word_to_text(w)}, word_to_text(w)


def cmd_peiffer_check(args):
    gp = _load_presentation(args.presentation, GroupPresentation)
    d = _load_ysequence(gp, args.sequence)
    ok = peiffer.is_identity(d)
    return (0 if ok else 1), {"identity": ok}, "identity" if ok else "not an identity"


def cmd_peiffer_search(args):
    gp = _load_presentation(args.presentation, GroupPresentation)
    d = _load_ysequence(gp, args.sequence)
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
    gp = _load_presentation(args.presentation, GroupPresentation)
    d = _load_ysequence(gp, args.sequence)
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
    gp = _load_presentation(args.presentation, GroupPresentation)
    d = _load_ysequence(gp, args.sequence)
    n0 = word_from_text(gp.alphabet, args.n0)
    result = peiffer.fiber_pair(n0, d)
    return 0, {"sequence": peiffer.ysequence_to_json(result)}, f"{len(result.symbols)} symbols"


def cmd_relmod_gmap(args):
    gp = _load_presentation(args.presentation, GroupPresentation)
    d = _load_ysequence(gp, args.sequence)
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
    gp = _load_presentation(args.fixture, GroupPresentation)
    fx = ReducibleFixture.from_presentation(gp)
    d = _load_ysequence(gp, args.sequence)
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
    sub = parser.add_subparsers(dest="command", required=True)

    w = sub.add_parser("word", parents=[common])
    w.add_argument("action", choices=["reduce", "invert", "multiply", "conjugate", "exponent", "abelianize"])
    w.add_argument("--gens", required=True, help="space-separated generator names")
    w.add_argument("word")
    w.add_argument("other", nargs="?", default="1")
    w.add_argument("--gen", default="", help="generator for exponent sums")
    w.set_defaults(handler=cmd_word)

    p = sub.add_parser("present", parents=[common])
    psub = p.add_subparsers(dest="subcommand", required=True)
    pv = psub.add_parser("validate", parents=[common])
    pv.add_argument("file")
    pv.set_defaults(handler=cmd_present_validate)
    ph = psub.add_parser("hat", parents=[common])
    ph.add_argument("file")
    ph.set_defaults(handler=cmd_present_hat)
    ps = psub.add_parser("solve", parents=[common])
    ps.add_argument("file")
    ps.add_argument("--gen", required=True)
    ps.set_defaults(handler=cmd_present_solve)
    pl = psub.add_parser("lot", parents=[common])
    pl.add_argument("--n", type=int, required=True)
    pl.add_argument("--edges", required=True, help='"i,j,k;i,j,k;..."')
    pl.set_defaults(handler=cmd_present_lot)
    pc = psub.add_parser("cosets", parents=[common])
    pc.add_argument("file")
    pc.add_argument("--budget", type=int, default=1000)
    pc.add_argument("--subgroup", default="", help='subgroup generator words, ";" separated')
    pc.set_defaults(handler=cmd_present_cosets)

    m = sub.add_parser("monoid", parents=[common])
    msub = m.add_subparsers(dest="subcommand", required=True)
    mv = msub.add_parser("validate", parents=[common])
    mv.add_argument("file")
    mv.set_defaults(handler=cmd_monoid_validate)
    mt = msub.add_parser("tensor", parents=[common])
    mt.add_argument("file")
    mt.add_argument("--u", required=True, help='submonoid elements, e.g. "0,3,5"')
    mt.set_defaults(handler=cmd_monoid_tensor)
    md = msub.add_parser("dominion", parents=[common])
    md.add_argument("file")
    md.add_argument("--u", required=True)
    md.set_defaults(handler=cmd_monoid_dominion)
    mw = msub.add_parser("wdom", parents=[common])
    mw.add_argument("file")
    mw.add_argument("--u", required=True)
    mw.add_argument("--d", type=int, required=True)
    mw.add_argument("--budget", type=int, default=1000)
    mw.set_defaults(handler=cmd_monoid_wdom)

    pf = sub.add_parser("peiffer", parents=[common])
    pfsub = pf.add_subparsers(dest="subcommand", required=True)
    for name, handler, extra in (
        ("boundary", cmd_peiffer_boundary, ()),
        ("check", cmd_peiffer_check, ()),
        ("search", cmd_peiffer_search, ("budget", "depth")),
        ("verify", cmd_peiffer_verify, ("certificate",)),
        ("fiber", cmd_peiffer_fiber, ("n0",)),
    ):
        cp = pfsub.add_parser(name, parents=[common])
        cp.add_argument("presentation")
        cp.add_argument("sequence")
        if "certificate" in extra:
            cp.add_argument("certificate")
        if "budget" in extra:
            cp.add_argument("--budget", type=int, default=50_000)
            cp.add_argument("--depth", type=int, default=None)
        if "n0" in extra:
            cp.add_argument("--n0", required=True, help="conjugating word")
        cp.set_defaults(handler=handler)
    sc = pfsub.add_parser("scramble", parents=[common])
    sc.add_argument("presentation")
    sc.add_argument("--seed", type=int, default=0)
    sc.add_argument("--k", type=int, default=4)
    sc.set_defaults(handler=cmd_peiffer_scramble)

    r = sub.add_parser("relmod", parents=[common])
    rsub = r.add_subparsers(dest="subcommand", required=True)
    rg = rsub.add_parser("gmap", parents=[common])
    rg.add_argument("presentation")
    rg.add_argument("sequence")
    rg.add_argument("--oracle", choices=["free", "cosets", "abelian"], default="free")
    rg.add_argument("--budget", type=int, default=2000)
    rg.add_argument("--signed", action="store_true", help="send symbol signs to coefficients")
    rg.set_defaults(handler=cmd_relmod_gmap)

    x = sub.add_parser("xmod", parents=[common])
    xsub = x.add_subparsers(dest="subcommand", required=True)
    xc = xsub.add_parser("check", parents=[common])
    xc.add_argument("fixture")
    xc.add_argument("--samples", type=int, default=None)
    xc.add_argument("--seed", type=int, default=0)
    xc.set_defaults(handler=cmd_xmod_check)
    xp = xsub.add_parser("project", parents=[common])
    xp.add_argument("fixture")
    xp.add_argument("sequence")
    xp.set_defaults(handler=cmd_xmod_project)

    s = sub.add_parser("suite", parents=[common])
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--samples", type=int, default=None)
    s.add_argument("--fixtures", default=None, help="directory of the .pres presentation files")
    s.set_defaults(handler=cmd_suite)

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
