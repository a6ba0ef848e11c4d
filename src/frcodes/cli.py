"""Command-line interface tying the toolkit together.

Exit codes are a stable contract: 0 success or verified, 1 usage or
parse error, 2 verification failure, 3 cap exceeded.  All randomized
behavior takes an explicit --seed; output ordering is deterministic.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from typing import Optional, Sequence

from .family import (
    NoMDSCodeError,
    construct_good,
    cutset_bound,
    family_code,
    is_good,
    mds_generator,
    message_dimension,
    random_walk,
)
from .fsc import (
    FscParseError,
    document_to_states,
    emit_fsc,
    parse_fsc,
    states_to_document,
)
from .groupsearch import GROUP_CAP, ORBIT_CAP, symmetry_search
from .partition_code import (
    build_partition,
    code_states,
    max_collection_size,
)
from .simulator import dss_init, run_random
from .storage import RepairingCollection, _short_hash
from .subspace import CapExceeded

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FAILED = 2
EXIT_CAP = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse would exit(2) on bad usage; the exit-code contract wants 1
    def error(self, message):
        raise _UsageError(message)


def _read_document(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return parse_fsc(handle.read())


def _check_out(path: Optional[str]) -> None:
    # an output path that cannot be written fails before any work, and
    # the file itself is neither opened nor truncated until the result
    if path is None:
        return
    if os.path.isdir(path):
        raise _UsageError(f"output path {path!r} is a directory")
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        raise _UsageError(f"output directory {folder!r} does not exist")


def _check_steps(steps: int) -> None:
    # a negative step count fails before the code is built or read
    if steps < 0:
        raise _UsageError(f"steps must be non-negative, got {steps}")


def _write_states(states, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(emit_fsc(states_to_document(states)))


def cmd_verify(args) -> int:
    doc = _read_document(args.file)
    states = document_to_states(doc)
    report = states.verify()
    if args.json:
        print(json.dumps({"verdict": "pass" if report.ok else "fail",
                          "states": len(states)}))
    else:
        print(report.render())
    return EXIT_OK if report.ok else EXIT_FAILED


def cmd_family(args) -> int:
    _check_steps(args.steps)
    _check_out(args.out)
    try:
        # construction and repair (an [r, s+1, r-s] code) both need MDS codes
        collection = construct_good(args.r, args.s, args.q)
        mds_generator(collection.field, args.r, args.s + 1)
    except NoMDSCodeError as err:
        print(f"the ({args.r}, {args.s}) family over GF({args.q}) cannot be built: {err}",
              file=sys.stderr)
        return EXIT_FAILED
    print(f"constructed a good ({args.r}, {args.s}) collection over "
          f"GF({args.q}) in dimension {collection.m}")
    if args.steps:
        random_walk(collection, args.steps, random.Random(args.seed))
        print(f"{args.steps} replacement steps kept the collection good")
    states = family_code(args.r, args.s, args.q)
    report = states.verify()
    if not report.ok:
        print(report.render())
        return EXIT_FAILED
    print(f"reachable closure: {len(states)} collections, repair property verified")
    if args.out:
        _write_states(states, args.out)
        print(f"wrote {args.out}")
    return EXIT_OK


def cmd_good_check(args) -> int:
    doc = _read_document(args.file)
    all_good = True
    for name in sorted(doc.collections):
        members = [doc.subspaces[member] for member in doc.collections[name]]
        verdict = is_good(members, args.r, args.s)
        all_good = all_good and verdict
        print(f"{name}: {'good' if verdict else 'not good'}")
    if not doc.collections:
        print("no collections in document", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK if all_good else EXIT_FAILED


def cmd_search(args) -> int:
    _check_out(args.out)
    doc = _read_document(args.file)
    if not doc.states:
        print("search needs a state line naming the seed's newcomer",
              file=sys.stderr)
        return EXIT_USAGE
    seed_name = sorted(doc.states)[0]
    members = [doc.subspaces[member] for member in doc.collections[seed_name]]
    collection = RepairingCollection(members)
    newcomer = doc.subspaces[doc.states[seed_name]]
    outcome = symmetry_search(collection, newcomer, doc.params,
                              group_cap=args.group_cap, orbit_cap=args.orbit_cap)
    if not args.json:
        print(outcome.render())
    if not outcome.results:
        if args.json:
            print(json.dumps({"verdict": "fail", "group_order": 0,
                              "orbit_size": 0}))
        return EXIT_FAILED
    best = outcome.results[0]
    if args.json:
        print(json.dumps({"verdict": "pass", "group_order": best.group.order,
                          "orbit_size": len(best.states)}))
    else:
        print(f"best result: group order {best.group.order}, "
              f"{len(best.states)} states")
    if args.out:
        _write_states(best.states, args.out)
        if not args.json:
            print(f"wrote {args.out}")
    return EXIT_OK


def cmd_partition(args) -> int:
    _check_out(args.out)
    model = build_partition()
    # code_states raises unless the seed's full check finds one newcomer, the
    # group of order 168 moves it to all 56 states, and each moved newcomer
    # follows the label rule; only tests run the full check of all 56
    states = code_states(model)
    print(f"{len(states)} states verified, unique newcomer per collection")
    if args.max_check:
        size = max_collection_size(model)
        print(f"maximum collection size: {size}")
    if args.out:
        _write_states(states, args.out)
        print(f"wrote {args.out}")
    return EXIT_OK


def _parse_data(text: str, m: int, q: int) -> tuple[int, ...]:
    if "," in text:
        parts = [part.strip() for part in text.split(",")]
    else:
        parts = list(text.strip())
    try:
        values = tuple(int(part) for part in parts)
    except ValueError:
        raise _UsageError(f"data must be {m} base-{q} digits, got {text!r}")
    if len(values) != m or any(not 0 <= v < q for v in values):
        raise _UsageError(f"data must be {m} base-{q} digits, got {text!r}")
    return values


def _render_transcripts(transcripts) -> str:
    lines = []
    for index, t in enumerate(transcripts):
        lines.append(f"event {index}")
        lines.append(f"failed {t.failed_id}")
        lines.append(f"collection {_short_hash(b''.join(t.collection_key))}")
        for share in t.shares:
            for row, symbol in zip(share.repair_space.rows, share.downloads):
                vec = " ".join(str(v) for v in row)
                lines.append(f"helper {share.helper_id} serves {vec} -> {symbol}")
        for row in t.newcomer_basis:
            lines.append("newcomer row " + " ".join(str(v) for v in row))
        lines.append("stored " + " ".join(str(v) for v in t.new_stored))
        lines.append("")
    return "\n".join(lines)


def cmd_simulate(args) -> int:
    _check_steps(args.steps)
    _check_out(args.transcript)
    doc = _read_document(args.file)
    states = document_to_states(doc)
    report = states.verify()
    if not report.ok:
        print(report.render())
        return EXIT_FAILED
    x = _parse_data(args.data, doc.m, doc.field.q)
    state = dss_init(states, x, seed=args.seed, strict=not args.fast)
    run = run_random(state, args.steps)
    if args.json:
        print(json.dumps({"verdict": "pass" if run.verdict == "ok" else "fail",
                          "states": run.distinct_states,
                          "downloads": run.downloads}))
    else:
        print(run.render())
    if args.transcript:
        with open(args.transcript, "w", encoding="utf-8") as handle:
            handle.write(_render_transcripts(run.transcripts))
        if not args.json:
            print(f"wrote {args.transcript}")
    return EXIT_OK if run.verdict == "ok" else EXIT_FAILED


def cmd_cutset(args) -> int:
    bound = cutset_bound(args.k, args.r, args.alpha, args.beta)
    print(bound)
    s = args.alpha - 1
    if args.k == args.r and args.beta == 1 and 0 <= s < args.r:
        m = message_dimension(args.r, s)
        note = "matches" if m == bound else "differs from"
        print(f"family message dimension for r={args.r}, s={s}: {m} "
              f"({note} the bound)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="frcodes",
                     description="functional-repair storage code toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check the repair property of an .fsc code")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("family", help="construct and verify a family code")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--steps", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("good-check", help="test collections for goodness")
    p.add_argument("file")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.set_defaults(func=cmd_good_check)

    p = sub.add_parser("search", help="search for a symmetry group from a seed")
    p.add_argument("file")
    p.add_argument("--group-cap", type=int, default=GROUP_CAP,
                   help="largest group order that is searched; a "
                        "larger group is decided from a stabilizer chain and "
                        "skipped without listing (default: %(default)s)")
    p.add_argument("--orbit-cap", type=int, default=ORBIT_CAP)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("partition", help="build and verify the 56-state code")
    p.add_argument("--max-check", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("simulate", help="run random failures on an .fsc code")
    p.add_argument("file")
    p.add_argument("--data", required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fast", action="store_true")
    p.add_argument("--transcript")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("cutset", help="print the download bound for parameters")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--beta", type=int, required=True)
    p.set_defaults(func=cmd_cutset)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except FscParseError as err:
        print(f"parse error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except CapExceeded as err:
        print(f"cap exceeded: {err}", file=sys.stderr)
        return EXIT_CAP
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
