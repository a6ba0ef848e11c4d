"""The benchmark's fixed input files, and a check that they are current.

``data/code56.fsc`` is the 56-state partition code with one state line
per collection, and ``data/seed56.fsc`` is its canonical seed collection
with the state line naming the seed's newcomer.  Both are rendered by
frcodes itself (``code_states`` / ``canonical_seed_state`` through
``emit_fsc``).  ``check`` renders them again and compares the text byte
for byte, so a change in the format or in the construction shows as a
failed check and not as a change in speed.

Run ``python3 perfbench/inputs.py --write`` from the repository root to
rewrite the files after an intended format change.
"""

from __future__ import annotations

import pathlib
import sys

DATA = pathlib.Path(__file__).resolve().parent / "data"
ROOT = DATA.parent.parent


def render() -> dict[str, str]:
    """File name -> text of every input file, rendered by frcodes."""
    from frcodes.fsc import FscDocument, emit_fsc, states_to_document
    from frcodes.partition_code import (
        build_partition,
        canonical_seed_state,
        code_states,
        partition_params,
    )

    model = build_partition()
    code = emit_fsc(states_to_document(code_states(model)))
    collection, newcomer = canonical_seed_state(model)
    spaces = sorted(list(collection.spaces) + [newcomer], key=lambda s: s.key)
    names = {space.key: f"S{i}" for i, space in enumerate(spaces)}
    field = newcomer.field
    params = partition_params()
    seed = FscDocument(
        field.p, field.e, params.m, params.n, params.k, params.r,
        params.alpha, params.beta,
        subspaces={names[s.key]: s for s in spaces},
        collections={"C0": tuple(sorted(names[s.key] for s in collection.spaces))},
        states={"C0": names[newcomer.key]})
    return {"code56.fsc": code, "seed56.fsc": emit_fsc(seed)}


def check() -> list[str]:
    """Names of the input files whose stored text differs from a fresh render."""
    stale = []
    for name, text in render().items():
        path = DATA / name
        if not path.is_file() or path.read_text(encoding="utf-8") != text:
            stale.append(name)
    return stale


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    if sys.argv[1:] == ["--write"]:
        DATA.mkdir(exist_ok=True)
        for name, text in render().items():
            (DATA / name).write_text(text, encoding="utf-8")
        return 0
    stale = check()
    for name in stale:
        print(f"stale input: {name}", file=sys.stderr)
    return 1 if stale else 0


if __name__ == "__main__":
    sys.exit(main())
