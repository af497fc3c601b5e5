"""Every subcommand, fed damaged inputs, exits 0 or 1 or is a usage error (2).

Damage covers what a user can hand the CLI: numeric flags at the edges of
their types, JSON reshaped, made ragged or of the wrong type, CSV cells that
are not finite numbers, and binary files truncated or with a flipped bit. A
traceback, or a RuntimeWarning (an error under the test settings), fails.
"""

from __future__ import annotations

import argparse
import json
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from echodyn import cli
from echodyn.cpda import FeatureClip, save_feature_clip, seed_cpda_weights
from echodyn.dynamics import save_pedg_csv
from echodyn.pipeline import PipelineConfig
from echodyn.seqio import PhantomSpec, generate_phantom, save_masks, save_sequence, write_json

# T = 17 frames: the fewest the default edg config accepts
PHANTOM = PhantomSpec(t_count=17, height=48, width=48, base_radius=8.0)

# each subcommand on intact inputs, under names of the `inputs` directory
COMMANDS = {
    "phantom": ["phantom", "--t", "4", "--size", "48", "--base-radius", "8",
                "--config", "config.json", "-o", "OUT"],
    "flow": ["flow", "frames", "--config", "config.json", "-o", "OUT"],
    "edg": ["edg", "frames", "--config", "config.json", "-o", "OUT"],
    "edg-eds": ["edg", "seq.eds", "-o", "OUT"],
    "cpda-demo": ["cpda-demo", "clip.ftc", "--weights", "weights.json", "--ed", "0",
                  "--es", "2", "--pedg", "pedg.csv", "-o", "OUT/e.ftc"],
    "cpda-demo-seeded": ["cpda-demo", "clip.ftc", "--seed-weights", "--config", "config.json",
                         "--ed", "0", "--es", "2", "-o", "OUT/e.ftc"],
    "eval": ["eval", "pred", "masks", "--report", "OUT/r.json"],
    "seed-weights": ["seed-weights", "--channels", "2", "--config", "config.json",
                     "-o", "OUT/w.json"],
}
FLOAT_VALUES = ["0", "1e300", "-1e300", "1e-300", "-1e-300", "nan", "inf", "-inf"]
INT_VALUES = ["-1", "0", str(2 ** 63), str(10 ** 30)]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("inputs")
    seq, masks = generate_phantom(PHANTOM)
    save_sequence(seq, root / "frames")
    save_sequence(seq, root / "seq.eds")
    save_masks(masks, root / "masks")
    save_masks(masks, root / "pred")
    rng = np.random.default_rng(0)
    save_feature_clip(FeatureClip(data=rng.normal(size=(4, 6, 6, 2))), root / "clip.ftc")
    write_json(root / "weights.json", seed_cpda_weights(channels=2, seed=1))
    save_pedg_csv(rng.normal(size=(3, PipelineConfig().k2)), root / "pedg.csv")
    write_json(root / "config.json", PipelineConfig())
    return root


def run(inputs: Path, argv: list[str], damage=None) -> int:
    """Run `argv` on `inputs`, or on a copy damaged by `damage(copy)`, with a
    fresh OUT directory, and check that it exits 0 or 1, or is a usage error."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        if damage:
            shutil.copytree(inputs, tmp / "in")
            inputs = tmp / "in"
            damage(inputs)
        (tmp / "OUT").mkdir()
        argv = [str(tmp / a) if a.split("/")[0] == "OUT" else
                str(inputs / a) if (inputs / a).exists() else a for a in argv]
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            assert exc.code == 2, f"{argv} exited {exc.code}"
            return 2
        assert code in (0, 1), f"{argv} returned {code}"
        return code


def numeric_flags():
    """(command, flag, value) for every int and float flag of every subcommand."""
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for name, base in COMMANDS.items():
        if name == "edg-eds":  # the flags of edg
            continue
        for action in subparsers.choices[base[0]]._actions:
            values = {int: INT_VALUES, float: FLOAT_VALUES}.get(action.type, [])
            for value in values:
                yield pytest.param(name, action.option_strings[-1], value,
                                   id=f"{name}{action.option_strings[-1]}={value}")


def with_flag(argv: list[str], flag: str, value: str) -> list[str]:
    """`argv` with `flag` set to `value`, as one `flag=value` word, which
    argparse reads as a value even when it starts with a minus sign."""
    if flag in argv:
        i = argv.index(flag)
        argv = argv[:i] + argv[i + 2:]
    return argv + [f"{flag}={value}"]


@pytest.mark.parametrize("name,flag,value", numeric_flags())
def test_numeric_flag_at_the_edge_of_its_type(inputs, name, flag, value):
    run(inputs, with_flag(COMMANDS[name], flag, value))


def test_the_sweep_covers_every_subcommand_and_size_flag():
    swept = {(p.values[0], p.values[1]) for p in numeric_flags()}
    assert {name for name, _ in swept} == set(COMMANDS) - {"edg-eds", "eval"}
    for flag in ("--t", "--size", "--cycles", "--r-bins", "--theta-bins", "--epochs",
                 "--iterations", "--presmooth", "--channels", "--d-p", "--k2", "--ed"):
        assert any(f == flag for _, f in swept), flag


# ---------------------------------------------------------------- damaged files

def json_nodes(value, path=()):
    """The path of every value inside parsed JSON, the root excluded."""
    children = value.items() if isinstance(value, dict) else \
        enumerate(value) if isinstance(value, list) else ()
    for key, child in children:
        yield path + (key,)
        yield from json_nodes(child, path + (key,))


def damaged_json_value(draw, value):
    """A replacement for `value`: reshaped, ragged or of another type."""
    choices = ["x", None, True, {}, [], -1, 0, 2 ** 63, 10 ** 30, 1e300, -1e-300]
    if isinstance(value, list) and value:
        choices += [value[:-1], [value], value + value[:1]]
        if all(isinstance(v, list) and v for v in value):
            choices += [[x for row in value for x in row],  # flattened
                        [value[0][:-1]] + value[1:]]  # ragged
    return draw(st.sampled_from(choices))


def damage_json(path: Path, draw) -> None:
    raw = json.loads(path.read_text())
    *parents, key = draw(st.sampled_from(list(json_nodes(raw))))
    holder = raw
    for part in parents:
        holder = holder[part]
    holder[key] = damaged_json_value(draw, holder[key])
    path.write_text(json.dumps(raw))


def damage_csv(path: Path, draw) -> None:
    lines = [line.split(",") for line in path.read_text().splitlines()]
    row = lines[draw(st.integers(1, len(lines) - 1))]
    row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(["nan", "inf", "x", ""]))
    path.write_text("\n".join(",".join(line) for line in lines) + "\n")


def damage_binary(path: Path, draw) -> None:
    raw = bytearray(path.read_bytes())
    if draw(st.booleans()):
        del raw[draw(st.integers(0, len(raw) - 1)):]
    else:
        bit = draw(st.integers(0, 8 * len(raw) - 1))
        raw[bit // 8] ^= 1 << (bit % 8)
    path.write_bytes(bytes(raw))


# (command, damage, the input file it damages)
DAMAGES = [(name, damage_json, "config.json")
           for name in ("phantom", "flow", "edg", "cpda-demo-seeded", "seed-weights")] + [
    ("flow", damage_json, "frames/meta.json"),
    ("cpda-demo", damage_json, "weights.json"),
    ("cpda-demo", damage_csv, "pedg.csv"),
    ("cpda-demo", damage_binary, "clip.ftc"),
    ("flow", damage_binary, "frames/frame_0003.pgm"),
    ("edg-eds", damage_binary, "seq.eds"),
    ("eval", damage_binary, "pred/mask_0002.pgm"),
]


@given(data=st.data())
@settings(max_examples=60)
def test_damaged_input_file(inputs, data):
    name, damage, file_name = data.draw(st.sampled_from(DAMAGES))
    run(inputs, COMMANDS[name], lambda work: damage(work / file_name, data.draw))


def test_every_intact_command_succeeds(inputs):
    for argv in COMMANDS.values():
        assert run(inputs, argv) == 0, argv
