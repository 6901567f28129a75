"""Golden CLI output: the sha256 of each command's stdout, stderr and exit
code, over a fixed command set in every output format each command has.

A digest that changes means the CLI's bytes or exit code changed. The
commands run in this process through ``cli.main``; ``{target}`` stands for
a steering-target file, ``{alice}`` for a measurement file, ``{bipartite}``
for a joint-state file and ``{out}`` for an ``--out`` file whose contents
join the digest, all written under a temporary directory that never
enters the digest.
"""

import contextlib
import hashlib
import io
import json
import math
import shlex

import numpy as np

from gptsim.cli import main

TABULATED = ("--family tabulated --rule-samples "
             "'[[0, 0], [0.3, 0.1], [0.7, 0.8], [1, 1]]'")
RULES = ("--family identity", "--family power --alpha 1.5",
         "--family piecewise-quadratic", TABULATED)
FORMATS = ("json", "csv", "pretty")
# Two Haar-random qubit pairs, (psi ket, phi ket) as [re, im] pairs.
HAAR_PAIRS = (
    ([[-0.3139570219808913, -0.8631397040352776],
      [-0.1079323867912975, 0.38048842235778657]],
     [[0.6466454444581169, -0.47935720061298426],
      [0.593348676091668, -0.0019214479729313515]]),
    ([[-0.27607222173392626, 0.23785912806759676],
      [-0.34384186649381887, -0.8654362682646616]],
     [[-0.6785183588461484, -0.4979103599316397],
      [-0.364403498236096, 0.39863291466557316]]),
)


def _quoted(data) -> str:
    """``data`` as a shell-quoted JSON argument, braces doubled because
    _digest fills the command in with str.format."""
    text = json.dumps(data).replace("{", "{{").replace("}", "}}")
    return shlex.quote(text)


QUBIT_DICT = {"kind": "quantum", "d": 2}
# The y-basis measurement of a qubit, as an inline --alice argument.
Y_BASIS = _quoted({"type": "measurement", "effects": [
    {"model": QUBIT_DICT, "matrix": [[[0.5, 0.0], [0.0, -0.5 * sign]],
                                     [[0.0, 0.5 * sign], [0.5, 0.0]]]}
    for sign in (1.0, -1.0)]})
# Three classical:2 effects; the first has weight 0 at the product point.
CLASSICAL_ALICE = _quoted({"type": "measurement", "effects": [
    {"model": {"kind": "classical", "n": 2}, "coeffs": coeffs}
    for coeffs in ([1.0, 0.0], [0.0, 0.25], [0.0, 0.75])]})


def _haar_tau(pair: int, lp: int) -> str:
    """``tau --lp`` on Haar pair ``pair``, each state given as the JSON
    matrix of its projector, the shape of the benchmark's lp inputs."""
    states = []
    for ket in HAAR_PAIRS[pair]:
        ket = np.array([complex(*c) for c in ket])
        matrix = [[[float(c.real), float(c.imag)] for c in row]
                  for row in np.outer(ket, ket.conj())]
        states.append(_quoted({"model": QUBIT_DICT, "matrix": matrix}))
    return (f"tau --model quantum:2 --psi {states[0]} --phi {states[1]} "
            f"--lp {lp} --verbose --format json")


def _commands() -> list:
    """The command set, each a shell-quoted argument string."""
    out = []
    for fmt in FORMATS:
        tail = f"--format {fmt}"
        out += [f"rule-check {rule} {tail}" for rule in RULES]
        for model, pairs in (("quantum:2", ("0 0", "+ 0", "1 +")),
                             ("classical:3", ("0 0", "1 2"))):
            out += [f"tau --model {model} --psi {psi} --phi {phi} --lp 360 "
                    f"--verbose {tail}" for psi, phi in map(str.split, pairs)]
        out.append(f"tau --psi + --phi 0 {tail}")
        out += [f"steer --alice x {tail}", f"steer --alice z {tail}",
                f"steer --target @{{target}} {tail}",
                f"steer --alice @{{alice}} {tail}",
                f"steer --alice {Y_BASIS} {tail}",
                f"steer --bipartite @{{bipartite}} --alice {CLASSICAL_ALICE} "
                f"{tail}", f"steer --bipartite @{{bipartite}} --alice z {tail}"]
        for rule in ("--family power --alpha 1.5", TABULATED):
            for mode in ("trivial-average", "steered-uniform"):
                out += [f"gap {rule} --p1 {p1} --p2 {p2} --lambda {lam} "
                        f"--mode {mode} {tail}"
                        for p1, p2, lam in ((0.2, 0.7, 0.3), (1, 0, 0.5),
                                            (0, 0, 1), (0.2, 0.7, 0),
                                            (0.2, 0.7, 1))]
        out.append("gap --family power --alpha 0.5 --p1 0 --p2 0.5 "
                   f"--lambda 0.5 --seed 3 {tail}")
        out += [f"scan {rule} --grid 9 --refine 7 {tail}" for rule in RULES]
        out += [f"certify {rule} --seed {seed} --samples {samples} {tail}"
                for rule in RULES for seed in (0, 2026) for samples in (1, 257)]
        out.append(f"certify --family identity --samples 0 {tail}")
        out += [f"reproduce {tail}", f"reproduce --tol 1e-9 {tail}"]
    out += ["scan --family power --alpha 1.5 --grid 9 --refine 7 "
            "--format csv --out {out}",
            "reproduce --format csv --out {out}",
            "certify --family identity --samples 3 --format json --out {out}"]
    # 1025 samples cross the certificate's batch boundaries at 256 and 512
    # and end on an odd sample
    out += [f"certify {rule} --samples 1025 --seed 2026 --format json"
            for rule in RULES[:2]]
    out += [f"scan {rule} --grid 41 --format csv --out {{out}}" for rule in RULES]
    out += [_haar_tau(0, 720), _haar_tau(1, 720), _haar_tau(0, 3),
            "tau --model quantum:2 --psi + --phi 0 --lp 3 --verbose --format json",
            "tau --model classical:3 --psi 0 --phi 2 --lp 9 --verbose --format json",
            "tau --model quantum --psi 0 --phi 0"]
    return out


def _target() -> dict:
    """A two-member decomposition of the Bell pair's marginal I/2."""
    x, z = math.sin(1.0), math.cos(1.0)
    members = []
    for sign in (1.0, -1.0):
        a, b = 0.5 * (1 + sign * z), 0.5 * (1 - sign * z)
        c = 0.5 * sign * x
        members.append({"weight": 0.5, "state": {
            "type": "state", "model": {"kind": "quantum", "d": 2},
            "matrix": [[[a, 0.0], [c, 0.0]], [[c, 0.0], [b, 0.0]]]}})
    return {"type": "ensemble", "members": members}


def _alice() -> dict:
    """A three-outcome qubit POVM: half of each z projector, and I/2."""
    halves = ([[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
              [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]],
              [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]])
    return {"type": "measurement",
            "effects": [{"model": QUBIT_DICT, "matrix": m} for m in halves]}


def _bipartite() -> dict:
    """The classical product point (1, 1) of classical:2 and classical:3."""
    amplitudes = [[0.0, 0.0]] * 6
    amplitudes[4] = [1.0, 0.0]
    return {"type": "bipartite_state",
            "model_a": {"kind": "classical", "n": 2},
            "model_b": {"kind": "classical", "n": 3},
            "amplitudes": amplitudes}


def _digest(command: str, tmp_path) -> str:
    files = {"target": _target(), "alice": _alice(),
             "bipartite": _bipartite()}
    paths = {name: tmp_path / f"{name}.json" for name in files}
    for name, data in files.items():
        paths[name].write_text(json.dumps(data))
    out_file = tmp_path / "out.txt"
    if out_file.exists():
        out_file.unlink()
    argv = shlex.split(command.format(out=out_file, **paths))
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    written = out_file.read_text() if out_file.exists() else ""
    record = json.dumps([code, stdout.getvalue(), stderr.getvalue(), written])
    return hashlib.sha256(record.encode()).hexdigest()[:16]


GOLDEN = {
    'rule-check --family identity --format json':
        'adcf68ef81d89fe2',
    'rule-check --family power --alpha 1.5 --format json':
        'd3578889929ce4b4',
    'rule-check --family piecewise-quadratic --format json':
        '4dab51af5718cac4',
    "rule-check --family tabulated --rule-samples '[[0, 0], [0.3, 0.1], [0.7, 0.8], [1, 1]]' --format json":
        'f59cf4dfeb0a7bf6',
    'tau --model quantum:2 --psi 0 --phi 0 --lp 360 --verbose --format json':
        '0f9950d94f467733',
    'tau --model quantum:2 --psi + --phi 0 --lp 360 --verbose --format json':
        'a22d9efced4a8fe0',
    'tau --model quantum:2 --psi 1 --phi + --lp 360 --verbose --format json':
        'b4e0fcdcdfaf75b8',
    'tau --model classical:3 --psi 0 --phi 0 --lp 360 --verbose --format json':
        '02dfda6d0b2af920',
    'tau --model classical:3 --psi 1 --phi 2 --lp 360 --verbose --format json':
        '2e0ff405ec5621cb',
    'tau --psi + --phi 0 --format json':
        '479e471afd2a7b39',
    'steer --alice x --format json':
        'c65c556e5a769760',
    'steer --alice z --format json':
        '7d1a8e794cebf5a5',
    'steer --target @{target} --format json':
        'f46944571317bf28',
    'steer --alice @{alice} --format json':
        '5cd58e7ff2b09695',
    f'steer --alice {Y_BASIS} --format json':
        'e5c62fa60f9b2b37',
    f'steer --bipartite @{{bipartite}} --alice {CLASSICAL_ALICE} --format json':
        'd1d77306b63a719f',
    'steer --bipartite @{bipartite} --alice z --format json':
        '2717ba6503597666',
    'gap --family power --alpha 1.5 --p1 0.2 --p2 0.7 --lambda 0.3 --mode trivial-average --format json':
        '7ba3023da04e4d13',
    'gap --family power --alpha 1.5 --p1 1 --p2 0 --lambda 0.5 --mode trivial-average --format json':
        'a3a7f4d2ec9d4f09',
    'gap --family power --alpha 1.5 --p1 0 --p2 0 --lambda 1 --mode trivial-average --format json':
        '1389c7042990bf89',
    'gap --family power --alpha 1.5 --p1 0.2 --p2 0.7 --lambda 0 --mode trivial-average --format json':
        'cb8868a417b53c6d',
    'gap --family power --alpha 1.5 --p1 0.2 --p2 0.7 --lambda 1 --mode trivial-average --format json':
        'fb323ee3b6a3f91c',
    'gap --family power --alpha 1.5 --p1 0.2 --p2 0.7 --lambda 0.3 --mode steered-uniform --format json':
        'ba94bae5e9dabb6c',
    'gap --family power --alpha 1.5 --p1 1 --p2 0 --lambda 0.5 --mode steered-uniform --format json':
        '3f91b52a00ad3d76',
    'gap --family power --alpha 1.5 --p1 0 --p2 0 --lambda 1 --mode steered-uniform --format json':
        '581e131f33584f5e',
    'gap --family power --alpha 1.5 --p1 0.2 --p2 0.7 --lambda 0 --mode steered-uniform --format json':
        '07cbfad08a71a2ad',
    'gap --family power --alpha 1.5 --p1 0.2 --p2 0.7 --lambda 1 --mode steered-uniform --format json':
        '052991e80236f948',
    "gap --family tabulated --rule-samples '[[0, 0], [0.3, 0.1], [0.7, 0.8], [1, 1]]' --p1 0.2 --p2 0.7 --lambda 0.3 --mode trivial-average --format json":
        '0445880fad8b1364',
    "gap --family tabulated --rule-samples '[[0, 0], [0.3, 0.1], [0.7, 0.8], [1, 1]]' --p1 1 --p2 0 --lambda 0.5 --mode trivial-average --format json":
        '2c89222ed969af4a',
    "gap --family tabulated --rule-samples '[[0, 0], [0.3, 0.1], [0.7, 0.8], [1, 1]]' --p1 0 --p2 0 --lambda 1 --mode trivial-average --format json":
        '9b7936cae5e357dd',
    "gap --family tabulated --rule-samples '[[0, 0], [0.3, 0.1], [0.7, 0.8], [1, 1]]' --p1 0.2 --p2 0.7 --lambda 0 --mode trivial-average --format json":
        'a4f536d1e8d67a39',
    "gap --family tabulated --rule-samples '[[0, 0], [0.3, 0.1], [0.7, 0.8], [1, 1]]' --p1 0.2 --p2 0.7 --lambda 1 --mode trivial-average --format json":
        '47f3015799c2704f',
    "gap --family tabulated --rule-samples '[[0, 0], [0.3, 0.1], [0.7, 0.8], [1, 1]]' --p1 0.2 --p2 0.7 --lambda 0.3 --mode steered-uniform --format json":
        'a99cbe87e4584bd4',
    "gap --family tabulated --rule-samples '[[0, 0], [0.3, 0.1], [0.7, 0.8], [1, 1]]' --p1 1 --p2 0 --lambda 0.5 --mode steered-uniform --format json":
        'b2174fefa0b0ecee',
    "gap --family tabulated --rule-samples '[[0, 0], [0.3, 0.1], [0.7, 0.8], [1, 1]]' --p1 0 --p2 0 --lambda 1 --mode steered-uniform --format json":
        '4ccbf8b27e866240',
    "gap --family tabulated --rule-samples '[[0, 0], [0.3, 0.1], [0.7, 0.8], [1, 1]]' --p1 0.2 --p2 0.7 --lambda 0 --mode steered-uniform --format json":
        '3da154d7bc5f5781',
    "gap --family tabulated --rule-samples '[[0, 0], [0.3, 0.1], [0.7, 0.8], [1, 1]]' --p1 0.2 --p2 0.7 --lambda 1 --mode steered-uniform --format json":
        'fee51c1e981cb3ca',
    'gap --family power --alpha 0.5 --p1 0 --p2 0.5 --lambda 0.5 --seed 3 --format json':
        '55cab94222ae1c8e',
    'scan --family identity --grid 9 --refine 7 --format json':
        '9378f8d87d038dca',
    'scan --family power --alpha 1.5 --grid 9 --refine 7 --format json':
        '7f1de71729df99f1',
    'scan --family piecewise-quadratic --grid 9 --refine 7 --format json':
        'fd6713393d987e76',
    "scan --family tabulated --rule-samples '[[0, 0], [0.3, 0.1], [0.7, 0.8], [1, 1]]' --grid 9 --refine 7 --format json":
        '946a28646b68a48e',
    'certify --family identity --seed 0 --samples 1 --format json':
        '3d756f99d13a5217',
    'certify --family identity --seed 0 --samples 257 --format json':
        '279bdc15dfe131c2',
    'certify --family identity --seed 2026 --samples 1 --format json':
        '4a8b004ea910731b',
    'certify --family identity --seed 2026 --samples 257 --format json':
        'af0251f97ace0c99',
    'certify --family power --alpha 1.5 --seed 0 --samples 1 --format json':
        'a3dff80102606e23',
    'certify --family power --alpha 1.5 --seed 0 --samples 257 --format json':
        'f0f629b3e5efba27',
    'certify --family power --alpha 1.5 --seed 2026 --samples 1 --format json':
        '4b2da5f6ef736bce',
    'certify --family power --alpha 1.5 --seed 2026 --samples 257 --format json':
        '8acf5679131184cc',
    'certify --family piecewise-quadratic --seed 0 --samples 1 --format json':
        'f14a390104a4b819',
    'certify --family piecewise-quadratic --seed 0 --samples 257 --format json':
        '1499203066ddecb7',
    'certify --family piecewise-quadratic --seed 2026 --samples 1 --format json':
        'd73aea4c9f4dd5bc',
    'certify --family piecewise-quadratic --seed 2026 --samples 257 --format json':
        '814a12035a4b865a',
    "certify --family tabulated --rule-samples '[[0, 0], [0.3, 0.1], [0.7, 0.8], [1, 1]]' --seed 0 --samples 1 --format json":
        'd45f082e0ad262a2',
    "certify --family tabulated --rule-samples '[[0, 0], [0.3, 0.1], [0.7, 0.8], [1, 1]]' --seed 0 --samples 257 --format json":
        '941be9fe3e683b95',
    "certify --family tabulated --rule-samples '[[0, 0], [0.3, 0.1], [0.7, 0.8], [1, 1]]' --seed 2026 --samples 1 --format json":
        'fe3e98ba2070b4e6',
    "certify --family tabulated --rule-samples '[[0, 0], [0.3, 0.1], [0.7, 0.8], [1, 1]]' --seed 2026 --samples 257 --format json":
        '2caef315a54eceeb',
    'certify --family identity --samples 0 --format json':
        '857b9a8f539faf27',
    'reproduce --format json':
        'b1536be1efc8d971',
    'reproduce --tol 1e-9 --format json':
        '0e7bbe9f7edee10f',
    'rule-check --family identity --format csv':
        '989f444c496d8a6f',
    'rule-check --family power --alpha 1.5 --format csv':
        'b26ec974705d573d',
    'rule-check --family piecewise-quadratic --format csv':
        '989f444c496d8a6f',
    "rule-check --family tabulated --rule-samples '[[0, 0], [0.3, 0.1], [0.7, 0.8], [1, 1]]' --format csv":
        '01fd38c1cbd898f1',
    'tau --model quantum:2 --psi 0 --phi 0 --lp 360 --verbose --format csv':
        'a70eccf4948343d2',
    'tau --model quantum:2 --psi + --phi 0 --lp 360 --verbose --format csv':
        '1ba00bf861e3d0fe',
    'tau --model quantum:2 --psi 1 --phi + --lp 360 --verbose --format csv':
        'c440b63e64057805',
    'tau --model classical:3 --psi 0 --phi 0 --lp 360 --verbose --format csv':
        '682cad6114ff6f15',
    'tau --model classical:3 --psi 1 --phi 2 --lp 360 --verbose --format csv':
        'aa8bd634499ca282',
    'tau --psi + --phi 0 --format csv':
        'd3a9cf60742ccc48',
    'steer --alice x --format csv':
        '1e1e8c278152012c',
    'steer --alice z --format csv':
        '1e1e8c278152012c',
    'steer --target @{target} --format csv':
        '1e1e8c278152012c',
    'steer --alice @{alice} --format csv':
        'f93b0eef619abdd2',
    f'steer --alice {Y_BASIS} --format csv':
        '1e1e8c278152012c',
    f'steer --bipartite @{{bipartite}} --alice {CLASSICAL_ALICE} --format csv':
        '6bd4106ce112fd49',
    'steer --bipartite @{bipartite} --alice z --format csv':
        '7e09010a2d461b8f',
    'gap --family power --alpha 1.5 --p1 0.2 --p2 0.7 --lambda 0.3 --mode trivial-average --format csv':
        '0cb13abef9238288',
    'gap --family power --alpha 1.5 --p1 1 --p2 0 --lambda 0.5 --mode trivial-average --format csv':
        '3311f65009994446',
    'gap --family power --alpha 1.5 --p1 0 --p2 0 --lambda 1 --mode trivial-average --format csv':
        '7386b78d7e405103',
    'gap --family power --alpha 1.5 --p1 0.2 --p2 0.7 --lambda 0 --mode trivial-average --format csv':
        'e251144dcee36146',
    'gap --family power --alpha 1.5 --p1 0.2 --p2 0.7 --lambda 1 --mode trivial-average --format csv':
        'b62aa8728337de70',
    'gap --family power --alpha 1.5 --p1 0.2 --p2 0.7 --lambda 0.3 --mode steered-uniform --format csv':
        '9add261b859c251c',
    'gap --family power --alpha 1.5 --p1 1 --p2 0 --lambda 0.5 --mode steered-uniform --format csv':
        '3311f65009994446',
    'gap --family power --alpha 1.5 --p1 0 --p2 0 --lambda 1 --mode steered-uniform --format csv':
        '7386b78d7e405103',
    'gap --family power --alpha 1.5 --p1 0.2 --p2 0.7 --lambda 0 --mode steered-uniform --format csv':
        'e9942c47bd6b8bff',
    'gap --family power --alpha 1.5 --p1 0.2 --p2 0.7 --lambda 1 --mode steered-uniform --format csv':
        '8e84bf16fe052cc7',
    "gap --family tabulated --rule-samples '[[0, 0], [0.3, 0.1], [0.7, 0.8], [1, 1]]' --p1 0.2 --p2 0.7 --lambda 0.3 --mode trivial-average --format csv":
        'babb9ee2d990a95d',
    "gap --family tabulated --rule-samples '[[0, 0], [0.3, 0.1], [0.7, 0.8], [1, 1]]' --p1 1 --p2 0 --lambda 0.5 --mode trivial-average --format csv":
        '1c822b8c62e718b0',
    "gap --family tabulated --rule-samples '[[0, 0], [0.3, 0.1], [0.7, 0.8], [1, 1]]' --p1 0 --p2 0 --lambda 1 --mode trivial-average --format csv":
        '7386b78d7e405103',
    "gap --family tabulated --rule-samples '[[0, 0], [0.3, 0.1], [0.7, 0.8], [1, 1]]' --p1 0.2 --p2 0.7 --lambda 0 --mode trivial-average --format csv":
        'f57453c9844400ca',
    "gap --family tabulated --rule-samples '[[0, 0], [0.3, 0.1], [0.7, 0.8], [1, 1]]' --p1 0.2 --p2 0.7 --lambda 1 --mode trivial-average --format csv":
        '59590b79ec04f23e',
    "gap --family tabulated --rule-samples '[[0, 0], [0.3, 0.1], [0.7, 0.8], [1, 1]]' --p1 0.2 --p2 0.7 --lambda 0.3 --mode steered-uniform --format csv":
        '037f896a84da467f',
    "gap --family tabulated --rule-samples '[[0, 0], [0.3, 0.1], [0.7, 0.8], [1, 1]]' --p1 1 --p2 0 --lambda 0.5 --mode steered-uniform --format csv":
        '1c822b8c62e718b0',
    "gap --family tabulated --rule-samples '[[0, 0], [0.3, 0.1], [0.7, 0.8], [1, 1]]' --p1 0 --p2 0 --lambda 1 --mode steered-uniform --format csv":
        '7386b78d7e405103',
    "gap --family tabulated --rule-samples '[[0, 0], [0.3, 0.1], [0.7, 0.8], [1, 1]]' --p1 0.2 --p2 0.7 --lambda 0 --mode steered-uniform --format csv":
        'f57453c9844400ca',
    "gap --family tabulated --rule-samples '[[0, 0], [0.3, 0.1], [0.7, 0.8], [1, 1]]' --p1 0.2 --p2 0.7 --lambda 1 --mode steered-uniform --format csv":
        '601f45cb45693aaa',
    'gap --family power --alpha 0.5 --p1 0 --p2 0.5 --lambda 0.5 --seed 3 --format csv':
        'afc30dd51eb9d872',
    'scan --family identity --grid 9 --refine 7 --format csv':
        '8eebac359711e573',
    'scan --family power --alpha 1.5 --grid 9 --refine 7 --format csv':
        '749194beaeb0efae',
    'scan --family piecewise-quadratic --grid 9 --refine 7 --format csv':
        '1eb95d0d4954421a',
    "scan --family tabulated --rule-samples '[[0, 0], [0.3, 0.1], [0.7, 0.8], [1, 1]]' --grid 9 --refine 7 --format csv":
        '8de8c3f5f4eb23b8',
    'certify --family identity --seed 0 --samples 1 --format csv':
        '0fb552089318a13b',
    'certify --family identity --seed 0 --samples 257 --format csv':
        'c31722e8ce0b6b9d',
    'certify --family identity --seed 2026 --samples 1 --format csv':
        '77a41e23172f3ba7',
    'certify --family identity --seed 2026 --samples 257 --format csv':
        '7deac3974f2784f1',
    'certify --family power --alpha 1.5 --seed 0 --samples 1 --format csv':
        'd0a926ae5defe5dd',
    'certify --family power --alpha 1.5 --seed 0 --samples 257 --format csv':
        'f7fa16815516930e',
    'certify --family power --alpha 1.5 --seed 2026 --samples 1 --format csv':
        '16732521f9311d1b',
    'certify --family power --alpha 1.5 --seed 2026 --samples 257 --format csv':
        'c3b51ed107bdea3c',
    'certify --family piecewise-quadratic --seed 0 --samples 1 --format csv':
        '2298632fdefa3b6c',
    'certify --family piecewise-quadratic --seed 0 --samples 257 --format csv':
        'fdfdca09625ca223',
    'certify --family piecewise-quadratic --seed 2026 --samples 1 --format csv':
        '391e4764b42f70cc',
    'certify --family piecewise-quadratic --seed 2026 --samples 257 --format csv':
        'ada5f60229c95eb7',
    "certify --family tabulated --rule-samples '[[0, 0], [0.3, 0.1], [0.7, 0.8], [1, 1]]' --seed 0 --samples 1 --format csv":
        '0fb552089318a13b',
    "certify --family tabulated --rule-samples '[[0, 0], [0.3, 0.1], [0.7, 0.8], [1, 1]]' --seed 0 --samples 257 --format csv":
        'c4d79d73be9790fa',
    "certify --family tabulated --rule-samples '[[0, 0], [0.3, 0.1], [0.7, 0.8], [1, 1]]' --seed 2026 --samples 1 --format csv":
        '07fe61b3e082a5ee',
    "certify --family tabulated --rule-samples '[[0, 0], [0.3, 0.1], [0.7, 0.8], [1, 1]]' --seed 2026 --samples 257 --format csv":
        '2b42ed5d0c46ade3',
    'certify --family identity --samples 0 --format csv':
        '857b9a8f539faf27',
    'reproduce --format csv':
        'f6dddd22c2ab1534',
    'reproduce --tol 1e-9 --format csv':
        '76b23771d4bbdf5d',
    'rule-check --family identity --format pretty':
        '782e5bc94024313c',
    'rule-check --family power --alpha 1.5 --format pretty':
        'a19323dbf7a6e59a',
    'rule-check --family piecewise-quadratic --format pretty':
        '5a45a6cce0cec510',
    "rule-check --family tabulated --rule-samples '[[0, 0], [0.3, 0.1], [0.7, 0.8], [1, 1]]' --format pretty":
        '5c98744581464408',
    'tau --model quantum:2 --psi 0 --phi 0 --lp 360 --verbose --format pretty':
        'eb3e6f56b0c93570',
    'tau --model quantum:2 --psi + --phi 0 --lp 360 --verbose --format pretty':
        'b11aa9d6266f18fe',
    'tau --model quantum:2 --psi 1 --phi + --lp 360 --verbose --format pretty':
        '1841b16d9d2c020f',
    'tau --model classical:3 --psi 0 --phi 0 --lp 360 --verbose --format pretty':
        '2e23ece0dc52603a',
    'tau --model classical:3 --psi 1 --phi 2 --lp 360 --verbose --format pretty':
        '86fd3f827184a740',
    'tau --psi + --phi 0 --format pretty':
        'ef3f7ddd1774e8ba',
    'steer --alice x --format pretty':
        '44e618725e8e054d',
    'steer --alice z --format pretty':
        '44e618725e8e054d',
    'steer --target @{target} --format pretty':
        '4ead86a2e61865ad',
    'steer --alice @{alice} --format pretty':
        'acda937cd1e4c05d',
    f'steer --alice {Y_BASIS} --format pretty':
        '44e618725e8e054d',
    f'steer --bipartite @{{bipartite}} --alice {CLASSICAL_ALICE} --format pretty':
        '18728c7101b75a9c',
    'steer --bipartite @{bipartite} --alice z --format pretty':
        '15216c3d72370f31',
    'gap --family power --alpha 1.5 --p1 0.2 --p2 0.7 --lambda 0.3 --mode trivial-average --format pretty':
        'e8c8eebc87496557',
    'gap --family power --alpha 1.5 --p1 1 --p2 0 --lambda 0.5 --mode trivial-average --format pretty':
        '841d8dc3abef8bb2',
    'gap --family power --alpha 1.5 --p1 0 --p2 0 --lambda 1 --mode trivial-average --format pretty':
        'dd937f68bb06cac3',
    'gap --family power --alpha 1.5 --p1 0.2 --p2 0.7 --lambda 0 --mode trivial-average --format pretty':
        'ec145805f7b0b48e',
    'gap --family power --alpha 1.5 --p1 0.2 --p2 0.7 --lambda 1 --mode trivial-average --format pretty':
        '18d069122e322e4d',
    'gap --family power --alpha 1.5 --p1 0.2 --p2 0.7 --lambda 0.3 --mode steered-uniform --format pretty':
        '0e7700c2b55c9b35',
    'gap --family power --alpha 1.5 --p1 1 --p2 0 --lambda 0.5 --mode steered-uniform --format pretty':
        'd8f16ad776723b70',
    'gap --family power --alpha 1.5 --p1 0 --p2 0 --lambda 1 --mode steered-uniform --format pretty':
        '4d589fa8b7a35f87',
    'gap --family power --alpha 1.5 --p1 0.2 --p2 0.7 --lambda 0 --mode steered-uniform --format pretty':
        '68a625eadde86484',
    'gap --family power --alpha 1.5 --p1 0.2 --p2 0.7 --lambda 1 --mode steered-uniform --format pretty':
        'ad9a09b5596efd87',
    "gap --family tabulated --rule-samples '[[0, 0], [0.3, 0.1], [0.7, 0.8], [1, 1]]' --p1 0.2 --p2 0.7 --lambda 0.3 --mode trivial-average --format pretty":
        '5426aef59d23e2fa',
    "gap --family tabulated --rule-samples '[[0, 0], [0.3, 0.1], [0.7, 0.8], [1, 1]]' --p1 1 --p2 0 --lambda 0.5 --mode trivial-average --format pretty":
        '39e360837aacf494',
    "gap --family tabulated --rule-samples '[[0, 0], [0.3, 0.1], [0.7, 0.8], [1, 1]]' --p1 0 --p2 0 --lambda 1 --mode trivial-average --format pretty":
        'db1bfd51f4741764',
    "gap --family tabulated --rule-samples '[[0, 0], [0.3, 0.1], [0.7, 0.8], [1, 1]]' --p1 0.2 --p2 0.7 --lambda 0 --mode trivial-average --format pretty":
        'd3af5b67f6590307',
    "gap --family tabulated --rule-samples '[[0, 0], [0.3, 0.1], [0.7, 0.8], [1, 1]]' --p1 0.2 --p2 0.7 --lambda 1 --mode trivial-average --format pretty":
        '920fd3bdabb121ef',
    "gap --family tabulated --rule-samples '[[0, 0], [0.3, 0.1], [0.7, 0.8], [1, 1]]' --p1 0.2 --p2 0.7 --lambda 0.3 --mode steered-uniform --format pretty":
        '6a8d0f908014d5c2',
    "gap --family tabulated --rule-samples '[[0, 0], [0.3, 0.1], [0.7, 0.8], [1, 1]]' --p1 1 --p2 0 --lambda 0.5 --mode steered-uniform --format pretty":
        'b843db22fa5b0e2f',
    "gap --family tabulated --rule-samples '[[0, 0], [0.3, 0.1], [0.7, 0.8], [1, 1]]' --p1 0 --p2 0 --lambda 1 --mode steered-uniform --format pretty":
        '834e3a0b42b92927',
    "gap --family tabulated --rule-samples '[[0, 0], [0.3, 0.1], [0.7, 0.8], [1, 1]]' --p1 0.2 --p2 0.7 --lambda 0 --mode steered-uniform --format pretty":
        '0055b3cdc375a829',
    "gap --family tabulated --rule-samples '[[0, 0], [0.3, 0.1], [0.7, 0.8], [1, 1]]' --p1 0.2 --p2 0.7 --lambda 1 --mode steered-uniform --format pretty":
        'c54364ec1ce49678',
    'gap --family power --alpha 0.5 --p1 0 --p2 0.5 --lambda 0.5 --seed 3 --format pretty':
        'f2f43f68b2bf5530',
    'scan --family identity --grid 9 --refine 7 --format pretty':
        '8eebac359711e573',
    'scan --family power --alpha 1.5 --grid 9 --refine 7 --format pretty':
        '749194beaeb0efae',
    'scan --family piecewise-quadratic --grid 9 --refine 7 --format pretty':
        '1eb95d0d4954421a',
    "scan --family tabulated --rule-samples '[[0, 0], [0.3, 0.1], [0.7, 0.8], [1, 1]]' --grid 9 --refine 7 --format pretty":
        '8de8c3f5f4eb23b8',
    'certify --family identity --seed 0 --samples 1 --format pretty':
        '3ea4f63e09752cee',
    'certify --family identity --seed 0 --samples 257 --format pretty':
        '73b850194b51c6c6',
    'certify --family identity --seed 2026 --samples 1 --format pretty':
        'b8db6d3fed5d7d71',
    'certify --family identity --seed 2026 --samples 257 --format pretty':
        '777315326b7a03c0',
    'certify --family power --alpha 1.5 --seed 0 --samples 1 --format pretty':
        '968300fe8275fbdb',
    'certify --family power --alpha 1.5 --seed 0 --samples 257 --format pretty':
        'c7d2e969dad57094',
    'certify --family power --alpha 1.5 --seed 2026 --samples 1 --format pretty':
        '959b9a5969e4621b',
    'certify --family power --alpha 1.5 --seed 2026 --samples 257 --format pretty':
        'e0bbc80d327effec',
    'certify --family piecewise-quadratic --seed 0 --samples 1 --format pretty':
        'f874329281849615',
    'certify --family piecewise-quadratic --seed 0 --samples 257 --format pretty':
        '292890dcd46b8acc',
    'certify --family piecewise-quadratic --seed 2026 --samples 1 --format pretty':
        '9a4f0185b1867b99',
    'certify --family piecewise-quadratic --seed 2026 --samples 257 --format pretty':
        '4a3fc34ac3b98d0c',
    "certify --family tabulated --rule-samples '[[0, 0], [0.3, 0.1], [0.7, 0.8], [1, 1]]' --seed 0 --samples 1 --format pretty":
        '91f11a593b162999',
    "certify --family tabulated --rule-samples '[[0, 0], [0.3, 0.1], [0.7, 0.8], [1, 1]]' --seed 0 --samples 257 --format pretty":
        'ae89084372c5d157',
    "certify --family tabulated --rule-samples '[[0, 0], [0.3, 0.1], [0.7, 0.8], [1, 1]]' --seed 2026 --samples 1 --format pretty":
        '8ae490cd1ba89754',
    "certify --family tabulated --rule-samples '[[0, 0], [0.3, 0.1], [0.7, 0.8], [1, 1]]' --seed 2026 --samples 257 --format pretty":
        'dca9a9de533886bd',
    'certify --family identity --samples 0 --format pretty':
        '857b9a8f539faf27',
    'reproduce --format pretty':
        '40fdb99510ade64f',
    'reproduce --tol 1e-9 --format pretty':
        '4932cfc1b6043476',
    'scan --family power --alpha 1.5 --grid 9 --refine 7 --format csv --out {out}':
        'fd3ecff6db431329',
    'reproduce --format csv --out {out}':
        '871d32dba8385412',
    'certify --family identity --samples 3 --format json --out {out}':
        'a97f40dd700aa8cb',
    'certify --family identity --samples 1025 --seed 2026 --format json':
        '82354b0ff7acfd89',
    'certify --family power --alpha 1.5 --samples 1025 --seed 2026 --format json':
        'd8953b0b91a8d481',
    'scan --family identity --grid 41 --format csv --out {out}':
        '2040ccc022c7febd',
    'scan --family power --alpha 1.5 --grid 41 --format csv --out {out}':
        'f08647e2f198a24d',
    'scan --family piecewise-quadratic --grid 41 --format csv --out {out}':
        '8861b77a60a7c1ca',
    "scan --family tabulated --rule-samples '[[0, 0], [0.3, 0.1], [0.7, 0.8], [1, 1]]' --grid 41 --format csv --out {out}":
        'f594973b5a0bf8ce',
    _haar_tau(0, 720):
        '637c98e1171ccac0',
    _haar_tau(1, 720):
        'c61d3d5d31c6baee',
    _haar_tau(0, 3):
        'dbea2270a2b821da',
    'tau --model quantum:2 --psi + --phi 0 --lp 3 --verbose --format json':
        'b5c4407808a46a92',
    'tau --model classical:3 --psi 0 --phi 2 --lp 9 --verbose --format json':
        '2e0ff405ec5621cb',
    'tau --model quantum --psi 0 --phi 0':
        'aa1480544198abea',
}


def test_golden_set_is_the_command_set():
    assert list(GOLDEN) == _commands()


def test_cli_output_matches_its_golden_digest(tmp_path):
    changed = [command for command, digest in GOLDEN.items()
               if _digest(command, tmp_path) != digest]
    assert not changed, f"{len(changed)} commands changed: {changed}"
