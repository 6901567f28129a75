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
        'b051573ecb7f8892',
    'gap --family power --alpha 1.5 --p1 1 --p2 0 --lambda 0.5 --mode trivial-average --format json':
        'a3a7f4d2ec9d4f09',
    'gap --family power --alpha 1.5 --p1 0 --p2 0 --lambda 1 --mode trivial-average --format json':
        '1389c7042990bf89',
    'gap --family power --alpha 1.5 --p1 0.2 --p2 0.7 --lambda 0 --mode trivial-average --format json':
        '17aa4bca02c5906f',
    'gap --family power --alpha 1.5 --p1 0.2 --p2 0.7 --lambda 1 --mode trivial-average --format json':
        '868e200a4aec6961',
    'gap --family power --alpha 1.5 --p1 0.2 --p2 0.7 --lambda 0.3 --mode steered-uniform --format json':
        '989841133260a690',
    'gap --family power --alpha 1.5 --p1 1 --p2 0 --lambda 0.5 --mode steered-uniform --format json':
        '3f91b52a00ad3d76',
    'gap --family power --alpha 1.5 --p1 0 --p2 0 --lambda 1 --mode steered-uniform --format json':
        '581e131f33584f5e',
    'gap --family power --alpha 1.5 --p1 0.2 --p2 0.7 --lambda 0 --mode steered-uniform --format json':
        'bda20ca092f8b0f6',
    'gap --family power --alpha 1.5 --p1 0.2 --p2 0.7 --lambda 1 --mode steered-uniform --format json':
        'f72be2619ba60c74',
    "gap --family tabulated --rule-samples '[[0, 0], [0.3, 0.1], [0.7, 0.8], [1, 1]]' --p1 0.2 --p2 0.7 --lambda 0.3 --mode trivial-average --format json":
        '4069a3ad119b3b2d',
    "gap --family tabulated --rule-samples '[[0, 0], [0.3, 0.1], [0.7, 0.8], [1, 1]]' --p1 1 --p2 0 --lambda 0.5 --mode trivial-average --format json":
        '2c89222ed969af4a',
    "gap --family tabulated --rule-samples '[[0, 0], [0.3, 0.1], [0.7, 0.8], [1, 1]]' --p1 0 --p2 0 --lambda 1 --mode trivial-average --format json":
        '9b7936cae5e357dd',
    "gap --family tabulated --rule-samples '[[0, 0], [0.3, 0.1], [0.7, 0.8], [1, 1]]' --p1 0.2 --p2 0.7 --lambda 0 --mode trivial-average --format json":
        '116ae7104943268d',
    "gap --family tabulated --rule-samples '[[0, 0], [0.3, 0.1], [0.7, 0.8], [1, 1]]' --p1 0.2 --p2 0.7 --lambda 1 --mode trivial-average --format json":
        'b904ac73a8a4d41f',
    "gap --family tabulated --rule-samples '[[0, 0], [0.3, 0.1], [0.7, 0.8], [1, 1]]' --p1 0.2 --p2 0.7 --lambda 0.3 --mode steered-uniform --format json":
        'd02ca5d6faf30557',
    "gap --family tabulated --rule-samples '[[0, 0], [0.3, 0.1], [0.7, 0.8], [1, 1]]' --p1 1 --p2 0 --lambda 0.5 --mode steered-uniform --format json":
        'b2174fefa0b0ecee',
    "gap --family tabulated --rule-samples '[[0, 0], [0.3, 0.1], [0.7, 0.8], [1, 1]]' --p1 0 --p2 0 --lambda 1 --mode steered-uniform --format json":
        '4ccbf8b27e866240',
    "gap --family tabulated --rule-samples '[[0, 0], [0.3, 0.1], [0.7, 0.8], [1, 1]]' --p1 0.2 --p2 0.7 --lambda 0 --mode steered-uniform --format json":
        'c0c7cd129143d9e3',
    "gap --family tabulated --rule-samples '[[0, 0], [0.3, 0.1], [0.7, 0.8], [1, 1]]' --p1 0.2 --p2 0.7 --lambda 1 --mode steered-uniform --format json":
        '121b3434faadacda',
    'gap --family power --alpha 0.5 --p1 0 --p2 0.5 --lambda 0.5 --seed 3 --format json':
        'e12a25abe2d9d178',
    'scan --family identity --grid 9 --refine 7 --format json':
        '9378f8d87d038dca',
    'scan --family power --alpha 1.5 --grid 9 --refine 7 --format json':
        '7f1de71729df99f1',
    'scan --family piecewise-quadratic --grid 9 --refine 7 --format json':
        '49eb6531b6f3d0c1',
    "scan --family tabulated --rule-samples '[[0, 0], [0.3, 0.1], [0.7, 0.8], [1, 1]]' --grid 9 --refine 7 --format json":
        '3621212e0f19b965',
    'certify --family identity --seed 0 --samples 1 --format json':
        '04fbfa02075c8c91',
    'certify --family identity --seed 0 --samples 257 --format json':
        'fac1a4ae600e4927',
    'certify --family identity --seed 2026 --samples 1 --format json':
        '04fbfeec2633d93c',
    'certify --family identity --seed 2026 --samples 257 --format json':
        '6815ca9dbdd24a3f',
    'certify --family power --alpha 1.5 --seed 0 --samples 1 --format json':
        'e33bd553d8fadfbf',
    'certify --family power --alpha 1.5 --seed 0 --samples 257 --format json':
        'b2f41c8b0792e012',
    'certify --family power --alpha 1.5 --seed 2026 --samples 1 --format json':
        '53f07d4eda6639ab',
    'certify --family power --alpha 1.5 --seed 2026 --samples 257 --format json':
        'cb466f06c98ebcfc',
    'certify --family piecewise-quadratic --seed 0 --samples 1 --format json':
        '48638b5b15a609ee',
    'certify --family piecewise-quadratic --seed 0 --samples 257 --format json':
        'b18aed6fa2d2d8bf',
    'certify --family piecewise-quadratic --seed 2026 --samples 1 --format json':
        '0fcd29a8a023a969',
    'certify --family piecewise-quadratic --seed 2026 --samples 257 --format json':
        '5dd3fc22e0d15694',
    "certify --family tabulated --rule-samples '[[0, 0], [0.3, 0.1], [0.7, 0.8], [1, 1]]' --seed 0 --samples 1 --format json":
        'fb3978a9368aa4cf',
    "certify --family tabulated --rule-samples '[[0, 0], [0.3, 0.1], [0.7, 0.8], [1, 1]]' --seed 0 --samples 257 --format json":
        'bb6b9f61c60866fe',
    "certify --family tabulated --rule-samples '[[0, 0], [0.3, 0.1], [0.7, 0.8], [1, 1]]' --seed 2026 --samples 1 --format json":
        'a03e158894d10b7a',
    "certify --family tabulated --rule-samples '[[0, 0], [0.3, 0.1], [0.7, 0.8], [1, 1]]' --seed 2026 --samples 257 --format json":
        '71e6224bf9d2a527',
    'certify --family identity --samples 0 --format json':
        '857b9a8f539faf27',
    'reproduce --format json':
        'a041a1fddde2e4cf',
    'reproduce --tol 1e-9 --format json':
        'b3cc0140ef9cad46',
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
        '8bb3e683fca67789',
    'gap --family power --alpha 1.5 --p1 1 --p2 0 --lambda 0.5 --mode trivial-average --format csv':
        '3311f65009994446',
    'gap --family power --alpha 1.5 --p1 0 --p2 0 --lambda 1 --mode trivial-average --format csv':
        '7386b78d7e405103',
    'gap --family power --alpha 1.5 --p1 0.2 --p2 0.7 --lambda 0 --mode trivial-average --format csv':
        '2854f526bf572263',
    'gap --family power --alpha 1.5 --p1 0.2 --p2 0.7 --lambda 1 --mode trivial-average --format csv':
        '1c91c0edfdbdc9d2',
    'gap --family power --alpha 1.5 --p1 0.2 --p2 0.7 --lambda 0.3 --mode steered-uniform --format csv':
        '39b7d2c0d8b27585',
    'gap --family power --alpha 1.5 --p1 1 --p2 0 --lambda 0.5 --mode steered-uniform --format csv':
        '3311f65009994446',
    'gap --family power --alpha 1.5 --p1 0 --p2 0 --lambda 1 --mode steered-uniform --format csv':
        '7386b78d7e405103',
    'gap --family power --alpha 1.5 --p1 0.2 --p2 0.7 --lambda 0 --mode steered-uniform --format csv':
        'f171c33679a90cf5',
    'gap --family power --alpha 1.5 --p1 0.2 --p2 0.7 --lambda 1 --mode steered-uniform --format csv':
        '307046864bc47456',
    "gap --family tabulated --rule-samples '[[0, 0], [0.3, 0.1], [0.7, 0.8], [1, 1]]' --p1 0.2 --p2 0.7 --lambda 0.3 --mode trivial-average --format csv":
        '0e3125dfa24a3615',
    "gap --family tabulated --rule-samples '[[0, 0], [0.3, 0.1], [0.7, 0.8], [1, 1]]' --p1 1 --p2 0 --lambda 0.5 --mode trivial-average --format csv":
        '1c822b8c62e718b0',
    "gap --family tabulated --rule-samples '[[0, 0], [0.3, 0.1], [0.7, 0.8], [1, 1]]' --p1 0 --p2 0 --lambda 1 --mode trivial-average --format csv":
        '7386b78d7e405103',
    "gap --family tabulated --rule-samples '[[0, 0], [0.3, 0.1], [0.7, 0.8], [1, 1]]' --p1 0.2 --p2 0.7 --lambda 0 --mode trivial-average --format csv":
        '2179f54242989884',
    "gap --family tabulated --rule-samples '[[0, 0], [0.3, 0.1], [0.7, 0.8], [1, 1]]' --p1 0.2 --p2 0.7 --lambda 1 --mode trivial-average --format csv":
        '603d16aee631ab23',
    "gap --family tabulated --rule-samples '[[0, 0], [0.3, 0.1], [0.7, 0.8], [1, 1]]' --p1 0.2 --p2 0.7 --lambda 0.3 --mode steered-uniform --format csv":
        '25e486142ec07a38',
    "gap --family tabulated --rule-samples '[[0, 0], [0.3, 0.1], [0.7, 0.8], [1, 1]]' --p1 1 --p2 0 --lambda 0.5 --mode steered-uniform --format csv":
        '1c822b8c62e718b0',
    "gap --family tabulated --rule-samples '[[0, 0], [0.3, 0.1], [0.7, 0.8], [1, 1]]' --p1 0 --p2 0 --lambda 1 --mode steered-uniform --format csv":
        '7386b78d7e405103',
    "gap --family tabulated --rule-samples '[[0, 0], [0.3, 0.1], [0.7, 0.8], [1, 1]]' --p1 0.2 --p2 0.7 --lambda 0 --mode steered-uniform --format csv":
        '5903f51bd6b176a8',
    "gap --family tabulated --rule-samples '[[0, 0], [0.3, 0.1], [0.7, 0.8], [1, 1]]' --p1 0.2 --p2 0.7 --lambda 1 --mode steered-uniform --format csv":
        '603d16aee631ab23',
    'gap --family power --alpha 0.5 --p1 0 --p2 0.5 --lambda 0.5 --seed 3 --format csv':
        '579995affd6a41fa',
    'scan --family identity --grid 9 --refine 7 --format csv':
        '8eebac359711e573',
    'scan --family power --alpha 1.5 --grid 9 --refine 7 --format csv':
        '749194beaeb0efae',
    'scan --family piecewise-quadratic --grid 9 --refine 7 --format csv':
        '7552bfb9f914c67d',
    "scan --family tabulated --rule-samples '[[0, 0], [0.3, 0.1], [0.7, 0.8], [1, 1]]' --grid 9 --refine 7 --format csv":
        'f565164d842c5b8d',
    'certify --family identity --seed 0 --samples 1 --format csv':
        '6e9d5a8e322e17a3',
    'certify --family identity --seed 0 --samples 257 --format csv':
        'ccc0f855efffea10',
    'certify --family identity --seed 2026 --samples 1 --format csv':
        '77a41e23172f3ba7',
    'certify --family identity --seed 2026 --samples 257 --format csv':
        '7deac3974f2784f1',
    'certify --family power --alpha 1.5 --seed 0 --samples 1 --format csv':
        '763fe3b3c0ffd483',
    'certify --family power --alpha 1.5 --seed 0 --samples 257 --format csv':
        'd73ecae1d257ad4d',
    'certify --family power --alpha 1.5 --seed 2026 --samples 1 --format csv':
        'cf4358de416b0975',
    'certify --family power --alpha 1.5 --seed 2026 --samples 257 --format csv':
        '2ea275a085aa1804',
    'certify --family piecewise-quadratic --seed 0 --samples 1 --format csv':
        '8a34fa508912f377',
    'certify --family piecewise-quadratic --seed 0 --samples 257 --format csv':
        '9d2d476de61f18b5',
    'certify --family piecewise-quadratic --seed 2026 --samples 1 --format csv':
        'fb6f5bf0c3de38f9',
    'certify --family piecewise-quadratic --seed 2026 --samples 257 --format csv':
        'c0a22bcad2e7c3df',
    "certify --family tabulated --rule-samples '[[0, 0], [0.3, 0.1], [0.7, 0.8], [1, 1]]' --seed 0 --samples 1 --format csv":
        '7b267e93f8eeecae',
    "certify --family tabulated --rule-samples '[[0, 0], [0.3, 0.1], [0.7, 0.8], [1, 1]]' --seed 0 --samples 257 --format csv":
        'ecefc389323c9831',
    "certify --family tabulated --rule-samples '[[0, 0], [0.3, 0.1], [0.7, 0.8], [1, 1]]' --seed 2026 --samples 1 --format csv":
        '944cbcc888fd6160',
    "certify --family tabulated --rule-samples '[[0, 0], [0.3, 0.1], [0.7, 0.8], [1, 1]]' --seed 2026 --samples 257 --format csv":
        '300bd149739f40ea',
    'certify --family identity --samples 0 --format csv':
        '857b9a8f539faf27',
    'reproduce --format csv':
        'b629bab58ac4f2e8',
    'reproduce --tol 1e-9 --format csv':
        '6cfdc1265b5b1277',
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
        '0fc207da0e8d6d23',
    'gap --family power --alpha 1.5 --p1 1 --p2 0 --lambda 0.5 --mode trivial-average --format pretty':
        '841d8dc3abef8bb2',
    'gap --family power --alpha 1.5 --p1 0 --p2 0 --lambda 1 --mode trivial-average --format pretty':
        'dd937f68bb06cac3',
    'gap --family power --alpha 1.5 --p1 0.2 --p2 0.7 --lambda 0 --mode trivial-average --format pretty':
        '1dc480b3fafc2b85',
    'gap --family power --alpha 1.5 --p1 0.2 --p2 0.7 --lambda 1 --mode trivial-average --format pretty':
        'e2e4a192b82c1f4d',
    'gap --family power --alpha 1.5 --p1 0.2 --p2 0.7 --lambda 0.3 --mode steered-uniform --format pretty':
        '2737ea951e99529c',
    'gap --family power --alpha 1.5 --p1 1 --p2 0 --lambda 0.5 --mode steered-uniform --format pretty':
        'd8f16ad776723b70',
    'gap --family power --alpha 1.5 --p1 0 --p2 0 --lambda 1 --mode steered-uniform --format pretty':
        '4d589fa8b7a35f87',
    'gap --family power --alpha 1.5 --p1 0.2 --p2 0.7 --lambda 0 --mode steered-uniform --format pretty':
        '672b68d29b234f8c',
    'gap --family power --alpha 1.5 --p1 0.2 --p2 0.7 --lambda 1 --mode steered-uniform --format pretty':
        'ee2a997e89ddc652',
    "gap --family tabulated --rule-samples '[[0, 0], [0.3, 0.1], [0.7, 0.8], [1, 1]]' --p1 0.2 --p2 0.7 --lambda 0.3 --mode trivial-average --format pretty":
        '5dfecc8a3bc912f1',
    "gap --family tabulated --rule-samples '[[0, 0], [0.3, 0.1], [0.7, 0.8], [1, 1]]' --p1 1 --p2 0 --lambda 0.5 --mode trivial-average --format pretty":
        '39e360837aacf494',
    "gap --family tabulated --rule-samples '[[0, 0], [0.3, 0.1], [0.7, 0.8], [1, 1]]' --p1 0 --p2 0 --lambda 1 --mode trivial-average --format pretty":
        'db1bfd51f4741764',
    "gap --family tabulated --rule-samples '[[0, 0], [0.3, 0.1], [0.7, 0.8], [1, 1]]' --p1 0.2 --p2 0.7 --lambda 0 --mode trivial-average --format pretty":
        'df0ffd4ee3097180',
    "gap --family tabulated --rule-samples '[[0, 0], [0.3, 0.1], [0.7, 0.8], [1, 1]]' --p1 0.2 --p2 0.7 --lambda 1 --mode trivial-average --format pretty":
        '11a37c0a3d60a215',
    "gap --family tabulated --rule-samples '[[0, 0], [0.3, 0.1], [0.7, 0.8], [1, 1]]' --p1 0.2 --p2 0.7 --lambda 0.3 --mode steered-uniform --format pretty":
        '1708ceefac6c6cdc',
    "gap --family tabulated --rule-samples '[[0, 0], [0.3, 0.1], [0.7, 0.8], [1, 1]]' --p1 1 --p2 0 --lambda 0.5 --mode steered-uniform --format pretty":
        'b843db22fa5b0e2f',
    "gap --family tabulated --rule-samples '[[0, 0], [0.3, 0.1], [0.7, 0.8], [1, 1]]' --p1 0 --p2 0 --lambda 1 --mode steered-uniform --format pretty":
        '834e3a0b42b92927',
    "gap --family tabulated --rule-samples '[[0, 0], [0.3, 0.1], [0.7, 0.8], [1, 1]]' --p1 0.2 --p2 0.7 --lambda 0 --mode steered-uniform --format pretty":
        'a8904591c9761a1a',
    "gap --family tabulated --rule-samples '[[0, 0], [0.3, 0.1], [0.7, 0.8], [1, 1]]' --p1 0.2 --p2 0.7 --lambda 1 --mode steered-uniform --format pretty":
        '99fca90aa8b8edb8',
    'gap --family power --alpha 0.5 --p1 0 --p2 0.5 --lambda 0.5 --seed 3 --format pretty':
        '8bd6e730d9a17bc8',
    'scan --family identity --grid 9 --refine 7 --format pretty':
        '8eebac359711e573',
    'scan --family power --alpha 1.5 --grid 9 --refine 7 --format pretty':
        '749194beaeb0efae',
    'scan --family piecewise-quadratic --grid 9 --refine 7 --format pretty':
        '7552bfb9f914c67d',
    "scan --family tabulated --rule-samples '[[0, 0], [0.3, 0.1], [0.7, 0.8], [1, 1]]' --grid 9 --refine 7 --format pretty":
        'f565164d842c5b8d',
    'certify --family identity --seed 0 --samples 1 --format pretty':
        '1bf6f02263b35d61',
    'certify --family identity --seed 0 --samples 257 --format pretty':
        '10154a9d039b4a85',
    'certify --family identity --seed 2026 --samples 1 --format pretty':
        '9992d76a392ec286',
    'certify --family identity --seed 2026 --samples 257 --format pretty':
        '810791a6cdce3d12',
    'certify --family power --alpha 1.5 --seed 0 --samples 1 --format pretty':
        'c0e4d96c8d1f38ca',
    'certify --family power --alpha 1.5 --seed 0 --samples 257 --format pretty':
        '8802ad71c373c320',
    'certify --family power --alpha 1.5 --seed 2026 --samples 1 --format pretty':
        '0836e611d8c88eca',
    'certify --family power --alpha 1.5 --seed 2026 --samples 257 --format pretty':
        '79520b076a7dd20c',
    'certify --family piecewise-quadratic --seed 0 --samples 1 --format pretty':
        '9f77b7484bab4f20',
    'certify --family piecewise-quadratic --seed 0 --samples 257 --format pretty':
        'a7c6be0c82be6696',
    'certify --family piecewise-quadratic --seed 2026 --samples 1 --format pretty':
        '789aea7d17a0fc9b',
    'certify --family piecewise-quadratic --seed 2026 --samples 257 --format pretty':
        '10f5e2ea89592486',
    "certify --family tabulated --rule-samples '[[0, 0], [0.3, 0.1], [0.7, 0.8], [1, 1]]' --seed 0 --samples 1 --format pretty":
        '0f7f338578da5f17',
    "certify --family tabulated --rule-samples '[[0, 0], [0.3, 0.1], [0.7, 0.8], [1, 1]]' --seed 0 --samples 257 --format pretty":
        '9c50c6c1fe3cd97d',
    "certify --family tabulated --rule-samples '[[0, 0], [0.3, 0.1], [0.7, 0.8], [1, 1]]' --seed 2026 --samples 1 --format pretty":
        'f43d27a8cd591be6',
    "certify --family tabulated --rule-samples '[[0, 0], [0.3, 0.1], [0.7, 0.8], [1, 1]]' --seed 2026 --samples 257 --format pretty":
        '0adb8730c4280c41',
    'certify --family identity --samples 0 --format pretty':
        '857b9a8f539faf27',
    'reproduce --format pretty':
        '40fdb99510ade64f',
    'reproduce --tol 1e-9 --format pretty':
        '4932cfc1b6043476',
    'scan --family power --alpha 1.5 --grid 9 --refine 7 --format csv --out {out}':
        'fd3ecff6db431329',
    'reproduce --format csv --out {out}':
        'c29371d3073f2615',
    'certify --family identity --samples 3 --format json --out {out}':
        'f58ceb9c9f9231c1',
    'certify --family identity --samples 1025 --seed 2026 --format json':
        '945a4ded4b347458',
    'certify --family power --alpha 1.5 --samples 1025 --seed 2026 --format json':
        'd1f13156971ae6a9',
    'scan --family identity --grid 41 --format csv --out {out}':
        '2040ccc022c7febd',
    'scan --family power --alpha 1.5 --grid 41 --format csv --out {out}':
        'f08647e2f198a24d',
    'scan --family piecewise-quadratic --grid 41 --format csv --out {out}':
        '8861b77a60a7c1ca',
    "scan --family tabulated --rule-samples '[[0, 0], [0.3, 0.1], [0.7, 0.8], [1, 1]]' --grid 41 --format csv --out {out}":
        'bf2f043621c4061e',
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
