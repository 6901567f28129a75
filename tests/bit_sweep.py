"""One sha256 per family of results over fixed inputs: run
``python tests/bit_sweep.py`` from the repository root at two commits and
compare the lines. A hash covers each result's ``to_dict()`` with every
float as its bits, and each error's class, message and index; the count
of each error class follows it. ``--save
FILE`` writes the results, and ``--against FILE`` adds each family's
largest |change| of a float against them and the count of other values
that differ. The file's name keeps pytest from collecting it."""

import argparse
import collections
import dataclasses
import hashlib
import itertools
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from gptsim import (models as gm, rules as rl, signaling as sg,  # noqa: E402
                    steering as ss, transition as tr)
from gptsim.errors import GptError  # noqa: E402

RULES = (rl.identity_rule(), rl.power_rule(1.5), rl.piecewise_quadratic_rule(),
         rl.tabulated_rule([[0, 0], [0.3, 0.1], [0.7, 0.8], [1, 1]]),
         rl.power_rule(0.5))  # the steep one
ENDS = (0.0, 1e-9, 0.3, 0.8, 1.0 - 1e-9, 1.0)
LAMBDAS = (0.0, 1e-9, 0.3, 0.5, 1.0)
MODES = (sg.TRIVIAL_AVERAGE, sg.STEERED_UNIFORM)


def bits(value):
    """``value`` as JSON with each float as its hex bits (-0.0 and NaN too)."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {key: bits(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [bits(item) for item in value]
    return value


def outcome(call):
    """What ``call()`` gives as a plain structure, or what it raises."""
    try:
        result = call()
    except GptError as exc:
        return [type(exc).__name__, str(exc), exc.index]
    results = result if isinstance(result, (list, tuple)) else [result]
    return [r.to_dict() if hasattr(r, "to_dict") else dataclasses.asdict(r)
            for r in results]


def steering(phis, light):
    """Purify a low-rank mixture of two of ``phis``, steer it by the point
    measurement and synthesize the measurement back from what it steered."""
    model = phis[0].model
    psi = ss.purify(gm.state_from_matrix(model, (1 - light) * phis[0].matrix
                                         + light * phis[1].matrix), model.size)
    steered = ss.steer(psi, gm.measurement([gm.projector_effect(
        gm.point_state(model, k)) for k in range(model.size)]))
    return [psi, steered,
            ss.synthesize_steering_measurement(psi, steered).measurement]


def stream_draws(stream, seed):
    """Words 0 to 7 of ``seed``'s ``stream``, their uniforms and their
    Box-Muller normals as (real, imaginary) pairs."""
    words = tr._stream_words(stream, [seed], 0, 8)
    return [words.tolist(), tr._uniforms(words).tolist(),
            [[z.real, z.imag] for z in tr._normals(words)[0].tolist()]]


def families():
    yield "draws", [stream_draws(stream, seed) for stream, seed in itertools.product(
        (tr._SCENARIO_STREAM, tr._SAMPLE_STREAM),
        (0, 1, 2**31 - 1, 2**64 - 1, 2**64, 2**64 + 5, 2**128 + 7, 3**200))]
    rng = np.random.default_rng(2026)
    phis = {d: [gm.ket_state(gm.quantum(d), k / np.linalg.norm(k)) for k in
                rng.normal(size=(3, d)) + 1j * rng.normal(size=(3, d))]
            for d in (2, 3, 4)}
    grid = list(itertools.product(ENDS, ENDS, LAMBDAS))
    for d, mode in itertools.product((2, 3, 4), MODES):
        yield f"scenario d={d} {mode}", [outcome(lambda: sg.run_scenario(
            sg.Scenario(rule, phis[d][i % 3], p1, p2, lam, mode, seed=i)))
            for i, (rule, (p1, p2, lam)) in enumerate(
                itertools.product(RULES, grid))]
    cuts = [(lam, 0.2, 0.7) for k in range(9, 16)  # README's first known limit
            for lam in (10.0 ** -k, 1.0 - 10.0 ** -k)] + [
        (0.5, 1.0, 1.0 - 10.0 ** -k) for k in range(9, 16)]
    yield "rank cut", [outcome(lambda: sg.run_scenario(sg.Scenario(
        RULES[i % 5], phis[d][i % 3], p1, p2, lam, mode, seed=i)))
        for i, (d, mode, (lam, p1, p2)) in enumerate(
            itertools.product((2, 3, 4), MODES, cuts * 3))]
    draws = np.random.default_rng(27)
    for k in range(15, 9, -1):  # README's first known limit, by band
        lights = 10.0 ** (draws.random(600) - k)  # log-uniform in the band
        yield f"lighter weight in [1e-{k}, 1e-{k - 1}]", [outcome(lambda: sg.run_scenario(
            sg.Scenario(RULES[i % 4], phis[d][i % 3], *draws.random(2),
                        (light, 1.0 - light)[i % 5 % 2], MODES[i % 2], seed=i)))
            for i, (d, light) in enumerate(zip(itertools.cycle((2, 3, 4)),
                                               lights))]
    for k in range(14, 9, -1):  # members phi and sqrt(1 - delta) phi + ...
        deltas = 10.0 ** (draws.random(5) - k)  # log-uniform in the decade
        yield f"near-identical members, delta in [1e-{k}, 1e-{k - 1}]", [
            outcome(lambda: sg.run_scenario(sg.Scenario(
                rule, phis[d][i % 3], 1.0, 1.0 - delta, 0.5, mode, seed=i)))
            for i, (d, mode, rule, delta) in enumerate(itertools.product(
                (2, 3, 4), MODES, RULES[:4], deltas))]
    batch = [sg.Scenario(RULES[i % 4], phis[d][i % 3], *grid[7 * i % 180][:2],
                         0.3, MODES[i % 2], seed=i)
             for i, d in enumerate([2, 3, 4, 2, 2, 3, 4] * 6)]
    yield "mixed batches", [outcome(lambda: sg.run_scenarios(batch[k:k + n]))
                            for k, n in itertools.product((0, 5, 11), (7, 31))]
    yield "certificates", [outcome(lambda: sg.affinity_certificate(
        rule, samples=n, tol=1e-3, seed=n)) for rule, n in itertools.product(
            RULES[:2], (1, 511, 512, 513, 1025))]
    yield "steering", [outcome(lambda: steering(phis[d], light)) for d, light
                       in itertools.product((2, 3, 4), (0, 1e-13, 1e-9, 0.25))]
    qubit = gm.quantum(2)
    yield "lp and qubit geometry", [outcome(lambda: [
        tr.tau_lp_report(qubit, psi, phi, tr.great_circle_states(
            phi, n, psi if n == 8 else None)),
        gm.state_from_bloch(qubit, gm.bloch_vector(psi) * 0.5)])
        for (psi, phi), n in itertools.product(itertools.permutations(
            phis[2] + [gm.point_state(qubit, 0)], 2), (8, 45))]
    yield "uniform decompositions", [outcome(lambda: sg.uniform_overlap_decomposition(
        gm.mix(gm.ensemble([(lam, phis[d][0]), (1 - lam, phis[d][1])])), phis[d][2]))
        for d, lam in itertools.product((2, 3, 4), LAMBDAS)]


def delta(old, new):
    """Largest |change| of the floats of two ``bits`` structures, and the
    number of other leaves (or shapes) that differ."""
    if isinstance(old, dict) and isinstance(new, dict) and old.keys() == new.keys():
        old, new = list(old.values()), list(new.values())
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        changes = [delta(a, b) for a, b in zip(old, new)]
        return (max((c[0] for c in changes), default=0.0),
                sum(c[1] for c in changes))
    if old == new:
        return 0.0, 0
    try:
        return abs(float.fromhex(old) - float.fromhex(new)), 0
    except (TypeError, ValueError):
        return 0.0, 1


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--save", metavar="FILE")
    parser.add_argument("--against", metavar="FILE")
    args = parser.parse_args()
    saved = json.loads(Path(args.against).read_text()) if args.against else {}
    runs = {}
    for name, outcomes in families():
        runs[name] = bits(outcomes)
        text = json.dumps(runs[name], sort_keys=True).encode()
        line = f"{hashlib.sha256(text).hexdigest()}  {name} ({len(outcomes)})"
        errors = collections.Counter(o[0] for o in outcomes
                                     if isinstance(o[0], str))
        line += "".join(f"  {kind} {count}" for kind, count in sorted(errors.items()))
        if args.against:
            change, other = delta(saved.get(name), runs[name])
            line += f"  max |change| {change:.3g}, {other} other"
        print(line)
    if args.save:
        Path(args.save).write_text(json.dumps(runs))
