"""Golden outputs: the CSVs of every command, byte for byte, at tiny configs.

Each case runs one CLI command on a small fixed config and seed and compares
the SHA-256 of its CSV files (sorted by name, each as name, NUL, bytes, NUL)
with a recorded digest. The cases cover every shipped model, both solvers,
the contraction rescaling (picard on the delay model), noise coarsening
(ito-check) and the closed-form oracle (benchmark). A digest that changes
means a command's output changed; that is a contract break unless it is
intended and documented.
"""

import hashlib
import json

import pytest

from mildsde.cli import main

JUMPS = {"jump_rate": 3.0, "mark_std": 0.5, "mark_mean": 0.1}
BASE = {"dt": 0.01, "horizon": 1.0, "chunk_size": 8}

# name: (command, config, exit code, CSV digest)
CASES = {
    "picard-reaction-diffusion": (
        "picard",
        dict(BASE, example="reaction_diffusion", dim=4, paths=12, seed=11, n_max=4,
             model_params=JUMPS),
        0,
        "91e90f9a76a4dfa5eecb2ad784e342f43187cd12a35d81dcf443aa84a9e68b4f",
    ),
    # eta != 0: the implicit step's linear-shift branch
    "picard-reaction-diffusion-shifted": (
        "picard",
        dict(BASE, example="reaction_diffusion", dim=8, paths=12, seed=19, n_max=4,
             model_params=dict(JUMPS, eta=0.5)),
        0,
        "a17f74f14519674536266ad9db8fc8c16e9c76582b19e9981df1338c381666b9",
    ),
    "picard-delay-rescaled": (
        "picard",
        dict(BASE, example="delay", dim=6, paths=6, seed=12, n_max=3, chunk_size=4,
             model_params=dict(JUMPS, levy_gaussian_variance=0.09)),
        0,
        "4674b6d724c9ec40d3e4edaa33cc1e8aa283bdbf5b0b28d2dbc1510cae7c92fb",
    ),
    "picard-hyperbolic": (
        "picard",
        dict(BASE, example="hyperbolic", dim=4, paths=6, seed=17, n_max=3, chunk_size=4,
             model_params=dict(JUMPS, levy_drift=0.3, levy_gaussian_variance=0.04)),
        0,
        "e4810041a7edf67c7e783698f239264de09374487041a7faf62263e89022c5ec",
    ),
    "ito-check-delay": (
        "ito-check",
        dict(BASE, example="delay", dim=8, paths=16, seed=13,
             model_params=dict(JUMPS, levy_gaussian_variance=0.25)),
        0,
        "c13851f5ab3996ebf86692399b3ff12464510c77401ce9f86c9c90086fbe249b",
    ),
    "benchmark-linear": (
        "benchmark",
        dict(BASE, example="linear_scalar", paths=64, seed=14,
             model_params=dict(JUMPS, mark_mean=0.0, dt_exponents=[6, 7, 8])),
        0,
        "f5cdabe35924329305fe50cbb665fbaf2c02171bdf84a80a81f3d8b492346a96",
    ),
    "hypothesis-check-delay": (
        "hypothesis-check",
        dict(BASE, example="delay", dim=6, paths=1, seed=15, model_params=JUMPS),
        0,
        "48f438bf2d4c1850df8f6d3aef181057d1fedbe2f94e21461df7c51457525022",
    ),
    # the Gaussian part of the driving process on the head: its declared
    # constants in the diffusion column, and a drift with M = 0
    "hypothesis-check-delay-levy": (
        "hypothesis-check",
        dict(BASE, example="delay", dim=6, paths=1, seed=23,
             model_params=dict(JUMPS, levy_gaussian_variance=0.25, levy_drift=-0.2)),
        0,
        "ff68b0155fbedc6e1f87cc8dd7525ae406b8b972029fe70458b5ae37982f5134",
    ),
    # the Nemitsky drift, and a jump quadrature over all 8 components
    "hypothesis-check-reaction-diffusion": (
        "hypothesis-check",
        dict(BASE, example="reaction_diffusion", dim=8, paths=1, seed=20,
             model_params=dict(JUMPS, eta=0.5)),
        0,
        "bcc91c9685c6a804667a3d4a60e141f598d398d29cc10d80f6819e803dd6ebb1",
    ),
    # coefficients on the velocity block, weighted by the energy norm
    "hypothesis-check-hyperbolic": (
        "hypothesis-check",
        dict(BASE, example="hyperbolic", dim=4, paths=1, seed=21,
             model_params=dict(JUMPS, levy_drift=0.3, levy_gaussian_variance=0.04)),
        0,
        "795342d0e77ee016b4cf5269058f93f1cb218a59f04c2f1f13ae07f554a1aa3e",
    ),
    "hypothesis-check-linear": (
        "hypothesis-check",
        dict(BASE, example="linear_scalar", paths=1, seed=22, model_params=JUMPS),
        0,
        "f7e75e5f851b32c37c6426c564127e70d0cc29f9bb95c42b4199b477a5eba1b9",
    ),
    "simulate-hyperbolic": (
        "simulate",
        dict(BASE, example="hyperbolic", dim=3, paths=5, seed=16, chunk_size=2,
             dump_paths=3, model_params=dict(JUMPS, levy_gaussian_variance=0.04)),
        0,
        "4258df5ed9b0b07fd70705de9066d6369527c31b58374edf38f663ac08dbfb07",
    ),
}

# simulate on the delay model in chunks of 2 (the last one short), dumping
# no path, every path, and the first 3 paths (ending inside chunk 1): only
# those rows keep their path in the solver
for dump, digest in [
    (0, "2873138fc66949442dbd52548c492b9a52249ab3e35af9cd7808ef5b899d5fb4"),
    (7, "fb165784d6635658a3ee2065929761b5088182c39aa68ca44e0ee623a153032e"),
    (3, "ad36de677f1b0ff609cee323dfabab355c907e69048e90429d875bd565875041"),
]:
    CASES[f"simulate-delay-dump-{dump}"] = (
        "simulate",
        dict(BASE, example="delay", dim=6, paths=7, seed=18, chunk_size=2, dump_paths=dump,
             model_params=dict(JUMPS, levy_gaussian_variance=0.25)),
        0,
        digest,
    )


def csv_digest(out_dir):
    digest = hashlib.sha256()
    for path in sorted(out_dir.glob("*.csv")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_csv_digest(name, tmp_path):
    command, config, exit_code, expected = CASES[name]
    out = tmp_path / "out"
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(config, out_dir=str(out))))
    assert main([command, "--config", str(path)]) == exit_code
    assert csv_digest(out) == expected
