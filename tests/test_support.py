"""The support contract of the coefficients: each evaluator returns only the
components its coefficient set declares, and declaring a support narrower
than the state changes no output byte, only the work done."""

import importlib.util
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mildsde import cli
from mildsde.coefficients import WHOLE, CoefficientSet, widen
from mildsde.models import EXAMPLE_BUILDERS
from mildsde.solver import rescale_to_contraction
from tests.test_golden import csv_digest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "campaign_reach.py"
spec = importlib.util.spec_from_file_location("campaign_reach", SCRIPT)
campaign_reach = importlib.util.module_from_spec(spec)
spec.loader.exec_module(campaign_reach)
ALL_ON, TINY = campaign_reach.ALL_ON, campaign_reach.TINY


def support_width(model):
    return len(range(model.dim)[model.coeffs.support])


def zero_filled(model):
    """The model with every evaluator widened back to the whole state by
    zero-fill, as the dense builders wrote them, and a whole-state
    support."""
    c = model.coeffs

    def wide(fn):
        return lambda *args: widen(fn(*args), c.support, model.dim)

    return replace(model, coeffs=CoefficientSet(
        replace(c.drift, evaluate=wide(c.drift.evaluate)),
        replace(c.diffusion, evaluate=wide(c.diffusion.evaluate)),
        replace(c.jump, evaluate=wide(c.jump.evaluate), compensator=wide(c.jump.compensator)),
    ))


@pytest.mark.parametrize("params", ["defaults", "all_on"])
@pytest.mark.parametrize("name", sorted(EXAMPLE_BUILDERS))
def test_evaluators_return_the_declared_support(name, params):
    model = EXAMPLE_BUILDERS[name](**(ALL_ON[name] if params == "all_on" else {}),
                                   validate=False)
    dim = model.dim
    expected = {"delay": slice(0, 1), "hyperbolic": slice(dim // 2, dim)}.get(name, WHOLE)
    assert model.coeffs.support == expected
    k = support_width(model)
    x = np.random.default_rng(3).standard_normal((2, 5, dim))
    for m in (model, rescale_to_contraction(model)):
        c = m.coeffs
        assert c.support == expected
        assert c.drift.evaluate(0.5, x).shape == (2, 5, k)
        assert c.diffusion.evaluate(0.5, x).shape == (2, 5, c.diffusion.modes, k)
        assert c.jump.compensator(0.5, x).shape == (2, 5, k)
        assert c.jump.evaluate(0.5, 0.3, x).shape == (2, 5, k)
        # one (time, mark) pair per row, as the solvers pass them
        flat = x.reshape(-1, dim)
        times, marks = np.linspace(0.1, 0.9, len(flat)), np.linspace(-1.0, 1.0, len(flat))
        assert c.jump.evaluate(times, marks, flat).shape == (len(flat), k)


@pytest.mark.parametrize("command", ["picard", "ito-check", "simulate", "hypothesis-check"])
@pytest.mark.parametrize("example", ["delay", "hyperbolic"])
def test_a_declared_support_changes_no_csv_byte(example, command, tmp_path, monkeypatch):
    # every optional term on, at two seeds: the declared-support model and
    # its zero-filled twin write the same CSVs. The twin skips the build's
    # validation, which the declared model passes on the same coefficients.
    build = cli.model_from_config
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(TINY, example=example, model_params=ALL_ON[example])))
    digests = {}
    for twin in (False, True):
        if twin:
            monkeypatch.setattr(cli, "model_from_config",
                                lambda config, validate=True: zero_filled(build(config, False)))
        for seed in (1, 2):
            out = tmp_path / f"{twin}-{seed}"
            rc = cli.main([command, "--config", str(path), "--seed", str(seed),
                           "--out", str(out)])
            digests[twin, seed] = (rc, csv_digest(out))
    assert all(rc in (cli.EXIT_OK, cli.EXIT_DIAGNOSTIC) for rc, _ in digests.values())
    for seed in (1, 2):
        assert digests[True, seed] == digests[False, seed]
    assert digests[False, 1] != digests[False, 2]
