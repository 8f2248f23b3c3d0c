"""The execution-knob table and the derived deployment key.

Every row of :data:`repro.fi.knobs.KNOBS` is checked the same way: env
parsing, a malformed env value (one warning, then the default), the
arg > field > env > default precedence of :func:`repro.fi.knobs.resolve`,
and the CLI flag relaying the same value as the env var.  The key tests
pin :func:`repro.fi.cache.deployment_key` to its historical strings, so
cache entries and checkpoint directories written before the key was
derived from field metadata stay valid.
"""

from __future__ import annotations

import json
import os
from dataclasses import fields
from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.fi.cache import deployment_key
from repro.fi.campaign import Deployment
from repro.fi.knobs import KNOBS, Execution, resolve
from repro.taint.region import Region

ROOT = Path(__file__).resolve().parents[2]

#: per row: (env string, its parsed value, a field value, an argument,
#: a malformed env string or None when every string is valid)
SAMPLES = {
    "jobs": ("3", 3, 2, 5, "abc"),
    "lanes": ("16", 16, 4, 2, "0"),
    "checkpoint_every": ("25", 25, 7, 9, "-3"),
    "resume": ("yes", True, None, False, None),
    "ci_halfwidth": ("0.05", 0.05, 0.2, 0.1, "banana"),
    "scenario": ("RANKKILL", "rankkill", "msgcorrupt:bit=3", "bitflip", "cosmicray"),
    "backend": ("pool", "process", "inline", "distributed:127.0.0.1:9000",
                "warp-drive"),
}

ROWS = pytest.mark.parametrize("knob", KNOBS, ids=[k.name for k in KNOBS])
MALFORMED_ROWS = pytest.mark.parametrize(
    "knob", [k for k in KNOBS if SAMPLES[k.name][4] is not None],
    ids=[k.name for k in KNOBS if SAMPLES[k.name][4] is not None],
)


def resolved(knob, deployment=None, **args):
    """The value ``resolve`` settles on for ``knob``."""
    deployment = deployment or Deployment(nprocs=1, trials=1)
    pinned, execution = resolve(deployment, **args)
    return getattr(pinned if knob.identity else execution, knob.name)


@pytest.fixture(autouse=True)
def _no_ambient_knobs(monkeypatch):
    # set-then-delete registers an undo that also removes whatever the
    # CLI relay writes during a test
    for knob in KNOBS:
        monkeypatch.setenv(knob.env, "")
        monkeypatch.delenv(knob.env)


def test_every_row_has_samples():
    assert set(SAMPLES) == {k.name for k in KNOBS}


@ROWS
def test_env_parsing(knob, monkeypatch, capsys):
    raw, value = SAMPLES[knob.name][:2]
    monkeypatch.setenv(knob.env, raw)
    assert resolved(knob) == value
    assert capsys.readouterr().err == ""


@MALFORMED_ROWS
def test_malformed_env_warns_once_and_falls_back(knob, monkeypatch, capsys):
    malformed = SAMPLES[knob.name][4]
    monkeypatch.setenv(knob.env, malformed)
    assert resolved(knob) == knob.default
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert knob.env in err and repr(malformed) in err
    # the same parser rejects the value everywhere else it can arrive
    with pytest.raises(ConfigurationError):
        Deployment(nprocs=1, trials=1, **{knob.name: malformed})


@ROWS
def test_precedence_arg_over_field_over_env_over_default(knob, monkeypatch):
    raw, env_value, field_value, arg = SAMPLES[knob.name][:4]
    assert resolved(knob) == knob.default
    monkeypatch.setenv(knob.env, raw)
    assert resolved(knob) == env_value
    deployment = Deployment(nprocs=1, trials=1)
    if field_value is not None:  # every knob but resume is a field
        deployment = Deployment(nprocs=1, trials=1, **{knob.name: field_value})
        assert resolved(knob, deployment) == field_value
    assert resolved(knob, deployment, **{knob.name: arg}) == knob.parse(arg)


def test_resolve_rejects_unknown_knobs():
    with pytest.raises(TypeError):
        resolve(Deployment(nprocs=1, trials=1), lanse=4)


@ROWS
def test_cli_flag_relays_the_env_value(knob, monkeypatch):
    import repro.experiments.cli as cli

    seen = []

    class StubExperiment:
        @staticmethod
        def run(trials, seed, quiet):
            seen.append(resolved(knob))

    monkeypatch.setattr(cli.importlib, "import_module", lambda name: StubExperiment)
    raw, value = SAMPLES[knob.name][:2]
    flag = [knob.flag] if knob.metavar is None else [knob.flag, raw]
    assert cli.main(["table1", "-q", *flag]) == 0
    os.environ.pop(knob.env)
    monkeypatch.setenv(knob.env, raw)
    assert cli.main(["table1", "-q"]) == 0
    assert seen == [value, value]


@MALFORMED_ROWS
def test_cli_rejects_malformed_flag(knob):
    import repro.experiments.cli as cli

    with pytest.raises(SystemExit):
        cli.main(["table1", knob.flag, SAMPLES[knob.name][4]])


# ----------------------------------------------------------------------
# the derived deployment key
# ----------------------------------------------------------------------
#: a non-default value per identity field
ALTERNATIVES = {
    "nprocs": 3, "trials": 7, "n_errors": 2, "region": Region.COMMON,
    "target_rank": 0, "seed": 9, "max_steps": 500, "bits_per_error": 2,
    "ci_halfwidth": 0.05, "scenario": "rankkill",
}

#: key strings written by earlier versions (cache entries, checkpoints)
PINNED_KEYS = [
    (dict(nprocs=4, trials=10, seed=1), "p=4,t=10,e=1,r=None,tr=None,s=1"),
    (dict(nprocs=4, trials=10, seed=1, bits_per_error=2),
     "p=4,t=10,e=1,r=None,tr=None,s=1,b=2"),
    (dict(nprocs=4, trials=10, seed=1, max_steps=500),
     "p=4,t=10,e=1,r=None,tr=None,s=1,ms=500"),
    (dict(nprocs=4, trials=10, seed=1, ci_halfwidth=0.05),
     "p=4,t=10,e=1,r=None,tr=None,s=1,ci=0.05"),
    (dict(nprocs=4, trials=10, seed=1, scenario="rankkill"),
     "p=4,t=10,e=1,r=None,tr=None,s=1,sc=rankkill"),
    (dict(nprocs=2, trials=8, n_errors=3, region=Region.PARALLEL_UNIQUE,
          target_rank=1, seed=7, bits_per_error=2, max_steps=500,
          ci_halfwidth=0.05, scenario="msgcorrupt:bit=3", jobs=2, lanes=4,
          checkpoint_every=3, backend="pool"),
     "p=2,t=8,e=3,r=parallel_unique,tr=1,s=7,b=2,ms=500,ci=0.05,"
     "sc=msgcorrupt:bit=3"),
]


def _benchmark_keys() -> list[str]:
    """The ``predict-ft`` deployment keys the repository benchmark pins."""
    expected = json.loads((ROOT / "perfbench" / "expected.json").read_text())
    return sorted({
        part.removeprefix("joint ")
        for seed in expected["digests"]["predict-ft"].values()
        for part in seed if part.startswith("joint ")
    })


def _deployment_from_key(key: str) -> Deployment:
    names = {f.metadata["key"]: f.name for f in fields(Deployment)
             if "key" in f.metadata}
    kwargs = {}
    for part in key.split(","):
        tag, _, text = part.partition("=")
        if text == "None":
            kwargs[names[tag]] = None
        elif tag == "r":
            kwargs[names[tag]] = Region(text)
        else:
            kwargs[names[tag]] = int(text)
    return Deployment(**kwargs)


def test_every_field_is_key_tagged_or_a_knob():
    knobs = {k.name: k for k in KNOBS}
    for f in fields(Deployment):
        tagged = "key" in f.metadata
        assert tagged or f.name in knobs, f"{f.name}: neither in the key nor a knob"
        if f.name in knobs:
            assert tagged == knobs[f.name].identity, f.name
            assert f.metadata.get("execution", False) != tagged, f.name
    assert {f.name for f in fields(Execution)} == {
        k.name for k in KNOBS if not k.identity
    }


def test_every_key_field_changes_the_key():
    tagged = {f.name for f in fields(Deployment) if "key" in f.metadata}
    assert tagged == set(ALTERNATIVES)
    base = dict(nprocs=1, trials=5)
    plain = deployment_key(Deployment(**base))
    for name, value in ALTERNATIVES.items():
        assert deployment_key(Deployment(**{**base, name: value})) != plain, name


@pytest.mark.parametrize("kwargs,key", PINNED_KEYS)
def test_historical_keys_reproduced(kwargs, key):
    assert deployment_key(Deployment(**kwargs)) == key


def test_benchmark_keys_reproduced():
    keys = _benchmark_keys()
    assert keys
    for key in keys:
        assert deployment_key(_deployment_from_key(key)) == key
