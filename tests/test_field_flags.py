"""The sweep and surface flags are built from the SweepConfig and
SurfaceConfig fields: one flag and one config key per field, typed as the
field's default, with the field's choices and a help naming both.  Also the
two list parsers' messages and the `state` report bytes."""

from dataclasses import fields

import pytest

import udspin.cli as cli
from udspin.cli import build_parser, main
from udspin.sweep import (
    SURFACE_COORDS,
    SURFACE_KINDS,
    SURFACE_OBSERVABLES,
    SurfaceConfig,
    SweepConfig,
)

CHOICES = {"kind": SURFACE_KINDS, "coords": SURFACE_COORDS, "observable": SURFACE_OBSERVABLES}
SCALAR_SWEEP_FIELDS = ("n_particles", "epsilon", "jobs")
FLAGGED = {
    "sweep": (SweepConfig, [f for f in fields(SweepConfig) if f.name in SCALAR_SWEEP_FIELDS]),
    "surface": (SurfaceConfig, list(fields(SurfaceConfig))),
}


def key_of(field):
    return "n" if field.name == "n_particles" else field.name.replace("_", "-")


def actions(command):
    sub = build_parser()._subparsers._group_actions[0].choices[command]
    return {action.dest: action for action in sub._actions}


def other_value(field):
    """A value of the field's type other than its default."""
    if field.name in CHOICES:
        return next(c for c in CHOICES[field.name] if c != field.default)
    return field.default + (1 if isinstance(field.default, int) else 0.5)


@pytest.mark.parametrize("command", FLAGGED)
def test_each_field_has_a_typed_flag_with_its_choices(command):
    found = actions(command)
    for field in FLAGGED[command][1]:
        action = found[key_of(field).replace("-", "_")]
        assert action.option_strings == [f"--{key_of(field)}"]
        assert action.type is type(field.default)
        assert action.choices == CHOICES.get(field.name)
        assert action.default is None  # left out: the dataclass default holds


@pytest.mark.parametrize("command", FLAGGED)
def test_each_field_has_a_config_key_read_as_its_type(command, tmp_path, monkeypatch):
    config, flagged = FLAGGED[command]
    built = []
    monkeypatch.setattr(cli, "run_sweep", lambda c: built.append(c) or [])
    monkeypatch.setattr(cli, "write_records", lambda *args: None)
    monkeypatch.setattr(cli, "write_surface", lambda c, *args: built.append(c) or "side")
    values = {field.name: other_value(field) for field in flagged}
    path = tmp_path / "run.conf"
    path.write_text("".join(f"{key_of(f)}={values[f.name]}\n" for f in flagged))
    assert main([command, "--config", str(path), "--out", str(tmp_path / "t.csv")]) == 0
    (got,) = built
    assert got == config(**values)
    for field in flagged:
        assert type(getattr(got, field.name)) is type(field.default)


@pytest.mark.parametrize("command", FLAGGED)
def test_help_names_each_config_key_and_its_default(command, capsys):
    assert main([command, "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    for field in FLAGGED[command][1]:
        assert f"config key {key_of(field)} (default {field.default})" in text


def test_bad_choice_from_a_config_key_exits_2(tmp_path, capsys):
    path = tmp_path / "run.conf"
    path.write_text("coords=polar\n")
    assert main(["surface", "--config", str(path), "--out", str(tmp_path / "t.csv")]) == 2
    assert "argument --coords: invalid choice: 'polar'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["state", "--z", "1,x"], "bad complex list '1,x'"),
        (["sweep", "--lambdas", "1,x", "--out", "x.csv"], "bad numeric list '1,x'"),
    ],
)
def test_each_list_keeps_its_own_message(argv, message, capsys):
    assert main(argv) == 2
    assert message in capsys.readouterr().err


STATE_REPORTS = {
    "dscs": """\
state: dscs  N=10  D=3  label=(1.0, 1.0, 1.0)
level 1: purity=0.1875104962 linear=0.8937384542 von_neumann=0.7551869421
level 2: purity=0.1875104962 linear=0.8937384542 von_neumann=0.7551869421
level 3: purity=0.1875104962 linear=0.8937384542 von_neumann=0.7551869421
one atom: purity=1 linear=0 von_neumann=0
two atoms: purity=1 linear=0 von_neumann=0
squeezing: xi2_21=0.3333333333 xi2_31=0.3333333333 xi2_32=0.3333333333 total=1
closed-form vs state-vector max deviation = 3.553e-15
""",
    "dcat": """\
state: dcat  N=10  D=3  label=((1+0j), (1+0j), (1+0j))
level 1: purity=0.3736181525 linear=0.6890200323 von_neumann=0.4675416125
level 2: purity=0.3736181525 linear=0.6890200323 von_neumann=0.4675416125
level 3: purity=0.3736181525 linear=0.6890200323 von_neumann=0.4675416125
one atom: purity=0.3333333333 linear=1 von_neumann=1
two atoms: purity=0.259289389 linear=0.8332994373 von_neumann=0.622998397
squeezing: xi2_21=0.3327237011 xi2_31=0.3327237011 xi2_32=0.3327237011 total=0.9981711034
closed-form vs state-vector max deviation = 8.882e-15
""",
    "nodon": """\
state: nodon  N=10  D=3  label=(0.0, 0.0, 0.0)
level 1: purity=0.5555555556 linear=0.4888888889 von_neumann=0.2654470258
level 2: purity=0.5555555556 linear=0.4888888889 von_neumann=0.2654470258
level 3: purity=0.5555555556 linear=0.4888888889 von_neumann=0.2654470258
one atom: purity=0.3333333333 linear=1 von_neumann=1
two atoms: purity=0.3333333333 linear=0.75 von_neumann=0.5
squeezing: xi2_21=0.3333333333 xi2_31=0.3333333333 xi2_32=0.3333333333 total=1
closed-form vs state-vector max deviation = 7.105e-15
""",
}


@pytest.mark.parametrize("kind", STATE_REPORTS)
def test_state_report_bytes(kind, capsys):
    assert main(["state", "--kind", kind]) == 0
    assert capsys.readouterr().out == STATE_REPORTS[kind]
