"""Command-line surface: formats, exit codes, determinism."""

import importlib
import importlib.metadata as md
import json
import sys
from pathlib import Path

import pytest

from pseries import cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_ring_info_text(capsys):
    code, out, _ = run(capsys, "ring-info", "--ring", "Z/6")
    assert code == 0
    assert "Z/2" in out and "Z/3" in out
    code, out, _ = run(capsys, "ring-info", "--ring", "GF(3,2)")
    assert code == 0 and "8" in out
    code, out, _ = run(capsys, "ring-info", "--ring", "Z/4")
    assert code == 0 and "Z/2" in out  # residue field


def test_ring_info_json(capsys):
    code, out, _ = run(capsys, "ring-info", "--ring", "GF(3,2)", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["units"] == 8 and data["exponent"] == 8 and data["size"] == 9
    factor = data["factors"][0]
    assert factor["factor"] == "GF(3,2)" and factor["residue"] == "GF(3,2)"


def test_verify_small_passes(capsys):
    code, out, _ = run(capsys, "verify", "--ring", "GF(2,1)", "-n", "2")
    assert code == 0
    assert "pass" in out


def test_verify_json_structure(capsys):
    code, out, _ = run(capsys, "verify", "--ring", "GF(2,1)", "-n", "2",
                       "--format", "json", "--only", "prop3.2,lem3.3")
    assert code == 0
    data = json.loads(out)
    assert data["ring"] == "GF(2,1)" and data["n"] == 2
    ids = [c["id"] for c in data["checks"]]
    assert ids == ["prop3.2a", "prop3.2b", "prop3.2c", "prop3.2d",
                   "prop3.2e", "prop3.2f", "lem3.3"]
    assert data["summary"]["failed"] == 0
    assert all(c["millis"] is None for c in data["checks"])


def test_verify_csv(capsys):
    code, out, _ = run(capsys, "verify", "--ring", "GF(2,1)", "-n", "2",
                       "--format", "csv", "--only", "cor2.3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "id,status,expected,actual"
    assert lines[1].startswith("cor2.3,pass")


def test_verify_skip(capsys):
    code, out, _ = run(capsys, "verify", "--ring", "GF(2,1)", "-n", "2",
                       "--format", "json", "--skip",
                       "prop3.2,prop3.6,prop3.7,lem3.4,lem3.5,thm1,thm2,lem3.10,lem3.12,intro")
    assert code == 0
    ids = [c["id"] for c in json.loads(out)["checks"]]
    assert ids == ["lem3.3", "cor2.3"]


def test_same_seed_byte_identical(capsys):
    args = ("verify", "--ring", "GF(2,1)", "-n", "2", "--format", "json", "--seed", "7")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1.encode() == out2.encode()


def test_usage_errors_exit_2(capsys):
    assert run(capsys, "verify", "--ring", "Z/1", "-n", "2")[0] == 2
    assert run(capsys, "verify", "--ring", "what", "-n", "2")[0] == 2
    assert run(capsys, "verify", "--ring", "Z/4", "-n", "2", "--only", "bogus")[0] == 2
    with pytest.raises(SystemExit) as err:
        cli.main(["verify", "--ring", "Z/4", "-n", "0"])
    assert err.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as err:
        cli.main(["verify", "-n", "2"])  # missing --ring
    assert err.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as err:
        cli.main(["explode"])
    assert err.value.code == 2
    capsys.readouterr()


def test_max_group_below_one_is_a_usage_error(capsys):
    # squared, -100 would admit every group up to |G| = 100, and 0 none
    for bad in ("0", "-100"):
        with pytest.raises(SystemExit) as err:
            cli.main(["verify", "--ring", "Z/4", "-n", "2", "--max-group", bad])
        assert err.value.code == 2
        assert "--max-group must be at least 1" in capsys.readouterr().err


def test_size_guard_exit_3(capsys):
    code, _, err = run(capsys, "verify", "--ring", "Z/6", "-n", "3")
    assert code == 3
    assert "guard" in err
    code, _, err = run(capsys, "verify", "--ring", "GF(3,1)", "-n", "2",
                       "--max-group", "10")
    assert code == 3


def test_count_small(capsys):
    code, out, _ = run(capsys, "count", "--ring", "Z/4", "-n", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["formula"] == 5 and data["pipeline"] == 5 and data["match"] is True


def test_count_formula_only_when_guarded(capsys):
    code, out, _ = run(capsys, "count", "--ring", "Z/6", "-n", "3", "--format", "json")
    assert code == 0  # guard downgrades to formula-only, not an error
    data = json.loads(out)
    assert data["formula"] == 30
    assert data["pipeline"] is None
    assert data["guard"]


def test_count_n1_formula_is_unit_count(capsys):
    for spec, units in [("Z/4", 2), ("GF(5,1)", 4), ("Z/6", 2)]:
        code, out, _ = run(capsys, "count", "--ring", spec, "-n", "1",
                           "--format", "json")
        assert code == 0
        assert json.loads(out)["formula"] == units


def test_intertwine_identity_for_n1(capsys):
    code, out, _ = run(capsys, "intertwine", "--ring", "Z/4", "-n", "1",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["agree"] is True
    assert data["formula"] == [[1, 0], [0, 1]]
    assert data["oracle"] == [[1, 0], [0, 1]]


def test_intertwine_text_and_csv(capsys):
    code, out, _ = run(capsys, "intertwine", "--ring", "GF(3,1)", "-n", "2")
    assert code == 0
    assert "agree" in out.lower()
    code, out, _ = run(capsys, "intertwine", "--ring", "Z/4", "-n", "1",
                       "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "chi,sigma,formula,oracle"
    assert len(lines) == 5  # 2x2 pairs


def test_entry_point_matches_module():
    """The `pseries` script is declared in pyproject.toml as cli.main, and
    the declaration resolves to that function; when the package is
    installed, its console_scripts metadata must say the same."""
    try:
        dist = md.distribution("pseries")
    except md.PackageNotFoundError:
        dist = None
    if dist is not None:
        scripts = dist.entry_points.select(group="console_scripts",
                                           name="pseries")
        assert any(ep.value == "pseries.cli:main" for ep in scripts)
        if sys.version_info < (3, 11):
            return  # no tomllib to read pyproject.toml with
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["pseries"]
    assert target == "pseries.cli:main"
    module, _, attr = target.partition(":")
    assert getattr(importlib.import_module(module), attr) is cli.main
