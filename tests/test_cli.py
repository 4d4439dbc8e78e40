"""CLI dispatch: payload shapes, exit codes, cache behavior, verify."""

import argparse
import copy
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dessinlink
from dessinlink import cli, dessin, diagram, invariants
from dessinlink.errors import InternalError
from dessinlink.dessin import build_dessin, dessin_counts
from dessinlink.poly import LaurentPoly
from dessinlink.table import knot_table
from dessinlink.cli import (
    EXIT_BAD_INPUT,
    EXIT_CAP,
    EXIT_INTERNAL,
    EXIT_IO,
    EXIT_OK,
    EXIT_PRECONDITION,
    EXIT_USAGE,
    _UNKEYED,
    _build_parser,
    _cache_key,
    run_cli,
)

from helpers import braid_pd

HOPF_UNSIGNED = "X[1,3,2,4] X[3,1,4,2]"
TREFOIL = "X[1,5,2,4] X[3,1,4,6] X[5,3,6,2]"  # the bundled 3_1, writhe +3


def run_json(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out else None
    return code, payload, captured.err


# ==========================================================================
# subcommand payloads
# ==========================================================================


def test_det_all_methods(capsys):
    code, payload, _ = run_json(capsys, "det", "--name", "8_21", "--method", "all")
    assert code == EXIT_OK
    assert payload["schema"] == "dessinlink/1"
    assert payload["command"] == "det"
    assert payload["value"] == 15
    assert set(payload["methods"]) == {
        "quasitree",
        "jones_eval",
        "charpoly",
        "tree_difference",
    }
    assert set(payload["methods"].values()) == {15}
    assert payload["skipped"] == {}


def test_det_single_method_alias(capsys):
    code, payload, _ = run_json(capsys, "det", "--name", "3_1", "--method", "jones")
    assert code == EXIT_OK
    assert payload["methods"] == {"jones_eval": 3}


def test_charpoly_from_chords(capsys):
    code, payload, _ = run_json(
        capsys, "charpoly", "--chords", "1 2 3 4 5 2 1 5 4 3"
    )
    assert code == EXIT_OK
    assert payload["char_poly"]["string"] == "-x^5 - 6*x^3"
    assert payload["s"] == [1, 6, 0]
    assert payload["determinant"] == 5
    assert len(payload["intersection_matrix"]) == 5


def test_charpoly_from_diagram(capsys):
    code, payload, _ = run_json(capsys, "charpoly", "--name", "4_1")
    assert code == EXIT_OK
    assert payload["determinant"] == 5


def test_pretzel_closed_form(capsys):
    code, payload, _ = run_json(capsys, "pretzel", "2", "3", "-5", "--det")
    assert code == EXIT_OK
    assert payload["closed_form"] == 19
    assert payload["determinant"] == 19
    assert payload["agree"] is True
    assert payload["counts"]["g"] == 1


def test_jones_and_bracket(capsys):
    code, payload, _ = run_json(capsys, "jones", "--name", "3_1")
    assert code == EXIT_OK
    assert payload["variable"] == "t"
    assert payload["jones"]["string"] == "-t^4 + t^3 + t"
    code, payload, _ = run_json(capsys, "bracket", "--name", "5_2", "--oracle")
    assert code == EXIT_OK
    assert payload["oracle_equal"] is True


def test_dessin_states_and_quasitrees(capsys):
    code, payload, _ = run_json(capsys, "dessin", "--name", "3_1", "--state", "B")
    assert code == EXIT_OK
    assert payload["counts"] == {"v": 3, "e": 3, "f": 2, "g": 0, "k": 1}
    code, payload, _ = run_json(capsys, "quasitrees", "--name", "8_21")
    assert code == EXIT_OK
    assert payload["s"] == [9, 24]
    assert payload["determinant"] == 15
    assert payload["genus"] == 1


@pytest.mark.parametrize("name", sorted(knot_table()))
def test_coeffs_are_the_bracket_read_by_level(capsys, name):
    pd = diagram.table_pd(name)
    c = dessin_counts(build_dessin(pd, 0))
    top = c.e + 2 * c.v - 2
    code, payload, _ = run_json(capsys, "coeffs", "--name", name)
    assert code == EXIT_OK
    assert payload["top_exponent"] == top
    levels = {top - 4 * l: a for l, a in enumerate(payload["coeffs"])}
    assert LaurentPoly(levels) == invariants.bracket_via_dessin(pd)
    assert payload["coeffs"][-1] != 0
    assert payload["checks"] == {"top_closed_form": True, "matches_bracket": True}


def test_coeffs_past_the_scan_cap_skip_the_spread(capsys):
    # 29 edges: the table comes from the contracted bracket, a[0] is still
    # checked against its closed form, and the spread check is reported as
    # skipped the way `det` reports a skipped route
    pd = diagram.twist_pd(20, 9)
    code, payload, _ = run_json(capsys, "coeffs", "--pd", diagram.pd_to_text(pd))
    assert code == EXIT_OK
    assert payload["checks"] == {"top_closed_form": True}
    assert payload["skipped"] == {"matches_bracket": "scan over 29 edges exceeds the cap 24"}
    table = invariants.coefficient_table(pd, check=False)
    assert payload["coeffs"] == list(table.coeffs)


def test_det_past_the_scan_cap_reads_the_contracted_bracket(capsys):
    pd = diagram.pretzel_pd((10, 9, -8))
    code, payload, _ = run_json(capsys, "det", "--pd", diagram.pd_to_text(pd))
    assert code == EXIT_OK
    assert payload["value"] == invariants.pretzel_determinant((10, 9), (8,))
    assert sorted(payload["methods"]) == ["charpoly", "jones_eval", "tree_difference"]
    assert payload["skipped"] == {"quasitree": "scan over 27 edges exceeds the cap 24"}


def test_reduce_and_twist(capsys):
    code, payload, _ = run_json(capsys, "reduce", "--name", "3_1")
    assert code == EXIT_OK
    assert payload["crossings"] == 5
    assert all(payload["bookkeeping"].values())
    assert payload["bracket_preserved"] is True
    code, payload, _ = run_json(capsys, "twist", "2", "3")
    assert code == EXIT_OK
    assert payload["determinant"] == 5
    assert payload["variable"] == "t"


def test_reduce_keeps_the_signs_of_a_one_circle_code(capsys):
    # no clasp is inserted, so the reduced code is the input, S[...] included
    pd = "X[2,4,3,1] X[4,6,5,3] X[2,7,8,6] X[7,9,10,8] X[9,1,5,10] S[+,+,-,-,-]"
    code, payload, _ = run_json(capsys, "reduce", "--pd", pd)
    assert code == EXIT_OK
    assert payload["reduced_pd"] == payload["pd"] == pd
    assert payload["crossings"] == 5
    assert all(payload["bookkeeping"].values())
    assert payload["bracket_preserved"] is True


def test_reduce_past_the_scan_cap_checks_the_bracket(capsys):
    # the cap bounds the contraction's width, not the crossing count
    pd = diagram.pd_to_text(diagram.twist_pd(12, 14))
    code, payload, _ = run_json(capsys, "reduce", "--pd", pd)
    assert code == EXIT_OK
    assert payload["crossings"] == 26
    assert payload["bracket_preserved"] is True
    assert "skipped" not in payload
    code, payload, _ = run_json(capsys, "reduce", "--pd", pd, "--cap", "3")
    assert code == EXIT_OK
    assert "bracket_preserved" not in payload
    assert payload["skipped"] == {
        "bracket_preserved": "contraction over 4 open arcs exceeds the cap 3"
    }


# ==========================================================================
# exit codes and error reports
# ==========================================================================


def test_usage_errors(capsys):
    code, _, err = run_json(capsys, "det")
    assert code == EXIT_USAGE
    assert json.loads(err)["error"]["kind"] == "usage"
    code, _, err = run_json(
        capsys, "det", "--pd", HOPF_UNSIGNED, "--name", "3_1"
    )
    assert code == EXIT_USAGE
    code, _, err = run_json(capsys, "bracket", "--name", "3_1", "--cap", "30")
    assert code == EXIT_USAGE
    assert "--allow-large" in json.loads(err)["error"]["message"]


@pytest.mark.parametrize(
    "argv",
    [
        ("bracket", "--name", "3_1", "--cap", "0"),
        ("bracket", "--name", "3_1", "--oracle", "--cap", "-5"),
        ("quasitrees", "--name", "3_1", "--cap", "0"),
        ("verify", "--cap", "0"),
    ],
)
def test_counts_below_1_are_usage_errors(capsys, argv):
    code, payload, err = run_json(capsys, *argv)
    assert code == EXIT_USAGE
    assert payload is None
    error = json.loads(err)["error"]
    assert error["kind"] == "usage"
    assert "must be >= 1" in error["message"]


@pytest.mark.parametrize("argv", [("charpoly",), ("charpoly", "--chords", "")])
def test_charpoly_without_input_names_chords(capsys, argv):
    code, _, err = run_json(capsys, *argv)
    assert code == EXIT_USAGE
    error = json.loads(err)["error"]
    assert error["kind"] == "usage"
    assert "--chords" in error["message"]


def test_diagram_options_only_where_a_diagram_is_read(capsys):
    for argv in (
        ("twist", "2", "3", "--name", "3_1"),
        ("twist", "2", "3", "--name", "3_1", "--pd", "X[1]"),
        ("pretzel", "2", "3", "-5", "--pd", TREFOIL),
        ("verify", "--name", "3_1"),
    ):
        with pytest.raises(SystemExit) as exc:
            run_cli(list(argv))
        assert exc.value.code == EXIT_USAGE, argv
    capsys.readouterr()


def test_scan_options_only_where_a_scan_runs(capsys, tmp_path):
    for argv in (
        ("charpoly", "--chords", "1 2 1 2", "--cap", "1"),
        ("charpoly", "--name", "3_1", "--allow-large"),
        ("dessin", "--name", "3_1", "--cap", "30"),
        ("dessin", "--name", "3_1", "--workers", "9"),
        ("det", "--name", "3_1", "--workers", "2"),
        ("jones", "--name", "3_1", "--workers", "2"),
        ("twist", "2", "3", "--workers", "2"),
        ("pretzel", "2", "3", "-5", "--workers", "2"),
        ("bracket", "--name", "3_1", "--oracle", "--workers", "2"),
        ("verify", "--workers", "1"),
    ):
        with pytest.raises(SystemExit) as exc:
            run_cli(list(argv))
        assert exc.value.code == EXIT_USAGE, argv
    capsys.readouterr()
    for argv in (
        ("bracket", "--name", "3_1", "--oracle", "--cap", "10"),
        ("det", "--name", "3_1", "--cap", "10"),
        ("twist", "2", "3", "--cap", "30", "--allow-large"),
        ("pretzel", "2", "3", "-5", "--det", "--cap", "10"),
    ):
        assert run_json(capsys, *argv)[0] == EXIT_OK, argv
    # an option the command cannot take cannot split its cache entries
    cache = tmp_path / "cache.jsonl"
    assert run_json(capsys, "charpoly", "--chords", "1 2 1 2", "--cache", str(cache))[0] == EXIT_OK
    assert run_json(capsys, "charpoly", "--chords", "1 2 1 2", "--cache", str(cache))[0] == EXIT_OK
    assert len(cache.read_text().splitlines()) == 1


def test_arc_label_zero_is_bad_input(capsys):
    code, _, err = run_json(capsys, "det", "--pd", "X[0,1,1,0]")
    assert code == EXIT_BAD_INPUT
    assert "arc label 0" in json.loads(err)["error"]["message"]


def test_no_command_is_usage(capsys):
    assert run_cli([]) == EXIT_USAGE
    capsys.readouterr()


def test_bad_input(capsys):
    code, _, err = run_json(capsys, "bracket", "--pd", "X[1,2,3]")
    assert code == EXIT_BAD_INPUT
    assert json.loads(err)["error"]["kind"] == "bad-input"
    code, _, _ = run_json(capsys, "det", "--name", "no_such_knot")
    assert code == EXIT_BAD_INPUT


def test_non_planar_code_is_bad_input(capsys):
    code, _, err = run_json(capsys, "bracket", "--pd", "X[1,2,1,3] X[2,4,3,4]")
    assert code == EXIT_BAD_INPUT
    assert json.loads(err)["error"] == {
        "kind": "bad-input",
        "message": "PD code is not planar: 2 faces for 2 crossings (expected 4)",
    }


def test_cap_exceeded(capsys):
    code, _, err = run_json(capsys, "bracket", "--name", "8_21", "--cap", "4")
    assert code == EXIT_CAP
    assert json.loads(err)["error"]["kind"] == "cap-exceeded"


def test_the_state_sum_oracle_keeps_its_own_crossing_bound(capsys):
    # --cap bounds the scanned edges and the contraction's width, not the
    # oracle: 12 crossings of width at most 10 pass under --cap 10, and
    # 21 crossings exceed the oracle's 20 under any cap
    pd = diagram.pd_to_text(braid_pd([1, -2] * 6, 3))
    code, payload, _ = run_json(capsys, "bracket", "--pd", pd, "--oracle", "--cap", "10")
    assert (code, payload["crossings"], payload["oracle_equal"]) == (EXIT_OK, 12, True)
    pd = diagram.pd_to_text(braid_pd([1, -2] * 10 + [1], 3))
    assert run_json(capsys, "bracket", "--pd", pd, "--cap", "10")[0] == EXIT_OK
    code, _, err = run_json(capsys, "bracket", "--pd", pd, "--oracle", "--cap", "10")
    assert code == EXIT_CAP
    assert json.loads(err)["error"] == {
        "kind": "cap-exceeded",
        "message": "21 crossings exceeds the state-sum cap 20",
    }


def test_orientation_precondition(capsys):
    code, _, err = run_json(capsys, "jones", "--pd", HOPF_UNSIGNED)
    assert code == EXIT_PRECONDITION
    assert json.loads(err)["error"]["kind"] == "precondition"


def test_tree_difference_precondition(capsys):
    # the trefoil is valid input; its all-A dessin has genus 0, not 1
    code, _, err = run_json(capsys, "det", "--name", "3_1", "--method", "treediff")
    assert code == EXIT_PRECONDITION
    assert json.loads(err)["error"] == {
        "kind": "precondition",
        "message": "tree_difference needs an all-A dessin of genus 1",
    }


def test_internal_error_exits_1(capsys, monkeypatch):
    # a twist diagram whose all-A state is not one circle trips a
    # consistency check: that is a bug, not bad input
    monkeypatch.setattr(diagram, "state_circle_count", lambda pd, s: 2)
    code, _, err = run_json(capsys, "twist", "2", "3")
    assert code == EXIT_INTERNAL
    error = json.loads(err)["error"]
    assert error["kind"] == "internal"
    assert error["message"].startswith("internal error:")


def test_value_error_inside_a_computation_is_internal(capsys, monkeypatch):
    # only a DiagramError is bad input: a ValueError raised by the code
    # itself is a bug
    monkeypatch.setattr(invariants, "_det_charpoly", lambda pd: max(()))
    code, _, err = run_json(capsys, "det", "--name", "8_21")
    assert code == EXIT_INTERNAL
    error = json.loads(err)["error"]
    assert error["kind"] == "internal"
    assert error["message"].startswith("ValueError: ")


def test_disagreeing_determinants_exit_1(capsys, monkeypatch):
    monkeypatch.setattr(invariants, "_det_charpoly", lambda pd: 16)
    code, _, err = run_json(capsys, "det", "--name", "8_21")
    assert code == EXIT_INTERNAL
    error = json.loads(err)["error"]
    assert error["kind"] == "internal"
    assert "disagree" in error["message"]


def test_failed_checks_exit_1_and_are_never_cached(tmp_path, capsys, monkeypatch):
    true_sum = diagram.state_sum_bracket
    monkeypatch.setattr(
        diagram, "state_sum_bracket", lambda pd, **kw: true_sum(pd, **kw) * 2
    )
    cache = tmp_path / "cache.jsonl"
    for _ in range(2):  # the second run recomputes: nothing was cached
        code, payload, _ = run_json(capsys, "verify", "--cache", str(cache))
        assert code == EXIT_INTERNAL
        assert payload["all_pass"] is False
        assert not cache.exists()
    # a failing payload already in a cache still exits 1 when served
    args = _build_parser().parse_args(["verify"])
    entry = {"key": _cache_key("verify", args), "payload": payload}
    cache.write_text(json.dumps(entry) + "\n")
    monkeypatch.setattr(diagram, "state_sum_bracket", true_sum)
    code, served, _ = run_json(capsys, "verify", "--cache", str(cache))
    assert code == EXIT_INTERNAL
    assert served == payload


def test_failed_coefficient_check_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(invariants, "top_coefficient_closed_form", lambda d: 99)
    code, payload, _ = run_json(capsys, "coeffs", "--name", "4_1")
    assert code == EXIT_INTERNAL
    assert payload["checks"] == {"top_closed_form": False, "matches_bracket": True}


def test_failed_spread_check_exits_1(capsys, monkeypatch):
    # the binomial spread is the route that never reads the bracket
    real = invariants._spread
    monkeypatch.setattr(
        invariants, "_spread", lambda d, bound, cap: tuple(a + 1 for a in real(d, bound, cap))
    )
    code, payload, _ = run_json(capsys, "coeffs", "--name", "4_1")
    assert code == EXIT_INTERNAL
    assert payload["checks"] == {"top_closed_form": True, "matches_bracket": False}
    code, payload, _ = run_json(capsys, "verify")
    assert code == EXIT_INTERNAL
    failed = {c["name"] for c in payload["checks"] if not c["pass"]}
    assert failed == {f"coeff_table_{name}" for name in knot_table()}


def test_failed_closed_form_agreement_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(invariants, "pretzel_determinant", lambda pos, neg: 20)
    code, payload, _ = run_json(capsys, "pretzel", "2", "3", "-5", "--det")
    assert code == EXIT_INTERNAL
    assert payload["agree"] is False


def test_failed_bracket_oracle_exits_1(capsys, monkeypatch):
    true_sum = diagram.state_sum_bracket
    monkeypatch.setattr(
        diagram, "state_sum_bracket", lambda pd, **kw: true_sum(pd, **kw) * 2
    )
    code, payload, _ = run_json(capsys, "bracket", "--name", "5_2", "--oracle")
    assert code == EXIT_INTERNAL
    assert payload["oracle_equal"] is False


def test_coefficient_closed_form_mismatch_is_internal(monkeypatch):
    monkeypatch.setattr(invariants, "top_coefficient_closed_form", lambda d: 99)
    with pytest.raises(InternalError, match="^internal error: top coefficient"):
        invariants.coefficient_table(diagram.table_pd("4_1"), check=True)


def test_mixed_bracket_exponents_mod_4_exit_1(capsys, monkeypatch):
    monkeypatch.setattr(
        invariants, "bracket_via_dessin", lambda pd, cap=24: LaurentPoly({0: 1, 2: 1})
    )
    code, _, err = run_json(capsys, "det", "--name", "3_1", "--method", "jones")
    assert code == EXIT_INTERNAL
    error = json.loads(err)["error"]
    assert error["kind"] == "internal"
    assert "mod 4" in error["message"]


def test_mixed_parity_bracket_in_jones_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(
        invariants, "bracket_via_dessin", lambda pd, cap=24: LaurentPoly({1: 1, 2: 1})
    )
    code, _, err = run_json(capsys, "jones", "--name", "3_1")
    assert code == EXIT_INTERNAL
    error = json.loads(err)["error"]
    assert error["kind"] == "internal"
    assert error["message"].startswith("internal error:")


def test_jones_at_minus_two_exponent_check_is_internal(monkeypatch):
    monkeypatch.setattr(
        invariants, "bracket_via_dessin", lambda pd, cap=24: LaurentPoly({1001: 1})
    )
    with pytest.raises(InternalError, match="not in -4N"):
        invariants.jones_at_minus_two(diagram.table_pd("3_1"))


def test_missing_table_is_a_file_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("DESSINLINK_TABLE", str(tmp_path / "missing.txt"))
    code, _, err = run_json(capsys, "det", "--name", "3_1")
    assert code == EXIT_IO
    assert json.loads(err)["error"]["kind"] == "io"


def test_undecodable_table_is_bad_input(tmp_path, capsys, monkeypatch):
    path = tmp_path / "table.txt"
    path.write_bytes(b"3_1: X[1,5,2,4] X[3,1,4,6] X[5,3,6,2]\n\xff\xfe: X[1,1,2,2]\n")
    monkeypatch.setenv("DESSINLINK_TABLE", str(path))
    code, _, err = run_json(capsys, "det", "--name", "3_1")
    assert code == EXIT_BAD_INPUT
    error = json.loads(err)["error"]
    assert error["kind"] == "bad-input"
    assert "not UTF-8" in error["message"]


def test_repeated_table_entry_is_bad_input(tmp_path, capsys, monkeypatch):
    # the second `k:` line would otherwise answer for `--name k`
    path = tmp_path / "table.txt"
    path.write_text(f"k: X[1,1,2,2]\n3_1: {TREFOIL}\nk: {TREFOIL}\n")
    monkeypatch.setenv("DESSINLINK_TABLE", str(path))
    code, payload, err = run_json(capsys, "det", "--name", "k")
    assert (code, payload) == (EXIT_BAD_INPUT, None)
    assert json.loads(err)["error"] == {
        "kind": "bad-input",
        "message": "table entry 'k' is repeated",
    }


def test_cache_directory_is_a_file_error(tmp_path, capsys):
    code, _, err = run_json(capsys, "det", "--name", "3_1", "--cache", str(tmp_path))
    assert code == EXIT_IO
    assert json.loads(err)["error"]["kind"] == "io"


def test_out_directory_is_a_file_error(tmp_path, capsys):
    code, _, err = run_json(capsys, "det", "--name", "3_1", "--out", str(tmp_path))
    assert code == EXIT_IO
    assert json.loads(err)["error"]["kind"] == "io"


def test_explicit_signs_are_checked(capsys):
    code, payload, _ = run_json(capsys, "jones", "--pd", TREFOIL + " S[+,+,+]")
    assert code == EXIT_OK
    assert payload["jones"]["string"] == "-t^4 + t^3 + t"
    for signs in ("S[+,-,-]", "S[-,-,-]"):
        code, _, err = run_json(capsys, "jones", "--pd", f"{TREFOIL} {signs}")
        assert code == EXIT_BAD_INPUT, signs
        assert json.loads(err)["error"]["kind"] == "bad-input"
    # reversing one Hopf component flips both crossings together
    for signs, want in (("S[+,+]", EXIT_OK), ("S[-,-]", EXIT_OK), ("S[+,-]", EXIT_BAD_INPUT)):
        code, _, _ = run_json(capsys, "jones", "--pd", f"{HOPF_UNSIGNED} {signs}")
        assert code == want, signs


# ==========================================================================
# output modes and cache
# ==========================================================================


def test_plain_output(capsys):
    code = run_cli(["det", "--name", "3_1", "--plain"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "value: 3" in out


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = run_cli(["det", "--name", "3_1", "--out", str(target)])
    assert code == EXIT_OK
    assert capsys.readouterr().out == ""
    assert json.loads(target.read_text())["value"] == 3


def test_cache_round_trip(tmp_path, capsys):
    cache = tmp_path / "cache.jsonl"
    first = run_json(capsys, "det", "--name", "3_1", "--cache", str(cache))
    assert first[0] == EXIT_OK
    assert len(cache.read_text().splitlines()) == 1
    second = run_json(capsys, "det", "--name", "3_1", "--cache", str(cache))
    assert second[1] == first[1]
    assert len(cache.read_text().splitlines()) == 1  # served, not recomputed
    third = run_json(
        capsys, "det", "--name", "3_1", "--method", "quasitree", "--cache", str(cache)
    )
    assert third[0] == EXIT_OK
    assert len(cache.read_text().splitlines()) == 2  # different flags, new entry


def test_cache_keys_name_on_active_table(tmp_path, capsys, monkeypatch):
    cache = tmp_path / "cache.jsonl"
    code, payload, _ = run_json(capsys, "jones", "--name", "3_1", "--cache", str(cache))
    assert code == EXIT_OK
    assert payload["jones"]["string"] == "-t^4 + t^3 + t"
    mirrored = tmp_path / "mirror.txt"
    mirror_text = diagram.pd_to_text(diagram.mirror(diagram.parse_pd(TREFOIL)))
    mirrored.write_text(f"3_1: {mirror_text}\n")
    monkeypatch.setenv("DESSINLINK_TABLE", str(mirrored))
    code, payload, _ = run_json(capsys, "jones", "--name", "3_1", "--cache", str(cache))
    assert code == EXIT_OK
    assert payload["jones"]["string"] == "t^-1 + t^-3 - t^-4"
    assert len(cache.read_text().splitlines()) == 2
    # verify reads the whole table, so its key covers the whole table
    args = _build_parser().parse_args(["verify"])
    mirror_key = _cache_key("verify", args)
    monkeypatch.delenv("DESSINLINK_TABLE")
    assert _cache_key("verify", args) != mirror_key


# positional arguments a command cannot parse without
_POSITIONALS = {"pretzel": ["2", "3", "-5"], "twist": ["2", "3"]}


def _other_value(action, value):
    """A value of the option `action` other than `value`."""
    if action.choices:
        return next(c for c in action.choices if c != value)
    if action.nargs == 0:  # a flag
        return not value
    if action.nargs == "+":
        return [*value, 7]
    if action.type is int:
        return (value or 0) + 7
    return f"{value}-changed"


def test_cache_key_covers_every_option_but_the_unkeyed():
    parser = _build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    seen = set()
    for command, command_parser in sub.choices.items():
        base = parser.parse_args([command, *_POSITIONALS.get(command, [])])
        for action in command_parser._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            seen.add(action.dest)
            changed = copy.copy(base)
            setattr(changed, action.dest, _other_value(action, getattr(base, action.dest)))
            moved = _cache_key(command, changed) != _cache_key(command, base)
            assert moved != (action.dest in _UNKEYED), (command, action.dest)
    # only options that cannot change a payload stay out of the key
    assert _UNKEYED == {"out", "cache", "plain", "allow_large"} <= seen
    # a table name is keyed on its PD text
    by_name = parser.parse_args(["det", "--name", "3_1"])
    by_pd = parser.parse_args(["det", "--pd", TREFOIL])
    assert _cache_key("det", by_name) == _cache_key("det", by_pd)


def test_cache_key_includes_the_version(monkeypatch):
    args = _build_parser().parse_args(["det", "--name", "3_1"])
    before = _cache_key("det", args)
    monkeypatch.setattr(cli, "__version__", "0.0.0-other")
    assert _cache_key("det", args) != before


def test_undecodable_cache_lines_are_misses(tmp_path, capsys):
    cache = tmp_path / "cache.jsonl"
    cache.write_bytes(b'{"key": "trunc\n[1, 2]\n\xff\xfe not utf-8\n')
    code, payload, _ = run_json(capsys, "det", "--name", "3_1", "--cache", str(cache))
    assert code == EXIT_OK
    assert payload["value"] == 3
    assert len(cache.read_bytes().splitlines()) == 4
    again = run_json(capsys, "det", "--name", "3_1", "--cache", str(cache))
    assert again[1] == payload
    assert len(cache.read_bytes().splitlines()) == 4  # served from the cache


def test_cache_entries_of_another_payload_are_misses(tmp_path, capsys):
    # an entry under the right key whose payload is not this command's
    # output under this schema is not served: the command recomputes
    cache = tmp_path / "cache.jsonl"
    key = _cache_key("det", _build_parser().parse_args(["det", "--name", "3_1"]))
    _, jones, _ = run_json(capsys, "jones", "--name", "3_1")
    for stale in ({}, jones, {**jones, "command": "det", "schema": "dessinlink/0"}):
        cache.write_text(json.dumps({"key": key, "payload": stale}) + "\n")
        code, payload, _ = run_json(capsys, "det", "--name", "3_1", "--cache", str(cache))
        assert code == EXIT_OK
        assert (payload["command"], payload["value"]) == ("det", 3)
        lines = cache.read_text().splitlines()
        assert len(lines) == 2 and json.loads(lines[1])["payload"] == payload
        served = run_json(capsys, "det", "--name", "3_1", "--cache", str(cache))
        assert served[1] == payload
        assert len(cache.read_text().splitlines()) == 2


# Appends 200 entries of about 20 KB under one tag to a cache file.
_APPENDER = """
import sys
from dessinlink.cli import _cache_put
path, tag = sys.argv[1], sys.argv[2]
for i in range(200):
    _cache_put(path, f"{tag}-{i}", {"blob": tag * 20000})
"""


def test_concurrent_cache_appends_never_interleave(tmp_path):
    cache = tmp_path / "cache.jsonl"
    env = dict(os.environ)
    src = str(Path(dessinlink.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    procs = [
        subprocess.Popen([sys.executable, "-c", _APPENDER, str(cache), tag], env=env)
        for tag in ("a", "b")
    ]
    for proc in procs:
        assert proc.wait(timeout=60) == 0
    keys = set()
    for line in cache.read_bytes().splitlines():
        entry = json.loads(line)
        assert entry["payload"]["blob"] == entry["key"][0] * 20000
        keys.add(entry["key"])
    assert keys == {f"{tag}-{i}" for tag in ("a", "b") for i in range(200)}


# ==========================================================================
# verify
# ==========================================================================


def test_verify_passes_and_is_deterministic(tmp_path, capsys, monkeypatch):
    # the same bytes on one CPU as on two
    one = tmp_path / "verify1.json"
    two = tmp_path / "verify2.json"
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert run_cli(["verify", "--out", str(one)]) == EXIT_OK
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert run_cli(["verify", "--out", str(two)]) == EXIT_OK
    capsys.readouterr()
    assert one.read_bytes() == two.read_bytes()
    payload = json.loads(one.read_text())
    assert payload["all_pass"] is True
    names = [c["name"] for c in payload["checks"]]
    assert "bracket_oracle_8_21" in names
    assert "figure8_charpoly" in names


def test_pooled_scans_print_what_in_process_scans_print(monkeypatch, capsys, pools):
    # 16 crossings: the all-A dessin's 2^16 subsets are scanned in a pool
    # when the process can fork, and in-process when it cannot
    pd = diagram.pd_to_text(braid_pd([1, -2] * 8, 3))
    commands = [[name, "--pd", pd] for name in ("det", "quasitrees", "coeffs")]

    def outputs():
        dessin._profile_scan.cache_clear()
        codes = [run_cli(argv) for argv in commands]
        return codes, capsys.readouterr().out

    pooled = outputs()
    assert pools == [2]
    monkeypatch.delattr(os, "fork")
    assert outputs() == pooled
    assert pools == [2]
    assert pooled[0] == [EXIT_OK] * 3


def test_verify_plain_lists_checks(capsys):
    code = run_cli(["verify", "--plain"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "PASS bracket_oracle_3_1" in out
    assert "FAIL" not in out


# ==========================================================================
# import budget: each command loads only the modules it uses
# ==========================================================================

MATH_MODULES = {
    "dessinlink.diagram",
    "dessinlink.dessin",
    "dessinlink.chord",
    "dessinlink.invariants",
    "dessinlink.poly",
    "fractions",
}

# Runs the CLI in a fresh interpreter and prints its exit code and the
# modules it loaded as JSON on stderr (stdout carries the CLI's output).
_PROBE = """
import json, sys
from dessinlink.cli import run_cli
try:
    code = run_cli(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
sys.stderr.write(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""

# Imports the package, then resolves every public name through it.
_NAMES = """
import importlib, json, sys, types
import dessinlink
loaded = sorted(m for m in sys.modules if m.startswith("dessinlink."))
wrong = []
for name in dessinlink.__all__[:-1]:  # all but __version__
    module = importlib.import_module("dessinlink." + dessinlink._MODULE_OF[name])
    obj = getattr(dessinlink, name)
    defined_here = not isinstance(obj, (type, types.FunctionType)) or (
        obj.__module__ == module.__name__
    )
    if obj is not getattr(module, name) or not defined_here:
        wrong.append(name)
sys.stderr.write(json.dumps({"loaded": loaded, "wrong": wrong}))
"""


def run_python(script, *argv):
    """JSON report a script writes to stderr, run in a new interpreter."""
    env = dict(os.environ)
    src = str(Path(dessinlink.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    return json.loads(proc.stderr)


def probe_cli(*argv):
    """(exit code, loaded module names) of one CLI run in a new interpreter."""
    report = run_python(_PROBE, *argv)
    return report["code"], set(report["modules"])


def test_version_loads_no_math():
    code, modules = probe_cli("--version")
    assert code == EXIT_OK
    assert not modules & MATH_MODULES


def test_cache_hit_loads_no_math(tmp_path, capsys):
    cache = tmp_path / "cache.jsonl"
    for argv in (("det", "--name", "3_1"), ("jones", "--pd", TREFOIL), ("verify",)):
        assert run_cli([*argv, "--cache", str(cache)]) == EXIT_OK
        capsys.readouterr()
        size = cache.stat().st_size
        code, modules = probe_cli(*argv, "--cache", str(cache))
        assert code == EXIT_OK
        assert cache.stat().st_size == size, argv  # answered from the cache
        assert not modules & MATH_MODULES, argv


def test_startup_and_small_scans_import_no_multiprocessing(tmp_path, capsys):
    # the 16-crossing det scans 2^16 subsets: it forks wherever 2 CPUs are free
    cache = str(tmp_path / "cache.jsonl")
    assert run_cli(["det", "--name", "3_1", "--cache", cache]) == EXIT_OK
    capsys.readouterr()
    pooled = diagram.pd_to_text(braid_pd([1, -2] * 8, 3))
    for argv in (
        ("--version",), ("det", "--name", "3_1", "--cache", cache), ("det", "--name", "8_21"),
        ("det", "--pd", pooled),
    ):
        code, modules = probe_cli(*argv)
        assert code == EXIT_OK
        assert "multiprocessing" not in modules, argv


def test_cache_miss_loads_no_dataclass_machinery(tmp_path):
    cache = str(tmp_path / "cache.jsonl")
    for argv in (("det", "--name", "3_1"), ("twist", "2", "3"), ("charpoly", "--chords", "1 2 1 2")):
        code, modules = probe_cli(*argv, "--cache", cache)
        assert code == EXIT_OK
        assert "dessinlink.dessin" in modules, argv  # a miss: the math ran
        assert not modules & {"dataclasses", "inspect", "ast"}, argv


def test_charpoly_from_chords_loads_no_diagram_layer():
    code, modules = probe_cli("charpoly", "--chords", "1 2 1 2")
    assert code == EXIT_OK
    assert "dessinlink.chord" in modules
    assert not modules & {"dessinlink.diagram", "dessinlink.invariants"}


_MINORS = """
import json, sys
from dessinlink.chord import parse_chords, unit_principal_minors
minors = unit_principal_minors(parse_chords("1 2 3 4 5 2 1 5 4 3"))
sys.stderr.write(json.dumps({"ones": sum(minors.values()), "modules": sorted(sys.modules)}))
"""


def test_principal_minors_load_no_numpy():
    report = run_python(_MINORS)
    assert report["ones"] == 1 + 6 + 0  # s(0) + s(1) + s(2) of the figure-eight
    assert "numpy" not in report["modules"]


_STATE_SUM = """
import json, sys
from dessinlink.diagram import smooth_state, state_circle_count, state_sum_bracket, table_pd
pd = table_pd("3_1")
report = {
    "circles": len(smooth_state(pd, 0)),
    "count": state_circle_count(pd, 0),
    "bracket": str(state_sum_bracket(pd)),
    "modules": sorted(sys.modules),
}
sys.stderr.write(json.dumps(report))
"""


def test_state_sum_loads_no_dessin_layer():
    # the state sum is the dessin expansion's independent oracle, so the
    # smoothing and the state sum must not reach into `dessin`
    report = run_python(_STATE_SUM)
    assert report["circles"] == report["count"] == 2
    assert report["bracket"] == str(diagram.state_sum_bracket(diagram.table_pd("3_1")))
    assert "dessinlink.dessin" not in report["modules"]


def test_public_names_resolve_lazily():
    report = run_python(_NAMES)
    assert report == {"loaded": [], "wrong": []}
    assert set(dessinlink.__all__) <= set(dir(dessinlink))


def test_exported_names_are_in_their_modules_all():
    # the package's export table and each module's own list must not drift
    missing = [
        (module, name)
        for module, names in dessinlink._EXPORTS.items()
        for name in names
        if name not in importlib.import_module(f"dessinlink.{module}").__all__
    ]
    assert missing == []
