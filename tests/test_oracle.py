"""The engine's table levels and the golden table files against the 30-digit oracle.

tests/oracle/levels.json holds E_n and tau_n of every level that the
``harmonic13`` and ``quartic25`` golden configs print, to 30 digits (see
tests/oracle/regenerate.py, which writes it). These tests read only the JSON.

The budgets are relative errors: the engine's levels are held to them, and a
printed 12-digit value to its own rounding plus the budget carried through
dE = (E_n - E_{n-1}) / 2, dTau = (tau_n - tau_{n-1}) / 2 and y = |dE dTau| / hbar.
A verifier that asked for the exact 12-digit rounding of every dTau would
fail on correct code: on ``harmonic13`` dTau is about 1,400 times smaller
than tau, so a tau error of 5e-15 reaches its 12th digit.
"""

from __future__ import annotations

import csv
import json
import math
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

import speclimit as sl
from speclimit.criterion import spectrum

HERE = Path(__file__).resolve().parent
ORACLE = json.loads((HERE / "oracle" / "levels.json").read_text())["tables"]
# set from the worst errors of the Brent search that preceded the Newton one (harmonic13: E_11 2.2e-14,
# tau_12 4.6e-15), with a margin; a move of 1e-12 in any E or tau fails
E_BUDGET, TAU_BUDGET = 3e-14, 1e-14
ROUNDING = 2.0**-52  # one rounding of a difference or product of floats, relative


def _exact(table: str, n: int, key: str) -> Fraction:
    return Fraction(Decimal(ORACLE[table]["levels"][str(n)][key]))


def _relative(got: float, exact: Fraction) -> float:
    return float(abs(Fraction(got) - exact) / abs(exact))


@pytest.mark.parametrize("table", sorted(ORACLE))
def test_engine_levels_are_within_budget_of_the_oracle(table):
    model = sl.model_from_dict(ORACLE[table]["model"])
    ns = sorted(map(int, ORACLE[table]["levels"]))
    levels = spectrum(model, ns)
    errors = {n: (_relative(levels[n][0], _exact(table, n, "E")), _relative(levels[n][1], _exact(table, n, "tau")))
              for n in ns}
    assert {n: e for n, e in errors.items() if e[0] > E_BUDGET or e[1] > TAU_BUDGET} == {}


def _bounds(table: str, n: int) -> dict:
    """Exact value and allowed error of each printed quantity of level n (pairs (n-1, n) for the gaps)."""
    e, tau = _exact(table, n, "E"), _exact(table, n, "tau")
    out = {"E_n": (e, E_BUDGET * abs(e)), "E_semiclassical": (e, E_BUDGET * abs(e)),
           "tau_n": (tau, TAU_BUDGET * abs(tau))}
    if str(n - 1) in ORACLE[table]["levels"]:
        e0, tau0 = _exact(table, n - 1, "E"), _exact(table, n - 1, "tau")
        de, dtau = (e - e0) / 2, (tau - tau0) / 2
        de_err = Fraction(E_BUDGET + ROUNDING) * (abs(e) + abs(e0)) / 2
        dtau_err = Fraction(TAU_BUDGET + ROUNDING) * (abs(tau) + abs(tau0)) / 2
        hbar = Fraction(sl.model_from_dict(ORACLE[table]["model"]).units.hbar)
        y = abs(de * dtau) / hbar
        y_err = (abs(dtau) * de_err + abs(de) * dtau_err + de_err * dtau_err) / hbar + Fraction(ROUNDING) * 2 * y
        out.update({"dE": (de, de_err), "dTau": (dtau, dtau_err), "y_over_hbar": (y, y_err)})
    return out


def _printed_error(text: str) -> Fraction:
    """Half a unit in the 12th significant digit of a value printed with ``.12g``."""
    value = float(text)
    return Fraction(1, 2) * Fraction(10) ** (math.floor(math.log10(abs(value))) - 11) if value else Fraction(0)


def _printed_values(table: str):
    """(file, n, column, printed text) of every E, tau, dE, dTau and y the golden files of ``table`` print."""
    for directory in sorted((HERE / "golden").glob(f"*-{table}")):
        for path in sorted(directory.glob("*.csv")):
            with path.open(newline="") as fh:
                for row in csv.DictReader(fh):
                    for column in ("E_n", "E_semiclassical", "tau_n", "dE", "dTau", "y_over_hbar"):
                        if column in row:
                            yield path, int(row["n"]), column, row[column]
        for path in sorted(directory.glob("*.json")):
            doc = json.loads(path.read_text(), parse_float=str)
            for gap in doc.get("gaps", ()):
                for column in ("dE", "dTau", "y_over_hbar"):
                    yield path, gap["n"], column, gap[column]


@pytest.mark.parametrize("table", sorted(ORACLE))
def test_golden_table_files_are_within_budget_of_the_oracle(table):
    checked, wrong = 0, []
    for path, n, column, text in _printed_values(table):
        exact, allowed = _bounds(table, n)[column]
        if abs(Fraction(Decimal(text)) - exact) > allowed + _printed_error(text):
            wrong.append((path.relative_to(HERE).as_posix(), n, column, text, f"{float(exact):.17g}"))
        checked += 1
    assert wrong == []
    assert checked > 100


@pytest.mark.parametrize("table", sorted(ORACLE))
def test_golden_table_files_print_only_oracle_levels(table):
    # every printed level, and the lower level of every printed gap, is in the oracle
    printed = {(n, column in ("dE", "dTau", "y_over_hbar")) for _, n, column, _ in _printed_values(table)}
    levels = set(map(int, ORACLE[table]["levels"]))
    assert {n for n, gap in printed} | {n - 1 for n, gap in printed if gap} <= levels
