"""Output checks of one CLI invocation.

At the default workload seed every numeric cell of every checked CSV must
match the recorded reference to REFERENCE_TOL (the refactor bound). At any
other seed the columns that do not depend on the coupling draw (the time
grid, the TCL and ECPS curves, the whole Choi scan) are still compared with
the reference, and the seed-dependent exact columns must satisfy invariants:
the compare t = 0 row equals the initial state, every reduced state has unit
trace and is positive, and Choi singular values are non-negative and
descending. ``metadata.json`` is never compared.
"""
from __future__ import annotations

import csv
import gzip
import io
from pathlib import Path

from workloads import DEFAULT_SEED, OUTPUT_FILES, initial_system_state

REFERENCE_TOL = 1e-12
INVARIANT_TOL = 1e-10
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# column prefixes of the outputs that depend on the coupling draw
_SEED_DEPENDENT = {
    "compare.csv": ("exact_",),
    "steady.csv": ("exact", "cps_abs_err", "ecps_abs_err"),
}


def read_csv(text: str) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(io.StringIO(text))) or [[]]
    return rows[0], rows[1:]


def reference_path(workload: str, config: str, filename: str) -> Path:
    return REFERENCE_DIR / workload / config / (filename + ".gz")


def compare_to_reference(out_text: str, ref_text: str, columns=None) -> list[str]:
    """Mismatches between two CSVs, cell by cell, over ``columns`` (all when
    None). Non-numeric cells (row labels) must be equal as text."""
    header, rows = read_csv(out_text)
    ref_header, ref_rows = read_csv(ref_text)
    if header != ref_header:
        return [f"header {header} != reference {ref_header}"]
    if len(rows) != len(ref_rows):
        return [f"{len(rows)} rows != reference {len(ref_rows)}"]
    wanted = [i for i, name in enumerate(header) if columns is None or name in columns]
    problems = []
    for r, (row, ref) in enumerate(zip(rows, ref_rows)):
        if len(row) != len(header):
            problems.append(f"row {r} has {len(row)} cells")
            continue
        for i in wanted:
            try:
                diff = abs(float(row[i]) - float(ref[i]))
            except ValueError:
                if row[i] != ref[i]:
                    problems.append(f"row {r} {header[i]}: {row[i]!r} != {ref[i]!r}")
                continue
            if not diff <= REFERENCE_TOL:
                problems.append(f"row {r} {header[i]}: {row[i]} differs from "
                                f"reference {ref[i]} by {diff:.3g}")
    return problems


def _positive_state(rho00, rho11, re01, im01) -> bool:
    tol = INVARIANT_TOL
    return (rho00 >= -tol and rho11 >= -tol
            and re01 * re01 + im01 * im01 <= rho00 * rho11 + tol)


def invariants(filename: str, text: str, cfg: dict) -> list[str]:
    """Seed-independent properties of one output file."""
    header, rows = read_csv(text)
    problems = []
    if filename == "compare.csv":
        col = {name: i for i, name in enumerate(header)}
        exact = [[float(row[col[c]]) for c in
                  ("exact_rho00", "exact_rho01_re", "exact_rho01_im")] for row in rows]
        rho00, rho01 = initial_system_state(cfg)
        first = exact[0]
        if max(abs(first[0] - rho00), abs(first[1] - rho01.real),
               abs(first[2] - rho01.imag)) > INVARIANT_TOL:
            problems.append(f"t = 0 exact state {first} != initial state "
                            f"({rho00}, {rho01})")
        for r, (p00, re01, im01) in enumerate(exact):
            if not _positive_state(p00, 1.0 - p00, re01, im01):
                problems.append(f"row {r}: exact state is not positive")
    elif filename == "steady.csv":
        values = {row[0]: [float(x) for x in row[1:4]] for row in rows}
        for j, name in enumerate(header[1:4]):
            p00, p11 = values["rho00"][j], values["rho11"][j]
            if abs(p00 + p11 - 1.0) > INVARIANT_TOL:
                problems.append(f"{name}: rho00 + rho11 = {p00 + p11!r}")
            if not _positive_state(p00, p11, values["rho01_re"][j],
                                   values["rho01_im"][j]):
                problems.append(f"{name}: steady state is not positive")
    elif filename == "scan.csv":
        for r, row in enumerate(rows):
            sv = [float(x) for x in row[2:]]
            if min(sv) < 0 or any(a < b for a, b in zip(sv, sv[1:])):
                problems.append(f"row {r}: singular values not non-negative "
                                f"and descending")
    return problems


def check_invocation(workload: str, inv: dict, seed: int) -> list[str]:
    """Every problem found in the outputs of one invocation."""
    problems = []
    for filename in OUTPUT_FILES[inv["command"]]:
        path = Path(inv["out"]) / filename
        ref_path = reference_path(workload, inv["name"], filename)
        try:
            text = path.read_text(encoding="utf-8")
            ref_text = gzip.decompress(ref_path.read_bytes()).decode("utf-8")
        except OSError as exc:
            problems.append(f"{filename}: {exc}")
            continue
        columns = None
        if seed != DEFAULT_SEED:
            dependent = _SEED_DEPENDENT.get(filename, ())
            columns = [c for c in read_csv(ref_text)[0] if not c.startswith(dependent)]
            try:
                found = invariants(filename, text, inv["cfg"])
            except (IndexError, KeyError, ValueError) as exc:
                found = [f"malformed output ({exc!r})"]
            problems += [f"{filename}: {p}" for p in found]
        problems += [f"{filename}: {p}" for p in
                     compare_to_reference(text, ref_text, columns)]
    return problems
