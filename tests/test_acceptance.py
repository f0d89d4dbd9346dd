"""Acceptance gate: every criterion below prints one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v``; the summary lines bypass
output capture.  Each criterion asserts its stated tolerance and its runtime
budget.
"""

import os
import time

import numpy as np
import pytest

from periodic_spectra import (
    build_weyl_state,
    clear_box_monte_carlo,
    clear_box_probability,
    essential_spectrum,
    fit_loglog_slope,
    make_cone,
    make_counterexample,
    make_g11,
    make_g21,
    make_half_plane,
    make_lattice,
    make_random_pendant,
    periodic_oracle,
    residual_row,
    spectrum_of_box,
    tent_norm_sq,
    truncate,
    vert,
    zero_mode_count,
)
from periodic_spectra.cli import main as cli_main
from periodic_spectra.graphs import Vertex

from reference import apply_defect, band_grid, box_index
from test_weyl import base_vector


class Criterion:
    def __init__(self, number: int, title: str, budget: float, announce):
        self.number = number
        self.title = title
        self.budget = budget
        self.announce = announce
        self.start = time.perf_counter()

    def finish(self, ok: bool, detail: str = "") -> None:
        elapsed = time.perf_counter() - self.start
        verdict = "PASS" if ok and elapsed <= self.budget else "FAIL"
        line = (
            f"[criterion {self.number:02d}] {verdict} ({elapsed:.2f}s / "
            f"budget {self.budget:.0f}s): {self.title}"
        )
        if detail:
            line += f" -- {detail}"
        self.announce(line)
        assert ok, f"criterion {self.number}: {self.title} {detail}"
        assert elapsed <= self.budget, (
            f"criterion {self.number} exceeded its runtime budget: "
            f"{elapsed:.2f}s > {self.budget:.0f}s"
        )


def test_criterion_01_band_endpoints_g11(announce):
    crit = Criterion(1, "pendant chain band endpoints at grid 256", 1.0, announce)
    spec = essential_spectrum(make_g11().base, 256)
    endpoints = [x for pair in spec.intervals for x in pair]
    expected = (-1.0, -1.0 / 3.0, 1.0 / 3.0, 1.0)
    ok = len(endpoints) == 4 and all(
        abs(a - b) <= 1e-9 for a, b in zip(endpoints, expected)
    )
    crit.finish(ok, f"endpoints {[f'{x:.12f}' for x in endpoints]}")


def test_criterion_02_band_structure_g21(announce):
    crit = Criterion(2, "alternating chain bands and flat point", 1.0, announce)
    spec = essential_spectrum(make_g21().base, 256)
    root3 = np.sqrt(3.0)
    ok = len(spec.intervals) == 3
    if ok:
        (a1, b1), (a2, b2), (a3, b3) = spec.intervals
        ok = (
            abs(a1 + 1.0) <= 1e-9
            and abs(b1 + 1.0 / root3) <= 1e-9
            and abs(a2) <= 1e-9
            and (b2 - a2) < 1e-8
            and abs(a3 - 1.0 / root3) <= 1e-9
            and abs(b3 - 1.0) <= 1e-9
            and spec.flat_points == pytest.approx([0.0], abs=1e-9)
        )
    crit.finish(ok, f"intervals {spec.intervals}, flats {spec.flat_points}")


def test_criterion_03_lattice_full_spectrum(announce):
    crit = Criterion(3, "lattices fill [-1, 1] for d = 1, 2, 3", 5.0, announce)
    ok = True
    details = []
    for dim, grid in ((1, 256), (2, 256), (3, 32)):
        spec = essential_spectrum(make_lattice(dim), grid)
        good = (
            len(spec.intervals) == 1
            and abs(spec.intervals[0][0] + 1.0) <= 1e-9
            and abs(spec.intervals[0][1] - 1.0) <= 1e-9
        )
        ok = ok and good
        details.append(f"d={dim}: {spec.intervals[0]}")
    crit.finish(ok, "; ".join(details))


def test_criterion_04_lambda_closed_forms(announce):
    crit = Criterion(4, "unperturbed-set closed forms on a 200x200 window", 5.0, announce)
    cone = make_cone()
    half = make_half_plane()
    mismatches = 0
    checked = 0
    for entry in (cone, half):
        graph = entry.perturbation
        for x in range(-100, 100):
            for y in range(-100, 100):
                v = vert(x, y)
                if not graph.in_common(v):
                    continue
                checked += 1
                if graph.unperturbed.contains(v) != entry.reference_lambda(v):
                    mismatches += 1
    crit.finish(mismatches == 0, f"{checked} vertices checked, {mismatches} mismatches")


def test_criterion_05_tent_norm_identity(announce):
    crit = Criterion(5, "tent mass closed form vs brute force, n<=64 d<=3", 10.0, announce)
    worst = 0.0
    for dim in (1, 2, 3):
        for n in range(1, 65):
            axis = 1.0 - np.abs(np.arange(-n + 1, n, dtype=float)) / n
            grids = np.meshgrid(*([axis] * dim), indexing="ij")
            brute = float(np.sum(np.prod(np.stack(grids), axis=0) ** 2))
            closed = tent_norm_sq(n, dim)
            worst = max(worst, abs(brute - closed) / closed)
    crit.finish(worst <= 1e-12, f"worst relative gap {worst:.3e}")


def test_criterion_06_shifted_tent_exactness(announce):
    crit = Criterion(6, "shifted-tent split exact and 1/n rate bounded", 5.0, announce)
    from periodic_spectra import shifted_tent_diff_parts, shifted_tent_diff_sum

    worst = 0.0
    rate_ok = True
    for l in range(1, 6):
        for n in range(1, 1025):
            brute = shifted_tent_diff_sum(n, l)
            if n > l:
                middle, lo, hi = shifted_tent_diff_parts(n, l)
                tail = sum(k * k for k in range(1, l + 1)) / (n * n)
                worst = max(worst, abs(brute - (middle + lo + hi)))
                worst = max(worst, abs(lo - tail), abs(hi - tail))
            if n * brute > 2 * l * l + l:
                rate_ok = False
    crit.finish(
        worst <= 1e-14 and rate_ok,
        f"worst split gap {worst:.3e}, rate bound {'holds' if rate_ok else 'fails'}",
    )


def _defect_cases():
    yield make_half_plane().perturbation, 0.0, ((-40, 40), (0, 60))
    yield make_cone().perturbation, 0.0, ((0, 60), (0, 60))
    yield make_counterexample().perturbation, 0.5, ((-60, 60),)
    for seed in (1, 3, 4):
        yield (
            make_random_pendant(0.02, seed).perturbation,
            0.0,
            ((0, 120), (0, 120)),
        )


def test_criterion_07_defect_vanishing(announce):
    crit = Criterion(7, "defect operator annihilates boxed states exactly", 30.0, announce)
    ok = True
    details = []
    for graph, lam, window in _defect_cases():
        for n in (2, 4, 8):
            state = build_weyl_state(graph, lam, n, window)
            out = apply_defect(graph, base_vector(state))
            worst = max(abs(v) for v in out.values())
            if worst != 0.0:
                ok = False
                details.append(f"{graph.name} n={n}: sup {worst!r}")
    crit.finish(ok, "all exactly zero" if ok else "; ".join(details))


def test_criterion_08_residual_decay(announce):
    crit = Criterion(8, "residual decay slope and closed-form bound", 120.0, announce)
    cases = [
        (make_half_plane().perturbation, lam, ((-70, 70), (-70, 70)))
        for lam in (-0.9, 0.0, 0.7)
    ]
    cases.append((make_cone().perturbation, 0.0, ((0, 80), (0, 80))))
    ok = True
    details = []
    for graph, lam, window in cases:
        residuals = []
        for n in (4, 8, 16, 32):
            state = build_weyl_state(graph, lam, n, window)
            row = residual_row(state, lam)
            residuals.append(row.residual)
            if row.residual > row.bound:
                ok = False
                details.append(f"{graph.name} lam={lam} n={n}: above bound")
        slope = fit_loglog_slope([4, 8, 16, 32], residuals)
        details.append(f"{graph.name} lam={lam}: slope {slope:.3f}")
        if slope > -0.8:
            ok = False
    crit.finish(ok, "; ".join(details))


def test_criterion_09_circulant_cross_check(announce):
    crit = Criterion(9, "wrapped truncations match band samples", 30.0, announce)
    ok = True
    details = []
    # one-dimensional graphs wrap at the full 256 cells per axis;
    # the square lattice wraps 16 per axis (256 cells), whose quasimomenta
    # form a subgrid of the 256-point grid used for the band samples.
    # spectrum_of_box solves wraps from the fiber matrices, so the reference
    # here is the dense eigvalsh of the wrapped box's symmetric form.
    cases = [
        (make_lattice(1), ((0, 255),), 256),
        (make_g11().base, ((0, 255),), 256),
        (make_lattice(2), ((0, 15), (0, 15)), 256),
    ]
    for graph, box, sample_grid in cases:
        ring = truncate(periodic_oracle(graph), box, periodic_wrap=True)
        eigs = np.linalg.eigvalsh(ring.normalized_symmetric())
        if np.max(np.abs(spectrum_of_box(ring) - eigs)) > 1e-12:
            ok = False
        _, lambdas = band_grid(graph, sample_grid)
        samples = np.sort(lambdas.reshape(-1))
        idx = np.searchsorted(samples, eigs).clip(1, len(samples) - 1)
        nearest = np.minimum(
            np.abs(eigs - samples[idx - 1]), np.abs(eigs - samples[idx])
        )
        worst = float(np.max(nearest))
        details.append(f"{len(ring)} vertices: worst gap {worst:.2e}")
        if worst > 1e-9:
            ok = False
    crit.finish(ok, "; ".join(details))


def test_criterion_10_counterexample_zero_modes(announce):
    crit = Criterion(10, "doubled pendants carry exact zero modes", 10.0, announce)
    graph = make_counterexample().perturbation
    box = truncate(graph.oracle, ((-20, 20),))
    count = zero_mode_count(box)
    ok = count >= 21
    worst = 0.0
    adjacency, degrees = box.adjacency(), box.degrees.astype(float)
    index = box_index(box)
    for x in range(0, 21):
        vec = np.zeros(len(box))
        vec[index[Vertex((x,), 1)]] = 1.0 / np.sqrt(2.0)
        vec[index[Vertex((x,), 2)]] = -1.0 / np.sqrt(2.0)
        worst = max(worst, float(np.max(np.abs((adjacency @ vec) / degrees))))
    ok = ok and worst <= 1e-15
    crit.finish(ok, f"{count} zero modes, worst annihilation residual {worst:.1e}")


def test_criterion_11_random_pendant_probability(announce):
    crit = Criterion(11, "Monte Carlo clear-box probability", 60.0, announce)
    expected = clear_box_probability(1, 0.5, 2)
    estimate = clear_box_monte_carlo(1, 0.5, 2, 10**6, seed=20240808)
    se = float(np.sqrt(expected * (1.0 - expected) / 10**6))
    z = (estimate - expected) / se
    ok = abs(z) <= 3.0 and abs(expected - 2.0**-9) < 1e-15
    crit.finish(ok, f"estimate {estimate:.6f}, expected {expected:.6f}, z {z:+.2f}")


def _run_cli(tmp_path, *argv):
    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        return cli_main(list(argv))
    finally:
        os.chdir(cwd)


def test_criterion_12_thread_determinism(tmp_path, announce):
    crit = Criterion(12, "byte-identical outputs across thread counts", 600.0, announce)
    runs = {
        "decay": [
            "weyl-check", "--graph", "builtin:lattice2",
            "--perturbation", "builtin:half_plane",
            "--lambda", "0.0", "--n-list", "4,8,16,32",
        ],
        "defect": [
            "weyl-check", "--graph", "builtin:lattice2",
            "--perturbation", "builtin:random_pendant,p=0.02,seed=1",
            "--lambda", "0.0", "--n-list", "2,4,8",
            "--window", "0,120,0,120",
        ],
        "trial": [
            "random-trial", "--p", "0.5", "--n", "1",
            "--trials", "1000000", "--seed", "20240808",
        ],
    }
    ok = True
    details = []
    for label, argv in runs.items():
        outputs = {}
        for threads in ("1", "4"):
            prefix = tmp_path / f"{label}_{threads}"
            code = _run_cli(
                tmp_path, *argv, "--out", str(prefix), "--threads", threads
            )
            if code != 0:
                ok = False
                details.append(f"{label}: exit {code}")
                continue
            blobs = {}
            for ext in (".csv", ".json", ".manifest.json"):
                path = prefix.parent / (prefix.name + ext)
                if path.exists():
                    blobs[ext] = path.read_bytes()
            outputs[threads] = blobs
        if outputs.get("1") is None or outputs.get("4") is None:
            continue
        for ext in outputs["1"]:
            one = outputs["1"][ext]
            four = outputs["4"].get(ext)
            if one != four:
                ok = False
                details.append(f"{label}{ext}: differs across thread counts")
        details.append(f"{label}: identical")
    crit.finish(ok, "; ".join(details))
