"""Workload definitions, each with the reason it exists.

Every workload runs the ``premsel`` command line on a corpus built by
``corpus.py`` from the run's ``--seed``.  Flags common to all: ``--jobs 1``
on ``eval`` (one evaluation thread, so the only parallelism left is the
program's own BLAS threading, which the benchmark does not limit), and
the default ``--n-set``.

Sizes are set so that one repeat takes a few seconds, which lets a run
of ``run_seconds`` take several repeats and report medians.  On a 2-core
x86 machine with the seed code one full repeat took about 2.0 s
(nb-rich), 2.3 s (mor-fixed), 5.2 s (mor-grid) and 4.3 s (handoff).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: str                # "planted" or "rich", see corpus.py
    n_items: int
    eval_flags: tuple[str, ...] | None  # `premsel eval` flags; None for the hand-off
    minimize_count: int = 0    # late conjectures whose chainy sets are minimized
    why: str = ""
    loads: str = ""
    bypasses: str = ""
    unmoved: str = ""


WORKLOADS = {
    w.name: w
    for w in (
        # 450 items, not MPTP2078's 2078: at 2078 one repeat takes about a
        # minute, too long for repeated runs.  peak_rss_mb still grows with
        # the O(N^2) training views: 74 MiB at 450 items, 85 at 600, 127 at
        # 1000.
        Workload(
            name="nb-rich",
            corpus="rich",
            n_items=450,
            eval_flags=("--ranker", "nb", "--jobs", "1"),
            why="naive Bayes over a wide feature space: every step retrains "
                "nb on all earlier rows and scores the whole pool",
            loads="naive_bayes (train and score), corpus.training_view, and at "
                  "set-up fol parsing and features.vectorize of the rich formulas",
            bypasses="kernel (no ridge, no grid search), minimize, emission",
            unmoved="kernel.* stay 0; a kernel or grid-search change predicts no "
                    "change to any end-to-end metric here",
        ),
        Workload(
            name="mor-fixed",
            corpus="planted",
            n_items=250,
            eval_flags=("--ranker", "mor", "--lambda-grid", "1", "--sigma-grid", "2",
                        "--jobs", "1"),
            why="kernel ridge at one fixed (lambda, sigma): one Cholesky "
                "factorization of a growing kernel matrix per step",
            loads="kernel.ridge_solve and Gram building at growing n; BLAS threads "
                  "show as cpu_s above wall_s",
            bypasses="grid search (one grid point), naive_bayes, minimize, emission",
            unmoved="naive_bayes.* stay 0; kernel.grid_points is 1; an nb change "
                    "predicts no change here",
        ),
        # 150 items is where the BLAS threading cost shows: one repeat took
        # 5.4 s against 1.7 s with one BLAS thread.  At 120 items the
        # training matrices stay small and the figures were 1.9 s and 1.3 s.
        Workload(
            name="mor-grid",
            corpus="planted",
            n_items=150,
            eval_flags=("--ranker", "mor", "--regrid", "always", "--jobs", "1"),
            why="grid search at every step over the default 8x7 grid: many small "
                "solves, the regime where BLAS thread start-up dominates",
            loads="kernel.grid_search, many small kernel.ridge_solve calls; "
                  "kernel.solve_calls is far above the step count",
            bypasses="naive_bayes, minimize, emission; regrid=once is not a workload "
                     "because it searches on a 2-row view and measures what "
                     "mor-fixed measures",
            unmoved="naive_bayes.* stay 0; a change to large-n solves predicts "
                    "little change here, a change to small solves shows here first",
        ),
        Workload(
            name="handoff",
            corpus="rich",
            n_items=250,
            eval_flags=None,
            minimize_count=3,
            why="the write side: chainy problem emission re-prints every earlier "
                "item once per later problem, then the oracle minimizer reduces "
                "a few late chainy premise sets",
            loads="fol.print_item (most of emission), file writes, the minimizer's "
                  "oracle loop (one sh/grep process per probe)",
            bypasses="every ranker: no naive_bayes, no kernel, no training views",
            unmoved="ranking optimizations predict no change to any end-to-end "
                    "metric here; corpus.view_* and naive_bayes.* and kernel.* stay 0",
        ),
    )
}
