"""Experiment drivers: one function per paper artifact (see DESIGN.md index).

Each ``experiment_*`` function runs the measurements behind one EXPERIMENTS.md
section and returns a structured dictionary; ``main()`` runs the whole suite
and prints a report.  The benchmarks in ``benchmarks/`` call the same
functions with smaller parameters, so numbers in EXPERIMENTS.md, the bench
output, and this module always come from the same code path.

Run from a checkout::

    python -m repro.analysis.experiments           # full suite
    python -m repro.analysis.experiments --quick   # smaller sizes
"""

from __future__ import annotations

import argparse
import inspect
import math
from typing import Any, Dict, List, Sequence

from repro.baselines import run_flooding_broadcast, run_traditional_ghs
from repro.core import run_deterministic_mst, run_randomized_mst
from repro.graphs import (
    adversarial_moe_chain,
    random_connected_graph,
    ring_graph,
)
from repro.lower_bounds import (
    GrcTopology,
    certify_ring_run,
    congestion_lower_bound_bits,
    dsd_marked_edges,
    random_sd_instance,
    solve_sd_via_mst,
    theorem3_ring,
    theorem4_regime,
)

from .ablation import boruvka_merge_structure, worst_merge_diameter
from .complexity import fit_scaling
from .energy import EnergyModel
from .walkthrough import run_merging_walkthrough


def experiment_theorem3(quick: bool = False) -> Dict[str, Any]:
    """T1-LB1: ring instances, knowledge growth, awake optimality."""
    base_sizes = (4, 8, 16) if quick else (4, 8, 16, 32, 64)
    rows: List[Dict[str, Any]] = []
    for n in base_sizes:
        instance = theorem3_ring(n, seed=n)
        result = run_randomized_mst(
            instance.graph, seed=1, track_knowledge=True, verify=True
        )
        certificate = certify_ring_run(instance, result.simulation)
        rows.append(
            {
                "ring_size": instance.ring_size,
                "separation": instance.separation,
                "required_awake": certificate.required_awake,
                "observed_awake": certificate.observed_awake,
                "max_awake": result.metrics.max_awake,
                "growth_factor": certificate.observed_growth,
                "holds": certificate.holds,
            }
        )
    sizes = [row["ring_size"] for row in rows]
    awakes = [row["max_awake"] for row in rows]
    return {
        "rows": rows,
        "awake_fit": fit_scaling(sizes, awakes, "log"),
        "all_certificates_hold": all(row["holds"] for row in rows),
    }


def experiment_theorem4(quick: bool = False, workers: int = 1) -> Dict[str, Any]:
    """T1-LB2: the awake x rounds product sits at Ω̃(n) for everyone.

    One orchestrator grid — (Randomized-MST, Traditional-GHS) × sizes on
    the ``gnp`` family with seed ``n`` — executed with crash isolation
    and optional parallelism instead of an in-process loop.
    """
    from repro.orchestrator import JobSpec, run_jobs

    sizes = (16, 32, 64) if quick else (16, 32, 64, 128, 256)
    specs = [
        JobSpec.create(algorithm, "gnp", n, seed=n)
        for n in sizes
        for algorithm in ("Randomized-MST", "Traditional-GHS")
    ]
    report = run_jobs(specs, workers=workers)
    if report.failed:
        raise RuntimeError(f"theorem4 grid failed: {report.failures()[0].error}")
    by_cell = {
        (record.metrics["algorithm"], record.metrics["n"]): record.metrics
        for record in report.records
    }
    rows: List[Dict[str, Any]] = []
    for n in sizes:
        randomized = by_cell[("Randomized-MST", n)]
        traditional = by_cell[("Traditional-GHS", n)]
        rows.append(
            {
                "n": n,
                "randomized_product": randomized["awake_round_product"],
                "traditional_product": traditional["awake_round_product"],
                "randomized_product_per_n": randomized["awake_round_product"] / n,
            }
        )
    products = [row["randomized_product"] for row in rows]
    return {
        "rows": rows,
        # The randomized algorithm's product should scale as n * polylog(n):
        # a clean n log^2 n, measured against the nlog model times log.
        "product_fit_nlog": fit_scaling([r["n"] for r in rows], products, "nlog"),
        "min_product_per_n": min(row["randomized_product_per_n"] for row in rows),
    }


def experiment_fig1_reduction(quick: bool = False) -> Dict[str, Any]:
    """FIG1: G_rc structure + the SD → DSD → CSS → MST chain end to end."""
    n_target = 120 if quick else 360
    r, c = theorem4_regime(n_target)
    topology = GrcTopology(r, c)
    graph, _ = topology.to_weighted_graph()
    structure = {
        "r": r,
        "c": c,
        "n": topology.n,
        "x_size": topology.x_size,
        "edges": len(topology.edges),
        "diameter": graph.diameter(),
        "diameter_bound": topology.diameter_upper_bound(),
        "c_over_log_n": c / math.log2(topology.n),
    }
    outcomes = []
    for seed in range(4 if quick else 8):
        force = seed % 2 == 0
        instance = random_sd_instance(topology.r - 1, seed=seed, force_disjoint=force)
        outcomes.append(solve_sd_via_mst(topology, instance))
    # One distributed run with congestion accounting on the tree nodes.
    instance = random_sd_instance(topology.r - 1, seed=99, force_disjoint=False)
    marked_graph, _threshold = topology.to_weighted_graph(
        dsd_marked_edges(topology, instance)
    )
    distributed = run_randomized_mst(marked_graph, seed=0, verify=True)
    congestion = congestion_lower_bound_bits(
        distributed.simulation, topology.internal_nodes
    )
    return {
        "structure": structure,
        "oracle_all_correct": all(outcome.correct for outcome in outcomes),
        "css_matches_sd": all(
            outcome.css_connected == outcome.truth_disjoint for outcome in outcomes
        ),
        "distributed_awake": distributed.metrics.max_awake,
        "distributed_rounds": distributed.metrics.rounds,
        "internal_tree_bits": congestion,
    }


def experiment_fig2_5(quick: bool = False) -> Dict[str, Any]:
    """FIG2-5: the merging walk-through (asserts all figure invariants)."""
    walkthrough = run_merging_walkthrough()
    return {
        "u_tails": walkthrough.u_tails,
        "u_heads": walkthrough.u_heads,
        "before": {n: (s.fragment_id, s.level) for n, s in walkthrough.before.items()},
        "after": {n: (s.fragment_id, s.level) for n, s in walkthrough.after.items()},
    }


def experiment_ablation_coin(quick: bool = False) -> Dict[str, Any]:
    """ABL-COIN: merge-component diameters with vs without coin pruning."""
    n = 64 if quick else 256
    chain = adversarial_moe_chain(n, seed=3)
    random_graph = random_connected_graph(n, extra_edge_prob=0.05, seed=3)
    rows = {}
    for name, graph in (("moe_chain", chain), ("random", random_graph)):
        unrestricted = boruvka_merge_structure(graph, restricted=False, seed=1)
        restricted = boruvka_merge_structure(graph, restricted=True, seed=1)
        rows[name] = {
            "unrestricted_worst_diameter": worst_merge_diameter(unrestricted),
            "restricted_worst_diameter": worst_merge_diameter(restricted),
            "unrestricted_phases": len(unrestricted),
            "restricted_phases": len(restricted),
        }
    return rows


def experiment_baseline_gap(quick: bool = False) -> Dict[str, Any]:
    """BASE: sleeping vs traditional awake complexity, plus flooding Θ(D)."""
    sizes = (32, 64) if quick else (32, 64, 128, 256)
    rows = []
    for n in sizes:
        graph = ring_graph(n, seed=n)
        sleeping = run_randomized_mst(graph, seed=0)
        traditional = run_traditional_ghs(graph, seed=0)
        flooding = run_flooding_broadcast(graph)
        rows.append(
            {
                "n": n,
                "sleeping_awake": sleeping.metrics.max_awake,
                "traditional_awake": traditional.metrics.max_awake,
                "gap": traditional.metrics.max_awake
                / max(1, sleeping.metrics.max_awake),
                "flooding_awake": flooding.metrics.max_awake,
                "diameter": n // 2,
            }
        )
    return {"rows": rows}


def experiment_energy(quick: bool = False) -> Dict[str, Any]:
    """ENERGY: battery-lifetime implications of the awake gap."""
    n = 48 if quick else 128
    graph = random_connected_graph(n, extra_edge_prob=0.08, seed=5)
    model = EnergyModel()
    sleeping = run_randomized_mst(graph, seed=0)
    traditional = run_traditional_ghs(graph, seed=0)
    return {
        "n": n,
        "sleeping_worst_energy_mj": model.max_node_energy(sleeping.metrics),
        "traditional_worst_energy_mj": model.max_node_energy(traditional.metrics),
        "sleeping_runs_per_battery": model.executions_per_battery(sleeping.metrics),
        "traditional_runs_per_battery": model.executions_per_battery(
            traditional.metrics
        ),
    }


def experiment_lemma1(quick: bool = False) -> Dict[str, Any]:
    """LEMMA1: per-phase fragment contraction >= 4/3 in expectation."""
    from .randomized_stats import contraction_statistics, fixed_mode_success_rate

    n = 64 if quick else 128
    seeds = range(10 if quick else 25)
    rows = {}
    for name, graph in (
        ("random", random_connected_graph(n, 0.1, seed=n)),
        ("ring", ring_graph(n, seed=n)),
    ):
        stats = contraction_statistics(graph, seeds=seeds)
        rows[name] = {
            "mean_ratio": round(stats.mean_ratio, 3),
            "geometric_mean_ratio": round(stats.geometric_mean_ratio, 3),
            "worst_phase_count": max(stats.phases),
        }
    success = fixed_mode_success_rate(
        random_connected_graph(24, 0.15, seed=3), seeds=range(3 if quick else 6)
    )
    return {
        "contraction": rows,
        "fixed_mode_success": success.success_rate,
    }


def experiment_corollary1(quick: bool = False) -> Dict[str, Any]:
    """COR1: log*-coloring — rounds flat in N, small awake factor."""
    n = 16
    factors = (1, 16) if quick else (1, 4, 16, 64)
    rows = []
    for factor in factors:
        id_range = None if factor == 1 else factor * n
        graph = ring_graph(n, seed=5, id_range=id_range)
        fast = run_deterministic_mst(graph, coloring="fast-awake", verify=True)
        star = run_deterministic_mst(graph, coloring="log-star", verify=True)
        rows.append(
            {
                "N": graph.max_id,
                "fast_awake": fast.metrics.max_awake,
                "fast_rounds": fast.metrics.rounds,
                "logstar_awake": star.metrics.max_awake,
                "logstar_rounds": star.metrics.rounds,
            }
        )
    return {"rows": rows}


ALL_EXPERIMENTS = {
    "theorem3": experiment_theorem3,
    "theorem4": experiment_theorem4,
    "fig1": experiment_fig1_reduction,
    "fig2_5": experiment_fig2_5,
    "lemma1": experiment_lemma1,
    "corollary1": experiment_corollary1,
    "ablation_coin": experiment_ablation_coin,
    "baseline_gap": experiment_baseline_gap,
    "energy": experiment_energy,
}


def main(argv: Sequence[str] = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="smaller sizes")
    parser.add_argument(
        "--only",
        choices=sorted(ALL_EXPERIMENTS),
        action="append",
        help="run a subset of experiments",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for grid-shaped experiments",
    )
    args = parser.parse_args(argv)
    chosen = args.only or sorted(ALL_EXPERIMENTS)
    for name in chosen:
        print(f"\n=== {name} ===")
        driver = ALL_EXPERIMENTS[name]
        kwargs: Dict[str, Any] = {"quick": args.quick}
        if "workers" in inspect.signature(driver).parameters:
            kwargs["workers"] = args.workers
        _print_nested(driver(**kwargs))


def _print_nested(value: Any, indent: int = 1) -> None:
    prefix = "  " * indent
    if isinstance(value, dict):
        for key, inner in value.items():
            if isinstance(inner, (dict, list)):
                print(f"{prefix}{key}:")
                _print_nested(inner, indent + 1)
            else:
                print(f"{prefix}{key}: {inner}")
    elif isinstance(value, list):
        for item in value:
            _print_nested(item, indent)
            if isinstance(item, dict):
                print()
    else:
        print(f"{prefix}{value}")


if __name__ == "__main__":
    main()
