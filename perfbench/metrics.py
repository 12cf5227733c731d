"""Names and units of the metrics the benchmark reports.

Kept free of heavy imports: the launcher reads it without importing
ftcircles.
"""

TRACED_FUNCTIONS = {
    "calls": ("geometry.angle_at", "oracle.oracle_minimize", "oracle.objective"),
    "self_ms": (
        "solver.classify_case", "solver.resultant_norms", "solver.certificate_residuals",
        "solver.solve", "geometry.angle_at", "geometry.unit_vector_checked",
        "geometry.Configuration", "geometry.project_onto_circle", "geometry.distance_to_circle",
        "geometry.sector_decomposition", "geometry.azimuths_at",
        "inverse.opposite_angles", "inverse.weights_from_angles",
        "plasticity.SectorAngles", "plasticity.plasticity_n", "plasticity.transfer_coefficients",
        "plasticity.verify_geometric_plasticity",
        "evolution.evolve_type_a", "evolution.evolve_type_b",
        "oracle.oracle_minimize", "oracle.objective",
        "scene.load_scene", "scene.result_dict", "scene.dump_json", "svg.render_svg", "cli.main",
    ),
}
FAILURES = ("NonConvergence", "SolutionInsideDisk")
IMPORTED = ("numpy", "scipy", "ftcircles")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {}
    for kind, names in TRACED_FUNCTIONS.items():
        for name in names:
            units[f"{name}.{kind}"] = "count" if kind == "calls" else "ms"
    units.update({
        "solver.iterations.sum": "count",
        "solver.iterations.max": "count",
        **{f"solver.failed.{e}": "count" for e in FAILURES},
        "solver.failed.self_ms": "ms",
        "solver.repeat_solves": "count",
        "solver.absorbed": "count",
        "oracle.objective.points": "count",
        "oracle.random_floating_config.self_ms": "ms",
        "oracle.random_floating_config.accept_ratio": "ratio",
        **{f"cli.import_ms.{m}": "ms" for m in IMPORTED},
        "trace.overhead_frac": "ratio",
    })
    return units


END_TO_END_UNITS = {
    "items_per_s": "1/s",
    "item_ms_p50": "ms",
    "item_ms_tail": "ms",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}
