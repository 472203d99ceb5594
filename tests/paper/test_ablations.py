"""Ablation sweeps over the design choices (DESIGN.md section 4).

Not figures of the paper: each sweep varies one design choice and checks
that the paper's conclusion survives it.
"""

from repro.experiments import ablations


def test_staging_ratio_sweep():
    """Ablation: adaptation matches static in-transit at every ratio."""
    rows = ablations.staging_ratio_sweep()
    by_key = {(r["ratio"], r["mode"]): r for r in rows}
    # With generous staging (8:1) static in-transit is already near-optimal
    # and adaptation can only match it; with lean staging adaptation must
    # win outright.
    for ratio, tolerance in (("8:1", 1.02), ("16:1", 1.0), ("32:1", 1.0)):
        static = by_key[(ratio, "static_intransit")]
        adaptive = by_key[(ratio, "adaptive_middleware")]
        assert adaptive["end_to_end_s"] <= static["end_to_end_s"] * tolerance
    # Leaner staging (32:1) makes static in-transit strictly worse than
    # richer staging (8:1).
    assert (by_key[("32:1", "static_intransit")]["end_to_end_s"]
            > by_key[("8:1", "static_intransit")]["end_to_end_s"])


def test_monitor_interval_sweep():
    """Ablation: sparser Monitor sampling never improves the overhead much."""
    rows = ablations.monitor_interval_sweep()
    # Sparser sampling degrades (or at best matches) the adaptation's
    # overhead -- decisions go stale between samples.
    fine = rows[0]
    coarse = rows[-1]
    assert fine["interval"] == 1 and coarse["interval"] == 8
    assert fine["overhead_s"] <= coarse["overhead_s"] * 1.5
    for row in rows:
        assert row["end_to_end_s"] > 0


def test_entropy_threshold_sweep():
    """Ablation: higher entropy thresholds save more bytes at more loss."""
    rows = ablations.entropy_threshold_sweep()
    saved = [r["bytes_saved_pct"] for r in rows]
    errors = [r["rms_error"] for r in rows]
    # Higher thresholds reduce more blocks...
    assert saved == sorted(saved)
    # ...at monotonically non-decreasing information loss.
    assert all(a <= b + 1e-12 for a, b in zip(errors, errors[1:]))


def test_estimator_bias_sweep():
    """Ablation: 4x misestimation degrades adaptation gracefully."""
    rows = ablations.estimator_bias_sweep()
    by_bias = {r["bias"]: r for r in rows}
    unbiased = by_bias[1.0]
    # The adaptation degrades gracefully under 4x misestimation in either
    # direction: bounded overhead inflation, never a runaway.  (Bias hits
    # both the in-situ and in-transit estimates, so the placement mix can
    # shift either way; robustness is the claim, not direction.)
    for bias, row in by_bias.items():
        assert row["overhead_s"] <= max(unbiased["overhead_s"] * 4.0,
                                        unbiased["overhead_s"] + 120.0)
        assert row["end_to_end_s"] <= unbiased["end_to_end_s"] * 1.1
        assert row["insitu_steps"] >= 0


def test_captured_trace_sweep():
    """Ablation: the synthetic-family results hold on real-solver dynamics."""
    rows = ablations.captured_trace_sweep()
    by_mode = {r["mode"]: r for r in rows}
    adaptive = by_mode["adaptive_middleware"]
    assert adaptive["end_to_end_s"] <= by_mode["static_insitu"]["end_to_end_s"] * 1.001
    assert adaptive["end_to_end_s"] <= by_mode["static_intransit"]["end_to_end_s"] * 1.001
    assert adaptive["moved_gib"] <= by_mode["static_intransit"]["moved_gib"]


def test_hybrid_placement_sweep():
    """Ablation: hybrid placement never loses to the binary decision."""
    rows = ablations.hybrid_placement_sweep()
    binary, hybrid = rows
    assert binary["policy"] == "binary" and hybrid["policy"] == "hybrid"
    # The finer-grained split never loses and actually splits some steps.
    assert hybrid["end_to_end_s"] <= binary["end_to_end_s"] * 1.02
    assert hybrid["hybrid_steps"] > 0


def test_reduction_type_sweep():
    """Ablation: compression beats down-sampling at a matched byte budget."""
    rows = ablations.reduction_type_sweep()
    for row in rows:
        # At a matched byte budget, error-bounded compression loses far
        # less information than stride down-sampling on the blast field.
        assert row["compression_error"] < 0.5 * row["downsample_error"]
        assert row["compression_tolerance"] is not None


def test_coordination_sweep():
    """Ablation: root-leaf ordering activates fewer staging cores."""
    rows = ablations.coordination_sweep()
    ordered, naive = rows
    # The root-leaf ordering lets the resource layer size staging for the
    # *reduced* data: it activates far fewer cores than naive simultaneous
    # triggering (which over-allocates for full-resolution data) at
    # comparable overhead -- both overheads being a tiny share of the run.
    assert ordered["mean_staging_cores"] < 0.8 * naive["mean_staging_cores"]
    assert ordered["overhead_s"] <= naive["overhead_s"] * 1.5
