//! Shape checks on the reproduced evaluation: the orderings and
//! qualitative claims of the paper's Section 4 must hold at test size.
//! Absolute numbers are recorded in EXPERIMENTS.md, not asserted here.

use psb::eval::{
    ablation_counter, ablation_shadow, fig6, fig7, geometric_mean, table3, EvalParams,
};

fn params() -> EvalParams {
    EvalParams {
        size: 384,
        ..EvalParams::default()
    }
}

#[test]
fn figure6_ordering_holds() {
    let f = fig6(&params());
    // models: [global, squash, trace, region-squash]
    let g = &f.geomeans;
    assert!(g[0] > 1.0, "global must beat the scalar machine");
    assert!(g[1] >= g[0] * 0.98, "squashing >= global (geomean)");
    assert!(g[2] >= g[1] * 0.97, "trace ~>= squashing (geomean)");
    assert!(g[3] >= g[2] * 0.97, "region scheduling ~>= trace (geomean)");
}

#[test]
fn figure7_ordering_holds() {
    let f = fig7(&params());
    // models: [global, boost, trace-pred, region-pred]
    let g = &f.geomeans;
    assert!(g[1] > g[0], "boosting beats global scheduling");
    assert!(g[2] > g[1], "trace predicating beats boosting");
    assert!(
        g[3] >= g[2],
        "region predicating >= trace predicating (geomean)"
    );
    assert!(
        g[3] > 1.8,
        "the headline speedup is well above the restricted models"
    );

    // Section 4.2.2: on the extremely predictable benchmarks, region
    // predicating has no benefit over trace predicating...
    for b in &f.benches {
        let tp = b.speedup_of(psb::sched::Model::TracePred).unwrap();
        let rp = b.speedup_of(psb::sched::Model::RegionPred).unwrap();
        if b.name == "grep" || b.name == "nroff" {
            assert!(
                (rp / tp - 1.0).abs() < 0.08,
                "{}: region ≈ trace on predictable benchmarks (got {tp:.2} vs {rp:.2})",
                b.name
            );
        }
    }
    // ... while the unpredictable ones gain considerably somewhere.
    let gains: Vec<f64> = f
        .benches
        .iter()
        .filter(|b| ["compress", "eqntott", "espresso", "li"].contains(&b.name.as_str()))
        .map(|b| {
            b.speedup_of(psb::sched::Model::RegionPred).unwrap()
                / b.speedup_of(psb::sched::Model::TracePred).unwrap()
        })
        .collect();
    assert!(
        gains.iter().any(|&g| g > 1.05),
        "region predicating must win considerably on some unpredictable benchmark: {gains:?}"
    );
    assert!(geometric_mean(&gains) >= 1.0);
}

#[test]
fn table3_bands_hold() {
    let rows = table3(&params());
    for row in &rows {
        assert_eq!(row.accuracy.len(), 8, "{}: need depths 1..=8", row.name);
        // Accuracy decays monotonically (within float fuzz).
        for w in row.accuracy.windows(2) {
            assert!(w[1] <= w[0] + 1e-9, "{}: accuracy must decay", row.name);
        }
        match row.name.as_str() {
            "grep" | "nroff" => {
                assert!(
                    row.accuracy[0] > 0.95,
                    "{} is extremely predictable",
                    row.name
                );
                assert!(
                    row.accuracy[7] > 0.75,
                    "{} stays predictable at depth 8",
                    row.name
                );
            }
            _ => {
                assert!(
                    row.accuracy[0] < 0.96,
                    "{} must not be extremely predictable",
                    row.name
                );
                assert!(
                    row.accuracy[3] < 0.88,
                    "{} four-branch accuracy must have decayed",
                    row.name
                );
            }
        }
    }
    // The predictable/unpredictable split that drives Section 4.2.2.
    let acc4 = |name: &str| {
        rows.iter()
            .find(|r| r.name == name)
            .map(|r| r.accuracy[3])
            .unwrap()
    };
    assert!(acc4("grep") > acc4("compress"));
    assert!(acc4("nroff") > acc4("eqntott"));
}

#[test]
fn ablation_claims_hold() {
    // Footnote 1: the single-shadow design gives up at most ~1% against
    // unbounded shadow storage.
    let (single, infinite) = ablation_shadow(&params()).geomeans;
    assert!(
        single >= infinite * 0.99,
        "single shadows {single:.3} vs infinite {infinite:.3}"
    );
    // Section 4.2.1: counter-form predicates (ordered condition-sets) can
    // only slow trace predicating down.
    let (vector, counter) = ablation_counter(&params()).geomeans;
    assert!(
        counter <= vector * 1.01,
        "counter form {counter:.3} vs vector form {vector:.3}"
    );
}
