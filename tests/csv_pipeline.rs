//! Integration: CSV ingestion feeding the full open-set pipeline — the
//! downstream-user path exercised end to end (parse → split → train →
//! predict → score).

use hdp_osr::dataset::csv::{read_csv, write_csv};
use hdp_osr::dataset::protocol::{OpenSetSplit, SplitConfig};
use hdp_osr::eval::methods::MethodSpec;
use hdp_osr::eval::metrics::OpenSetConfusion;
use osr_baselines::{BaselineSpec, OsnnParams};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::Cursor;

/// Deterministic 4-class CSV in 2-d.
fn demo_csv() -> String {
    let mut out = String::from("x,y,label\n");
    let mut state = 0x1234_5678_u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    };
    let centers = [("north", 0.0, 8.0), ("south", 0.0, -8.0), ("east", 8.0, 0.0), ("west", -8.0, 0.0)];
    for (name, cx, cy) in centers {
        for _ in 0..30 {
            out.push_str(&format!("{:.4},{:.4},{name}\n", cx + next() * 1.5, cy + next() * 1.5));
        }
    }
    out
}

#[test]
fn csv_to_open_set_scores() {
    let parsed = read_csv(Cursor::new(demo_csv()), "demo").unwrap();
    assert_eq!(parsed.dataset.n_classes, 4);
    assert_eq!(parsed.label_names, vec!["north", "south", "east", "west"]);

    let mut rng = StdRng::seed_from_u64(3);
    let split =
        OpenSetSplit::sample(&parsed.dataset, &SplitConfig::new(2, 2), &mut rng).unwrap();
    // σ = 0.5: the four centers form a square, so an unknown corner sits at
    // distance ratio ~0.7 between the two known corners — the default σ of
    // 0.8 would (correctly per Eq. 3, wrongly per ground truth) accept it.
    let spec = MethodSpec::Baseline(BaselineSpec::Osnn(OsnnParams { sigma: 0.5 }));
    let preds = spec.run_trial(&split.train, &split.test.points, 1, 0).unwrap();
    let c = OpenSetConfusion::from_slices(&preds, &split.test.truth);
    assert!(c.f_measure() > 0.9, "F = {:.3}", c.f_measure());
}

#[test]
fn csv_roundtrip_preserves_split_behaviour() {
    let parsed = read_csv(Cursor::new(demo_csv()), "demo").unwrap();
    let mut buf = Vec::new();
    write_csv(&parsed.dataset, &mut buf).unwrap();
    let reparsed = read_csv(Cursor::new(String::from_utf8(buf).unwrap()), "demo2").unwrap();
    assert_eq!(reparsed.dataset.points, parsed.dataset.points);
    assert_eq!(reparsed.dataset.labels, parsed.dataset.labels);

    // Same seed ⇒ same split on both copies.
    let a = OpenSetSplit::sample(
        &parsed.dataset,
        &SplitConfig::new(2, 1),
        &mut StdRng::seed_from_u64(9),
    )
    .unwrap();
    let b = OpenSetSplit::sample(
        &reparsed.dataset,
        &SplitConfig::new(2, 1),
        &mut StdRng::seed_from_u64(9),
    )
    .unwrap();
    assert_eq!(a.train.class_ids, b.train.class_ids);
    assert_eq!(a.test.points, b.test.points);
}

#[test]
fn hdp_osr_works_from_csv_input() {
    let parsed = read_csv(Cursor::new(demo_csv()), "demo").unwrap();
    let mut rng = StdRng::seed_from_u64(5);
    let split =
        OpenSetSplit::sample(&parsed.dataset, &SplitConfig::new(2, 2), &mut rng).unwrap();
    let cfg = hdp_osr::core::HdpOsrConfig { iterations: 8, ..Default::default() };
    let spec = MethodSpec::HdpOsr(cfg);
    let preds = spec.run_trial(&split.train, &split.test.points, 2, 0).unwrap();
    let c = OpenSetConfusion::from_slices(&preds, &split.test.truth);
    assert!(c.accuracy() > 0.85, "accuracy = {:.3}", c.accuracy());
}
