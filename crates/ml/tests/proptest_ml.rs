//! Property-based tests for the ML substrate invariants.

use proptest::prelude::*;
use sizey_ml::dataset::Dataset;
use sizey_ml::forest::{ForestConfig, RandomForestRegression};
use sizey_ml::knn::KnnRegression;
use sizey_ml::linear::LinearRegression;
use sizey_ml::metrics::{bounded_relative_error, median, percentile, std_dev};
use sizey_ml::model::Regressor;
use sizey_ml::scaler::{MinMaxScaler, StandardScaler};

fn finite_vec(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1.0e6f64..1.0e6, len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn percentile_is_monotone_in_p(values in finite_vec(1..50), p1 in 0.0f64..100.0, p2 in 0.0f64..100.0) {
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        prop_assert!(percentile(&values, lo) <= percentile(&values, hi) + 1e-9);
    }

    #[test]
    fn median_is_within_min_max(values in finite_vec(1..50)) {
        let m = median(&values);
        let lo = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(m >= lo - 1e-9 && m <= hi + 1e-9);
    }

    #[test]
    fn std_dev_is_nonnegative(values in finite_vec(0..50)) {
        prop_assert!(std_dev(&values) >= 0.0);
    }

    #[test]
    fn bounded_relative_error_stays_in_cap(pred in -1e9f64..1e9, actual in -1e9f64..1e9) {
        let e = bounded_relative_error(pred, actual, 1.0);
        prop_assert!((0.0..=1.0).contains(&e));
    }

    #[test]
    fn minmax_scaler_output_is_in_unit_interval(values in finite_vec(2..30)) {
        let mut s = MinMaxScaler::default();
        s.fit(&values);
        let mut t = Vec::new();
        s.transform_into(&values, &mut t);
        for &v in &t {
            prop_assert!((-1e-9..=1.0 + 1e-9).contains(&v));
        }
    }

    #[test]
    fn standard_scaler_round_trip(values in finite_vec(1..40), probe in -1e6f64..1e6) {
        let mut s = StandardScaler::default();
        s.fit(&values);
        let back = s.inverse(s.transform(probe));
        prop_assert!((back - probe).abs() < 1e-6 * (1.0 + probe.abs()));
    }

    #[test]
    fn knn_prediction_bounded_by_targets(
        xs in prop::collection::vec(0.0f64..1000.0, 3..40),
        query in 0.0f64..2000.0
    ) {
        let ys: Vec<f64> = xs.iter().map(|x| 2.0 * x + 10.0).collect();
        let data = Dataset::from_univariate(&xs, &ys);
        let mut m = KnnRegression::with_defaults();
        m.fit(&data).unwrap();
        let p = m.predict(&[query]).unwrap();
        let lo = ys.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = ys.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(p >= lo - 1e-6 && p <= hi + 1e-6);
    }

    #[test]
    fn forest_prediction_bounded_by_targets(
        seed in 0u64..100,
        n in 8usize..40,
        query in 0.0f64..500.0
    ) {
        let xs: Vec<f64> = (0..n).map(|i| i as f64 * 3.0).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 100.0 + x * x * 0.5).collect();
        let data = Dataset::from_univariate(&xs, &ys);
        let mut f = RandomForestRegression::new(ForestConfig {
            n_trees: 8,
            seed,
            ..ForestConfig::default()
        });
        f.fit(&data).unwrap();
        let p = f.predict(&[query]).unwrap();
        let lo = ys.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = ys.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(p >= lo - 1e-6 && p <= hi + 1e-6);
    }

    #[test]
    fn linear_regression_interpolates_noiseless_lines(
        slope in -100.0f64..100.0,
        intercept in -1000.0f64..1000.0,
        query in 0.0f64..100.0
    ) {
        let xs: Vec<f64> = (0..30).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| slope * x + intercept).collect();
        let data = Dataset::from_univariate(&xs, &ys);
        let mut m = LinearRegression::with_defaults();
        m.fit(&data).unwrap();
        let p = m.predict(&[query]).unwrap();
        let truth = slope * query + intercept;
        prop_assert!((p - truth).abs() < 1e-3 * (1.0 + truth.abs()),
            "pred {} truth {}", p, truth);
    }
}
