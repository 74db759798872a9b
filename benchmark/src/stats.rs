//! The arithmetic every reported number goes through.

use std::time::Instant;

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty slice or a NaN: both mean a measurement went missing.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Largest sample.
pub fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// Throughput of each round of `k` consecutive steps: `k · tokens_per_step`
/// over the round's wall time, which runs from the first step's start to the
/// last step's end and so includes the work between steps. A trailing
/// partial round is ignored. `steps` holds `(start_s, end_s)` per step.
pub fn round_rates(steps: &[(f64, f64)], k: usize, tokens_per_step: usize) -> Vec<f64> {
    steps
        .chunks_exact(k)
        .map(|round| {
            let wall = round[k - 1].1 - round[0].0;
            (k * tokens_per_step) as f64 / wall
        })
        .collect()
}

/// Median seconds of `reps` timed calls of `f`, after one untimed call that
/// warms caches and arenas.
pub fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(max(&[4.0, 9.0, 3.0]), 9.0);
    }

    #[test]
    fn rounds_span_first_start_to_last_end() {
        // Two rounds of two steps, 100 tokens a step; the gap between the
        // steps of a round counts, the gap between rounds does not.
        let steps = [
            (0.0, 1.0),
            (1.5, 2.0),
            (10.0, 10.5),
            (10.5, 11.0),
            (11.0, 12.0),
        ];
        let rates = round_rates(&steps, 2, 100);
        assert_eq!(rates, vec![100.0, 200.0]);
        assert_eq!(median(&rates), 150.0);
    }
}
