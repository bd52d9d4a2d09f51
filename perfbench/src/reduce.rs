//! Reducing a run's repeated samples to one figure.
//!
//! The host's speed swings by up to 2x in phases that can outlast a run
//! (README.md, "Host noise"). Each sample is therefore divided by the
//! time of a fixed reference loop measured next to it, which moves with
//! the host's speed but not with the simulator's code, and the run
//! reports the median of those speed-corrected samples.

/// Scale of the speed-corrected figures: the reference loop's time in
/// the fast phase of the 2-vCPU guest it was calibrated on. It only sets
/// the unit, so that corrected figures read as seconds on that host.
pub const REFERENCE_S: f64 = 0.030;

/// The median of `samples[i] / references[i] * REFERENCE_S`; `None` when
/// no pair is usable. `references[i]` is the reference time measured
/// next to `samples[i]`.
pub fn speed_corrected(samples: &[f64], references: &[f64]) -> Option<f64> {
    let mut ratios: Vec<f64> = samples
        .iter()
        .zip(references)
        .map(|(s, r)| s / r * REFERENCE_S)
        .filter(|v| v.is_finite())
        .collect();
    ratios.sort_by(f64::total_cmp);
    let n = ratios.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(ratios[n / 2]),
        _ => Some((ratios[n / 2 - 1] + ratios[n / 2]) / 2.0),
    }
}

/// The least of `samples`, ignoring NaNs; `None` when there is none.
pub fn min_of_repeats(samples: &[f64]) -> Option<f64> {
    samples.iter().copied().filter(|s| !s.is_nan()).reduce(f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input_has_no_figure() {
        assert_eq!(min_of_repeats(&[]), None);
        assert_eq!(min_of_repeats(&[f64::NAN]), None);
        assert_eq!(speed_corrected(&[], &[]), None);
        assert_eq!(speed_corrected(&[1.0], &[0.0]), None);
    }

    #[test]
    fn picks_the_least_sample_wherever_it_is() {
        assert_eq!(min_of_repeats(&[0.61]), Some(0.61));
        assert_eq!(min_of_repeats(&[0.61, 0.31, 0.58]), Some(0.31));
        assert_eq!(min_of_repeats(&[0.30, 0.62, 0.60]), Some(0.30));
        assert_eq!(min_of_repeats(&[0.5, f64::NAN, 0.4]), Some(0.4));
    }

    fn close(a: Option<f64>, b: f64) -> bool {
        a.is_some_and(|a| (a - b).abs() < 1e-12)
    }

    #[test]
    fn a_uniform_slowdown_cancels() {
        // Fast phase: unit 0.31 s, reference 0.030 s; slow phase: both 2x.
        let fast = speed_corrected(&[0.31, 0.31, 0.31], &[0.030, 0.030, 0.030]);
        let mixed = speed_corrected(&[0.31, 0.62, 0.62], &[0.030, 0.060, 0.060]);
        let slow = speed_corrected(&[0.62, 0.62, 0.62], &[0.060, 0.060, 0.060]);
        assert!(close(fast, 0.31) && close(mixed, 0.31) && close(slow, 0.31));
    }

    #[test]
    fn the_median_resists_one_odd_pair() {
        // One unit hit a stall the reference did not see.
        let r = [0.03; 5];
        assert!(close(speed_corrected(&[0.3, 0.3, 0.9, 0.3, 0.3], &r), 0.3));
        assert!(close(speed_corrected(&[0.3, 0.5], &[0.03, 0.03]), 0.4));
    }
}
