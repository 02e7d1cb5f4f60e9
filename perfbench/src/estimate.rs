//! The quiet-host estimators.
//!
//! This host shares its cores: a thread runs either undisturbed or about
//! 1.5 times slower, for anything from a fraction of a second to a
//! minute at a time, so the timed steps of a run are a mixture of two
//! states and their mean or median moves with the share of slow ones
//! (by 12–29 % between runs of identical code). The undisturbed time is
//! the floor of that mixture. Every step of the direct-solve workloads
//! does the same work, and an ALE step costs the same per PCG iteration
//! to within 1.5 %, so the floor is the smallest time per unit of work
//! over every timed step of every round, and `step_ms` is that times the
//! mean work per step. Over ten interleaved runs this repeated within
//! 0.9–1.8 % (6.8 % on the memory-bound `wake2d` in a bad hour) where a
//! per-step-index minimum over five rounds gave 3.5–13 % and a pooled
//! median 12–29 % (README.md has the table).
//!
//! A set-up is one sample of 0.4–3.5 s per round, too long to fall into
//! a gap of a slow spell, so its minimum over rounds sits 1.5 times
//! higher for as long as the spell lasts (`fourier_slab`: 1.67 s against
//! 1.10 s between two sets of ten runs). But the steps timed right after
//! it in the same round say how slow that round was: the set-up divided
//! by (the round's median time per unit of work ÷ the floor) is what it
//! would have cost undisturbed, and `setup_s` is the median of that over
//! the rounds (1.09 s against 1.07 s on the same two sets).

/// Quiet time per step: the smallest `time / work` of any timed step,
/// times the mean `work` per step, in the unit of `times`. `work[i]` is
/// what step `i` did (PCG iterations for ALE, 1 where every step does
/// the same); the slices pool every round and must be equally long and
/// non-empty.
pub fn quiet_step(times: &[f64], work: &[f64]) -> f64 {
    assert!(
        !times.is_empty() && times.len() == work.len(),
        "ragged or empty samples"
    );
    let per_unit = times
        .iter()
        .zip(work)
        .map(|(t, w)| t / w)
        .fold(f64::INFINITY, f64::min);
    per_unit * mean(work)
}

/// Quiet set-up: the median over rounds of `setups[r] / slowdowns[r]`,
/// where the slowdown of a round is the median time per unit of work of
/// its timed steps over the floor of the whole run.
pub fn quiet_setup(setups: &[f64], slowdowns: &[f64]) -> f64 {
    assert_eq!(setups.len(), slowdowns.len(), "one slowdown per round");
    let quiet: Vec<f64> = setups.iter().zip(slowdowns).map(|(s, k)| s / k).collect();
    quantile(&quiet, 0.5)
}

/// Smallest value of a non-empty slice.
pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Arithmetic mean of a non-empty slice.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Linear-interpolated quantile `q` in [0, 1] of a non-empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// (max − min) / median of a non-empty slice, in percent: the built-in
/// noise gauge printed with every report.
pub fn spread_pct(values: &[f64]) -> f64 {
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    100.0 * (max - min(values)) / quantile(values, 0.5)
}

/// Startup self-test on synthetic data (the package has no `cargo test`
/// target the tier-1 run would reach, so the estimator checks itself on
/// every start).
pub fn self_test() {
    // Steps of 10, 20 and 30 units at 0.5 per unit, one of them
    // disturbed in each of two rounds: the floor is 0.5 x the mean work.
    let times = [5.0, 19.0, 15.0, 9.0, 10.0, 15.0];
    let work = [10.0, 20.0, 30.0, 10.0, 20.0, 30.0];
    assert_eq!(quiet_step(&times, &work), 10.0);
    assert_eq!(quiet_step(&[3.0, 2.0, 4.0], &[1.0; 3]), 2.0);
    // Three rounds, the middle one 1.5 times slower throughout.
    assert_eq!(quiet_setup(&[2.0, 3.0, 2.2], &[1.0, 1.5, 1.0]), 2.0);
    assert_eq!(min(&[3.0, 1.5, 2.0]), 1.5);
    assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    assert_eq!(quantile(&[4.0, 1.0, 3.0, 2.0], 0.5), 2.5);
    assert_eq!(quantile(&[1.0, 2.0, 3.0], 1.0), 3.0);
    assert_eq!(spread_pct(&[9.0, 10.0, 11.0]), 20.0);
}
