//! Stiffly-stable high-order splitting scheme coefficients
//! (Karniadakis, Israeli & Orszag 1991 — paper §4: "The Navier-Stokes
//! equations are integrated in time using a high-order splitting scheme
//! ... For the purposes of this paper, a second order time-integration is
//! used").
//!
//! The scheme advances u_t = N(u) + L(u) as
//!
//! ```text
//! (γ₀ u^{n+1} − Σ_q α_q u^{n−q}) / Δt = Σ_q β_q N(u^{n−q}) + L(u^{n+1})
//! ```
//!
//! with backward-differentiation weights γ₀, α_q and explicit
//! extrapolation weights β_q.

use std::collections::VecDeque;

/// Coefficients of the order-J stiffly-stable scheme (J = 1, 2, 3).
#[derive(Debug, Clone, PartialEq)]
pub struct StifflyStable {
    /// Scheme order.
    pub order: usize,
    /// γ₀.
    pub gamma0: f64,
    /// α_q, q = 0..order−1 (weights of u^{n−q}).
    pub alpha: Vec<f64>,
    /// β_q, q = 0..order−1 (weights of N(u^{n−q})).
    pub beta: Vec<f64>,
}

impl StifflyStable {
    /// Returns the coefficients for `order` ∈ {1, 2, 3}.
    ///
    /// # Panics
    /// Panics for unsupported orders.
    pub fn new(order: usize) -> StifflyStable {
        match order {
            1 => StifflyStable { order, gamma0: 1.0, alpha: vec![1.0], beta: vec![1.0] },
            2 => StifflyStable {
                order,
                gamma0: 1.5,
                alpha: vec![2.0, -0.5],
                beta: vec![2.0, -1.0],
            },
            3 => StifflyStable {
                order,
                gamma0: 11.0 / 6.0,
                alpha: vec![3.0, -1.5, 1.0 / 3.0],
                beta: vec![3.0, -3.0, 1.0],
            },
            _ => panic!("stiffly-stable scheme implemented for orders 1-3"),
        }
    }

    /// Stage 3 of a step: `hat = Σ_q α_q·vel[q] + Δt·β_q·nonlin[q]` over
    /// the history levels (newest first, at most `self.order` of them).
    /// While the history is still filling, the weights are those of the
    /// scheme of as many levels as there are — the start-up ramp.
    pub(crate) fn weight_history(
        &self,
        dt: f64,
        vel: &VecDeque<Vec<f64>>,
        nonlin: &VecDeque<Vec<f64>>,
        hat: &mut [f64],
    ) {
        let ramp;
        let eff = if vel.len() == self.order {
            self
        } else {
            ramp = StifflyStable::new(vel.len());
            &ramp
        };
        hat.fill(0.0);
        for (lvl, (level_v, level_n)) in vel.iter().zip(nonlin).enumerate() {
            let al = eff.alpha[lvl];
            let be = eff.beta[lvl] * dt;
            for (h, (&hv, &hn)) in hat.iter_mut().zip(level_v.iter().zip(level_n)) {
                *h += al * hv + be * hn;
            }
        }
    }

    /// Consistency: Σα_q = γ₀ and Σβ_q = 1 (so constants are preserved
    /// and the explicit extrapolation is first-order consistent).
    pub fn is_consistent(&self) -> bool {
        let sa: f64 = self.alpha.iter().sum();
        let sb: f64 = self.beta.iter().sum();
        (sa - self.gamma0).abs() < 1e-12 && (sb - 1.0).abs() < 1e-12
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coefficients_consistent() {
        for j in 1..=3 {
            let s = StifflyStable::new(j);
            assert!(s.is_consistent(), "order {j}");
            assert_eq!(s.alpha.len(), j);
            assert_eq!(s.beta.len(), j);
        }
    }

    #[test]
    #[should_panic]
    fn order_four_unsupported() {
        StifflyStable::new(4);
    }

    /// Integrate u' = -u exactly representable by the BDF part: the
    /// order-2 scheme should show 2nd-order convergence.
    #[test]
    fn bdf2_order_of_accuracy() {
        let solve = |dt: f64| {
            let s = StifflyStable::new(2);
            // u' = f(u) = -u treated fully explicitly through beta terms;
            // implicit part zero. gamma0 u^{n+1} = sum alpha u + dt sum
            // beta f(u).
            let mut hist = vec![(-dt).exp(), 1.0]; // u^1 (exact), u^0
            let mut t = dt;
            while t < 1.0 - 1e-12 {
                let expl: f64 = s.beta[0] * -hist[0] + s.beta[1] * -hist[1];
                let bdf: f64 = s.alpha[0] * hist[0] + s.alpha[1] * hist[1];
                let next = (bdf + dt * expl) / s.gamma0;
                hist = vec![next, hist[0]];
                t += dt;
            }
            (hist[0] - (-1.0f64).exp()).abs()
        };
        let e1 = solve(0.01);
        let e2 = solve(0.005);
        let rate = (e1 / e2).log2();
        assert!(rate > 1.7 && rate < 2.4, "observed rate {rate}");
    }
}
