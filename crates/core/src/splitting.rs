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
//! extrapolation weights β_q. [`History`] keeps the levels u^{n−q} and
//! N(u^{n−q}) of every solver — the serial one, NekTar-F and NekTar-ALE.

use nkt_ckpt::{CkptError, CkptFile, CkptWriter, Dec, Enc};
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

    /// Consistency: Σα_q = γ₀ and Σβ_q = 1 (so constants are preserved
    /// and the explicit extrapolation is first-order consistent).
    pub fn is_consistent(&self) -> bool {
        let sa: f64 = self.alpha.iter().sum();
        let sb: f64 = self.beta.iter().sum();
        (sa - self.gamma0).abs() < 1e-12 && (sb - 1.0).abs() < 1e-12
    }
}

/// A level is `ncomp` fields of `[mode][phase][point]`, `nq` points a
/// plane: the shape NekTar-F's transposes take a field in. The serial
/// solver's is one mode of (u, v) × one phase; NekTar-ALE's one mode of
/// three components × one phase, every owned element's nq³ points a plane.
#[derive(Clone, Copy)]
pub(crate) struct Layout {
    pub nmodes: usize,
    pub ncomp: usize,
    pub nphase: usize,
    pub nq: usize,
}

impl Layout {
    pub fn level_len(self) -> usize {
        self.ncomp * self.nmodes * self.nphase * self.nq
    }

    /// Plane (component `c`, mode `mi`, phase `ab`) of a level.
    pub fn at(self, c: usize, mi: usize, ab: usize) -> std::ops::Range<usize> {
        let o = ((c * self.nmodes + mi) * self.nphase + ab) * self.nq;
        o..o + self.nq
    }

    /// Every plane of a level, mode by mode: the checkpoint's order.
    fn by_mode(self) -> impl Iterator<Item = std::ops::Range<usize>> {
        let ph = self.nphase;
        let mode = move |mi| (0..self.ncomp * ph).map(move |i| self.at(i / ph, mi, i % ph));
        (0..self.nmodes).flat_map(mode)
    }
}

/// A solver's stiffly-stable history: its velocity and nonlinear-term
/// levels in quadrature space, newest first, at most the scheme's order of
/// each, and the steps taken.
pub(crate) struct History {
    pub scheme: StifflyStable,
    pub layout: Layout,
    vel: VecDeque<Vec<f64>>,
    nl: VecDeque<Vec<f64>>,
    pub steps: usize,
}

impl History {
    /// An empty history of `layout`-shaped levels under the order-`order`
    /// scheme.
    pub fn new(order: usize, layout: Layout) -> History {
        let scheme = StifflyStable::new(order);
        History { scheme, layout, vel: VecDeque::new(), nl: VecDeque::new(), steps: 0 }
    }

    /// The buffers of this step's velocity and nonlinear levels: the
    /// oldest ones once the scheme's order are kept, fresh ones while the
    /// history is still filling. Either is overwritten before it is read.
    pub fn levels(&mut self) -> (Vec<f64>, Vec<f64>) {
        let (order, len) = (self.scheme.order, self.layout.level_len());
        let recycle = |ring: &mut VecDeque<Vec<f64>>| {
            if ring.len() >= order {
                ring.pop_back().expect("a scheme keeps at least one level")
            } else {
                vec![0.0; len]
            }
        };
        (recycle(&mut self.vel), recycle(&mut self.nl))
    }

    /// Pushes this step's levels and counts the step. Returns `j`, the
    /// levels in effect: fewer than the scheme's order over the first
    /// steps.
    pub fn push(&mut self, vel: Vec<f64>, nl: Vec<f64>) -> usize {
        self.vel.push_front(vel);
        self.nl.push_front(nl);
        self.steps += 1;
        self.vel.len()
    }

    /// Stage 3 of a step: `hat = Σ_q α_q·vel[q] + Δt·β_q·nl[q]` over the
    /// levels, newest first. While the history is still filling, the
    /// weights are those of the scheme of as many levels as there are —
    /// the start-up ramp.
    pub fn weight(&self, dt: f64, hat: &mut [f64]) {
        let ramp;
        let eff = if self.vel.len() == self.scheme.order {
            &self.scheme
        } else {
            ramp = StifflyStable::new(self.vel.len());
            &ramp
        };
        hat.fill(0.0);
        for (lvl, (level_v, level_n)) in self.vel.iter().zip(&self.nl).enumerate() {
            let al = eff.alpha[lvl];
            let be = eff.beta[lvl] * dt;
            for (h, (&hv, &hn)) in hat.iter_mut().zip(level_v.iter().zip(level_n)) {
                *h += al * hv + be * hn;
            }
        }
    }

    /// Forgets the levels and the steps: the next step starts the ramp
    /// again.
    pub fn reset(&mut self) {
        self.vel.clear();
        self.nl.clear();
        self.steps = 0;
    }

    /// Writes the `hist` section — for each ring (velocity, then nonlinear
    /// terms) its level count, then per level the mode count and every
    /// plane, mode by mode, length-prefixed — and the `steps` section.
    pub fn write_sections(&self, w: &mut CkptWriter) {
        let mut e = Enc::new();
        for ring in [&self.vel, &self.nl] {
            e.usize(ring.len());
            for level in ring {
                e.usize(self.layout.nmodes);
                self.layout.by_mode().for_each(|r| e.f64s(&level[r]));
            }
        }
        w.section("hist", e.into_bytes());
        let mut e = Enc::new();
        e.usize(self.steps);
        w.section("steps", e.into_bytes());
    }

    /// Reads what [`Self::write_sections`] wrote, holding the rings' depth
    /// to the scheme's (and to each other's), and every mode count and
    /// plane length to this history's: a step indexes the levels without
    /// looking.
    pub fn read_sections(&mut self, f: &CkptFile) -> Result<(), CkptError> {
        let mut d = f.dec("hist")?;
        let nlevels = d.len_prefix(64)?;
        if nlevels > self.scheme.order {
            let what = format!("history: {nlevels} levels, the scheme keeps {}", self.scheme.order);
            return Err(CkptError::StateMismatch { what });
        }
        let vel = self.read_levels(&mut d, nlevels)?;
        d.expect_u64(nlevels as u64, "nonlinear-term history levels")?;
        let nl = self.read_levels(&mut d, nlevels)?;
        d.finish()?;
        (self.vel, self.nl) = (vel, nl);
        let mut d = f.dec("steps")?;
        self.steps = d.u64()? as usize;
        d.finish()
    }

    fn read_levels(&self, d: &mut Dec<'_>, n: usize) -> Result<VecDeque<Vec<f64>>, CkptError> {
        let l = self.layout;
        (0..n)
            .map(|_| {
                d.expect_u64(l.nmodes as u64, "history mode count")?;
                let mut level = vec![0.0; l.level_len()];
                for r in l.by_mode() {
                    d.f64s_into(&mut level[r], "history plane size")?;
                }
                Ok(level)
            })
            .collect()
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
