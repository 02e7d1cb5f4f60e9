//! The modified 1-D modal basis (Karniadakis & Sherwin):
//!
//! * ψ₀(ξ) = (1−ξ)/2 — left vertex mode,
//! * ψ_P(ξ) = (1+ξ)/2 — right vertex mode,
//! * ψ_k(ξ) = (1−ξ)/2 · (1+ξ)/2 · P^{1,1}_{k−1}(ξ), k = 1..P−1 —
//!   hierarchical interior ("bubble") modes.
//!
//! Vertex modes give C0 coupling at element boundaries; bubble modes
//! vanish there. Under ξ → −ξ the bubble mode of index k picks up the
//! sign (−1)^{k−1} — the sign assembly must apply on reversed shared
//! edges.

use nkt_poly::jacobi::{jacobi, jacobi_derivative};

/// Evaluates the `i`-th modified mode of an order-`p` expansion at `xi`.
/// Index convention: 0 = left vertex, `p` = right vertex, 1..p−1 bubbles.
pub fn eval_mode(p: usize, i: usize, xi: f64) -> f64 {
    assert!(i <= p, "mode index {i} out of range for order {p}");
    if i == 0 {
        0.5 * (1.0 - xi)
    } else if i == p {
        0.5 * (1.0 + xi)
    } else {
        0.25 * (1.0 - xi) * (1.0 + xi) * jacobi(i - 1, 1.0, 1.0, xi)
    }
}

/// Derivative of [`eval_mode`] with respect to ξ.
pub fn eval_mode_deriv(p: usize, i: usize, xi: f64) -> f64 {
    assert!(i <= p, "mode index {i} out of range for order {p}");
    if i == 0 {
        -0.5
    } else if i == p {
        0.5
    } else {
        let j = jacobi(i - 1, 1.0, 1.0, xi);
        let dj = jacobi_derivative(i - 1, 1.0, 1.0, xi);
        0.25 * (-2.0 * xi * j + (1.0 - xi * xi) * dj)
    }
}

/// Sign the bubble mode `k` (1-based) picks up under edge reversal:
/// (−1)^{k−1}.
pub fn edge_reversal_sign(k: usize) -> f64 {
    if (k - 1).is_multiple_of(2) {
        1.0
    } else {
        -1.0
    }
}

/// A per-mode table `rows[m][q]` as the two matrices `nkt_blas::sweep`
/// contracts with, both column-major: modal → quadrature (`nq × nm`) and
/// its transpose, quadrature → modal.
pub fn sweep_matrices(rows: &[Vec<f64>]) -> [Vec<f64>; 2] {
    let nq = rows.first().map_or(0, Vec::len);
    [rows.concat(), (0..nq).flat_map(|q| rows.iter().map(move |r| r[q])).collect()]
}

/// Precomputed 1-D basis tables at a set of quadrature points.
#[derive(Debug, Clone)]
pub struct Basis1d {
    /// Polynomial order P (P+1 modes).
    pub order: usize,
    /// Quadrature points.
    pub z: Vec<f64>,
    /// Quadrature weights.
    pub w: Vec<f64>,
    /// `val[i][q]` = ψ_i(z_q).
    pub val: Vec<Vec<f64>>,
    /// `dval[i][q]` = ψ_i'(z_q).
    pub dval: Vec<Vec<f64>>,
}

impl Basis1d {
    /// Tabulates the order-`p` basis at the given rule.
    pub fn tabulate(p: usize, z: &[f64], w: &[f64]) -> Basis1d {
        assert_eq!(z.len(), w.len());
        let nm = p + 1;
        let mut val = vec![vec![0.0; z.len()]; nm];
        let mut dval = vec![vec![0.0; z.len()]; nm];
        for i in 0..nm {
            for (q, &zq) in z.iter().enumerate() {
                val[i][q] = eval_mode(p, i, zq);
                dval[i][q] = eval_mode_deriv(p, i, zq);
            }
        }
        Basis1d { order: p, z: z.to_vec(), w: w.to_vec(), val, dval }
    }

    /// Standard choice: Gauss-Lobatto-Legendre with `p + 2` points
    /// (integrates the order-2p mass terms with margin).
    pub fn with_gll(p: usize) -> Basis1d {
        let rule = nkt_poly::quadrature::zwglj(p + 2, 0.0, 0.0);
        Basis1d::tabulate(p, &rule.z, &rule.w)
    }

    /// Number of modes (P + 1).
    pub fn nmodes(&self) -> usize {
        self.order + 1
    }

    /// Number of quadrature points.
    pub fn nquad(&self) -> usize {
        self.z.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vertex_modes_are_linear_hats() {
        for &xi in &[-1.0, 0.0, 0.5, 1.0] {
            assert!((eval_mode(4, 0, xi) - 0.5 * (1.0 - xi)).abs() < 1e-15);
            assert!((eval_mode(4, 4, xi) - 0.5 * (1.0 + xi)).abs() < 1e-15);
        }
    }

    #[test]
    fn bubble_modes_vanish_at_endpoints() {
        for p in 2..8 {
            for k in 1..p {
                assert!(eval_mode(p, k, -1.0).abs() < 1e-15, "p={p} k={k}");
                assert!(eval_mode(p, k, 1.0).abs() < 1e-15);
            }
        }
    }

    #[test]
    fn partition_of_unity_for_vertex_modes() {
        for &xi in &[-0.9, -0.2, 0.6] {
            let s = eval_mode(5, 0, xi) + eval_mode(5, 5, xi);
            assert!((s - 1.0).abs() < 1e-15);
        }
    }

    #[test]
    fn derivative_matches_finite_difference() {
        let h = 1e-6;
        for p in [3usize, 6] {
            for i in 0..=p {
                for &xi in &[-0.7, 0.1, 0.8] {
                    let fd = (eval_mode(p, i, xi + h) - eval_mode(p, i, xi - h)) / (2.0 * h);
                    let an = eval_mode_deriv(p, i, xi);
                    assert!((fd - an).abs() < 1e-6, "p={p} i={i} xi={xi}");
                }
            }
        }
    }

    #[test]
    fn reversal_symmetry() {
        // psi_k(-xi) = sign(k) * psi_k(xi) for bubbles.
        for p in [4usize, 7] {
            for k in 1..p {
                for &xi in &[0.3, 0.77] {
                    let lhs = eval_mode(p, k, -xi);
                    let rhs = edge_reversal_sign(k) * eval_mode(p, k, xi);
                    assert!((lhs - rhs).abs() < 1e-13, "p={p} k={k}");
                }
            }
        }
    }

    #[test]
    fn mass_matrix_spd_and_sparse_pattern() {
        // The modified basis gives a mass matrix coupling vertex and
        // bubble modes but still SPD.
        let b = Basis1d::with_gll(6);
        let nm = b.nmodes();
        let mut m = vec![0.0; nm * nm];
        for i in 0..nm {
            for j in 0..nm {
                let mut s = 0.0;
                for q in 0..b.nquad() {
                    s += b.w[q] * b.val[i][q] * b.val[j][q];
                }
                m[i + j * nm] = s;
            }
        }
        // SPD check via Cholesky.
        nkt_blas::dpotrf(nm, &mut m, nm).expect("1-D mass matrix must be SPD");
    }

    #[test]
    fn stiffness_matrix_of_linears_matches_fem() {
        // For P=1 the basis is linear FEM: K = [[1/2, -1/2], [-1/2, 1/2]].
        let b = Basis1d::with_gll(1);
        let mut k = [[0.0; 2]; 2];
        for i in 0..2 {
            for j in 0..2 {
                for q in 0..b.nquad() {
                    k[i][j] += b.w[q] * b.dval[i][q] * b.dval[j][q];
                }
            }
        }
        assert!((k[0][0] - 0.5).abs() < 1e-14);
        assert!((k[0][1] + 0.5).abs() < 1e-14);
        assert!((k[1][1] - 0.5).abs() < 1e-14);
    }

    #[test]
    fn tabulation_matches_pointwise_eval() {
        let b = Basis1d::with_gll(5);
        for i in 0..b.nmodes() {
            for (q, &z) in b.z.iter().enumerate() {
                assert_eq!(b.val[i][q], eval_mode(5, i, z));
            }
        }
    }
}
