//! Reverse Cuthill-McKee bandwidth reduction.
//!
//! The paper's direct solvers exploit "the symmetric and banded nature of
//! the matrix" (Figure 10); getting a usable band out of an unstructured
//! mesh requires a bandwidth-reducing permutation, which is what RCM
//! provides. One ordering, native and model alike:
//! [`boundary_band_order`] orders the statically condensed boundary
//! system (vertex and edge dofs; the interiors are eliminated element by
//! element and never enter a band). `solve::Discretization` stores,
//! factors and solves every Schur complement in that order (the serial
//! tables replay its recorded solves), and NekTar-F's model replay
//! (`nkt_bench::paper_fourier_shape`) sizes its banded solves the same way.

use crate::assembly::Assembly;
use std::collections::VecDeque;

/// Builds an adjacency structure from dof "cliques" (each clique = the
/// dofs coupled by one element).
pub fn adjacency_from_cliques(n: usize, cliques: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for clique in cliques {
        for &a in clique {
            for &b in clique {
                if a != b {
                    adj[a].push(b);
                }
            }
        }
    }
    for l in &mut adj {
        l.sort_unstable();
        l.dedup();
    }
    adj
}

/// Computes the RCM permutation: `perm[new] = old`. Handles disconnected
/// graphs by restarting from the lowest-degree unvisited vertex.
pub fn rcm_order(adj: &[Vec<usize>]) -> Vec<usize> {
    let n = adj.len();
    let mut visited = vec![false; n];
    let mut order = Vec::with_capacity(n);
    // Process components in ascending-degree seed order.
    let mut seeds: Vec<usize> = (0..n).collect();
    seeds.sort_by_key(|&v| (adj[v].len(), v));
    for &seed in &seeds {
        if visited[seed] {
            continue;
        }
        // Pseudo-peripheral start: double BFS from the seed.
        let start = {
            let far = |s: usize, visited: &[bool]| -> usize {
                let mut dist = vec![usize::MAX; n];
                let mut q = VecDeque::new();
                dist[s] = 0;
                q.push_back(s);
                let mut last = s;
                while let Some(v) = q.pop_front() {
                    last = v;
                    for &u in &adj[v] {
                        if !visited[u] && dist[u] == usize::MAX {
                            dist[u] = dist[v] + 1;
                            q.push_back(u);
                        }
                    }
                }
                last
            };
            far(far(seed, &visited), &visited)
        };
        // Cuthill-McKee BFS with neighbors in ascending degree.
        let mut q = VecDeque::new();
        visited[start] = true;
        q.push_back(start);
        while let Some(v) = q.pop_front() {
            order.push(v);
            let mut nbrs: Vec<usize> =
                adj[v].iter().copied().filter(|&u| !visited[u]).collect();
            nbrs.sort_by_key(|&u| (adj[u].len(), u));
            for u in nbrs {
                if !visited[u] {
                    visited[u] = true;
                    q.push_back(u);
                }
            }
        }
    }
    order.reverse();
    order
}

/// Where a Schur complement assembled on the boundary system sits in its
/// band order ([`boundary_band_order`]).
#[derive(Debug, Clone, PartialEq)]
pub struct BandOrder {
    /// Band row of every boundary-class dof (`nboundary` entries).
    pub pos: Vec<usize>,
    /// Per band row j: the first row of column j that any element couples
    /// to it — the least band row of every element holding that dof.
    /// Cholesky fills nothing above it.
    pub first: Vec<usize>,
    /// Semi-bandwidth: the largest `j − first[j]`.
    pub kd: usize,
}

/// The band order of `asm`'s boundary system: RCM over the vertex and
/// edge dofs each element couples, and the envelope and semi-bandwidth of
/// any Schur complement assembled at those rows.
pub fn boundary_band_order(asm: &Assembly) -> BandOrder {
    let cliques: Vec<Vec<usize>> = asm
        .elem_dofs
        .iter()
        .map(|dofs| dofs.iter().map(|&(g, _)| g).filter(|&g| g < asm.nboundary).collect())
        .collect();
    let perm = rcm_order(&adjacency_from_cliques(asm.nboundary, &cliques));
    let mut pos = vec![0usize; asm.nboundary];
    for (row, &dof) in perm.iter().enumerate() {
        pos[dof] = row;
    }
    let mut first: Vec<usize> = (0..asm.nboundary).collect();
    for clique in &cliques {
        let lo = clique.iter().map(|&g| pos[g]).min().unwrap_or(0);
        for &g in clique {
            first[pos[g]] = first[pos[g]].min(lo);
        }
    }
    let kd = first.iter().enumerate().map(|(j, &f)| j - f).max().unwrap_or(0);
    BandOrder { pos, first, kd }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bandwidth of the matrix under a permutation `perm[new] = old`:
    /// max |pos(a) − pos(b)| over coupled pairs.
    fn bandwidth_under(perm: &[usize], cliques: &[Vec<usize>]) -> usize {
        let mut pos = vec![0usize; perm.len()];
        for (newi, &old) in perm.iter().enumerate() {
            pos[old] = newi;
        }
        let mut kd = 0usize;
        for clique in cliques {
            for &a in clique {
                for &b in clique {
                    kd = kd.max(pos[a].abs_diff(pos[b]));
                }
            }
        }
        kd
    }

    /// RCM bandwidth of a clique-defined system.
    fn rcm_bandwidth(n: usize, cliques: &[Vec<usize>]) -> usize {
        let perm = rcm_order(&adjacency_from_cliques(n, cliques));
        bandwidth_under(&perm, cliques)
    }

    /// 2-D grid graph cliques: each cell couples its 4 corners.
    fn grid_cliques(nx: usize, ny: usize) -> (usize, Vec<Vec<usize>>) {
        let id = |i: usize, j: usize| i + j * (nx + 1);
        let mut cliques = Vec::new();
        for j in 0..ny {
            for i in 0..nx {
                cliques.push(vec![id(i, j), id(i + 1, j), id(i + 1, j + 1), id(i, j + 1)]);
            }
        }
        ((nx + 1) * (ny + 1), cliques)
    }

    #[test]
    fn rcm_is_a_permutation() {
        let (n, cliques) = grid_cliques(5, 4);
        let adj = adjacency_from_cliques(n, &cliques);
        let perm = rcm_order(&adj);
        let mut sorted = perm.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn rcm_shrinks_grid_bandwidth_to_row_width() {
        // A long thin grid: natural numbering along the long axis gives
        // bandwidth ~ (short side); RCM should find it regardless of the
        // input numbering being scrambled.
        let (n, cliques) = grid_cliques(30, 3);
        // Scramble: renumber vertices by reversing bits-ish.
        let scramble: Vec<usize> = {
            let mut v: Vec<usize> = (0..n).collect();
            v.sort_by_key(|&i| (i * 2654435761) % n);
            v
        };
        let mut inv = vec![0usize; n];
        for (a, &b) in scramble.iter().enumerate() {
            inv[b] = a;
        }
        let scrambled: Vec<Vec<usize>> = cliques
            .iter()
            .map(|c| c.iter().map(|&v| inv[v]).collect())
            .collect();
        let naive_kd = {
            let mut kd = 0;
            for c in &scrambled {
                for &a in c {
                    for &b in c {
                        kd = kd.max(a.abs_diff(b));
                    }
                }
            }
            kd
        };
        let kd = rcm_bandwidth(n, &scrambled);
        assert!(kd < naive_kd / 3, "RCM {kd} vs naive {naive_kd}");
        // Short side has 4 vertex rows: optimal band ~ 5-9.
        assert!(kd <= 12, "grid band {kd}");
    }

    #[test]
    fn disconnected_graph_handled() {
        let cliques = vec![vec![0, 1], vec![2, 3]];
        let kd = rcm_bandwidth(4, &cliques);
        assert!(kd <= 2);
        let adj = adjacency_from_cliques(4, &cliques);
        assert_eq!(rcm_order(&adj).len(), 4);
    }

    #[test]
    fn bandwidth_under_identity() {
        let cliques = vec![vec![0, 5]];
        let perm: Vec<usize> = (0..6).collect();
        assert_eq!(bandwidth_under(&perm, &cliques), 5);
    }
}
