//! The demo problems — mesh, configuration, boundary and initial data —
//! that the examples and `nkt-serve` both run: the paper's three
//! application benchmarks at laptop scale.

use crate::ale::{AleConfig, NektarAle};
use crate::decomp::FourierCfgError;
use crate::fourier::{FourierConfig, NektarF};
use crate::serial2d::{Serial2dSolver, SolverConfig};
use nkt_mesh::{bluff_body_mesh, rect_quads, wing_box_mesh, Mesh3d};
use nkt_mpi::Comm;
use nkt_partition::{edge_cut, partition_kway, Graph, PartitionOptions};

/// Serial bluff-body wake (Table 1 / Figure 12): the Figure 11 (left)
/// domain at `bluff_body_mesh(refine)` and polynomial `order`, unit
/// inflow, Re = 100 on the unit body. The demo runs `(1, 4)`; Table 1
/// and Figure 12 replay a recorded step of `(3, 8)`, 972 elements at
/// the paper's order (paper: 902).
pub fn wake(refine: usize, order: usize) -> Serial2dSolver {
    let cfg = SolverConfig { order, dt: 2e-3, nu: 0.01, scheme_order: 2, advect: true };
    let mut solver = Serial2dSolver::new(
        bluff_body_mesh(refine),
        cfg,
        |x| if x[0] < -14.0 { 1.0 } else { 0.0 },
        |_| 0.0,
    );
    solver.set_initial(|_| 1.0, |_| 0.0);
    solver
}

/// NekTar-F demo (Table 2 / Figures 13–14): this rank's solver for a
/// 3×3-element unit square extruded over `nz` Fourier planes, started
/// from a divergence-free vortex with a spanwise modulation. Collective.
/// `grid` is the `pr × pc` process grid; `None` is the slab.
pub fn fourier(
    c: &mut Comm,
    nz: usize,
    grid: Option<(usize, usize)>,
) -> Result<NektarF, FourierCfgError> {
    let mesh = rect_quads(0.0, 1.0, 0.0, 1.0, 3, 3);
    let cfg = FourierConfig {
        order: 4,
        dt: 1e-3,
        nu: 0.02,
        nz,
        lz: 2.0 * std::f64::consts::PI,
        scheme_order: 2,
    };
    let (pr, pc) = grid.unwrap_or((c.size(), 1));
    let mut solver = NektarF::try_new_with_grid(c, &mesh, cfg, pr, pc)?;
    solver.set_initial(|x| {
        let pi = std::f64::consts::PI;
        let (sx, cx) = (pi * x[0]).sin_cos();
        let (sy, cy) = (pi * x[1]).sin_cos();
        [
            2.0 * pi * sx * sx * sy * cy * (1.0 + 0.3 * x[2].cos()),
            -2.0 * pi * sx * cx * sy * sy * (1.0 + 0.3 * x[2].cos()),
            0.0,
        ]
    });
    Ok(solver)
}

/// NekTar-ALE flapping-wing demo (Table 3 / Figures 15–16): the 10×5×5
/// wing box, partitioned element-wise over the ranks.
pub struct WingCase {
    /// The hexahedral mesh.
    pub mesh: Mesh3d,
    /// Element → rank map from the METIS-substitute partitioner.
    pub part: Vec<u8>,
    /// Dual-graph edges cut by `part`.
    pub edge_cut: i64,
    /// Solver configuration (paper: Re = 1000).
    pub cfg: AleConfig,
    /// Split-phase gather-scatter from the first exchange on (`wing`
    /// says yes; `ablation_gs_overlap` sets it off for its reference).
    pub gs_overlap: bool,
}

/// The wing demo problem partitioned over `ranks` ranks.
pub fn wing(ranks: usize) -> WingCase {
    let mesh = wing_box_mesh(1);
    let dual = Graph::from_edges(mesh.nelems(), &mesh.dual_edges());
    let part = partition_kway(&dual, ranks, &PartitionOptions::default());
    WingCase {
        edge_cut: edge_cut(&dual, &part),
        mesh,
        part,
        cfg: AleConfig {
            order: 2,
            dt: 2e-3,
            nu: 1e-3,
            scheme_order: 2,
            advect: true,
            motion_amp: 0.05,
            motion_omega: 2.0 * std::f64::consts::PI,
            pcg_tol: 1e-6,
            pcg_max_iter: 2000,
        },
        gs_overlap: true,
    }
}

impl WingCase {
    /// Builds this rank's solver in uniform unit flow. Collective.
    pub fn build(&self, c: &mut Comm) -> NektarAle {
        let mut solver = NektarAle::new(c, self.mesh.clone(), &self.part, self.cfg.clone());
        solver.set_gs_overlap(self.gs_overlap);
        solver.set_initial(c, |_| [1.0, 0.0, 0.0]);
        solver
    }
}
