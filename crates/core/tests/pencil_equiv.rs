//! Slab ↔ pencil equivalence. NekTar-F has one decomposition, a `pr × pc`
//! process grid, and the slab is its one-column case: the columns are
//! pure data layout — for every grid, rank `(r, c)` must end a run with
//! **bitwise** the same state (FNV digest over all numerical checkpoint
//! sections) as rank `r` of the `pr × 1` slab, in both transpose paths.
//! And grids with `pc > 1` must run where the slab cannot: P > nz/2.

use nektar::decomp::FourierCfgError;
use nektar::drive::cases;
use nektar::fourier::{FourierConfig, NektarF};
use nkt_ckpt::Checkpointable;
use nkt_mesh::{rect_quads, Mesh2d};
use nkt_mpi::prelude::*;
use nkt_net::{cluster, ClusterNetwork, NetId};

fn run<R: Send, F: Fn(&mut Comm) -> R + Sync>(p: usize, net: ClusterNetwork, f: F) -> Vec<R> {
    World::builder().ranks(p).net(net).run(f)
}

fn mesh() -> Mesh2d {
    rect_quads(0.0, 1.0, 0.0, 1.0, 2, 2)
}

fn cfg(nz: usize) -> FourierConfig {
    FourierConfig {
        order: 4,
        dt: 1e-3,
        nu: 0.05,
        nz,
        lz: 2.0 * std::f64::consts::PI,
        scheme_order: 2,
    }
}

fn init_field(x: [f64; 3]) -> [f64; 3] {
    let pi = std::f64::consts::PI;
    [
        (pi * x[0]).sin() * (pi * x[1]).cos() * x[2].cos(),
        -(pi * x[0]).cos() * (pi * x[1]).sin() * x[2].cos(),
        0.0,
    ]
}

/// Two steps on an explicit grid; returns every rank's state hash.
fn grid_hashes(nz: usize, pr: usize, pc: usize, overlap: bool) -> Vec<u64> {
    run(pr * pc, cluster(NetId::RoadRunnerEth), move |c| {
        let mut s = NektarF::try_new_with_grid(c, &mesh(), cfg(nz), pr, pc)
            .unwrap_or_else(|e| panic!("grid {pr}x{pc}: {e}"));
        s.set_overlap(overlap);
        s.set_initial(init_field);
        s.step(c);
        s.step(c);
        s.state_hash()
    })
}

#[test]
fn pencil_state_hash_matches_slab_over_grid_sweep() {
    // nz = 16 → 8 modes. Slab references at pr ∈ {1, 2, 4, 8}; pencil
    // grids sweep pr × pc including the degenerate 1×P and P×1 edges.
    let nz = 16;
    let slab = |pr: usize| grid_hashes(nz, pr, 1, true);
    let refs: Vec<(usize, Vec<u64>)> = [1usize, 2, 4, 8].iter().map(|&pr| (pr, slab(pr))).collect();
    let slab_of = |pr: usize| -> &Vec<u64> {
        &refs.iter().find(|(q, _)| *q == pr).unwrap().1
    };
    for &(pr, pc) in &[(1usize, 2usize), (1, 4), (2, 2), (2, 4), (4, 2), (8, 1), (2, 3)] {
        for overlap in [false, true] {
            let hashes = grid_hashes(nz, pr, pc, overlap);
            for (w, &h) in hashes.iter().enumerate() {
                let r = w / pc;
                assert_eq!(
                    h,
                    slab_of(pr)[r],
                    "grid {pr}x{pc} overlap={overlap}: rank {w} (row {r}) diverged from slab"
                );
            }
        }
    }
}

/// `fourier_dns`'s case at nz 12: a Bluestein half transform (length 6),
/// and 324 points a plane in chunks of 54 over six ranks, so every chunk
/// ends in a short lane block. A 3×2 pencil matches the 3-rank slab in
/// both transpose paths, and no grid (`None`, the `fourier_dns` demo's)
/// is the `P × 1` slab.
#[test]
fn the_demo_case_at_nz_12_matches_its_slab() {
    let demo = |p: usize, grid: Option<(usize, usize)>, overlap: bool| {
        run(p, cluster(NetId::RoadRunnerEth), move |c| {
            let mut s = cases::fourier(c, 12, grid).expect("a valid grid");
            s.set_overlap(overlap);
            s.step(c);
            s.step(c);
            s.state_hash()
        })
    };
    let slab = demo(3, Some((3, 1)), true);
    assert_eq!(demo(3, None, true), slab, "no grid is the 3x1 slab");
    for overlap in [false, true] {
        let pencil = demo(6, Some((3, 2)), overlap);
        for (w, &h) in pencil.iter().enumerate() {
            let r = w / 2;
            assert_eq!(h, slab[r], "3x2 overlap={overlap}: rank {w} diverged from slab row {r}");
        }
    }
}

#[test]
fn pencil_runs_past_the_slab_rank_cap() {
    // nz = 8 → 4 modes: 8 ranks exceed the slab's P ≤ nz/2 cap...
    let nz = 8;
    let err = run(8, cluster(NetId::RoadRunnerMyr), move |c| {
        NektarF::try_new_with_grid(c, &mesh(), cfg(nz), 8, 1).err()
    });
    for e in err {
        assert_eq!(e, Some(FourierCfgError::ModesNotDivisible { nmodes: 4, pr: 8 }));
    }
    // ...but a 4×2 pencil grid runs there, bitwise equal to the 4-rank
    // slab, with finite decaying energy.
    let slab4 = grid_hashes(nz, 4, 1, true);
    let out = run(8, cluster(NetId::RoadRunnerMyr), move |c| {
        let mut s = NektarF::try_new_with_grid(c, &mesh(), cfg(nz), 4, 2).unwrap();
        s.set_initial(init_field);
        let e0 = s.kinetic_energy(c);
        s.step(c);
        s.step(c);
        (s.state_hash(), e0, s.kinetic_energy(c))
    });
    for (w, &(h, e0, e2)) in out.iter().enumerate() {
        assert_eq!(h, slab4[w / 2], "rank {w} diverged from slab row {}", w / 2);
        assert!(e0.is_finite() && e2.is_finite() && e2 > 0.0 && e2 < e0, "{e0} -> {e2}");
    }
}

#[test]
fn bad_configs_are_typed_errors_in_both_decompositions() {
    let out = run(4, cluster(NetId::T3e), |c| {
        let odd = NektarF::try_new_with_grid(c, &mesh(), cfg(7), 4, 1).err();
        let slab_indiv = NektarF::try_new_with_grid(c, &mesh(), cfg(6), 4, 1).err();
        let grid_mismatch = NektarF::try_new_with_grid(c, &mesh(), cfg(16), 3, 2).err();
        let valid = NektarF::try_new_with_grid(c, &mesh(), cfg(16), 4, 1).ok().map(|_| ());
        (odd, slab_indiv, grid_mismatch, valid)
    });
    for (odd, slab_indiv, grid_mismatch, ok) in out {
        assert_eq!(odd, Some(FourierCfgError::OddNz { nz: 7 }));
        assert_eq!(slab_indiv, Some(FourierCfgError::ModesNotDivisible { nmodes: 3, pr: 4 }));
        assert_eq!(grid_mismatch, Some(FourierCfgError::GridMismatch { pr: 3, pc: 2, p: 4 }));
        assert_eq!(ok, Some(()), "16 planes over 4 ranks is a valid slab");
    }
    // Pencil-side divisibility: 4 modes cannot split over 3 grid rows.
    let out = run(6, cluster(NetId::T3e), |c| {
        NektarF::try_new_with_grid(c, &mesh(), cfg(8), 3, 2).err()
    });
    for e in out {
        assert_eq!(e, Some(FourierCfgError::ModesNotDivisible { nmodes: 4, pr: 3 }));
    }
}

#[test]
fn pencil_spectrum_and_energy_agree_with_slab() {
    // Replicated-mode diagnostics must not double count: spectrum and
    // total energy on a 2×2 grid equal the 2-rank slab's to the bit.
    let nz = 8;
    let slab = run(2, cluster(NetId::T3e), move |c| {
        let mut s = NektarF::try_new_with_grid(c, &mesh(), cfg(nz), 2, 1).unwrap();
        s.set_initial(init_field);
        s.step(c);
        let spec = nektar::drive::Simulation::probe(&mut s, c).spectrum;
        (spec, s.kinetic_energy(c))
    });
    let pencil = run(4, cluster(NetId::T3e), move |c| {
        let mut s = NektarF::try_new_with_grid(c, &mesh(), cfg(nz), 2, 2).unwrap();
        s.set_initial(init_field);
        s.step(c);
        let spec = nektar::drive::Simulation::probe(&mut s, c).spectrum;
        (spec, s.kinetic_energy(c))
    });
    for (w, (spec, e)) in pencil.iter().enumerate() {
        assert_eq!(spec, &slab[0].0, "rank {w} spectrum");
        assert_eq!(*e, slab[0].1, "rank {w} energy");
    }
}
