//! The checkpoint/restart contract, as properties: a run interrupted at
//! step `k` and restored from its `CKPT_*` files continues **bitwise
//! identically** to the run that was never interrupted — the FNV state
//! hash matches step for step, on every rank, for all three solvers, and
//! at the last step the checkpoint bytes themselves are equal. The kill
//! step and (for NekTar-F) the rank count are drawn by `prop_check!`, so
//! the property covers checkpoints taken at ramp-up steps (partial
//! multistep history) as well as steady-state ones.

use nektar::ale::{AleConfig, NektarAle};
use nektar::fourier::{FourierConfig, NektarF};
use nektar::{Serial2dSolver, SolverConfig};
use nkt_ckpt::{
    restore_latest_on, write_epoch_on, Checkpointable, CkptConfig, CkptError, CkptFile,
    CkptWriter, Dec, Enc,
};
use nkt_mesh::{box_hexes, rect_quads, Mesh2d, Mesh3d};
use nkt_net::{cluster, ClusterNetwork, NetId};
use nkt_partition::{partition_kway, Graph, PartitionOptions};
use nkt_testkit::{one_of, prop_check, prop_assert, prop_assert_eq};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

fn net() -> ClusterNetwork {
    cluster(NetId::T3e)
}

fn run<R: Send, F: Fn(&mut nkt_mpi::Comm) -> R + Sync>(
    p: usize,
    net: ClusterNetwork,
    f: F,
) -> Vec<R> {
    nkt_mpi::World::from_env().ranks(p).net(net).run(f)
}

/// A fresh checkpoint directory per property case: cases within one
/// test (and tests within one binary) must not see each other's epochs.
fn fresh_dir(label: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::SeqCst);
    std::env::temp_dir().join(format!("nkt_ckpt_{label}_{}_{n}", std::process::id()))
}

// ---------------------------------------------------------------- serial2d

fn mesh2d() -> Mesh2d {
    rect_quads(0.0, 1.0, 0.0, 1.0, 2, 2)
}

fn serial_solver() -> Serial2dSolver {
    let cfg = SolverConfig { order: 4, dt: 2e-3, nu: 0.05, scheme_order: 2, advect: true };
    let pi = std::f64::consts::PI;
    let mut s = Serial2dSolver::new(mesh2d(), cfg, |_| 0.0, |_| 0.0);
    s.set_initial(
        |x| (pi * x[0]).sin() * (pi * x[1]).cos(),
        |x| -(pi * x[0]).cos() * (pi * x[1]).sin(),
    );
    s
}

// ---------------------------------------------------------------- fourier

fn fourier_cfg() -> FourierConfig {
    FourierConfig {
        order: 4,
        dt: 1e-3,
        nu: 0.05,
        nz: 8,
        lz: 2.0 * std::f64::consts::PI,
        scheme_order: 2,
    }
}

fn fourier_init(x: [f64; 3]) -> [f64; 3] {
    let pi = std::f64::consts::PI;
    [
        (pi * x[0]).sin() * (pi * x[1]).cos() * x[2].cos(),
        -(pi * x[0]).cos() * (pi * x[1]).sin() * x[2].cos(),
        0.0,
    ]
}

// ---------------------------------------------------------------- ale

fn mesh3d() -> Mesh3d {
    box_hexes(0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 2, 2, 2)
}

fn ale_cfg() -> AleConfig {
    AleConfig {
        order: 2,
        dt: 2e-3,
        nu: 0.05,
        scheme_order: 2,
        advect: true,
        // Nonzero so the checkpoint's "mesh" section (vertex positions,
        // per-op scales, mesh velocity history) actually varies and the
        // restored solves precondition on the moved mesh.
        motion_amp: 0.02,
        ..Default::default()
    }
}

fn psi_field(x: [f64; 3]) -> [f64; 3] {
    let pi = std::f64::consts::PI;
    let (sx, cx) = (pi * x[0]).sin_cos();
    let (sy, cy) = (pi * x[1]).sin_cos();
    let gz = (pi * x[2]).sin().powi(2);
    [2.0 * pi * sx * sx * sy * cy * gz, -2.0 * pi * sx * cx * sy * sy * gz, 0.0]
}

fn partition_for(mesh: &Mesh3d, p: usize) -> Vec<u8> {
    let g = Graph::from_edges(mesh.nelems(), &mesh.dual_edges());
    partition_kway(&g, p, &PartitionOptions::default())
}

prop_check! {
    #![cases(3)]

    /// Serial 2-D solver: checkpoint at step `kill` (which lands inside
    /// the BDF ramp for small `kill`), restore into a FRESH solver, and
    /// the state hash matches the uninterrupted run at every step.
    fn serial2d_restore_is_bitwise(kill in 1usize..5) {
        const NSTEPS: usize = 5;
        let dir = fresh_dir("s2d");
        let cfg = CkptConfig::new(&dir, "prop_s2d", None);

        // Uninterrupted reference: hash after every step.
        let mut reference = serial_solver();
        let ref_hashes: Vec<u64> = (0..NSTEPS)
            .map(|_| {
                reference.step();
                reference.state_hash()
            })
            .collect();

        // Interrupted run: step to `kill`, checkpoint, "crash".
        let mut victim = serial_solver();
        for _ in 0..kill {
            victim.step();
        }
        write_epoch_on(None, &cfg, kill, &victim).expect("serial write_epoch_on");
        drop(victim);

        // Restore into a fresh solver and continue.
        let mut restored = serial_solver();
        let info = restore_latest_on(None, &cfg, &mut restored).expect("serial restore_latest_on");
        prop_assert_eq!(info.step, kill as u64);
        prop_assert!(!info.fell_back, "single-epoch restore must not fall back");
        prop_assert_eq!(restored.state_hash(), ref_hashes[kill - 1],
            "hash diverges at the restore point (kill={kill})");
        for step in kill..NSTEPS {
            restored.step();
            prop_assert_eq!(restored.state_hash(), ref_hashes[step],
                "hash diverges at step {} after restoring from {kill}", step + 1);
        }
        prop_assert!(shard_bytes(&restored) == shard_bytes(&reference),
            "the resumed run's checkpoint bytes differ at the last step (kill={kill})");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// NekTar-F at np ∈ {1, 2, 4}: the coordinated epoch (quiesce →
    /// per-rank shard → manifest) restores every rank's mode block
    /// bitwise, and all subsequent steps hash identically per rank.
    fn fourier_restore_is_bitwise(np in one_of(&[1usize, 2, 4]), kill in 1usize..4) {
        const NSTEPS: usize = 4;
        let dir = fresh_dir("fou");
        let cfg = CkptConfig::new(&dir, "prop_fou", None);
        let mesh = rect_quads(0.0, 1.0, 0.0, 1.0, 2, 2);

        // Reference: per-rank hash vectors of the uninterrupted run.
        let reference: Vec<(Vec<u64>, Vec<u8>)> = run(np, net(), |c| {
            let mut s = NektarF::new(c, &mesh, fourier_cfg());
            s.set_initial(fourier_init);
            let hashes = (0..NSTEPS)
                .map(|_| {
                    s.step(c);
                    s.state_hash()
                })
                .collect();
            (hashes, shard_bytes(&s))
        });

        // Interrupted: step to `kill`, write the coordinated epoch.
        run(np, net(), |c| {
            let mut s = NektarF::new(c, &mesh, fourier_cfg());
            s.set_initial(fourier_init);
            for _ in 0..kill {
                s.step(c);
            }
            write_epoch_on(Some(c), &cfg, kill, &s).expect("write_epoch");
        });

        // Restored world: fresh solvers, restore, continue, hash.
        let got: Vec<(u64, bool, Vec<u64>, Vec<u8>)> = run(np, net(), |c| {
            let mut s = NektarF::new(c, &mesh, fourier_cfg());
            let info = restore_latest_on(Some(c), &cfg, &mut s).expect("restore_latest");
            let mut hashes = vec![s.state_hash()];
            for _ in kill..NSTEPS {
                s.step(c);
                hashes.push(s.state_hash());
            }
            (info.step, info.fell_back, hashes, shard_bytes(&s))
        });

        for (rank, (step, fell_back, hashes, bytes)) in got.iter().enumerate() {
            let (ref_hashes, ref_bytes) = &reference[rank];
            prop_assert_eq!(*step, kill as u64, "rank {rank} restored wrong epoch");
            prop_assert!(!*fell_back, "rank {rank} fell back with only one epoch on disk");
            prop_assert_eq!(hashes[0], ref_hashes[kill - 1],
                "np={np} rank {rank}: hash diverges at the restore point");
            for (i, step_idx) in (kill..NSTEPS).enumerate() {
                prop_assert_eq!(hashes[i + 1], ref_hashes[step_idx],
                    "np={np} rank {rank}: hash diverges at step {}", step_idx + 1);
            }
            prop_assert!(bytes == ref_bytes,
                "np={np} rank {rank}: the resumed run's checkpoint bytes differ at the last step");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// NekTar-ALE with a moving mesh (`motion_amp` ≠ 0) on 2 ranks: the
    /// checkpoint carries vertex positions, operator scales, and mesh
    /// history; the generic `restore_latest_on` leaves nothing to rebuild
    /// (each solve builds its preconditioner's diagonal from the restored
    /// mesh); the continued run hashes identically to the uninterrupted
    /// one.
    fn ale_restore_is_bitwise(kill in 1usize..3) {
        const NSTEPS: usize = 3;
        const P: usize = 2;
        let dir = fresh_dir("ale");
        let cfg = CkptConfig::new(&dir, "prop_ale", None);
        let mesh = mesh3d();
        let part = partition_for(&mesh, P);

        let reference: Vec<(Vec<u64>, Vec<u8>)> = run(P, net(), |c| {
            let mut s = NektarAle::new(c, mesh.clone(), &part, ale_cfg());
            s.set_initial(c, psi_field);
            let hashes = (0..NSTEPS)
                .map(|_| {
                    s.step(c);
                    s.state_hash()
                })
                .collect();
            (hashes, shard_bytes(&s))
        });

        run(P, net(), |c| {
            let mut s = NektarAle::new(c, mesh.clone(), &part, ale_cfg());
            s.set_initial(c, psi_field);
            for _ in 0..kill {
                s.step(c);
            }
            write_epoch_on(Some(c), &cfg, kill, &s).expect("write_epoch");
        });

        let got: Vec<(u64, Vec<u64>, Vec<u8>)> = run(P, net(), |c| {
            let mut s = NektarAle::new(c, mesh.clone(), &part, ale_cfg());
            let info = restore_latest_on(Some(c), &cfg, &mut s).expect("restore_latest");
            let mut hashes = vec![s.state_hash()];
            for _ in kill..NSTEPS {
                s.step(c);
                hashes.push(s.state_hash());
            }
            (info.step, hashes, shard_bytes(&s))
        });

        for (rank, (step, hashes, bytes)) in got.iter().enumerate() {
            let (ref_hashes, ref_bytes) = &reference[rank];
            prop_assert_eq!(*step, kill as u64, "rank {rank} restored wrong epoch");
            prop_assert_eq!(hashes[0], ref_hashes[kill - 1],
                "rank {rank}: hash diverges at the restore point (kill={kill})");
            for (i, step_idx) in (kill..NSTEPS).enumerate() {
                prop_assert_eq!(hashes[i + 1], ref_hashes[step_idx],
                    "rank {rank}: hash diverges at step {}", step_idx + 1);
            }
            prop_assert!(bytes == ref_bytes,
                "rank {rank}: the resumed run's checkpoint bytes differ at the last step");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Restoring into a solver built with a DIFFERENT discretisation is a
/// typed `StateMismatch`, never a panic or a silently wrong state: the
/// "fields" section's leading dof-count guard catches it.
#[test]
fn serial2d_restore_into_wrong_discretisation_is_typed_error() {
    let dir = fresh_dir("s2d_wrong");
    let cfg = CkptConfig::new(&dir, "wrong_disc", None);
    let mut donor = serial_solver();
    donor.step();
    write_epoch_on(None, &cfg, 1, &donor).expect("write");

    // Same mesh, higher order: different ndof.
    let scfg = SolverConfig { order: 6, dt: 2e-3, nu: 0.05, scheme_order: 2, advect: true };
    let mut other = Serial2dSolver::new(mesh2d(), scfg, |_| 0.0, |_| 0.0);
    let err = restore_latest_on(None, &cfg, &mut other)
        .expect_err("dof mismatch must be detected");
    assert!(
        matches!(err, nkt_ckpt::CkptError::StateMismatch { .. }),
        "expected StateMismatch, got: {err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The bytes `solver`'s checkpoint shard holds: a pure function of its
/// state, so a resumed run and the uninterrupted one write the same file.
fn shard_bytes(solver: &impl Checkpointable) -> Vec<u8> {
    let mut w = CkptWriter::new();
    solver.write_sections(&mut w);
    w.to_bytes()
}

/// `solver`'s own payload of section `name`.
fn own_section(solver: &impl Checkpointable, name: &str) -> Vec<u8> {
    let mut w = CkptWriter::new();
    solver.write_sections(&mut w);
    let payload = w.sections().find(|(n, _)| *n == name).expect("a section of that name").1;
    payload.to_vec()
}

/// `donor`'s shard with `sections` in place of its own.
fn shard_with(donor: &impl Checkpointable, sections: &[(&str, Vec<u8>)]) -> CkptFile {
    let mut own = CkptWriter::new();
    donor.write_sections(&mut own);
    let mut w = CkptWriter::new();
    for (name, payload) in own.sections() {
        let replaced = sections.iter().find(|(n, _)| *n == name);
        w.section(name, replaced.map_or_else(|| payload.to_vec(), |(_, bytes)| bytes.clone()));
    }
    CkptFile::parse(std::path::Path::new("hand-built"), w.to_bytes()).expect("well-formed")
}

/// The "hist" section of a 2-D solver, decoded and re-encoded by hand:
/// twice over (velocity, nonlinear terms), a level count and per level a
/// mode count and `per_mode` length-prefixed planes a mode.
#[derive(Clone)]
struct Hist {
    rings: [Vec<(u64, Vec<Vec<f64>>)>; 2],
}

impl Hist {
    fn of(solver: &impl Checkpointable, per_mode: usize) -> Hist {
        let payload = own_section(solver, "hist");
        let mut d = Dec::new("hist", 0, &payload);
        let rings = [(); 2].map(|_| {
            let nlevels = d.u64().unwrap();
            let level = |d: &mut Dec| {
                let nmodes = d.u64().unwrap();
                (nmodes, (0..nmodes as usize * per_mode).map(|_| d.f64s().unwrap()).collect())
            };
            (0..nlevels).map(|_| level(&mut d)).collect()
        });
        d.finish().unwrap();
        let hist = Hist { rings };
        assert_eq!(hist.bytes(), payload, "the bytes `hist` has");
        hist
    }

    fn bytes(&self) -> Vec<u8> {
        let mut e = Enc::new();
        for ring in &self.rings {
            e.usize(ring.len());
            for (nmodes, planes) in ring {
                e.u64(*nmodes);
                for plane in planes {
                    e.f64s(plane);
                }
            }
        }
        e.into_bytes()
    }
}

/// The "fields" section of a serial2d shard, decoded and re-encoded by
/// hand in the layout the format has always had: the dof count and five
/// length-prefixed vectors (u, v, p, ud_u, ud_v). Its "hist" section is a
/// [`Hist`] of two planes (u, v) a mode.
#[derive(Clone)]
struct SerialSections {
    ndof: u64,
    fields: Vec<Vec<f64>>,
    hist: Hist,
}

impl SerialSections {
    fn of(solver: &Serial2dSolver) -> SerialSections {
        let payload = own_section(solver, "fields");
        let mut d = Dec::new("fields", 0, &payload);
        let ndof = d.u64().unwrap();
        let fields = (0..5).map(|_| d.f64s().unwrap()).collect();
        d.finish().unwrap();
        let sections = SerialSections { ndof, fields, hist: Hist::of(solver, 2) };
        assert_eq!(sections.fields_bytes(), payload, "the bytes `fields` has always had");
        sections
    }

    fn fields_bytes(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.u64(self.ndof);
        for f in &self.fields {
            e.f64s(f);
        }
        e.into_bytes()
    }

    /// `donor`'s shard with these two sections in place of its own.
    fn file(&self, donor: &Serial2dSolver) -> CkptFile {
        shard_with(donor, &[("fields", self.fields_bytes()), ("hist", self.hist.bytes())])
    }
}

/// A shard built by hand in the format's layout restores to the donor's
/// state and continuation: what the solver writes is still that layout.
#[test]
fn serial2d_restores_hand_built_sections() {
    let mut donor = serial_solver();
    donor.step();
    donor.step();
    let file = SerialSections::of(&donor).file(&donor);
    let mut restored = serial_solver();
    restored.read_sections(&file).expect("hand-built shard");
    assert_eq!(restored.state_hash(), donor.state_hash());
    donor.step();
    restored.step();
    assert_eq!(restored.state_hash(), donor.state_hash(), "one step on");
}

/// A CRC-valid shard whose vectors, history depth, mode count or planes
/// are not this solver's shape is a typed `StateMismatch` — not a panic on
/// an index inside the next step.
#[test]
fn serial2d_restore_checks_every_shape_it_will_index() {
    let mut donor = serial_solver();
    donor.step();
    donor.step();
    let good = SerialSections::of(&donor);
    type Tamper = fn(&mut SerialSections);
    let cases: [(&str, Tamper); 10] = [
        ("u short", |s| s.fields[0].truncate(3)),
        ("v long", |s| s.fields[1].push(0.0)),
        ("p neither empty nor ndof", |s| s.fields[2].truncate(3)),
        ("ud_u short", |s| s.fields[3].truncate(3)),
        ("ud_v empty", |s| s.fields[4].clear()),
        ("more levels than the scheme keeps", |s| {
            for ring in &mut s.hist.rings {
                let newest = ring[0].clone();
                ring.push(newest);
            }
        }),
        ("velocity and nonlinear rings differ", |s| s.hist.rings[1].truncate(1)),
        ("a mode too many", |s| s.hist.rings[0][1].0 = 2),
        ("a velocity plane too short", |s| s.hist.rings[0][0].1[1].truncate(3)),
        ("a nonlinear plane too long", |s| s.hist.rings[1][1].1[0].push(0.0)),
    ];
    for (what, tamper) in cases {
        let mut bad = good.clone();
        tamper(&mut bad);
        let err = serial_solver().read_sections(&bad.file(&donor)).expect_err(what);
        assert!(matches!(err, CkptError::StateMismatch { .. }), "{what}: {err}");
    }
}

/// A "fields" payload of `guards` counts and then `vectors`
/// length-prefixed vectors, with its first vector one value short.
fn fields_with_first_vector_short(fields: &[u8], guards: usize, vectors: usize) -> Vec<u8> {
    let mut d = Dec::new("fields", 0, fields);
    let mut e = Enc::new();
    for _ in 0..guards {
        e.u64(d.u64().unwrap());
    }
    for i in 0..vectors {
        let mut v = d.f64s().unwrap();
        if i == 0 {
            v.pop();
        }
        e.f64s(&v);
    }
    d.finish().unwrap();
    e.into_bytes()
}

/// A NekTar-F shard whose history is deeper than the scheme keeps, whose
/// two rings differ in depth, or whose first mode coefficients are short
/// is a typed `StateMismatch`: a step would weight levels its scheme has
/// no coefficients for, or index past a mode's end.
#[test]
fn fourier_restore_checks_the_history_depth() {
    run(1, net(), |c| {
        let mesh = rect_quads(0.0, 1.0, 0.0, 1.0, 2, 2);
        let mut donor = NektarF::new(c, &mesh, fourier_cfg());
        donor.set_initial(fourier_init);
        donor.step(c);
        donor.step(c);
        let good = Hist::of(&donor, 6);
        let mut restored = NektarF::new(c, &mesh, fourier_cfg());
        restored.read_sections(&shard_with(&donor, &[("hist", good.bytes())])).expect("own");
        assert_eq!(restored.state_hash(), donor.state_hash());
        type Tamper = fn(&mut Hist);
        let cases: [(&str, Tamper); 2] = [
            ("more levels than the scheme keeps", |h| {
                for ring in &mut h.rings {
                    let newest = ring[0].clone();
                    ring.push(newest);
                }
            }),
            ("rings differ", |h| h.rings[1].truncate(1)),
        ];
        let mut shards: Vec<(&str, CkptFile)> = Vec::new();
        for (what, tamper) in cases {
            let mut bad = good.clone();
            tamper(&mut bad);
            shards.push((what, shard_with(&donor, &[("hist", bad.bytes())])));
        }
        // Four layout guards, then a cos and a sin vector per component
        // per mode.
        let fields = own_section(&donor, "fields");
        let fields = fields_with_first_vector_short(&fields, 4, 6 * donor.fields.len());
        shards.push(("a mode's coefficients short", shard_with(&donor, &[("fields", fields)])));
        for (what, file) in shards {
            let err = NektarF::new(c, &mesh, fourier_cfg()).read_sections(&file).expect_err(what);
            assert!(matches!(err, CkptError::StateMismatch { .. }), "{what}: {err}");
        }
    });
}


/// A CRC-valid NekTar-ALE shard whose history is deeper than the scheme
/// keeps, whose rings differ in depth, whose history level is short or
/// whose velocity is short is a typed `StateMismatch` — not a ring the
/// scheme cannot weight, nor a panic on an index inside the next step.
#[test]
fn ale_restore_checks_every_shape() {
    let mesh = mesh3d();
    let part = partition_for(&mesh, 1);
    run(1, net(), |c| {
        let mut donor = NektarAle::new(c, mesh.clone(), &part, ale_cfg());
        donor.set_initial(c, psi_field);
        donor.step(c);
        donor.step(c);
        let good = Hist::of(&donor, 3);
        let mut restored = NektarAle::new(c, mesh.clone(), &part, ale_cfg());
        restored.read_sections(&shard_with(&donor, &[("hist", good.bytes())])).expect("own");
        assert_eq!(restored.state_hash(), donor.state_hash());
        type Tamper = fn(&mut Hist);
        let cases: [(&str, Tamper); 3] = [
            ("more levels than the scheme keeps", |h| {
                for ring in &mut h.rings {
                    let newest = ring[0].clone();
                    ring.push(newest);
                }
            }),
            ("rings differ", |h| h.rings[1].truncate(1)),
            ("a history level short", |h| h.rings[0][1].1[2].truncate(3)),
        ];
        let mut shards: Vec<(&str, CkptFile)> = Vec::new();
        for (what, tamper) in cases {
            let mut bad = good.clone();
            tamper(&mut bad);
            shards.push((what, shard_with(&donor, &[("hist", bad.bytes())])));
        }
        // The two dof counts, then u (three components) and p.
        let fields = fields_with_first_vector_short(&own_section(&donor, "fields"), 2, 4);
        shards.push(("u short", shard_with(&donor, &[("fields", fields)])));
        for (what, file) in shards {
            let mut solver = NektarAle::new(c, mesh.clone(), &part, ale_cfg());
            let err = solver.read_sections(&file).expect_err(what);
            assert!(matches!(err, CkptError::StateMismatch { .. }), "{what}: {err}");
        }
    });
}
