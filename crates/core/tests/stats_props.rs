//! Statistics-pipeline properties under drawn parameters: Parseval
//! (the spanwise spectrum sums to the total kinetic energy) on both the
//! slab and a 4×2 pencil decomposition, and the NaN watchdog tripping
//! deterministically at whatever step the poison lands — the typed
//! error names exactly that step on every rank, and every rank's
//! flight-recorder ring dumps to disk.

use nektar::fourier::{FourierConfig, NektarF};
use nektar::drive::Simulation;
use nektar::stats::{sample, FOURIER_CHANNELS};
use nkt_mesh::rect_quads;
use nkt_mpi::prelude::*;
use nkt_net::{cluster, ClusterNetwork, NetId};
use nkt_stats::{HealthError, RuleLimits, StatsRecorder};
use nkt_testkit::{one_of, prop_assert, prop_assert_eq, prop_check};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

fn net() -> ClusterNetwork {
    cluster(NetId::RoadRunnerMyr)
}

fn run<R: Send, F: Fn(&mut Comm) -> R + Sync>(p: usize, f: F) -> Vec<R> {
    World::builder().ranks(p).net(net()).run(f)
}

fn cfg(nz: usize) -> FourierConfig {
    FourierConfig {
        order: 3,
        dt: 1e-3,
        nu: 0.05,
        nz,
        lz: 2.0 * std::f64::consts::PI,
        scheme_order: 2,
    }
}

fn fresh_dir(label: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::SeqCst);
    std::env::temp_dir().join(format!("nkt_statsprops_{label}_{}_{n}", std::process::id()))
}

/// One step from a drawn initial field, then `(sum of spectrum, KE)`
/// per rank on an explicit `pr × pc` grid.
fn spectrum_vs_ke(pr: usize, pc: usize, nz: usize, amp: f64, kz: f64) -> Vec<(f64, f64)> {
    let mesh = rect_quads(0.0, 1.0, 0.0, 1.0, 2, 2);
    run(pr * pc, move |c| {
        let mut s = NektarF::try_new_with_grid(c, &mesh, cfg(nz), pr, pc)
            .unwrap_or_else(|e| panic!("grid {pr}x{pc}: {e}"));
        let pi = std::f64::consts::PI;
        s.set_initial(move |x| {
            let m = 1.0 + 0.4 * (kz * x[2]).cos();
            [
                amp * (pi * x[0]).sin() * (pi * x[1]).cos() * m,
                -amp * (pi * x[0]).cos() * (pi * x[1]).sin() * m,
                0.3 * amp * (kz * x[2]).sin(),
            ]
        });
        s.step(c);
        let spec: f64 = s.probe(c).spectrum.iter().sum();
        (spec, s.kinetic_energy(c))
    })
}

prop_check! {
    #![cases(6)]

    fn parseval_holds_on_slab_and_pencil(
        amp in 0.2f64..1.5,
        kz in one_of(&[1.0f64, 2.0, 3.0]),
    ) {
        // Slab on 2 ranks and a 4×2 pencil grid (8 ranks) of the same
        // problem: in both layouts the mode energies must sum to the
        // volume-integrated kinetic energy, and the two layouts must
        // agree with each other.
        let slab = spectrum_vs_ke(2, 1, 16, amp, kz);
        let pencil = spectrum_vs_ke(4, 2, 16, amp, kz);
        for (who, ranks) in [("slab", &slab), ("pencil", &pencil)] {
            for (r, (spec, ke)) in ranks.iter().enumerate() {
                prop_assert!(
                    (spec - ke).abs() <= 1e-9 * (1.0 + ke),
                    "{who} rank {r}: spectrum sum {spec} != KE {ke}"
                );
            }
        }
        let (_, ke_slab) = slab[0];
        let (_, ke_pencil) = pencil[0];
        prop_assert!(
            (ke_slab - ke_pencil).abs() <= 1e-9 * (1.0 + ke_slab),
            "slab KE {ke_slab} vs pencil KE {ke_pencil}"
        );
    }

    fn watchdog_trips_at_the_drawn_step(trip in 1u64..5) {
        let dir = fresh_dir("trip");
        let dir_in = dir.clone();
        let mesh = rect_quads(0.0, 1.0, 0.0, 1.0, 2, 2);
        let out = run(2, move |c| {
            let mut s = NektarF::new(c, &mesh, cfg(8));
            let pi = std::f64::consts::PI;
            s.set_initial(|x| {
                [(pi * x[0]).sin() * (pi * x[1]).cos(), 0.0, 0.1 * x[2].sin()]
            });
            let mut rec = StatsRecorder::new(FOURIER_CHANNELS.to_vec(), 1, c.size());
            rec.rebaseline(c);
            let limits = RuleLimits::default();
            for step in 1u64..=5 {
                s.step(c);
                if step == trip && c.rank() == 0 {
                    s.fields[0][1].a[0] = f64::NAN;
                }
                if let Err(e) = sample(&mut s, c, &mut rec, step, &limits, true) {
                    // The sampler's own dump is gated on a run name (not
                    // set under tests); dump this rank's ring explicitly
                    // where the property can see it.
                    let path = nkt_trace::flight::dump_current_to(
                        &dir_in,
                        c.rank(),
                        &e.to_string(),
                    );
                    return Err((e, path));
                }
            }
            Ok(())
        });
        for (rank, r) in out.iter().enumerate() {
            let (err, path) = r.as_ref().expect_err("watchdog must trip");
            prop_assert_eq!(
                err,
                &HealthError::NonFinite { step: trip, rank: 0, field: "v" },
                "rank {} saw {:?}",
                rank,
                err
            );
            let path = path.as_ref().expect("flight dump path");
            prop_assert!(path.is_file(), "missing flight dump {}", path.display());
            let body = std::fs::read_to_string(path).expect("read flight dump");
            prop_assert!(body.contains("nkt-flight-1"), "rank {rank}: bad dump schema");
            prop_assert!(
                body.contains(&format!("at step {trip}")),
                "rank {rank}: dump reason does not name step {trip}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
