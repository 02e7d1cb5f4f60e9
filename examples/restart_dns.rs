//! Kill-and-restart drill for the coordinated checkpoint subsystem
//! (`nkt-ckpt`): runs the Fourier-parallel DNS, murders it mid-flight
//! with an injected panic, restores from the newest checkpoint epoch and
//! verifies — hash by hash — that the restarted run is **bitwise
//! identical** to one that was never interrupted. Then it corrupts a
//! shard on disk and shows the CRC catching it and the restore falling
//! back to the previous epoch.
//!
//! ```sh
//! cargo run --release --example restart_dns
//! # optional: NKT_CKPT_DIR=/somewhere NKT_CKPT_EVERY=2 (defaults:
//! # results/, 2); the drill clears its own CKPT_restart_dns_* files
//! ```

use std::panic::{catch_unwind, AssertUnwindSafe};

use nektar_repro::ckpt::{Checkpointable, CkptConfig};
use nektar_repro::mpi::prelude::*;
use nektar_repro::nektar::drive::cases;
use nektar_repro::nektar::fourier::NektarF;
use nektar_repro::net::{cluster, NetId};
use nektar_repro::observe;
use nektar_repro::trace::config::RunConfig;

const P: usize = 2;
const NSTEPS: usize = 6;
const KILL_AT: usize = 5;

fn world(cfg: &RunConfig) -> WorldBuilder {
    observe::world(cfg).ranks(P).net(cluster(NetId::RoadRunnerMyr))
}

fn fresh_solver(c: &mut Comm) -> NektarF {
    cases::fourier(c, 8, None).expect("2 ranks fit the 8-plane demo")
}

/// Per-rank record of one run: (step, state hash) after every step, plus
/// the final kinetic energy bits.
type RankLog = (Vec<(usize, u64)>, u64);

/// Uninterrupted reference: step 1..=NSTEPS, hash after each.
fn reference_run(cfg: &RunConfig) -> Vec<RankLog> {
    world(cfg).run(|c| {
        let mut s = fresh_solver(c);
        let mut hashes = Vec::new();
        for step in 1..=NSTEPS {
            s.step(c);
            hashes.push((step, s.state_hash()));
        }
        (hashes, s.kinetic_energy(c).to_bits())
    })
}

/// Interrupted run: checkpoints on the configured cadence, rank 1 panics
/// after step KILL_AT. Returns the panic payload message.
fn interrupted_run(cfg: &RunConfig, ckpt: &CkptConfig) -> String {
    let prev_hook = std::panic::take_hook();
    // The injected panic (and the peer ranks it poisons) would spray
    // backtraces over the demo output; silence the hook for this phase.
    std::panic::set_hook(Box::new(|_| {}));
    let result = catch_unwind(AssertUnwindSafe(|| {
        world(cfg).run(|c| {
            let mut s = fresh_solver(c);
            for step in 1..=NSTEPS {
                s.step(c);
                if ckpt.should(step) {
                    nektar_repro::ckpt::write_epoch_on(Some(c), ckpt, step, &s)
                        .expect("checkpoint write");
                }
                if step == KILL_AT && c.rank() == 1 {
                    panic!("injected node failure at step {step}");
                }
            }
        })
    }));
    std::panic::set_hook(prev_hook);
    let payload = result.expect_err("the injected panic must abort the run");
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "<non-string panic>".to_string())
}

/// Restore from the newest valid epoch and continue to NSTEPS, hashing
/// each step.
fn restored_run(cfg: &RunConfig, ckpt: &CkptConfig) -> Vec<(RankLog, u64, bool)> {
    world(cfg).run(|c| {
        let mut s = fresh_solver(c);
        let info = nektar_repro::ckpt::restore_latest_on(Some(c), ckpt, &mut s)
            .expect("restore from checkpoint");
        let mut hashes = vec![(info.step as usize, s.state_hash())];
        for step in (info.step as usize + 1)..=NSTEPS {
            s.step(c);
            hashes.push((step, s.state_hash()));
        }
        ((hashes, s.kinetic_energy(c).to_bits()), info.epoch, info.fell_back)
    })
}

/// Asserts that every (step, hash) pair the restarted run produced
/// matches the reference run's pair for the same step, on every rank.
/// (The restore-point hash itself is checked too: index 0 of the
/// restarted log is the state as read back from disk.)
fn check_against_reference(reference: &[RankLog], restarted: &[(RankLog, u64, bool)]) {
    for (rank, ((hashes, energy), _, _)) in restarted.iter().enumerate() {
        let (ref_hashes, ref_energy) = &reference[rank];
        for &(step, h) in hashes {
            let &(_, ref_h) = ref_hashes
                .iter()
                .find(|(s, _)| *s == step)
                .expect("reference covers every step");
            assert_eq!(
                h, ref_h,
                "rank {rank} step {step}: restarted hash {h:#018x} != reference {ref_h:#018x}"
            );
        }
        assert_eq!(energy, ref_energy, "rank {rank}: final kinetic energy bits differ");
    }
}

/// Removes every epoch of this drill from the checkpoint directory.
fn clear(ckpt: &CkptConfig) {
    for epoch in ckpt.list_epochs() {
        ckpt.remove_epoch(epoch, P);
    }
}

fn main() {
    // Cadence and directory come from NKT_CKPT_EVERY / NKT_CKPT_DIR like
    // every other run; the drill needs *some* cadence, so default to 2.
    let cfg = RunConfig::init_from_env();
    let every = cfg.ckpt_every.unwrap_or(2);
    let ckpt = CkptConfig::new(cfg.ckpt_dir(), "restart_dns", Some(every));
    clear(&ckpt);

    println!("== restart_dns: {P} ranks, {NSTEPS} steps, checkpoint every {every} ==");
    println!("   checkpoint dir: {}", ckpt.dir.display());

    println!("\n[1/4] uninterrupted reference run");
    let reference = reference_run(&cfg);

    println!("[2/4] interrupted run: rank 1 dies after step {KILL_AT}");
    let msg = interrupted_run(&cfg, &ckpt);
    println!("      run aborted as intended: {msg}");

    println!("[3/4] restore + continue");
    let restarted = restored_run(&cfg, &ckpt);
    let epoch = restarted[0].1;
    assert!(!restarted[0].2, "newest epoch must be valid before corruption");
    check_against_reference(&reference, &restarted);
    println!(
        "      resumed from epoch {epoch}, steps {}..{NSTEPS} bitwise-identical to reference",
        epoch + 1
    );

    println!("[4/4] corruption drill: bit-flip rank 1's epoch-{epoch} shard");
    let victim = ckpt.shard_path(epoch, 1);
    let mut bytes = std::fs::read(&victim).expect("read victim shard");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&victim, &bytes).expect("rewrite victim shard");
    let fallback = restored_run(&cfg, &ckpt);
    let fb_epoch = fallback[0].1;
    assert!(fallback[0].2, "restore must report falling back past the corrupt epoch");
    assert!(fb_epoch < epoch, "fallback epoch {fb_epoch} must predate corrupt epoch {epoch}");
    check_against_reference(&reference, &fallback);
    println!(
        "      CRC caught the corruption; fell back to epoch {fb_epoch}, \
         steps {}..{NSTEPS} still bitwise-identical",
        fb_epoch + 1
    );

    println!("\nall checks passed: kill → restore → bitwise-identical continuation");
    clear(&ckpt);
}
