//! [`TandemMut`]: one shard holding two [`Checkpointable`]s — a solver
//! plus a rider (the `nkt-stats` recorder) — so statistics survive
//! restart in the *same* atomic commit as the state they describe.
//!
//! Snapshotting solver and statistics as separate epochs would open a
//! window where one commits and the other does not; on restore the
//! accumulators would double-count (or miss) the steps in between and
//! the "statistics survive restart bitwise" contract breaks. A tandem
//! shard removes the window: either both sections land or neither does.
//!
//! The rider's sections ride along under its own names (conventionally
//! `stats.`-prefixed), identity metadata (kind, epoch/step) delegates to
//! the main state, and a shard written *without* a rider restores
//! cleanly into a tandem whose rider tolerates missing sections — the
//! rider simply resets, which is the right behaviour when sampling was
//! off during the original run.

use crate::error::CkptError;
use crate::format::{CkptFile, CkptWriter};
use crate::traits::Checkpointable;

/// Two checkpointables in one shard, for both the write and the restore
/// path: `main` owns the identity (kind, step), `rider` contributes
/// extra sections.
pub struct TandemMut<'a> {
    /// The solver state; its `kind()`/`ckpt_step()` name the shard.
    pub main: &'a mut dyn Checkpointable,
    /// The rider (e.g. a statistics recorder); sections must not collide
    /// with the main state's.
    pub rider: &'a mut dyn Checkpointable,
}

impl Checkpointable for TandemMut<'_> {
    fn kind(&self) -> &'static str {
        self.main.kind()
    }
    fn write_sections(&self, w: &mut CkptWriter) {
        self.main.write_sections(w);
        self.rider.write_sections(w);
    }
    fn read_sections(&mut self, f: &CkptFile) -> Result<(), CkptError> {
        self.main.read_sections(f)?;
        self.rider.read_sections(f)
    }
    fn ckpt_step(&self) -> u64 {
        self.main.ckpt_step()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{Dec, Enc};

    struct Solver {
        x: Vec<f64>,
        steps: u64,
    }

    impl Checkpointable for Solver {
        fn kind(&self) -> &'static str {
            "toy"
        }
        fn write_sections(&self, w: &mut CkptWriter) {
            let mut e = Enc::new();
            e.f64s(&self.x);
            e.u64(self.steps);
            w.section("fields", e.into_bytes());
        }
        fn read_sections(&mut self, f: &CkptFile) -> Result<(), CkptError> {
            let mut d = f.dec("fields")?;
            self.x = d.f64s()?;
            self.steps = d.u64()?;
            d.finish()
        }
        fn ckpt_step(&self) -> u64 {
            self.steps
        }
    }

    struct Rider {
        count: u64,
    }

    impl Checkpointable for Rider {
        fn kind(&self) -> &'static str {
            "stats"
        }
        fn write_sections(&self, w: &mut CkptWriter) {
            let mut e = Enc::new();
            e.u64(self.count);
            w.section("stats.accum", e.into_bytes());
        }
        fn read_sections(&mut self, f: &CkptFile) -> Result<(), CkptError> {
            // Tolerate shards written without a rider: reset.
            match f.dec("stats.accum") {
                Ok(mut d) => {
                    self.count = d.u64()?;
                    d.finish()
                }
                Err(_) => {
                    self.count = 0;
                    Ok(())
                }
            }
        }
        fn ckpt_step(&self) -> u64 {
            0
        }
    }

    fn roundtrip(w: CkptWriter) -> CkptFile {
        CkptFile::parse(std::path::Path::new("mem"), w.to_bytes()).unwrap()
    }

    #[test]
    fn tandem_roundtrips_both_sections() {
        let mut solver = Solver { x: vec![1.5, 2.5], steps: 7 };
        let mut rider = Rider { count: 42 };
        let t = TandemMut { main: &mut solver, rider: &mut rider };
        assert_eq!(t.kind(), "toy");
        assert_eq!(t.ckpt_step(), 7);
        let mut w = CkptWriter::new();
        t.write_sections(&mut w);
        let f = roundtrip(w);
        let mut s2 = Solver { x: vec![], steps: 0 };
        let mut r2 = Rider { count: 0 };
        let mut tm = TandemMut { main: &mut s2, rider: &mut r2 };
        tm.read_sections(&f).unwrap();
        assert_eq!(s2.x, vec![1.5, 2.5]);
        assert_eq!(s2.steps, 7);
        assert_eq!(r2.count, 42);
    }

    #[test]
    fn riderless_shard_resets_the_rider() {
        let solver = Solver { x: vec![9.0], steps: 3 };
        let mut w = CkptWriter::new();
        solver.write_sections(&mut w); // no rider sections
        let f = roundtrip(w);
        let mut s2 = Solver { x: vec![], steps: 0 };
        let mut r2 = Rider { count: 99 };
        let mut tm = TandemMut { main: &mut s2, rider: &mut r2 };
        tm.read_sections(&f).unwrap();
        assert_eq!(s2.steps, 3);
        assert_eq!(r2.count, 0, "missing rider section must reset, not error");
        let _ = Dec::new("unused", 0, &[]);
    }

    #[test]
    fn tandem_hash_covers_rider_state() {
        let mut solver = Solver { x: vec![1.0], steps: 1 };
        let a = TandemMut { main: &mut solver, rider: &mut Rider { count: 1 } }.state_hash();
        let b = TandemMut { main: &mut solver, rider: &mut Rider { count: 2 } }.state_hash();
        assert_ne!(a, b);
    }
}
