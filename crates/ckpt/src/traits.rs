//! The [`Checkpointable`] contract solvers implement, plus the shared
//! deterministic state digest used by the restart-equivalence tests.

use crate::error::CkptError;
use crate::format::{CkptFile, CkptWriter};

/// A solver state machine that can snapshot itself into checkpoint
/// sections and rebuild itself from them.
///
/// The contract is **bitwise** fidelity: after `read_sections` from a
/// file produced by `write_sections`, every subsequent step must produce
/// bit-identical state to the run that was never interrupted.
pub trait Checkpointable {
    /// Short stable tag (`"serial2d"`, `"fourier"`, `"ale"`) recorded in
    /// shard metadata so a restore into the wrong solver kind fails with
    /// [`CkptError::StateMismatch`] instead of garbage.
    fn kind(&self) -> &'static str;

    /// Appends this state's sections to `w`.
    fn write_sections(&self, w: &mut CkptWriter);

    /// Rebuilds state from `f`'s sections. Must validate shape guards
    /// (dof counts, rank layout) against `self` and return
    /// [`CkptError::StateMismatch`] on disagreement; must never panic on
    /// malformed input.
    fn read_sections(&mut self, f: &CkptFile) -> Result<(), CkptError>;

    /// Step counter as of this state (doubles as the checkpoint epoch).
    fn ckpt_step(&self) -> u64;

    /// Deterministic digest of the numerical state: FNV-1a over every
    /// section's name, length and payload. Two states hash equal iff their
    /// persisted content is byte-identical — the yardstick the
    /// interrupted-vs-uninterrupted property tests compare step by step.
    fn state_hash(&self) -> u64 {
        let mut w = CkptWriter::new();
        self.write_sections(&mut w);
        let mut h = Fnv1a::new();
        for (name, payload) in w.sections() {
            h.update(name.as_bytes());
            h.update(&(payload.len() as u64).to_le_bytes());
            h.update(payload);
        }
        h.finish()
    }
}

/// FNV-1a, 64-bit — tiny, dependency-free, and plenty for an equality
/// witness (we compare hashes of runs that should be *identical*, not
/// defend against adversarial collisions).
pub struct Fnv1a(u64);

impl Fnv1a {
    /// Standard FNV-1a offset basis.
    pub fn new() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Folds `bytes` into the digest.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Final digest value.
    pub fn finish(&self) -> u64 {
        self.0
    }

    /// The digest of `bytes` alone.
    pub fn digest(bytes: &[u8]) -> u64 {
        let mut h = Fnv1a::new();
        h.update(bytes);
        h.finish()
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{Dec, Enc};

    struct Toy {
        x: Vec<f64>,
        steps: u64,
    }

    impl Checkpointable for Toy {
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
            d.finish()?;
            Ok(())
        }
        fn ckpt_step(&self) -> u64 {
            self.steps
        }
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(Fnv1a::digest(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv1a::digest(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(Fnv1a::digest(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn clock_section_excluded_from_hash() {
        let a = Toy { x: vec![1.0, 2.0], steps: 5 };
        let c = Toy { x: vec![1.0, 2.5], steps: 5 };
        assert_ne!(a.state_hash(), c.state_hash(), "numerical state must move the digest");
    }

    #[test]
    fn roundtrip_restores_hash() {
        let a = Toy { x: vec![3.0; 7], steps: 11 };
        let mut w = CkptWriter::new();
        a.write_sections(&mut w);
        let f = CkptFile::parse(std::path::Path::new("mem"), w.to_bytes()).unwrap();
        let mut b = Toy { x: vec![], steps: 0 };
        b.read_sections(&f).unwrap();
        assert_eq!(a.state_hash(), b.state_hash());
        assert_eq!(b.steps, 11);
        let _ = Dec::new("unused", 0, &[]);
    }
}
