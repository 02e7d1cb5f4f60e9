//! The paper's per-time-step stage decomposition and timing ledgers.
//!
//! Figure 12 splits a serial time step into 7 regions; Figures 13–14 use
//! the same regions for NekTar-F, and Figures 15–16 group them as
//! a = steps 1–4 & 6, b = step 5, c = step 7 for NekTar-ALE.

/// The 7 stages of a time step (paper §4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// 1 — transformation from modal (transformed) to quadrature
    /// (physical) space.
    BwdTransform,
    /// 2 — evaluation of the non-linear terms in quadrature space
    /// (plus, in NekTar-F, the Alltoall transposes and FFTs).
    NonLinear,
    /// 3 — stiffly-stable weighting with previous time-steps.
    StifflyStable,
    /// 4 — setup of the pressure Poisson right-hand side.
    PressureRhs,
    /// 5 — solution of the pressure Poisson equation.
    PressureSolve,
    /// 6 — setup of the viscous Helmholtz right-hand side.
    ViscousRhs,
    /// 7 — solution of the viscous Helmholtz equation(s).
    ViscousSolve,
}

impl Stage {
    /// All stages in paper order.
    pub const ALL: [Stage; 7] = [
        Stage::BwdTransform,
        Stage::NonLinear,
        Stage::StifflyStable,
        Stage::PressureRhs,
        Stage::PressureSolve,
        Stage::ViscousRhs,
        Stage::ViscousSolve,
    ];

    /// Stage index 0..7 (paper labels 1..7).
    pub fn index(self) -> usize {
        match self {
            Stage::BwdTransform => 0,
            Stage::NonLinear => 1,
            Stage::StifflyStable => 2,
            Stage::PressureRhs => 3,
            Stage::PressureSolve => 4,
            Stage::ViscousRhs => 5,
            Stage::ViscousSolve => 6,
        }
    }

    /// Stable stage name (trace span labels, report rows).
    pub fn name(self) -> &'static str {
        match self {
            Stage::BwdTransform => "BwdTransform",
            Stage::NonLinear => "NonLinear",
            Stage::StifflyStable => "StifflyStable",
            Stage::PressureRhs => "PressureRhs",
            Stage::PressureSolve => "PressureSolve",
            Stage::ViscousRhs => "ViscousRhs",
            Stage::ViscousSolve => "ViscousSolve",
        }
    }

    /// The Figures 15–16 grouping: 'a' = steps 1–4 & 6, 'b' = step 5
    /// (pressure solve), 'c' = step 7 (Helmholtz solves).
    pub fn ale_group(self) -> char {
        match self {
            Stage::PressureSolve => 'b',
            Stage::ViscousSolve => 'c',
            _ => 'a',
        }
    }
}

/// Times one stage region: a host wall timer paired with a trace span,
/// so the StageClock ledgers and the exported timeline measure the same
/// interval (they must agree — the trace smoke test checks within 1%).
pub struct StageTimer {
    t0: std::time::Instant,
    sp: nkt_trace::Span,
}

impl StageTimer {
    /// Starts timing a host-time stage region.
    pub fn start(stage: Stage) -> StageTimer {
        StageTimer { t0: std::time::Instant::now(), sp: nkt_trace::span(stage.name(), "stage") }
    }

    /// Starts a region that also carries virtual time, anchored at `vt0`
    /// (usually `comm.wtime()` at region entry).
    pub fn start_v(stage: Stage, vt0: f64) -> StageTimer {
        StageTimer {
            t0: std::time::Instant::now(),
            sp: nkt_trace::span_v(stage.name(), "stage", vt0),
        }
    }

    /// Ends the region; returns its host seconds.
    pub fn stop(self) -> f64 {
        let secs = self.t0.elapsed().as_secs_f64();
        self.sp.end();
        secs
    }

    /// Ends the region stamping the virtual end time `vt1`; returns host
    /// seconds. The virtual delta stays on the span: a ledger never mixes
    /// it with host seconds.
    pub fn stop_v(self, vt1: f64) -> f64 {
        let secs = self.t0.elapsed().as_secs_f64();
        self.sp.end_v(vt1);
        secs
    }
}

/// Unit of a [`StageClock`]: host wall seconds, measured.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Host;

/// Unit of a [`ModeledClock`]: seconds the 1999 machine and network
/// models charge in a replay.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Modeled;

/// Accumulated per-stage seconds of one unit `U`: the type keeps measured
/// and modeled seconds apart, so no [`Ledger::merge`] crosses units.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Ledger<U> {
    /// Per-stage totals, indexed by [`Stage::index`].
    pub totals: [f64; 7],
    unit: std::marker::PhantomData<U>,
}

/// A solver's ledger: host seconds of the steps this process ran.
pub type StageClock = Ledger<Host>;

/// A replay's ledger: modeled seconds.
pub type ModeledClock = Ledger<Modeled>;

impl<U: Default> Ledger<U> {
    /// Creates a zeroed ledger.
    pub fn new() -> Ledger<U> {
        Ledger::default()
    }

    /// Adds `seconds` to a stage.
    pub fn add(&mut self, stage: Stage, seconds: f64) {
        self.totals[stage.index()] += seconds;
    }

    /// Total across stages.
    pub fn total(&self) -> f64 {
        self.totals.iter().sum()
    }

    /// Percentage per stage (Figure 12's pie slices). Zero total gives
    /// zeros.
    pub fn percentages(&self) -> [f64; 7] {
        let t = self.total();
        let mut p = [0.0; 7];
        if t > 0.0 {
            for i in 0..7 {
                p[i] = 100.0 * self.totals[i] / t;
            }
        }
        p
    }

    /// The a/b/c grouping of Figures 15–16: (a, b, c) percentages.
    pub fn ale_group_percentages(&self) -> (f64, f64, f64) {
        let t = self.total();
        if t == 0.0 {
            return (0.0, 0.0, 0.0);
        }
        let mut a = 0.0;
        let mut b = 0.0;
        let mut c = 0.0;
        for s in Stage::ALL {
            let v = 100.0 * self.totals[s.index()] / t;
            match s.ale_group() {
                'a' => a += v,
                'b' => b += v,
                _ => c += v,
            }
        }
        (a, b, c)
    }

    /// Elementwise sum with another ledger of the same unit.
    pub fn merge(&mut self, other: &Ledger<U>) {
        for i in 0..7 {
            self.totals[i] += other.totals[i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_cover_all_stages() {
        for (i, s) in Stage::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
        }
    }

    #[test]
    fn ale_grouping() {
        assert_eq!(Stage::PressureSolve.ale_group(), 'b');
        assert_eq!(Stage::ViscousSolve.ale_group(), 'c');
        assert_eq!(Stage::NonLinear.ale_group(), 'a');
        assert_eq!(Stage::ViscousRhs.ale_group(), 'a');
    }

    #[test]
    fn percentages_sum_to_hundred() {
        let mut c = StageClock::new();
        c.add(Stage::NonLinear, 3.0);
        c.add(Stage::PressureSolve, 5.0);
        c.add(Stage::ViscousSolve, 2.0);
        let p = c.percentages();
        let s: f64 = p.iter().sum();
        assert!((s - 100.0).abs() < 1e-12);
        assert!((p[Stage::PressureSolve.index()] - 50.0).abs() < 1e-12);
    }

    #[test]
    fn ale_group_percentages_split() {
        let mut c = StageClock::new();
        c.add(Stage::BwdTransform, 1.0);
        c.add(Stage::PressureSolve, 4.0);
        c.add(Stage::ViscousSolve, 5.0);
        let (a, b, cc) = c.ale_group_percentages();
        assert!((a - 10.0).abs() < 1e-12);
        assert!((b - 40.0).abs() < 1e-12);
        assert!((cc - 50.0).abs() < 1e-12);
    }

    #[test]
    fn zero_clock_percentages() {
        assert_eq!(StageClock::new().percentages(), [0.0; 7]);
    }

    /// A solver's ledger holds host seconds only: on a network whose
    /// every inter-node message waits a virtual second, a warmed step's
    /// ledger stays within the host time the step took, for the NekTar-F
    /// slab and the wing-shaped NekTar-ALE alike.
    #[test]
    fn solver_ledgers_hold_host_seconds_only() {
        use crate::drive::cases;
        use nkt_mpi::Comm;
        // (ledger, host) seconds of the second of two steps.
        fn warmed(c: &mut Comm, mut step: impl FnMut(&mut Comm) -> StageClock) -> (f64, f64) {
            step(c);
            let t0 = std::time::Instant::now();
            let clock = step(c);
            (clock.total(), t0.elapsed().as_secs_f64())
        }
        let mut net = nkt_net::cluster(nkt_net::NetId::T3e);
        net.inter.latency_us = 1e6;
        let wing = cases::wing(2);
        let out = nkt_mpi::World::builder().ranks(2).net(net).run(|c| {
            let mut f = cases::fourier(c, 8, None).expect("a 2-rank slab");
            let mut a = wing.build(c);
            [("NekTar-F", warmed(c, |c| f.step(c))), ("NekTar-ALE", warmed(c, |c| a.step(c)))]
        });
        for (rank, rows) in out.iter().enumerate() {
            for (solver, (ledger, host)) in rows {
                assert!(ledger <= host, "{solver} rank {rank}: ledger {ledger} s > host {host} s");
            }
        }
    }

    #[test]
    fn merge_adds() {
        let mut a = StageClock::new();
        a.add(Stage::NonLinear, 1.0);
        let mut b = StageClock::new();
        b.add(Stage::NonLinear, 2.0);
        b.add(Stage::ViscousSolve, 3.0);
        a.merge(&b);
        assert_eq!(a.totals[Stage::NonLinear.index()], 3.0);
        assert_eq!(a.totals[Stage::ViscousSolve.index()], 3.0);
    }
}
