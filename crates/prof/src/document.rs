//! The calibration document: its construction from a run's rank
//! timelines, the deterministic `CALIB_<run>.json` document, and the
//! "fact or fiction" report with measured-vs-modeled ratios.

use crate::drift::{drift_rows, DriftRow};
use crate::fit::{alpha_beta_fit, host_sweep, kernel_fits, AlphaBetaFit, KernelFit};
use crate::model::PRank;
use crate::overlap::{overlap_windows, OverlapWindow};
use nkt_machine::{machine, Machine, MachineId};
use nkt_net::{cluster, NetId};
use nkt_trace::gate::{parse_schema, Gate, Sense};
use nkt_trace::json::Value;
use std::fmt::Write as _;

/// Schema tag written into every `CALIB_<run>.json`.
pub const SCHEMA: &str = "nkt-calib-1";

/// Band of every gated calibration value: 0.02 absolute + 10 %.
const BAND: (f64, f64) = (0.02, 0.10);

/// Reads the gated rows back out of a `CALIB_<run>.json`: a comm op's
/// share of modeled time may not grow (more fiction to explain), a
/// stage's measured overlap window may not shrink (less work to hide
/// communication behind), and a fitted channel or kernel constant may
/// not move either way (the calibration itself drifted).
pub fn calib_gates(text: &str) -> Result<Vec<Gate>, String> {
    let doc = parse_schema(text, SCHEMA)?;
    let mut rows = Vec::new();
    let mut push =
        |name: String, v: f64, sense| rows.push(Gate::new(name, v, sense, BAND.0, BAND.1));
    for d in doc.req_arr("drift")? {
        if d.req_str("class")? == "comm" {
            let op = d.req_str("name")?;
            push(format!("comm_share[{op}]"), d.req_f64("vshare")?, Sense::Up);
        }
    }
    for w in doc.req_arr("windows")? {
        let stage = w.req_str("stage")?;
        push(format!("window[{stage}]"), w.req_f64("window")?, Sense::Down);
    }
    // `null` when the run sent no point-to-point messages.
    if let Some(ab) = doc.get("alpha_beta").filter(|v| **v != Value::Null) {
        for key in ["alpha_us", "beta_mbs"] {
            push(format!("fit[{key}]"), ab.req_f64(key)?, Sense::Either);
        }
    }
    for k in doc.req_arr("kernel_fits")? {
        let kernel = k.req_str("kernel")?;
        push(format!("fit[r_inf[{kernel}]]"), k.req_f64("r_inf")?, Sense::Either);
    }
    Ok(rows)
}

/// Finds the network configuration a run name encodes, taking the
/// longest catalog slug that appears as a substring (`fourier_dns_
/// roadrunner_eth_grid2x4` names `roadrunner_eth`, not `roadrunner`).
pub fn net_from_run(run: &str) -> Option<NetId> {
    NetId::ALL
        .into_iter()
        .filter(|id| run.contains(id.slug()))
        .max_by_key(|id| id.slug().len())
}

/// A complete calibration of one traced run.
///
/// Everything in [`Calibration::document`] is a function of
/// the virtual timeline and exact counters, so `CALIB_<run>.json` is
/// byte-identical across reruns of the same seeded simulation. Host
/// wall times (the "fact" side of fact-or-fiction) appear only in
/// [`Calibration::report`].
#[derive(Debug, Clone)]
pub struct Calibration {
    /// Run name (`CALIB_<run>.json`).
    pub run: String,
    /// Rank ids present, ascending.
    pub ranks: Vec<usize>,
    /// Network configuration recovered from the run name, if any.
    pub net: Option<NetId>,
    /// Machine model the kernel fits are computed against: the one
    /// hosting `net`, RoadRunner (the paper's protagonist cluster) when
    /// the run names no network.
    pub machine_id: MachineId,
    /// Measured-vs-modeled drift rows (stage / comm / kernel classes).
    pub drift: Vec<DriftRow>,
    /// Fitted α–β point-to-point channel (`None` when the run sent no
    /// p2p messages).
    pub alpha_beta: Option<AlphaBetaFit>,
    /// Hockney-form fits of the machine-model kernel curves, one per
    /// Figure 1–6 family.
    pub kernel_fits: Vec<KernelFit>,
    /// Measured per-stage overlap windows (empty when split-phase
    /// gather-scatter was off).
    pub windows: Vec<OverlapWindow>,
}

impl Calibration {
    /// The calibration of `run` from its rank timelines
    /// ([`crate::from_threads`] or [`crate::from_trace_json`]).
    pub fn from_ranks(run: &str, ranks: &[PRank]) -> Calibration {
        let net = net_from_run(run);
        let machine_id = net.map_or(MachineId::RoadRunner, MachineId::hosting);
        let statics = net.map(|id| cluster(id).inter);
        Calibration {
            run: run.to_string(),
            net,
            machine_id,
            drift: drift_rows(ranks),
            alpha_beta: alpha_beta_fit(ranks, statics.as_ref()),
            kernel_fits: kernel_fits(&machine(machine_id)),
            windows: overlap_windows(ranks),
            ranks: ranks.iter().map(|r| r.rank).collect(),
        }
    }

    fn machine(&self) -> Machine {
        machine(self.machine_id)
    }

    /// The deterministic part of the calibration as its `nkt-calib-1`
    /// document (`CALIB_<run>.json`): fixed key order, sorted
    /// collections, so two runs of the same seeded simulation render
    /// byte-identical files.
    pub fn document(&self) -> Value {
        let drift = |d: &DriftRow| Value::from([
            ("class", d.class.into()), ("name", d.name.as_str().into()), ("calls", d.calls.into()),
            ("vsecs", d.vsecs.into()), ("bytes", d.bytes.into()), ("flops", d.flops.into()),
            ("vshare", d.vshare.into()),
        ]);
        let alpha_beta = |ab: &AlphaBetaFit| Value::from([
            ("channel", ab.channel.as_str().into()), ("samples", ab.samples.into()),
            ("alpha_us", ab.alpha_us.into()), ("beta_mbs", ab.beta_mbs.into()),
            ("max_resid_us", ab.max_resid_us.into()),
            ("static_alpha_us", ab.static_alpha_us.into()),
            ("static_beta_mbs", ab.static_beta_mbs.into()),
        ]);
        let kernel = |k: &KernelFit| Value::from([
            ("kernel", k.kernel.into()), ("unit", k.unit.into()),
            ("r_inf", k.r_inf.into()), ("n_half", k.n_half.into()),
            ("points", k.points.into()), ("max_rel_err", k.max_rel_err.into()),
        ]);
        let window = |w: &OverlapWindow| Value::from([
            ("stage", w.stage.as_str().into()), ("applies", w.applies.into()),
            ("interior", w.interior.into()), ("boundary", w.boundary.into()),
            ("window", w.window().into()), ("coef", w.coef().into()),
        ]);
        Value::from([
            ("schema", SCHEMA.into()),
            ("run", self.run.as_str().into()),
            ("ranks", self.ranks.len().into()),
            ("net", self.net.map(NetId::slug).into()),
            ("machine", self.machine().name.into()),
            ("drift", Value::Arr(self.drift.iter().map(drift).collect())),
            ("alpha_beta", self.alpha_beta.as_ref().map(alpha_beta).into()),
            ("kernel_fits", Value::Arr(self.kernel_fits.iter().map(kernel).collect())),
            ("windows", Value::Arr(self.windows.iter().map(window).collect())),
        ])
    }

    /// Renders the "fact or fiction" report: drift rows with their
    /// measured-host-seconds ratios, the fitted α–β channel against the
    /// static catalog, kernel fits, a native BLAS sweep over every
    /// Figure 1–6 family, and the measured overlap windows.
    pub fn report(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "nkt-calib — run '{}', {} rank(s), machine {}{}",
            self.run,
            self.ranks.len(),
            self.machine().name,
            self.net.map_or(String::new(), |id| format!(", net {}", id.slug())),
        );

        if !self.drift.is_empty() {
            let _ = writeln!(out, "\nDrift: modeled virtual vs measured host seconds");
            let _ = writeln!(
                out,
                "  {:<7} {:<20} {:>7} {:>12} {:>7} {:>12} {:>8}",
                "class", "name", "calls", "modeled", "share", "measured", "ratio"
            );
            for d in &self.drift {
                let ratio = d
                    .ratio()
                    .map_or_else(|| format!("{:>8}", "-"), |r| format!("{r:>8.3}"));
                let _ = writeln!(
                    out,
                    "  {:<7} {:<20} {:>7} {:>12.6} {:>6.1}% {:>12.6} {}",
                    d.class,
                    d.name,
                    d.calls,
                    d.vsecs,
                    100.0 * d.vshare,
                    d.host_s,
                    ratio,
                );
            }
        }

        if let Some(ab) = &self.alpha_beta {
            let _ = writeln!(out, "\nFitted p2p channel ({} message(s))", ab.samples);
            let stat = |v: Option<f64>| v.map_or_else(|| "-".to_string(), |x| format!("{x:.2}"));
            let _ = writeln!(
                out,
                "  alpha {:.2} us (static {}), beta {:.2} MB/s (static {}), max residual {:.2} us",
                ab.alpha_us,
                stat(ab.static_alpha_us),
                ab.beta_mbs,
                stat(ab.static_beta_mbs),
                ab.max_resid_us,
            );
        }

        if !self.kernel_fits.is_empty() {
            let _ = writeln!(out, "\nKernel model fits r(n) = R_inf * n/(n + n_half)");
            let _ = writeln!(
                out,
                "  {:<8} {:>10} {:>10} {:>10}",
                "kernel", "R_inf", "n_half", "fit err"
            );
            for k in &self.kernel_fits {
                let _ = writeln!(
                    out,
                    "  {:<8} {:>10.1} {:>10.1} {:>9.1}%  ({})",
                    k.kernel,
                    k.r_inf,
                    k.n_half,
                    100.0 * k.max_rel_err,
                    k.unit,
                );
            }
        }

        let sweep = host_sweep(&self.machine());
        if !sweep.is_empty() {
            let _ = writeln!(
                out,
                "\nNative BLAS sweep vs {} model (host rates; not serialized)",
                self.machine().name,
            );
            let _ = writeln!(
                out,
                "  {:<8} {:>8} {:>12} {:>12} {:>8}",
                "kernel", "n", "measured", "modeled", "ratio"
            );
            for p in &sweep {
                let ratio = if p.modeled > 0.0 { p.measured / p.modeled } else { 0.0 };
                let _ = writeln!(
                    out,
                    "  {:<8} {:>8} {:>12.1} {:>12.1} {:>8.2}",
                    p.kernel, p.n, p.measured, p.modeled, ratio,
                );
            }
        }

        if !self.windows.is_empty() {
            let _ = writeln!(out, "\nMeasured overlap windows (split-phase gather-scatter)");
            let _ = writeln!(
                out,
                "  {:<16} {:>8} {:>10} {:>10} {:>8} {:>7}",
                "stage", "applies", "interior", "boundary", "window", "coef"
            );
            for w in &self.windows {
                let _ = writeln!(
                    out,
                    "  {:<16} {:>8} {:>10} {:>10} {:>7.1}% {:>7.3}",
                    w.stage,
                    w.applies,
                    w.interior,
                    w.boundary,
                    100.0 * w.window(),
                    w.coef(),
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nkt_trace::json::render;

    #[test]
    fn net_from_run_prefers_longest_slug() {
        assert_eq!(net_from_run("fourier_dns_roadrunner_eth_grid2x4"), Some(NetId::RoadRunnerEth));
        assert_eq!(net_from_run("fourier_dns_roadrunner_myr"), Some(NetId::RoadRunnerMyr));
        assert_eq!(net_from_run("serve_muses_lam_x"), Some(NetId::MusesLam));
        assert_eq!(net_from_run("flapping_wing_ale"), None);
        // A run that names no network is calibrated against RoadRunner.
        let unnamed = Calibration::from_ranks("flapping_wing_ale", &[]);
        assert_eq!(unnamed.machine_id, MachineId::RoadRunner);
    }

    #[test]
    fn gates_read_the_calib_schema() {
        let text = r#"{"schema":"nkt-calib-1","run":"sample",
            "drift":[{"class":"stage","name":"NonLinear","vshare":0.9},
                     {"class":"comm","name":"alltoall","vshare":0.6},
                     {"class":"comm","name":"p2p.send","vshare":0.4}],
            "alpha_beta":{"alpha_us":240.0,"beta_mbs":8.5},
            "kernel_fits":[{"kernel":"dgemm","r_inf":180.0}],
            "windows":[{"stage":"PressureSolve","window":0.82}]}"#;
        let gate = |name: &str, v, sense| Gate::new(name, v, sense, 0.02, 0.10);
        // Only comm-class drift rows are gated.
        assert_eq!(
            calib_gates(text).unwrap(),
            [
                gate("comm_share[alltoall]", 0.6, Sense::Up),
                gate("comm_share[p2p.send]", 0.4, Sense::Up),
                gate("window[PressureSolve]", 0.82, Sense::Down),
                gate("fit[alpha_us]", 240.0, Sense::Either),
                gate("fit[beta_mbs]", 8.5, Sense::Either),
                gate("fit[r_inf[dgemm]]", 180.0, Sense::Either),
            ]
        );
        assert!(calib_gates(&text.replace("nkt-calib-1", "nkt-prof-1")).is_err());
    }

    /// Writer and reader agree: the rows read back from the production
    /// document equal the document's own numbers, so a writer change
    /// the extractor cannot see fails here instead of un-gating a row.
    #[test]
    fn gates_round_trip_the_written_calibration() {
        let mut c = Calibration::from_ranks("fourier_dns_roadrunner_eth", &[]);
        let drift = |class, name: &str, vshare| DriftRow {
            class,
            name: name.to_string(),
            calls: 3,
            vsecs: 0.25,
            host_s: 0.0,
            host_calls: 0,
            bytes: 96,
            flops: 0.0,
            vshare,
        };
        c.drift = vec![
            drift("stage", "NonLinear", 1.0),
            drift("comm", "alltoall", 0.625),
            drift("comm", "p2p.send", 0.375),
        ];
        c.alpha_beta = Some(AlphaBetaFit {
            channel: "p2p".to_string(),
            samples: 12,
            alpha_us: 151.5,
            beta_mbs: 11.25,
            max_resid_us: 0.5,
            static_alpha_us: Some(150.0),
            static_beta_mbs: None,
        });
        c.windows = vec![OverlapWindow {
            stage: "PressureSolve".to_string(),
            applies: 4,
            interior: 300,
            boundary: 100,
        }];

        let mut want = vec![
            ("comm_share[alltoall]".to_string(), 0.625),
            ("comm_share[p2p.send]".to_string(), 0.375),
            ("window[PressureSolve]".to_string(), c.windows[0].window()),
            ("fit[alpha_us]".to_string(), 151.5),
            ("fit[beta_mbs]".to_string(), 11.25),
        ];
        want.extend(c.kernel_fits.iter().map(|k| (format!("fit[r_inf[{}]]", k.kernel), k.r_inf)));
        let rows = calib_gates(&render(&c.document())).unwrap();
        let got: Vec<(String, f64)> = rows.into_iter().map(|g| (g.name, g.value)).collect();
        assert_eq!(got, want);
        // A run with no p2p traffic writes `null` and gates no channel fit.
        c.alpha_beta = None;
        assert_eq!(calib_gates(&render(&c.document())).unwrap().len(), want.len() - 2);
    }

    #[test]
    fn empty_run_serializes_and_parses() {
        let c = Calibration::from_ranks("fourier_dns_roadrunner_eth", &[]);
        assert!(c.drift.is_empty());
        assert!(c.alpha_beta.is_none());
        assert_eq!(c.kernel_fits.len(), 5);
        let json = render(&c.document());
        let doc = nkt_trace::json::parse(&json).expect("valid JSON");
        assert_eq!(doc.get("schema").and_then(Value::as_str), Some("nkt-calib-1"));
        assert_eq!(doc.get("net").and_then(Value::as_str), Some("roadrunner_eth"));
        assert_eq!(
            doc.get("kernel_fits").and_then(Value::as_arr).map(|a| a.len()),
            Some(5)
        );
        // Serialization is a pure function of the virtual data.
        let again = Calibration::from_ranks("fourier_dns_roadrunner_eth", &[]);
        assert_eq!(json, render(&again.document()));
    }
}
