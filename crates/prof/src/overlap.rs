//! Measured overlap windows: how much interior work each stage really
//! had available to hide behind its halo exchange.
//!
//! When split-phase gather-scatter is on (the solvers' default), every
//! Helmholtz apply emits a `gs.window` record carrying the interior /
//! boundary element split it actually used. Folding those records per
//! stage yields a *measured* hideable-work fraction, replacing the
//! analytic `1 − 6/V^{1/3}` surface-to-volume estimate in the Table 3 /
//! Figures 15–16 replay. The replay still needs the window at element
//! counts the native run never saw, so each stage is compressed to a
//! single surface coefficient `c = (1 − w)·V^{1/3}` — the measured
//! generalization of the analytic `c = 6` — and re-expanded with
//! [`window_at`].

use crate::model::{entry, PRank};
use nkt_trace::json::{parse, Value};

/// Per-stage overlap window folded over all `gs.window` records that
/// were nested (directly or transitively) under a span of that stage.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OverlapWindow {
    /// Owning stage name, or `"other"` for records outside any stage.
    pub stage: String,
    /// Number of split-phase applies folded in.
    pub applies: u64,
    /// Total interior (hideable) elements across those applies.
    pub interior: u64,
    /// Total boundary (exposed) elements across those applies.
    pub boundary: u64,
}

impl OverlapWindow {
    /// Local elements per apply.
    pub fn volume(&self) -> f64 {
        if self.applies == 0 {
            0.0
        } else {
            (self.interior + self.boundary) as f64 / self.applies as f64
        }
    }

    /// Measured hideable fraction `interior / (interior + boundary)`.
    pub fn window(&self) -> f64 {
        let total = self.interior + self.boundary;
        if total == 0 {
            0.0
        } else {
            self.interior as f64 / total as f64
        }
    }

    /// Surface coefficient `c = (1 − window)·V^{1/3}` — the measured
    /// stand-in for the analytic `6` of `1 − 6/V^{1/3}`.
    pub fn coef(&self) -> f64 {
        (1.0 - self.window()) * self.volume().cbrt()
    }
}

/// Re-expands a surface coefficient to the window at `vol` local
/// elements: `max(0, 1 − c/vol^{1/3})`.
pub fn window_at(coef: f64, vol: f64) -> f64 {
    if vol <= 0.0 {
        0.0
    } else {
        (1.0 - coef / vol.cbrt()).max(0.0)
    }
}

/// The analytic fallback coefficient (`1 − 6/V^{1/3}`).
pub const ANALYTIC_COEF: f64 = 6.0;

/// Extracts per-stage overlap windows from rank timelines.
///
/// Spans record on *exit*, so an enclosing stage span appears after the
/// `gs.window` records it contains, at smaller depth. Each record is
/// attributed to the first later same-rank span with `cat == "stage"`
/// and smaller depth; records with no such owner fold into `"other"`.
pub fn overlap_windows(ranks: &[PRank]) -> Vec<OverlapWindow> {
    let mut out: Vec<OverlapWindow> = Vec::new();
    for r in ranks {
        for (i, s) in r.spans.iter().enumerate() {
            if s.cat != "gs" || s.name != "gs.window" {
                continue;
            }
            let interior = s.arg("interior").unwrap_or(0.0).max(0.0) as u64;
            let boundary = s.arg("boundary").unwrap_or(0.0).max(0.0) as u64;
            let owner = r.spans[i + 1..]
                .iter()
                .find(|o| o.cat == "stage" && o.depth < s.depth)
                .map(|o| o.name.as_str())
                .unwrap_or("other");
            let new = || OverlapWindow { stage: owner.to_string(), ..OverlapWindow::default() };
            let w = entry(&mut out, |w| w.stage == owner, new);
            w.applies += 1;
            w.interior += interior;
            w.boundary += boundary;
        }
    }
    out.sort_by(|a, b| a.stage.cmp(&b.stage));
    out
}

/// Single apply-weighted coefficient over all stages — what a replay
/// uses when it models one undifferentiated gather-scatter per step.
/// `None` when there are no applies (native run had overlap off).
pub fn merged_coef(windows: &[OverlapWindow]) -> Option<f64> {
    let applies: u64 = windows.iter().map(|w| w.applies).sum();
    if applies == 0 {
        return None;
    }
    let sum: f64 = windows.iter().map(|w| w.coef() * w.applies as f64).sum();
    Some(sum / applies as f64)
}

/// Loads the `windows` array back out of a `CALIB_<run>.json` file, so
/// the Table 3 / Figures 15–16 bins can consume a committed native
/// measurement without relinking the whole document model.
pub fn load_windows(path: &std::path::Path) -> Result<Vec<OverlapWindow>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let arr = doc
        .get("windows")
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("{}: no windows array", path.display()))?;
    let mut out = Vec::new();
    for w in arr {
        let stage = w
            .get("stage")
            .and_then(Value::as_str)
            .ok_or("window entry without stage")?
            .to_string();
        let num =
            |key: &str| w.get(key).and_then(Value::as_f64).unwrap_or(0.0).max(0.0) as u64;
        out.push(OverlapWindow {
            stage,
            applies: num("applies"),
            interior: num("interior"),
            boundary: num("boundary"),
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::PSpan;

    fn span(name: &str, cat: &str, depth: u32, args: &[(&str, f64)]) -> PSpan {
        PSpan {
            name: name.to_string(),
            cat: cat.to_string(),
            dur_s: f64::NAN,
            vt0: 0.0,
            vt1: 0.0,
            depth,
            args: args.iter().map(|&(n, v)| (n.to_string(), v)).collect(),
        }
    }

    #[test]
    fn attributes_windows_to_enclosing_stage() {
        // Exit order: two windows inside PressureSolve (stage exits
        // after them, smaller depth), one orphan after it.
        let spans = vec![
            span("gs.window", "gs", 2, &[("interior", 90.0), ("boundary", 10.0)]),
            span("gs.window", "gs", 2, &[("interior", 80.0), ("boundary", 20.0)]),
            span("PressureSolve", "stage", 1, &[]),
            span("gs.window", "gs", 1, &[("interior", 5.0), ("boundary", 5.0)]),
        ];
        let ws = overlap_windows(&[PRank { rank: 0, spans }]);
        assert_eq!(ws.len(), 2);
        let ps = ws.iter().find(|w| w.stage == "PressureSolve").unwrap();
        assert_eq!((ps.applies, ps.interior, ps.boundary), (2, 170, 30));
        assert!((ps.window() - 0.85).abs() < 1e-12);
        assert!((ps.volume() - 100.0).abs() < 1e-12);
        let other = ws.iter().find(|w| w.stage == "other").unwrap();
        assert_eq!(other.applies, 1);
    }

    #[test]
    fn coef_round_trips_through_window_at() {
        let w = OverlapWindow {
            stage: "x".to_string(),
            applies: 4,
            interior: 4 * 343 - 4 * 100,
            boundary: 4 * 100,
        };
        // Re-expanding at the measured volume reproduces the window.
        assert!((window_at(w.coef(), w.volume()) - w.window()).abs() < 1e-12);
        // The analytic coefficient reproduces 1 - 6/V^{1/3}.
        assert!((window_at(ANALYTIC_COEF, 1000.0) - 0.4).abs() < 1e-12);
        // Tiny volumes clamp to zero instead of going negative.
        assert_eq!(window_at(ANALYTIC_COEF, 8.0), 0.0);
    }

    #[test]
    fn merged_coef_weights_by_applies() {
        let a = OverlapWindow { stage: "a".into(), applies: 3, interior: 300, boundary: 0 };
        let b = OverlapWindow { stage: "b".into(), applies: 1, interior: 0, boundary: 100 };
        let m = merged_coef(&[a.clone(), b.clone()]).unwrap();
        let expect = (a.coef() * 3.0 + b.coef()) / 4.0;
        assert!((m - expect).abs() < 1e-12);
        assert!(merged_coef(&[]).is_none());
    }
}
