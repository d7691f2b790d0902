//! Collects metrics, output checks and human-readable lines, and prints
//! the result: report lines first, the JSON object as the last line.

use std::fmt::Write as _;

use crate::host::{HostSpeed, Stat};

/// How many failed checks are printed in full.
const SHOWN_ERRORS: usize = 20;

/// One named measurement.
#[derive(Clone, Debug)]
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// How a gated timing moves with the host's speed.
#[derive(Clone, Copy, Debug)]
pub enum Timing {
    /// A duration: a slower host makes it larger.
    Duration,
    /// Work per second: a slower host makes it smaller.
    Rate,
}

/// The run's result.
#[derive(Debug)]
pub struct Report {
    traced: bool,
    /// The run's host calibration ([`crate::host`]); none until set.
    host: Option<HostSpeed>,
    end_to_end: Vec<Metric>,
    layers: Vec<Metric>,
    lines: Vec<String>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Report {
    /// An empty report; `traced` selects which metrics the JSON carries.
    #[must_use]
    pub fn new(traced: bool) -> Self {
        Report {
            traced,
            host: None,
            end_to_end: Vec::new(),
            layers: Vec::new(),
            lines: Vec::new(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
        }
    }

    /// Whether this is the traced (per-layer) run.
    #[must_use]
    pub fn traced(&self) -> bool {
        self.traced
    }

    /// Adds a human-readable line.
    pub fn line(&mut self, text: String) {
        self.lines.push(text);
    }

    /// Records an end-to-end metric with a note on how it was measured
    /// (sample count, percentile).
    pub fn end_to_end(&mut self, name: &'static str, value: f64, unit: &'static str, note: String) {
        let tag = if self.traced {
            " (traced run: not an end-to-end figure)"
        } else {
            ""
        };
        self.lines
            .push(format!("e2e   {name} = {value:.6} {unit}  [{note}]{tag}"));
        self.end_to_end.push(Metric { name, value, unit });
    }

    /// Sets the host calibration that [`Report::end_to_end_timed`] scales
    /// by.
    pub fn set_host(&mut self, host: HostSpeed) {
        self.host = Some(host);
    }

    /// Records a timing end-to-end metric scaled to the reference host:
    /// `raw`, as measured here and summarised with `stat`, divided
    /// (durations) or multiplied (rates) by the host slowdown read with
    /// the same statistic.
    pub fn end_to_end_timed(
        &mut self,
        name: &'static str,
        raw: f64,
        unit: &'static str,
        timing: Timing,
        stat: Stat,
        note: String,
    ) {
        let slowdown = self.host.as_ref().map_or(1.0, |h| h.slowdown(stat));
        let value = match timing {
            Timing::Duration => raw / slowdown,
            Timing::Rate => raw * slowdown,
        };
        let note = format!("{note}; {raw:.6} {unit} as measured, host slowdown {slowdown:.4}");
        self.end_to_end(name, value, unit, note);
    }

    /// Prints a measurement that is reported but not gated by a bound.
    pub fn info(&mut self, name: &str, value: f64, unit: &str, note: String) {
        self.lines
            .push(format!("info  {name} = {value:.6} {unit}  [{note}]"));
    }

    /// Records a per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.lines.push(format!("layer {name} = {value:.6} {unit}"));
        self.layers.push(Metric { name, value, unit });
    }

    /// Counts one checked operation; a failure is recorded with its
    /// description.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.errors.push(what());
        }
    }

    /// Records a failure that is not tied to one operation (it still
    /// makes the run incorrect).
    pub fn error(&mut self, what: String) {
        self.errors.push(what);
    }

    /// Prints every line, the failures, and the JSON result last.
    pub fn print(&self) {
        for l in &self.lines {
            println!("{l}");
        }
        let rate = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "checks: {} attempted, {} failed, error_rate = {rate:.6}",
            self.attempted, self.failed
        );
        for e in self.errors.iter().take(SHOWN_ERRORS) {
            println!("FAILED: {e}");
        }
        if self.errors.len() > SHOWN_ERRORS {
            println!("FAILED: … and {} more", self.errors.len() - SHOWN_ERRORS);
        }
        let metrics = if self.traced {
            &self.layers
        } else {
            &self.end_to_end
        };
        let finite = metrics.iter().all(|m| m.value.is_finite());
        let mut json = String::new();
        let _ = write!(
            json,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.errors.is_empty() && finite,
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        json.push_str("}}");
        println!("{json}");
    }
}
