//! The `annual-tks` phase: back-to-back Baseline (TKS) years at stride 7
//! on the Facebook trace, rotating over the workload's locations.
//!
//! The tick loop does almost all of this work (weather lookup → cluster →
//! sensing and faults → metrics → plant physics) and the TKS controller
//! almost none, so tick-loop changes move `sim_days_per_s` while ML,
//! optimizer, store and serve changes should not.
//!
//! The traced run times the layers through a [`TimedPlant`] passed to
//! `Simulation::with_plant` and the engine's `controller.decide`
//! profiler scope, counts the ticks the controller spends in each cooling
//! regime (the property the two workloads differ in), and checks that the
//! wrapper path's day records are bit-identical to `run_annual_with_model`.

use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

use coolair_sim::{
    run_annual_with_model, AnnualConfig, AnnualSummary, Container, DayRecord, SimController,
    Simulation, SystemSpec,
};
use coolair_telemetry::Telemetry;
use coolair_thermal::{
    CoolingRegime, Infrastructure, ItLoad, OutsideConditions, Plant, PlantConfig, SensorReadings,
    TksConfig, TksController,
};
use coolair_units::{SimDuration, SimTime};
use coolair_weather::{Location, TmySeries};
use coolair_workload::{facebook_trace, Cluster, ClusterConfig, TraceKind};

use crate::host::Stat;
use crate::report::{Report, Timing};
use crate::stats::{low_decile, median};
use crate::{small_seed, AllocCounter};

/// What every annual year runs on.
#[derive(Clone, Debug)]
pub struct Inputs {
    locations: Vec<Location>,
    cfg: AnnualConfig,
}

impl Inputs {
    /// The paper's stride-7 smooth-infrastructure year with seed-derived
    /// weather and trace seeds.
    #[must_use]
    pub fn new(locations: &[Location], seed: u64) -> Self {
        let cfg = AnnualConfig {
            weather_seed: small_seed(seed, 1),
            trace_seed: small_seed(seed, 2),
            ..AnnualConfig::default()
        };
        Inputs {
            locations: locations.to_vec(),
            cfg,
        }
    }

    fn location(&self, i: usize) -> &Location {
        &self.locations[i % self.locations.len()]
    }

    fn days(&self) -> usize {
        self.cfg.sampled_days().len()
    }
}

/// TKS days simulated per set-up: enough that set-up time is mostly
/// simulation rather than thread and socket start-up, which the shared
/// host delays erratically.
const WARM_UP_DAYS: u64 = 6;

/// Set-up work of this phase: the weather years and the trace the timed
/// years need, and warm-up days rotating over the locations.
pub fn warm_up(inputs: &Inputs) {
    let trace = facebook_trace(inputs.cfg.trace_seed);
    let tmys: Vec<TmySeries> = inputs
        .locations
        .iter()
        .map(|loc| TmySeries::generate(loc, inputs.cfg.weather_seed))
        .collect();
    for i in 0..WARM_UP_DAYS {
        let tmy = tmys[i as usize % tmys.len()].clone();
        let mut sim = Simulation::new(
            baseline_controller(),
            plant_config(&inputs.cfg),
            Cluster::new(ClusterConfig::parasol()),
            tmy,
            inputs.cfg.engine.clone(),
        );
        let day = i * 60;
        std::hint::black_box(sim.run_day(day, trace.jobs_for_day(day)));
    }
}

fn baseline_controller() -> SimController {
    SimController::Baseline(TksController::new(TksConfig::baseline()))
}

/// The plant configuration `run_annual_with_model` builds for `cfg`.
fn plant_config(cfg: &AnnualConfig) -> PlantConfig {
    let mut pc = match cfg.infrastructure {
        Infrastructure::Parasol => PlantConfig::parasol(),
        Infrastructure::Smooth => PlantConfig::smooth(),
    };
    pc.adiabatic_effectiveness = cfg.adiabatic;
    if let Some(v) = cfg.ac_condenser_derate_per_c {
        pc.ac_condenser_derate_per_c = v;
    }
    if let Some(v) = cfg.ac_latent_factor {
        pc.ac_latent_factor = v;
    }
    pc
}

fn plain_year(inputs: &Inputs, loc: &Location) -> AnnualSummary {
    run_annual_with_model(
        &SystemSpec::Baseline,
        loc,
        TraceKind::Facebook,
        &inputs.cfg,
        None,
    )
}

/// Call counts and busy time of the plant layer, shared between the
/// wrapper (owned by the simulation) and the benchmark.
#[derive(Debug, Default)]
pub struct PlantCounters {
    step_calls: Cell<u64>,
    step_ns: Cell<u64>,
    readings_calls: Cell<u64>,
    readings_ns: Cell<u64>,
    ac_ticks: Cell<u64>,
    free_ticks: Cell<u64>,
}

fn add(cell: &Cell<u64>, n: u64) {
    cell.set(cell.get() + n);
}

/// A physics plant that times every `step` and `readings` call.
#[derive(Debug)]
pub struct TimedPlant {
    inner: Plant,
    counters: Rc<PlantCounters>,
}

impl Container for TimedPlant {
    fn step(
        &mut self,
        dt: SimDuration,
        outside: OutsideConditions,
        it: &ItLoad,
        commanded: CoolingRegime,
    ) {
        let t0 = Instant::now();
        self.inner.step(dt, outside, it, commanded);
        add(&self.counters.step_ns, t0.elapsed().as_nanos() as u64);
        add(&self.counters.step_calls, 1);
        match commanded {
            CoolingRegime::Ac { .. } => add(&self.counters.ac_ticks, 1),
            CoolingRegime::FreeCooling { .. } => add(&self.counters.free_ticks, 1),
            CoolingRegime::Closed => {}
        }
    }

    fn readings(&self, now: SimTime) -> SensorReadings {
        let t0 = Instant::now();
        let r = self.inner.readings(now);
        add(&self.counters.readings_ns, t0.elapsed().as_nanos() as u64);
        add(&self.counters.readings_calls, 1);
        r
    }

    fn pods(&self) -> usize {
        Container::pods(&self.inner)
    }
}

/// Layer totals of one traced year.
#[derive(Debug, Default)]
struct TracedYear {
    days: Vec<DayRecord>,
    tmy_ns: u64,
    trace_ns: u64,
    jobs_ns: Vec<f64>,
    run_day_ns: u64,
    step_calls: u64,
    step_ns: u64,
    readings_calls: u64,
    readings_ns: u64,
    decide_calls: u64,
    decide_ns: u64,
    ac_ticks: u64,
    free_ticks: u64,
    allocs: u64,
    alloc_bytes: u64,
}

/// `run_annual_with_model(Baseline, …)` rebuilt from public parts, with
/// the plant wrapped in a [`TimedPlant`]. `alloc` counts the allocations
/// of this thread inside `run_day`.
fn traced_year(
    inputs: &Inputs,
    loc: &Location,
    telemetry: &Telemetry,
    alloc: Option<AllocCounter>,
) -> TracedYear {
    let cfg = &inputs.cfg;
    let mut out = TracedYear::default();
    let t0 = Instant::now();
    let tmy = TmySeries::generate(loc, cfg.weather_seed);
    out.tmy_ns = t0.elapsed().as_nanos() as u64;
    let t0 = Instant::now();
    let trace = facebook_trace(cfg.trace_seed);
    out.trace_ns = t0.elapsed().as_nanos() as u64;

    let counters = Rc::new(PlantCounters::default());
    let plant = TimedPlant {
        inner: Plant::new(plant_config(cfg)),
        counters: Rc::clone(&counters),
    };
    let mut cluster_config = ClusterConfig::parasol();
    if let Some(covering) = cfg.covering_count {
        cluster_config.covering_count = covering.clamp(1, cluster_config.total_servers);
    }
    let mut sim = Simulation::with_plant(
        baseline_controller(),
        plant,
        Cluster::new(cluster_config),
        tmy,
        cfg.engine.clone(),
    );
    sim.set_fault_plan(cfg.faults.clone());
    sim.set_telemetry(telemetry.clone());

    for day in cfg.sampled_days() {
        let t0 = Instant::now();
        let jobs = trace.jobs_for_day(day);
        out.jobs_ns.push(t0.elapsed().as_nanos() as f64);
        let before = alloc.map(|a| (a.probe)());
        let t0 = Instant::now();
        let day_out = sim.run_day(day, jobs);
        out.run_day_ns += t0.elapsed().as_nanos() as u64;
        if let (Some(a), Some((n0, b0))) = (alloc, before) {
            let (n1, b1) = (a.probe)();
            out.allocs += n1 - n0;
            out.alloc_bytes += b1 - b0;
        }
        out.days.push(day_out.record);
    }
    out.step_calls = counters.step_calls.get();
    out.step_ns = counters.step_ns.get();
    out.readings_calls = counters.readings_calls.get();
    out.readings_ns = counters.readings_ns.get();
    out.ac_ticks = counters.ac_ticks.get();
    out.free_ticks = counters.free_ticks.get();
    if let Some(decide) = telemetry.profile().scopes.get("controller.decide") {
        out.decide_calls = decide.calls;
        out.decide_ns = decide.total_ns;
    }
    out
}

/// Bit-exact rendering of a year's day records (`{:?}` prints every f64
/// in its shortest round-trip form).
fn fingerprint(days: &[DayRecord]) -> String {
    format!("{days:?}")
}

/// The phase's state across cycles.
#[derive(Debug)]
pub struct Phase {
    inputs: Inputs,
    alloc: Option<AllocCounter>,
    /// First result per location, which every later year must repeat.
    expected: Vec<Option<String>>,
    /// Durations (s) of the timed years per location: every year of the
    /// untraced run, the span-traced years of the traced run.
    year_s: Vec<Vec<f64>>,
    first: Option<TracedYear>,
    spans: Vec<TracedYear>,
    /// Traced run: `(ticks, AC ticks, free-cooling ticks)` of the first
    /// traced year at each location.
    regimes: Vec<Option<(u64, u64, u64)>>,
}

impl Phase {
    /// A phase over `inputs`; `alloc` is set in the traced run.
    #[must_use]
    pub fn new(inputs: Inputs, alloc: Option<AllocCounter>) -> Self {
        let n = inputs.locations.len();
        Phase {
            inputs,
            alloc,
            expected: vec![None; n],
            year_s: vec![Vec::new(); n],
            first: None,
            spans: Vec::new(),
            regimes: vec![None; n],
        }
    }

    fn check_year(&mut self, slot: usize, days: &[DayRecord], what: &str, report: &mut Report) {
        let fp = fingerprint(days);
        let want_days = self.inputs.days();
        let sane = days.len() == want_days
            && days
                .iter()
                .all(|d| d.it_kwh > 0.0 && d.cooling_kwh.is_finite());
        let loc = self.inputs.location(slot).name().to_string();
        match &self.expected[slot] {
            None => {
                report.check(sane, || {
                    format!("annual {what} year at {loc}: implausible records")
                });
                self.expected[slot] = Some(fp);
            }
            Some(want) => report.check(sane && *want == fp, || {
                format!("annual {what} year at {loc}: day records differ from the first year")
            }),
        }
    }

    /// Year `index` of the run: one untraced year, or in the traced run
    /// a traced year followed by an untraced year at the same location
    /// (the reference for the bit-identity check). The traced run times
    /// its span-traced years, so that its `sim_days_per_s` against the
    /// untraced run's gives the cost of tracing.
    pub fn year(&mut self, index: usize, report: &mut Report) {
        let slot = index % self.inputs.locations.len();
        let loc = self.inputs.location(slot).clone();
        if let Some(alloc) = self.alloc {
            // Year 0 counts allocations (the counts must repeat exactly,
            // so they come from one fixed year); later years record spans
            // with the profiler on and allocation counting off.
            let counting = index == 0;
            (alloc.set_counting)(counting);
            let telemetry = if counting {
                Telemetry::disabled()
            } else {
                Telemetry::discard()
            };
            let t0 = Instant::now();
            let year = traced_year(&self.inputs, &loc, &telemetry, counting.then_some(alloc));
            let traced_s = t0.elapsed().as_secs_f64();
            (alloc.set_counting)(false);
            let plain = plain_year(&self.inputs, &loc);
            report.check(fingerprint(&year.days) == fingerprint(plain.days()), || {
                format!(
                    "traced wrapper year at {} differs from run_annual_with_model",
                    loc.name()
                )
            });
            self.check_year(slot, plain.days(), "plain", report);
            self.regimes[slot].get_or_insert((year.step_calls, year.ac_ticks, year.free_ticks));
            if counting {
                self.first = Some(year);
            } else {
                self.year_s[slot].push(traced_s);
                self.spans.push(year);
            }
        } else {
            let t0 = Instant::now();
            let summary = plain_year(&self.inputs, &loc);
            self.year_s[slot].push(t0.elapsed().as_secs_f64());
            self.check_year(slot, summary.days(), "plain", report);
        }
    }

    /// Reports the phase's metrics. The untraced run also checks the
    /// wrapper path once per location here, outside the measured window.
    pub fn finish(&mut self, report: &mut Report) {
        // One rotation over the locations at the low-decile year time of
        // each: days per second while the shared host is calm.
        let timed: Vec<&Vec<f64>> = self.year_s.iter().filter(|y| !y.is_empty()).collect();
        let years: usize = timed.iter().map(|y| y.len()).sum();
        let days_per_year = self.inputs.days() as f64;
        let rotation_s: f64 = timed.iter().map(|y| low_decile(y)).sum();
        let busy_s: f64 = timed.iter().flat_map(|y| y.iter()).sum();
        let slots = timed.len();
        report.end_to_end_timed(
            "sim_days_per_s",
            days_per_year * slots as f64 / rotation_s,
            "1/s",
            Timing::Rate,
            Stat::LowDecile,
            format!(
                "p10 year time per location, {years} TKS years of {days_per_year} container-days"
            ),
        );
        report.info(
            "sim_days_per_s_all",
            days_per_year * years as f64 / busy_s,
            "1/s",
            format!("all {years} years in {busy_s:.2} s"),
        );
        if !report.traced() {
            for slot in 0..slots {
                let loc = self.inputs.location(slot).clone();
                let year = traced_year(&self.inputs, &loc, &Telemetry::disabled(), None);
                self.check_year(slot, &year.days, "wrapper", report);
            }
            return;
        }
        let Some(first) = &self.first else { return };
        let days = first.days.len() as f64;
        report.layer("weather.tmy_generate_ms", ms(first.tmy_ns as f64), "ms");
        report.layer("workload.trace_build_ms", ms(first.trace_ns as f64), "ms");
        report.layer("sim.ticks_per_day", first.step_calls as f64 / days, "count");
        report.layer(
            "thermal.plant_step_calls",
            first.step_calls as f64 / days,
            "count",
        );
        report.layer(
            "thermal.readings_calls",
            first.readings_calls as f64 / days,
            "count",
        );
        report.layer("alloc.per_day", first.allocs as f64 / days, "count");
        report.layer(
            "alloc.bytes_per_day",
            first.alloc_bytes as f64 / days,
            "bytes",
        );
        let decide_calls = self
            .spans
            .first()
            .map_or(0.0, |y| y.decide_calls as f64 / days);
        report.layer("thermal.tks_decide_calls", decide_calls, "count");

        // Timings: medians over the span-traced years.
        let per = |f: &dyn Fn(&TracedYear) -> f64| -> f64 {
            median(&self.spans.iter().map(f).collect::<Vec<_>>())
        };
        let jobs_us: Vec<f64> = self
            .spans
            .iter()
            .flat_map(|y| y.jobs_ns.iter().map(|ns| ns / 1e3))
            .collect();
        report.layer("workload.jobs_for_day_us", median(&jobs_us), "us");
        report.layer(
            "sim.run_day_ms",
            per(&|y| ms(y.run_day_ns as f64) / y.days.len() as f64),
            "ms",
        );
        report.layer(
            "sim.engine_self_ns_per_tick",
            per(&|y| {
                let children = y.step_ns + y.readings_ns + y.decide_ns;
                (y.run_day_ns.saturating_sub(children)) as f64 / y.step_calls.max(1) as f64
            }),
            "ns",
        );
        report.layer(
            "thermal.plant_step_ns",
            per(&|y| y.step_ns as f64 / y.step_calls.max(1) as f64),
            "ns",
        );
        report.layer(
            "thermal.readings_ns",
            per(&|y| y.readings_ns as f64 / y.readings_calls.max(1) as f64),
            "ns",
        );
        report.layer(
            "thermal.tks_decide_ns",
            per(&|y| y.decide_ns as f64 / y.decide_calls.max(1) as f64),
            "ns",
        );
        self.regime_layers(report);
    }

    /// Shares of ticks the TKS controller commands AC and free cooling,
    /// per location and over one year at each of the workload's
    /// locations.
    fn regime_layers(&self, report: &mut Report) {
        let (mut ticks, mut ac, mut free) = (0, 0, 0);
        for (slot, counts) in self.regimes.iter().enumerate() {
            let Some((t, a, f)) = *counts else {
                report.error(format!(
                    "annual: no traced year at {}",
                    self.inputs.location(slot).name()
                ));
                continue;
            };
            report.line(format!(
                "regimes at {}: {:.3} AC, {:.3} free cooling, {:.3} closed ({t} ticks)",
                self.inputs.location(slot).name(),
                a as f64 / t as f64,
                f as f64 / t as f64,
                (t - a - f) as f64 / t as f64
            ));
            ticks += t;
            ac += a;
            free += f;
        }
        let ticks = ticks.max(1) as f64;
        report.layer("thermal.ac_tick_share", ac as f64 / ticks, "ratio");
        report.layer(
            "thermal.free_cooling_tick_share",
            free as f64 / ticks,
            "ratio",
        );
    }
}

fn ms(ns: f64) -> f64 {
    ns / 1e6
}
