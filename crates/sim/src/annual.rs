//! Year-long evaluation runner (§5.1: "to limit the length of our year-long
//! Smooth-Sim simulations, we only simulate the first day of each week of
//! the year. We repeat the workload for each of those days").

use coolair::{
    train_cooling_model, CoolAir, CoolAirConfig, CoolingModel, SupervisedCoolAir,
    SupervisorConfig, TrainingConfig, Version,
};
use coolair_thermal::{Infrastructure, PlantConfig, TksConfig, TksController};
use coolair_units::Celsius;
use coolair_weather::{ForecastError, Forecaster, Location, TmySeries};
use coolair_workload::{facebook_trace, nutch_trace, Cluster, ClusterConfig, Trace, TraceKind};
use serde::{Deserialize, Serialize};

use crate::engine::{SimConfig, SimController, Simulation};
use crate::faults::FaultPlan;
use crate::metrics::{AnnualSummary, DayRecord};

/// Which system to evaluate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SystemSpec {
    /// The §5.1 baseline: extended TKS at a 30 °C setpoint with humidity
    /// control, all servers active.
    Baseline,
    /// The baseline with a custom setpoint (§5.2 maximum-temperature
    /// study).
    BaselineWithSetpoint(Celsius),
    /// A CoolAir version with the default configuration.
    CoolAir(Version),
    /// A CoolAir version with a custom configuration.
    CoolAirWith(Version, CoolAirConfig),
    /// A CoolAir version wrapped in the degraded-mode supervisor (sensor
    /// validation, fallback ladder, hard overtemp failsafe).
    Supervised(Version),
    /// A supervised CoolAir version with custom controller *and* supervisor
    /// configurations — the variant the robust tuner evaluates, since the
    /// design vector reaches both the band geometry and the ladder trip
    /// points.
    SupervisedWith(Version, CoolAirConfig, SupervisorConfig),
}

impl SystemSpec {
    /// Display name matching the paper's figures.
    #[must_use]
    pub fn name(&self) -> String {
        match self {
            SystemSpec::Baseline => "Baseline".into(),
            SystemSpec::BaselineWithSetpoint(sp) => format!("Baseline@{:.0}", sp.value()),
            SystemSpec::CoolAir(v) => v.name().into(),
            SystemSpec::CoolAirWith(v, _) => v.name().into(),
            SystemSpec::Supervised(v) => format!("{}+SV", v.name()),
            SystemSpec::SupervisedWith(v, _, _) => format!("{}+SV*", v.name()),
        }
    }
}

/// Annual-run parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnnualConfig {
    /// Simulate one day every `stride` days (7 → the paper's 52-day year).
    pub stride: u64,
    /// Infrastructure for the evaluation plant (the paper's headline
    /// results use the smooth infrastructure; Real-Sim uses Parasol).
    pub infrastructure: Infrastructure,
    /// Weather seed.
    pub weather_seed: u64,
    /// Trace generation seed.
    pub trace_seed: u64,
    /// Cooling Model training length (training always runs on the Parasol
    /// plant, as in §4.2).
    pub training: TrainingConfig,
    /// Forecast error model (perfect by default, as with TMY data).
    pub forecast_error: ForecastError,
    /// Use deferrable jobs (6-hour start deadlines) — required by the DEF
    /// versions.
    pub deferrable: bool,
    /// Optional adiabatic pre-cooler effectiveness fitted to the container
    /// intake (§2's evaporative-cooling option; an extension experiment).
    pub adiabatic: Option<f64>,
    /// Override the plant's AC condenser derating (ablation experiments).
    pub ac_condenser_derate_per_c: Option<f64>,
    /// Override the plant's AC latent-load factor (ablation experiments).
    pub ac_latent_factor: Option<f64>,
    /// Injected sensor/actuator/forecast faults ([`FaultPlan::none`] by
    /// default, which leaves the loop bit-identical to a run without the
    /// fault layer).
    pub faults: FaultPlan,
    /// Override the cluster's covering-subset size (the robust tuner's
    /// reach into [`ClusterConfig::parasol`]'s default of 8). `None`
    /// keeps the default; the value is clamped to the server count.
    pub covering_count: Option<usize>,
    /// Engine tuning.
    pub engine: SimConfig,
}

impl Default for AnnualConfig {
    fn default() -> Self {
        AnnualConfig {
            stride: 7,
            infrastructure: Infrastructure::Smooth,
            weather_seed: 42,
            trace_seed: 1,
            training: TrainingConfig::default(),
            forecast_error: ForecastError::PERFECT,
            deferrable: false,
            adiabatic: None,
            ac_condenser_derate_per_c: None,
            ac_latent_factor: None,
            faults: FaultPlan::none(),
            covering_count: None,
            engine: SimConfig::default(),
        }
    }
}

impl AnnualConfig {
    /// A fast configuration for tests: monthly sampling and short training.
    #[must_use]
    pub fn quick() -> Self {
        AnnualConfig {
            stride: 30,
            training: TrainingConfig::quick(),
            ..AnnualConfig::default()
        }
    }

    /// The calendar days simulated.
    #[must_use]
    pub fn sampled_days(&self) -> Vec<u64> {
        (0..365).step_by(self.stride.max(1) as usize).collect()
    }

    /// The evaluation simulation for `controller`: the configured plant and
    /// cluster under `tmy`, with the fault plan installed (shared with the
    /// episode layer).
    pub(crate) fn simulation(&self, controller: SimController, tmy: TmySeries) -> Simulation {
        let mut plant_config = match self.infrastructure {
            Infrastructure::Parasol => PlantConfig::parasol(),
            Infrastructure::Smooth => PlantConfig::smooth(),
        };
        plant_config.adiabatic_effectiveness = self.adiabatic;
        if let Some(v) = self.ac_condenser_derate_per_c {
            plant_config.ac_condenser_derate_per_c = v;
        }
        if let Some(v) = self.ac_latent_factor {
            plant_config.ac_latent_factor = v;
        }
        let mut cluster_config = ClusterConfig::parasol();
        if let Some(covering) = self.covering_count {
            cluster_config.covering_count = covering.clamp(1, cluster_config.total_servers);
        }
        let mut sim = Simulation::new(
            controller,
            plant_config,
            Cluster::new(cluster_config),
            tmy,
            self.engine.clone(),
        );
        sim.set_fault_plan(self.faults.clone());
        sim
    }
}

/// Builds the day-long trace for a config (shared with the episode layer).
pub(crate) fn build_trace(kind: TraceKind, cfg: &AnnualConfig) -> Trace {
    let base = match kind {
        TraceKind::Facebook => facebook_trace(cfg.trace_seed),
        TraceKind::Nutch => nutch_trace(cfg.trace_seed),
    };
    if cfg.deferrable {
        base.with_deadlines(CoolAirConfig::default().deferral_deadline)
    } else {
        base
    }
}

/// Trains the Cooling Model for a location (on the Parasol plant, under the
/// location's weather, as the paper does for Parasol's site).
#[must_use]
pub fn train_for_location(location: &Location, cfg: &AnnualConfig) -> CoolingModel {
    let tmy = TmySeries::generate(location, cfg.weather_seed);
    train_cooling_model(&tmy, &cfg.training)
}

/// Runs one system for a year at a location and returns its summary.
///
/// # Panics
///
/// Panics if a DEF CoolAir version is run without `cfg.deferrable`.
#[must_use]
pub fn run_annual(
    system: &SystemSpec,
    location: &Location,
    trace: TraceKind,
    cfg: &AnnualConfig,
) -> AnnualSummary {
    let model = match system {
        SystemSpec::CoolAir(_)
        | SystemSpec::CoolAirWith(..)
        | SystemSpec::Supervised(_)
        | SystemSpec::SupervisedWith(..) => Some(train_for_location(location, cfg)),
        _ => None,
    };
    run_annual_with_model(system, location, trace, cfg, model)
}

/// Like [`run_annual`] but reuses a pre-trained model (train once, evaluate
/// many versions — how the figure benches amortise the §4.2 campaign).
#[must_use]
pub fn run_annual_with_model(
    system: &SystemSpec,
    location: &Location,
    trace: TraceKind,
    cfg: &AnnualConfig,
    model: Option<CoolingModel>,
) -> AnnualSummary {
    run_annual_traced(system, location, trace, cfg, model, coolair_telemetry::Telemetry::disabled())
}

/// Like [`run_annual_with_model`] but with a telemetry bus attached to the
/// engine and controller for the whole run. Telemetry never feeds back into
/// the loop: the returned summary is bit-identical whether the bus is
/// enabled, disabled, or absent.
#[must_use]
pub fn run_annual_traced(
    system: &SystemSpec,
    location: &Location,
    trace: TraceKind,
    cfg: &AnnualConfig,
    model: Option<CoolingModel>,
    telemetry: coolair_telemetry::Telemetry,
) -> AnnualSummary {
    run_days_traced(system, location, trace, cfg, model, &cfg.sampled_days(), telemetry)
}

/// Like [`run_annual_traced`] but over an explicit list of calendar days
/// instead of the config's stride sampling (how the CLI `run` command
/// traces a single day).
#[must_use]
pub fn run_days_traced(
    system: &SystemSpec,
    location: &Location,
    trace: TraceKind,
    cfg: &AnnualConfig,
    model: Option<CoolingModel>,
    sampled_days: &[u64],
    telemetry: coolair_telemetry::Telemetry,
) -> AnnualSummary {
    run_days_loaded(system, location, trace, cfg, model, sampled_days, true, telemetry)
}

/// Like [`run_days_traced`] but with an explicit `loaded` switch: when
/// `false`, no trace jobs are submitted, so the container idles on its
/// covering subset — the fleet layer's "light" lane, a container whose
/// deferrable batch load migrated elsewhere. `loaded == true` is exactly
/// [`run_days_traced`] (same code path, bit for bit).
#[allow(clippy::too_many_arguments)]
#[must_use]
pub fn run_days_loaded(
    system: &SystemSpec,
    location: &Location,
    trace: TraceKind,
    cfg: &AnnualConfig,
    model: Option<CoolingModel>,
    sampled_days: &[u64],
    loaded: bool,
    telemetry: coolair_telemetry::Telemetry,
) -> AnnualSummary {
    let tmy = TmySeries::generate(location, cfg.weather_seed);
    let trace = build_trace(trace, cfg);

    // Forecast-service faults act at the provider, so every CoolAir-family
    // controller (supervised or not) sees the same corrupted forecasts.
    let forecaster = || {
        Forecaster::new(tmy.clone(), cfg.forecast_error, cfg.weather_seed)
            .with_glitches(cfg.faults.forecast_glitches())
    };
    let controller = match system {
        SystemSpec::Baseline => {
            SimController::Baseline(TksController::new(TksConfig::baseline()))
        }
        SystemSpec::BaselineWithSetpoint(sp) => {
            SimController::Baseline(TksController::new(TksConfig::baseline_with_setpoint(*sp)))
        }
        SystemSpec::CoolAir(version) => SimController::CoolAir(Box::new(CoolAir::new(
            *version,
            CoolAirConfig::default(),
            model.expect("model trained above"),
            forecaster(),
            cfg.infrastructure,
        ))),
        SystemSpec::CoolAirWith(version, ca_cfg) => {
            SimController::CoolAir(Box::new(CoolAir::new(
                *version,
                ca_cfg.clone(),
                model.expect("model trained above"),
                forecaster(),
                cfg.infrastructure,
            )))
        }
        SystemSpec::Supervised(version) => {
            SimController::Supervised(Box::new(SupervisedCoolAir::new(
                CoolAir::new(
                    *version,
                    CoolAirConfig::default(),
                    model.expect("model trained above"),
                    forecaster(),
                    cfg.infrastructure,
                ),
                SupervisorConfig::default(),
            )))
        }
        SystemSpec::SupervisedWith(version, ca_cfg, sv_cfg) => {
            SimController::Supervised(Box::new(SupervisedCoolAir::new(
                CoolAir::new(
                    *version,
                    ca_cfg.clone(),
                    model.expect("model trained above"),
                    forecaster(),
                    cfg.infrastructure,
                ),
                *sv_cfg,
            )))
        }
    };
    let deferrable_version = match &controller {
        SimController::CoolAir(ca) => Some(ca.version()),
        SimController::Supervised(sv) => Some(sv.inner().version()),
        SimController::Baseline(_) => None,
    };
    if let Some(version) = deferrable_version {
        assert!(
            !version.is_deferrable() || cfg.deferrable,
            "{version} needs deferrable jobs; set AnnualConfig::deferrable",
        );
    }

    let mut sim = cfg.simulation(controller, tmy);
    sim.set_telemetry(telemetry);

    let mut days: Vec<DayRecord> = Vec::new();
    for &day in sampled_days {
        let jobs = if loaded { trace.jobs_for_day(day) } else { Vec::new() };
        let out = sim.run_day(day, jobs);
        days.push(out.record);
    }
    AnnualSummary::new(days)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_annual_baseline_runs() {
        let cfg = AnnualConfig::quick();
        let s = run_annual(&SystemSpec::Baseline, &Location::newark(), TraceKind::Facebook, &cfg);
        assert_eq!(s.len(), cfg.sampled_days().len());
        assert!(s.pue() > 1.05 && s.pue() < 2.5, "PUE {}", s.pue());
        assert!(s.avg_worst_range() > 1.0, "range {}", s.avg_worst_range());
    }

    #[test]
    #[should_panic(expected = "needs deferrable jobs")]
    fn def_version_requires_deferrable_trace() {
        let cfg = AnnualConfig::quick();
        let _ = run_annual(
            &SystemSpec::CoolAir(Version::AllDef),
            &Location::newark(),
            TraceKind::Facebook,
            &cfg,
        );
    }

    #[test]
    fn sampled_days_follow_stride() {
        let cfg = AnnualConfig::default();
        let days = cfg.sampled_days();
        assert_eq!(days.len(), 53); // 0, 7, …, 364
        assert_eq!(days[0], 0);
        assert_eq!(days[1], 7);
        assert_eq!(*days.last().unwrap(), 364);
    }
}
