//! Real-Sim and Smooth-Sim: the closed-loop simulators of §5.1, plus the
//! metrics, annual runner, validation harness, and world sweep behind every
//! figure in the paper's evaluation.
//!
//! The paper built two simulators: **Real-Sim** "simulates Hadoop on Parasol
//! with or without CoolAir", and **Smooth-Sim** simulates the same container
//! with a smoother, more controllable cooling infrastructure (fine-grained
//! fan ramp, variable-speed compressor). Here both are instances of
//! [`Simulation`]: the same closed loop of weather → container plant →
//! cluster → controller, differing only in the plant's
//! [`coolair_thermal::Infrastructure`].
//!
//! One important difference from the paper: the authors' simulators *were*
//! the learned Cooling Model ("to compute temperatures and humidity over
//! time, they repeatedly call the same code implementing CoolAir's Cooling
//! Predictor"). We instead simulate the plant with independent physics and
//! let CoolAir use its *learned* models for prediction — a strictly harder
//! and more honest setting, which also makes the Figure 5/6/7 validations
//! meaningful (learned model vs plant, controller vs plant).
//!
//! # Example: one baseline day in Newark
//!
//! ```no_run
//! use coolair_sim::{run_annual, AnnualConfig, SystemSpec};
//! use coolair_weather::Location;
//! use coolair_workload::TraceKind;
//!
//! let summary = run_annual(
//!     &SystemSpec::Baseline,
//!     &Location::newark(),
//!     TraceKind::Facebook,
//!     &AnnualConfig::default(),
//! );
//! println!("PUE = {:.2}", summary.pue());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod annual;
mod engine;
mod episode;
mod faults;
mod fidelity;
pub mod jobs;
mod metrics;
mod model_plant;
mod reliability;
mod scenario;
mod validate;
mod worldsweep;

pub use annual::{
    run_annual, run_annual_traced, run_annual_with_model, run_days_loaded, run_days_traced,
    train_for_location,
    AnnualConfig, SystemSpec,
};
pub use engine::{Container, DayOutput, MinuteSample, SimConfig, Simulation, SimController};
pub use episode::{Action, Episode, EpisodeSpec, Observation, Reward, StepResult};
pub use faults::{
    ActuatorFault, FaultKind, FaultPlan, FaultRates, FaultSpec, FaultWindow, SensorFault,
};
pub use fidelity::{day_fidelity, FidelityReport, FidelitySystem};
pub use model_plant::ModelPlant;
pub use reliability::{disk_reliability, ReliabilityParams, ReliabilityReport};
pub use scenario::Scenario;
pub use metrics::{AnnualSummary, DayRecord, POWER_DELIVERY_PUE};
pub use validate::{model_error_cdfs, ModelErrorReport};
pub use worldsweep::{
    sweep_locations, sweep_one, sweep_one_with_model, world_sweep, world_sweep_with, SweepReport,
    WorldPoint, WorldSweepConfig,
};
