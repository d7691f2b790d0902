//! Golden bit-identity pins for the per-tick simulation loop.
//!
//! Cross-path tests (TKS ≡ `Fixed{30}`, fleet N=1 ≡ `run_annual`, served ≡
//! local) compare two paths through the same tick code, so a change to
//! that code moves both sides together and they still agree. These tests
//! instead pin an FNV-1a digest of the exact f64 bits of every `DayRecord`
//! (and, where recorded, every per-minute sample and episode step) of short
//! slices of representative runs. The expected digests were recorded before
//! the allocation-free tick loop landed; any drift in the simulated numbers,
//! down to the last bit, fails here.
//!
//! If a change is *meant* to move the numbers, say so in its description
//! and re-record: the failure message prints every digest.

use coolair_suite::core::Version;
use coolair_suite::sim::{
    run_days_loaded, run_days_traced, train_for_location, Action, ActuatorFault, AnnualConfig,
    AnnualSummary, DayOutput, DayRecord, Episode, EpisodeSpec, FaultKind, FaultSpec, FaultWindow,
    MinuteSample, SensorFault, SimConfig, SimController, Simulation, StepResult, SystemSpec,
};
use coolair_suite::telemetry::Telemetry;
use coolair_suite::thermal::{Infrastructure, PlantConfig, TksConfig, TksController};
use coolair_suite::units::{SimDuration, SimTime};
use coolair_suite::weather::{Location, TmySeries};
use coolair_suite::workload::{facebook_trace, Cluster, ClusterConfig, TraceKind};

/// 64-bit FNV-1a over a stream of words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn f64s(&mut self, vs: &[f64]) {
        self.u64(vs.len() as u64);
        for &v in vs {
            self.f64(v);
        }
    }
    fn record(&mut self, r: &DayRecord) {
        self.u64(r.day);
        self.f64s(&r.sensor_min);
        self.f64s(&r.sensor_max);
        self.f64(r.violation_sum);
        self.u64(r.readings);
        self.f64(r.cooling_kwh);
        self.f64(r.it_kwh);
        self.f64(r.max_rate_c_per_hour);
        self.f64(r.rh_violation_fraction);
        self.f64(r.outside_range);
        self.u64(r.jobs_completed);
        self.u64(r.power_cycles);
        self.u64(r.fault_minutes);
        self.u64(r.degraded_minutes);
        self.u64(r.failsafe_minutes);
        self.u64(r.fallback_transitions);
        self.u64(r.imputed_readings);
    }
    fn minute(&mut self, m: &MinuteSample) {
        self.u64(m.time.as_secs());
        for v in [
            m.outside,
            m.max_inlet,
            m.min_inlet,
            m.mean_inlet,
            m.rh,
            m.fan_pct,
            m.compressor_pct,
            m.cooling_w,
            m.it_w,
            m.max_disk,
        ] {
            self.f64(v);
        }
        self.u64(m.active_servers as u64);
        match m.band {
            Some((lo, hi)) => {
                self.u64(1);
                self.f64(lo);
                self.f64(hi);
            }
            None => self.u64(0),
        }
    }
    fn day(&mut self, out: &DayOutput) {
        self.record(&out.record);
        self.u64(out.minutes.len() as u64);
        for m in &out.minutes {
            self.minute(m);
        }
    }
    fn step(&mut self, s: &StepResult) {
        let o = &s.observation;
        self.u64(s.step);
        self.u64(o.time.as_secs());
        for v in [
            o.day_fraction,
            o.outside_temp_c,
            o.outside_rh_pct,
            o.max_inlet_c,
            o.mean_inlet_c,
            o.min_inlet_c,
            o.cold_aisle_rh_pct,
            o.fan_pct,
            o.compressor_pct,
            o.cooling_w,
            o.it_w,
            o.active_fraction,
            o.demand_fraction,
            s.reward.violation_cmin,
            s.reward.energy_kwh,
        ] {
            self.f64(v);
        }
        self.u64(u64::from(o.regime_code));
        self.u64(u64::from(s.done));
    }
}

/// A TKS baseline simulation over consecutive `days`, minutes recorded.
fn baseline_days(
    location: &Location,
    plant: PlantConfig,
    engine: SimConfig,
    days: &[u64],
) -> (u64, Vec<DayOutput>) {
    let tmy = TmySeries::generate(location, 42);
    let trace = facebook_trace(1);
    let mut sim = Simulation::new(
        SimController::Baseline(TksController::new(TksConfig::baseline())),
        plant,
        Cluster::new(ClusterConfig::parasol()),
        tmy,
        SimConfig {
            record_minutes: true,
            ..engine
        },
    );
    let outs: Vec<DayOutput> = days
        .iter()
        .map(|&day| sim.run_day(day, trace.jobs_for_day(day)))
        .collect();
    let mut h = Fnv::new();
    for out in &outs {
        h.day(out);
    }
    (h.0, outs)
}

/// The annual runner over an explicit day list.
fn annual_days(
    system: &SystemSpec,
    location: &Location,
    cfg: &AnnualConfig,
    model: Option<coolair_suite::core::CoolingModel>,
    days: &[u64],
) -> (u64, AnnualSummary) {
    let summary = run_days_loaded(
        system,
        location,
        TraceKind::Facebook,
        cfg,
        model,
        days,
        true,
        Telemetry::disabled(),
    );
    let mut h = Fnv::new();
    for r in summary.days() {
        h.record(r);
    }
    (h.0, summary)
}

/// Background fault load plus a ladder drill on `day`: two pod sensors drop
/// out while the compressor is locked out, then the damper jams.
fn ladder_spec(day: u64) -> FaultSpec {
    let at = |h: u64| SimTime::from_secs(day * 86_400 + h * 3_600);
    let mut extra: Vec<FaultWindow> = (0..2)
        .map(|pod| FaultWindow {
            start: at(6),
            end: at(12),
            kind: FaultKind::Sensor {
                pod,
                fault: SensorFault::Dropout,
            },
        })
        .collect();
    extra.push(FaultWindow {
        start: at(9),
        end: at(14),
        kind: FaultKind::Actuator(ActuatorFault::AcLockout),
    });
    extra.push(FaultWindow {
        start: at(15),
        end: at(17),
        kind: FaultKind::Actuator(ActuatorFault::DamperJam),
    });
    FaultSpec {
        seed: 7,
        severity: 2.0,
        extra,
    }
}

fn check(name: &str, expected: u64, actual: u64, report: &mut Vec<String>) {
    if expected != actual {
        report.push(format!(
            "{name}: expected {expected:#018x}, got {actual:#018x}"
        ));
    }
}

fn uses_ac(outs: &[DayOutput]) -> bool {
    outs.iter()
        .flat_map(|o| &o.minutes)
        .any(|m| m.compressor_pct > 0.0)
}

#[test]
fn baseline_days_match_recorded_bits() {
    let mut report = Vec::new();
    // AC-heavy: Chad in spring and summer on the smooth units (slewed AC).
    let (digest, outs) = baseline_days(
        &Location::chad(),
        PlantConfig::smooth(),
        SimConfig::default(),
        &[120, 121],
    );
    assert!(uses_ac(&outs), "the Chad slice must exercise the AC");
    check(
        "chad/smooth/120-121",
        GOLDEN_CHAD_SMOOTH,
        digest,
        &mut report,
    );

    // Closed / free cooling: Iceland on Parasol's abrupt units.
    let (digest, outs) = baseline_days(
        &Location::iceland(),
        PlantConfig::parasol(),
        SimConfig::default(),
        &[30, 200],
    );
    assert!(!uses_ac(&outs), "the Iceland slice must free-cool only");
    assert!(outs
        .iter()
        .flat_map(|o| &o.minutes)
        .any(|m| m.fan_pct > 0.0));
    check(
        "iceland/parasol/30,200",
        GOLDEN_ICELAND_PARASOL,
        digest,
        &mut report,
    );

    // A 70 s compute period is not a multiple of the 15 s physics step and
    // does not divide either day's warm-up start, so each day opens on
    // ticks that are not compute ticks.
    let odd = SimConfig {
        compute_period: SimDuration::from_secs(70),
        ..SimConfig::default()
    };
    let (digest, _) = baseline_days(&Location::newark(), PlantConfig::smooth(), odd, &[3, 4]);
    check(
        "newark/smooth/odd-compute/3-4",
        GOLDEN_NEWARK_ODD_COMPUTE,
        digest,
        &mut report,
    );

    // A fault ladder under the TKS (Parasol).
    let days = [150u64];
    let mut cfg = AnnualConfig::quick();
    cfg.infrastructure = Infrastructure::Parasol;
    cfg.faults = ladder_spec(150).schedule(&days, 4);
    let (digest, summary) = annual_days(
        &SystemSpec::Baseline,
        &Location::newark(),
        &cfg,
        None,
        &days,
    );
    assert!(summary.fault_minutes() > 0, "the drill must be active");
    check(
        "newark/parasol/faults/150",
        GOLDEN_BASELINE_FAULTS,
        digest,
        &mut report,
    );

    assert!(
        report.is_empty(),
        "tick-loop output drifted:\n{}",
        report.join("\n")
    );
}

#[test]
fn coolair_days_match_recorded_bits() {
    let location = Location::newark();
    let base = AnnualConfig::quick();
    let model = train_for_location(&location, &base);
    let mut report = Vec::new();
    let all_nd = SystemSpec::CoolAir(Version::AllNd);
    let (digest, summary) = annual_days(&all_nd, &location, &base, Some(model.clone()), &[21]);
    assert!(
        summary.power_cycles() > 0,
        "All-ND must manage the active server set"
    );
    check("newark/allnd/21", GOLDEN_ALLND, digest, &mut report);

    let days = [150u64];
    let cfg = AnnualConfig {
        faults: ladder_spec(150).schedule(&days, 4),
        ..base
    };
    let supervised = SystemSpec::Supervised(Version::AllNd);
    let (digest, summary) = annual_days(&supervised, &location, &cfg, Some(model), &days);
    assert!(
        summary.degraded_minutes() > 0,
        "the drill must push the supervisor off Normal"
    );
    check(
        "newark/allnd+sv/faults/150",
        GOLDEN_SUPERVISED_FAULTS,
        digest,
        &mut report,
    );

    assert!(
        report.is_empty(),
        "tick-loop output drifted:\n{}",
        report.join("\n")
    );
}

#[test]
fn episode_trajectory_matches_recorded_bits() {
    // Decisions every 225 s: not a multiple of the 60 s compute period, so
    // compute ticks fall inside decision windows and the active-server
    // target changes between them.
    let mut spec = EpisodeSpec {
        decision_period: SimDuration::from_secs(225),
        ..EpisodeSpec::seeded(Location::chad(), 3)
    };
    spec.scenario.fault = FaultSpec::random(7, 1.5);
    let mut ep = Episode::new(&spec).expect("valid spec");
    let mut h = Fnv::new();
    let mut i = 0u64;
    while !ep.is_done() {
        let action = Action {
            setpoint_c: 24.0 + (i % 9) as f64,
            active_servers: 4 + (i as usize * 13) % 61,
        };
        h.step(&ep.step(&action).expect("not done"));
        i += 1;
    }
    h.f64(ep.cooling_kwh());
    h.f64(ep.it_kwh());
    let mut report = Vec::new();
    check("chad/episode/225s", GOLDEN_EPISODE, h.0, &mut report);
    assert!(
        report.is_empty(),
        "episode trajectory drifted:\n{}",
        report.join("\n")
    );
}

#[test]
fn day_long_baseline_episode_is_the_baseline_day() {
    // One window spanning the whole day under the baseline action is the
    // Baseline `run_day` of that day: the same tick loop, sensing on the
    // same cadence. Under a dropout the TKS acts on held values, so the
    // drills also pin which readings refresh the stale-hold buffer: only
    // the ones a consumer senses.
    let total_dropout = FaultSpec {
        seed: 7,
        severity: 0.0,
        extra: (0..4)
            .map(|pod| FaultWindow {
                start: SimTime::from_secs(150 * 86_400 + 6 * 3_600),
                end: SimTime::from_secs(150 * 86_400 + 12 * 3_600),
                kind: FaultKind::Sensor {
                    pod,
                    fault: SensorFault::Dropout,
                },
            })
            .collect(),
    };
    for (name, fault) in [
        ("fault-free", FaultSpec::none()),
        ("ladder", ladder_spec(150)),
        ("total dropout", total_dropout),
    ] {
        let mut spec = EpisodeSpec {
            decision_period: SimDuration::from_hours(24),
            ..EpisodeSpec::nominal(Location::newark())
        };
        spec.scenario.fault = fault;
        let mut ep = Episode::new(&spec).expect("valid spec");
        let step = ep.step(&Action::baseline(ep.total_servers())).expect("not done");
        assert!(step.done, "{name}: one window spans the day");

        let summary = run_days_traced(
            &SystemSpec::Baseline,
            &spec.scenario.location,
            spec.scenario.trace,
            &spec.effective_annual(),
            None,
            &spec.days(),
            Telemetry::disabled(),
        );
        let day = &summary.days()[0];
        if name != "fault-free" {
            assert!(summary.fault_minutes() > 0, "{name}: the drill must be active");
        }
        for (what, episode, run_day) in [
            ("violation", step.reward.violation_cmin, day.violation_sum),
            ("cooling kWh", ep.cooling_kwh(), day.cooling_kwh),
            ("IT kWh", ep.it_kwh(), day.it_kwh),
        ] {
            assert_eq!(
                episode.to_bits(),
                run_day.to_bits(),
                "{name}: {what} {episode} (episode) vs {run_day} (run_day)"
            );
        }
    }
}

const GOLDEN_CHAD_SMOOTH: u64 = 0xd762_5a2f_40ad_367a;
const GOLDEN_ICELAND_PARASOL: u64 = 0xf414_8544_f33b_4cce;
const GOLDEN_NEWARK_ODD_COMPUTE: u64 = 0x36db_ab85_4e76_c35f;
const GOLDEN_BASELINE_FAULTS: u64 = 0x71cd_d7d9_73bd_bb2b;
const GOLDEN_ALLND: u64 = 0x7574_8330_479c_a59e;
const GOLDEN_SUPERVISED_FAULTS: u64 = 0x0be3_c440_eaf1_6185;
const GOLDEN_EPISODE: u64 = 0x3ac3_f1b5_db54_555e;
