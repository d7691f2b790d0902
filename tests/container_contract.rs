//! The `Container::cooling_power` contract: every container reports the
//! same cooling power as its sensor snapshot, and the snapshot's IT power is
//! exactly the total of the last load it was stepped with.
//!
//! The engine integrates `cooling_power()` on every physics tick instead of
//! building a snapshot, so a container whose override disagreed with
//! `readings(t).cooling_power` would silently change every energy figure.

use coolair_suite::sim::{
    train_for_location, AnnualConfig, Container, ModelPlant, SimConfig, SimController, Simulation,
};
use coolair_suite::thermal::{
    cooling_power, CoolingRegime, Infrastructure, ItLoad, OutsideConditions, Plant, PlantBank,
    PlantConfig, SensorReadings, TksConfig, TksController,
};
use coolair_suite::units::{
    psychro, Celsius, FanSpeed, RelativeHumidity, SimDuration, SimTime, Watts,
};
use coolair_suite::weather::{Location, TmySeries};
use coolair_suite::workload::{facebook_trace, Cluster, ClusterConfig};

const DT: SimDuration = SimDuration::from_secs(15);

fn outside(t: f64, rh: f64) -> OutsideConditions {
    let temperature = Celsius::new(t);
    OutsideConditions {
        temperature,
        abs_humidity: psychro::absolute_humidity(temperature, RelativeHumidity::new(rh)),
    }
}

/// Commands that walk every regime, including re-entries from a different
/// regime (where the smooth units slew up from their floor) and a free-
/// cooling fan below Parasol's 15 % minimum.
fn schedule() -> Vec<CoolingRegime> {
    let blocks = [
        CoolingRegime::Closed,
        CoolingRegime::free_cooling(FanSpeed::new(0.5).unwrap()),
        CoolingRegime::ac_on(),
        CoolingRegime::free_cooling(FanSpeed::MAX),
        CoolingRegime::Ac { compressor: 0.4 },
        CoolingRegime::ac_fan_only(),
        CoolingRegime::free_cooling(FanSpeed::new(0.05).unwrap()),
        CoolingRegime::Closed,
        CoolingRegime::ac_on(),
    ];
    blocks
        .iter()
        .flat_map(|&r| std::iter::repeat_n(r, 40))
        .collect()
}

/// A non-uniform load that changes every step.
fn load(step: usize) -> ItLoad {
    let pod_power = (0..4)
        .map(|p| Watts::new(90.0 + 37.5 * ((step * 7 + p * 3) % 11) as f64 + 0.1 * p as f64))
        .collect();
    ItLoad {
        pod_power,
        active_fraction: ((step % 9) as f64 + 1.0) / 9.0,
    }
}

/// Checks one step's contract: the cooling power is the applied regime's
/// draw on `infra` and equals the snapshot's, and the snapshot's IT power
/// and active fraction are exactly the last load's.
fn assert_snapshot_agrees(
    cooling: Watts,
    applied: CoolingRegime,
    infra: Infrastructure,
    readings: &SensorReadings,
    it: &ItLoad,
    what: &str,
    step: usize,
) {
    assert_eq!(
        cooling.value().to_bits(),
        cooling_power(applied, infra).value().to_bits(),
        "{what}: cooling_power() is not the applied regime's draw at step {step}"
    );
    assert_eq!(
        readings.regime, applied,
        "{what}: snapshot regime at step {step}"
    );
    assert_eq!(
        cooling.value().to_bits(),
        readings.cooling_power.value().to_bits(),
        "{what}: cooling_power() != readings().cooling_power at step {step}"
    );
    assert_eq!(
        readings.it_power.value().to_bits(),
        it.total().value().to_bits(),
        "{what}: readings().it_power != ItLoad::total() at step {step}"
    );
    assert_eq!(
        readings.active_fraction.to_bits(),
        it.active_fraction.to_bits()
    );
}

/// Steps `container` through [`schedule`] and checks the contract after
/// every step; returns how many steps applied a regime other than the
/// command (slew or sanitising).
fn walk<C: Container>(
    container: &mut C,
    infra: Infrastructure,
    applied: impl Fn(&C) -> CoolingRegime,
    what: &str,
) -> usize {
    let mut differs = 0;
    for (step, commanded) in schedule().into_iter().enumerate() {
        let it = load(step);
        let weather = if step % 2 == 0 {
            outside(31.0, 60.0)
        } else {
            outside(12.0, 70.0)
        };
        container.step(DT, weather, &it, commanded);
        let now = SimTime::from_secs(step as u64 * DT.as_secs());
        let readings = container.readings(now);
        let regime = applied(container);
        assert_snapshot_agrees(
            container.cooling_power(),
            regime,
            infra,
            &readings,
            &it,
            what,
            step,
        );
        if regime != commanded {
            differs += 1;
        }
    }
    differs
}

#[test]
fn plant_cooling_power_matches_its_snapshot_on_both_infrastructures() {
    for config in [PlantConfig::parasol(), PlantConfig::smooth()] {
        let infra = config.infrastructure;
        let mut plant = Plant::new(config);
        let differs = walk(
            &mut plant,
            infra,
            Plant::applied_regime,
            &format!("{infra:?} plant"),
        );
        // Parasol sanitises the 5 % fan to its minimum; the smooth units
        // slew up on every regime entry. Either way the applied regime,
        // not the command, is what draws power.
        assert!(
            differs > 0,
            "{infra:?}: the schedule must exercise sanitising or slew"
        );
    }
}

#[test]
fn plant_bank_lanes_match_their_snapshots() {
    let mut bank = PlantBank::new(PlantConfig::smooth(), 3);
    let regimes = schedule();
    for step in 0..regimes.len() {
        let loads: Vec<ItLoad> = (0..3).map(|lane| load(step + lane)).collect();
        let weather = [outside(5.0, 60.0), outside(25.0, 50.0), outside(38.0, 80.0)];
        let commands: Vec<CoolingRegime> = (0..3)
            .map(|lane| regimes[(step + 40 * lane) % regimes.len()])
            .collect();
        for (lane, it) in loads.iter().enumerate() {
            bank.step_lane(lane, DT, weather[lane], it, commands[lane]);
        }
        for (lane, it) in loads.iter().enumerate() {
            let readings = bank.readings_lane(lane, SimTime::EPOCH);
            assert_snapshot_agrees(
                bank.cooling_power_lane(lane),
                bank.applied_regime(lane),
                Infrastructure::Smooth,
                &readings,
                it,
                "bank lane",
                step,
            );
        }
    }
}

#[test]
fn model_plant_cooling_power_matches_its_snapshot() {
    let model = train_for_location(&Location::newark(), &AnnualConfig::quick());
    for infra in [Infrastructure::Parasol, Infrastructure::Smooth] {
        let mut plant = ModelPlant::new(model.clone(), infra);
        walk(
            &mut plant,
            infra,
            ModelPlant::applied_regime,
            &format!("{infra:?} model plant"),
        );
    }
}

/// A container that implements only the required methods, so the engine
/// reaches its cooling power through the trait default.
#[derive(Debug)]
struct SnapshotOnly(Plant);

impl Container for SnapshotOnly {
    fn step(
        &mut self,
        dt: SimDuration,
        outside: OutsideConditions,
        it: &ItLoad,
        commanded: CoolingRegime,
    ) {
        self.0.step(dt, outside, it, commanded);
    }
    fn readings(&self, now: SimTime) -> SensorReadings {
        self.0.readings(now)
    }
    fn pods(&self) -> usize {
        Container::pods(&self.0)
    }
}

#[test]
fn trait_default_goes_through_the_snapshot_and_agrees_with_the_override() {
    let mut wrapped = SnapshotOnly(Plant::new(PlantConfig::smooth()));
    walk(
        &mut wrapped,
        Infrastructure::Smooth,
        |w| w.0.applied_regime(),
        "default",
    );
    assert_eq!(
        Container::cooling_power(&wrapped).value().to_bits(),
        wrapped.0.cooling_power().value().to_bits()
    );

    // A whole day through the default equals the same day through the
    // `Plant` override, bit for bit.
    let tmy = TmySeries::generate(&Location::chad(), 42);
    let jobs = facebook_trace(1).jobs_for_day(130);
    let baseline = || SimController::Baseline(TksController::new(TksConfig::baseline()));
    let cluster = || Cluster::new(ClusterConfig::parasol());
    let mut direct = Simulation::new(
        baseline(),
        PlantConfig::smooth(),
        cluster(),
        tmy.clone(),
        SimConfig::default(),
    );
    let mut via_default = Simulation::with_plant(
        baseline(),
        SnapshotOnly(Plant::new(PlantConfig::smooth())),
        cluster(),
        tmy,
        SimConfig::default(),
    );
    let a = direct.run_day(130, jobs.clone()).record;
    let b = via_default.run_day(130, jobs).record;
    assert!(a.cooling_kwh > 0.0);
    assert_eq!(a.cooling_kwh.to_bits(), b.cooling_kwh.to_bits());
    assert_eq!(a, b);
}
