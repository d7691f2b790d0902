//! End-to-end and per-layer benchmark of the CoolAir reproduction.
//!
//! One run is one process that times calls into the crates' public
//! functions from outside. It executes three phases, interleaved in
//! cycles so that every metric samples the whole run rather than one
//! stretch of it (this VM's speed drifts for seconds at a time):
//!
//! * `annual-tks` — back-to-back Baseline (TKS) years, stride 7;
//! * `campaign` — cold passes over fresh artifact stores and warm
//!   resume passes over one warm store;
//! * `serve-episodes` — an in-process daemon driven by a closed-loop
//!   episode client and an open-loop `/healthz` prober.
//!
//! The workload (`--workload`) picks the climates every phase runs on;
//! the seed (`--seed`) derives every other input. The untraced binary
//! reports end-to-end metrics; the traced binary (counting allocator,
//! timing wrappers, telemetry on) reports per-layer metrics.

mod annual;
mod campaign;
mod host;
mod report;
mod serve;
mod stats;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use coolair_weather::Location;

use crate::host::{HostSpeed, Stat};
use crate::report::{Report, Timing};

/// The allocation counters kept by the traced binary's global allocator.
#[derive(Clone, Copy, Debug)]
pub struct AllocCounter {
    /// Reads the calling thread's `(allocations, bytes)`.
    pub probe: fn() -> (u64, u64),
    /// Turns counting on or off for every thread.
    pub set_counting: fn(bool),
}

/// The input mixes `--workload` selects.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Climates where outside air cools the container most of the year.
    FreeCooled,
    /// Hot or humid climates where the AC and dehumidification carry the
    /// load.
    AcBound,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "free-cooled" => Some(Workload::FreeCooled),
            "ac-bound" => Some(Workload::AcBound),
            _ => None,
        }
    }

    /// The locations every phase rotates over.
    #[must_use]
    pub fn locations(self) -> Vec<Location> {
        match self {
            Workload::FreeCooled => vec![
                Location::newark(),
                Location::iceland(),
                Location::santiago(),
            ],
            Workload::AcBound => vec![Location::chad(), Location::singapore()],
        }
    }
}

/// Command-line arguments.
#[derive(Clone, Debug)]
pub struct Args {
    /// Input mix.
    pub workload: Workload,
    /// Seed every input is derived from.
    pub seed: u64,
    /// Measured duration.
    pub seconds: f64,
}

impl Args {
    /// Parses `--workload <name> --seed <n> --seconds <s> [--trace <0|1>]`
    /// (the trace flag selects the binary and is accepted and ignored
    /// here).
    ///
    /// # Errors
    ///
    /// Describes the first missing or malformed argument.
    pub fn parse(args: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut it = args.skip(1);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(&value)
                            .ok_or_else(|| format!("unknown workload '{value}'"))?,
                    );
                }
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    let s = value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(format!("--seconds must be in (0, 600], got {s}"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {}
                other => return Err(format!("unknown argument '{other}'")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
        })
    }
}

/// Derives an independent 64-bit input seed for one purpose (SplitMix64
/// finaliser over the run seed and a purpose tag).
#[must_use]
pub fn derive_seed(seed: u64, tag: u64) -> u64 {
    let mut z = seed.wrapping_add(tag.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A small seed (weather and trace seeds are used as-is by the crates).
#[must_use]
pub fn small_seed(seed: u64, tag: u64) -> u64 {
    derive_seed(seed, tag) % 1_000_000
}

/// Peak resident set size of this process, MB (`VmHWM`).
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Scratch directory for artifact stores, inside the checkout and unique
/// to this process; removed when dropped.
#[derive(Debug)]
pub struct WorkDir(PathBuf);

impl WorkDir {
    fn create() -> std::io::Result<WorkDir> {
        let dir = std::env::current_dir()?
            .join(".bench_build")
            .join("perfbench-work")
            .join(std::process::id().to_string());
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    /// A path under the work directory.
    #[must_use]
    pub fn join(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Share of each measurement cycle given to the warm-pass and serve
/// slices.
const SLICE: Duration = Duration::from_millis(400);

/// Annual years per cycle (about 0.4 s each). Each year is one sample of
/// the host's drifting speed, so the phase needs more of them than the
/// others, whose slices hold hundreds of operations.
const YEARS_PER_CYCLE: usize = 2;

/// Cold passes per run (about 1.7 s each): the first builds the warm
/// store; the others are spread through the run so the median spans its
/// drift. With eight, the host-scaled median still spread 0.14-0.24 over
/// ten runs.
const COLD_PASSES: usize = 12;

/// Cycles every run makes, however short: the traced run needs one
/// allocation-counting year, at least one span-traced year, and a traced
/// year at each of up to three locations.
const MIN_CYCLES: usize = 2;

/// One set-up: inputs of the annual phase and warm-up days, a fresh
/// store, and a started, warmed-up daemon. Returns its duration and the
/// daemon.
fn set_up(
    annual_in: &annual::Inputs,
    serve_in: &serve::Inputs,
    reference: &serve::Reference,
    work: &WorkDir,
    report: &mut Report,
) -> Result<(f64, serve::Daemon), String> {
    let t0 = Instant::now();
    annual::warm_up(annual_in);
    campaign::open_fresh_store(&work.join("setup-store")).map_err(|e| format!("store: {e}"))?;
    let daemon = serve::Daemon::start(serve_in, reference, report)?;
    Ok((t0.elapsed().as_secs_f64(), daemon))
}

/// Runs the benchmark and prints the report; the last stdout line is the
/// JSON result.
///
/// # Errors
///
/// Set-up failures (I/O, bind) that prevent any measurement.
pub fn run(args: &Args, alloc: Option<AllocCounter>) -> Result<(), String> {
    let traced = alloc.is_some();
    let work = WorkDir::create().map_err(|e| format!("work dir: {e}"))?;
    let mut report = Report::new(traced);

    let locations = args.workload.locations();
    let annual_in = annual::Inputs::new(&locations, args.seed);
    let campaign_in = campaign::Inputs::new(&locations, args.seed);
    let serve_in = serve::Inputs::new(&locations, args.seed);
    // The reference trajectories every served reply is checked against
    // (local `Episode` runs of the same specs and actions).
    let reference = serve::Reference::compute(&serve_in);

    // Set-up: inputs, store, daemon and warm-up, up to the first timed
    // operation. This set-up's daemon is the one measured; every cycle
    // repeats the set-up with a daemon of its own, so that `setup_s`, the
    // median, samples the whole run like the other metrics.
    let (first_setup_s, mut daemon) =
        set_up(&annual_in, &serve_in, &reference, &work, &mut report)?;
    let mut setup_s = vec![first_setup_s];

    let mut annual_ph = annual::Phase::new(annual_in.clone(), alloc);
    let mut campaign_ph = campaign::Phase::new(campaign_in, traced);
    let mut serve_ph = serve::Phase::new(serve_in.clone(), traced);

    // Host-speed calibration, sampled between the operations of every
    // cycle so that it spans the same stretches of the run as they do.
    let mut host = HostSpeed::new();
    let start = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    let mut cold_done = 0;
    let mut cycle = 0usize;
    loop {
        host.sample();
        let (secs, d) = set_up(&annual_in, &serve_in, &reference, &work, &mut report)?;
        setup_s.push(secs);
        serve::Daemon::stop(d, &mut report);
        let elapsed = start.elapsed();
        let cold_due = cold_done == 0
            || (cold_done < COLD_PASSES
                && elapsed.as_secs_f64() >= args.seconds * cold_done as f64 / COLD_PASSES as f64);
        if cold_due {
            campaign_ph.cold_pass(&work, cold_done, &mut report);
            cold_done += 1;
        }
        for j in 0..YEARS_PER_CYCLE {
            host.sample();
            annual_ph.year(cycle * YEARS_PER_CYCLE + j, &mut report);
        }
        host.sample();
        campaign_ph.warm_slice(&work, SLICE, &mut report);
        host.sample();
        serve_ph.slice(&mut daemon, &reference, SLICE, &mut report);
        cycle += 1;
        if cycle >= MIN_CYCLES && start.elapsed() >= budget {
            break;
        }
    }
    let measured_s = start.elapsed().as_secs_f64();

    // Untimed checks and per-layer extras after the measured window.
    report.line(format!(
        "host: calibration kernel p10 {:.4} ms, median {:.4} ms over {} samples, reference {} ms",
        host.kernel_ms(),
        host.kernel_median_ms(),
        host.samples(),
        host::REFERENCE_MS,
    ));
    if traced {
        report.layer("host.kernel_ms", host.kernel_ms(), "ms");
    }
    report.set_host(host);
    annual_ph.finish(&mut report);
    campaign_ph.finish(&work, &mut report);
    serve_ph.finish(&mut daemon, &reference, &mut report);
    serve::Daemon::stop(daemon, &mut report);

    report.line(format!(
        "run: workload {:?}, seed {}, {} cycles in {measured_s:.2} s, {} threads available",
        args.workload,
        args.seed,
        cycle,
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    ));
    report.end_to_end_timed(
        "setup_s",
        stats::median(&setup_s),
        "s",
        Timing::Duration,
        Stat::Median,
        format!(
            "median of {} set-ups, one before the run and one per cycle",
            setup_s.len()
        ),
    );
    report.end_to_end(
        "peak_rss_mb",
        peak_rss_mb(),
        "MB",
        "VmHWM at exit".to_string(),
    );
    report.print();
    Ok(())
}

/// Shared `main` of both binaries.
pub fn main_with(alloc: Option<AllocCounter>) {
    let args = match Args::parse(std::env::args()) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <free-cooled|ac-bound> --seed <n> --seconds <s> \
                 [--trace <0|1>]"
            );
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args, alloc) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}
