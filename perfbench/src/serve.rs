//! The `serve-episodes` phase: an in-process daemon with one event loop
//! and two client connections.
//!
//! * A closed-loop driver creates seeded one-day episodes (10-minute
//!   decisions) and steps each to done; every reply is checked byte for
//!   byte against a local `Episode` run of the same spec and actions.
//! * An open-loop prober sends `GET /healthz` at a fixed rate. Each probe
//!   is timed from when it was due, and the generator's lateness is kept.
//!
//! Creates (several ms of warm-up simulation) run on the event loop, so
//! a probe that arrives during one waits for it: `healthz_tail_us` shows
//! that head-of-line stall.

use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use coolair_serve::http::{encode_request, read_response, Response};
use coolair_serve::{ServeConfig, Server};
use coolair_sim::{Action, Episode, EpisodeSpec};
use coolair_telemetry::Telemetry;
use coolair_units::SimDuration;
use coolair_weather::Location;

use crate::host::Stat;
use crate::report::{Report, Timing};
use crate::small_seed;
use crate::stats::{low_decile, median, Summary};

/// Distinct episode specs the driver cycles through. More than the
/// daemon's default registry bound (64), so a spec's previous, finished
/// episode has always been evicted before the spec comes round again and
/// every create is a fresh `201`.
const SPECS: usize = 72;

/// `/healthz` probe period (500 probes per second: a 20 s run sends
/// about 1 800, enough for a p99 with ten samples beyond it).
const PROBE_PERIOD: Duration = Duration::from_millis(2);

/// Socket timeouts of the benchmark's clients.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(10);

/// The daemon's idle-connection deadline. The benchmark's two connections
/// idle between serve slices while the other phases run; a cycle with a
/// cold pass takes over 3 s and half as long again when the host is slow,
/// which can pass the default deadline (5 s) and close them.
const IDLE_TIMEOUT: Duration = Duration::from_secs(60);

/// How long `Daemon::stop` waits for the daemon to drain and exit.
const STOP_TIMEOUT: Duration = Duration::from_secs(30);

/// Episode specs and their action sequences.
#[derive(Clone, Debug)]
pub struct Inputs {
    /// `SPECS` timed specs, then one warm-up spec.
    specs: Vec<EpisodeSpec>,
    bodies: Vec<Vec<u8>>,
    actions: Vec<Vec<Vec<u8>>>,
}

impl Inputs {
    /// Seeded one-day episodes rotating over `locations`, with a seeded
    /// setpoint and active-server schedule each.
    #[must_use]
    pub fn new(locations: &[Location], seed: u64) -> Self {
        let mut specs = Vec::with_capacity(SPECS + 1);
        let mut actions = Vec::with_capacity(SPECS + 1);
        for k in 0..=SPECS {
            let loc = locations[k % locations.len()].clone();
            let spec_seed = small_seed(seed, 100 + k as u64);
            let mut spec = EpisodeSpec::seeded(loc, spec_seed);
            spec.start_day = spec_seed % 364;
            spec.decision_period = SimDuration::from_minutes(10);
            let acts = (0..spec.steps())
                .map(|i| {
                    let a = Action {
                        setpoint_c: 24.0 + ((spec_seed + i * 7) % 9) as f64,
                        active_servers: [48, 56, 64][((spec_seed + i) % 3) as usize],
                    };
                    serde_json::to_vec(&a).expect("actions serialize")
                })
                .collect();
            actions.push(acts);
            specs.push(spec);
        }
        let bodies = specs
            .iter()
            .map(|s| serde_json::to_vec(s).expect("specs serialize"))
            .collect();
        Inputs {
            specs,
            bodies,
            actions,
        }
    }
}

/// Local runs of every spec: the expected reply bytes, and the local
/// create and step times.
#[derive(Debug)]
pub struct Reference {
    replies: Vec<Vec<String>>,
    create_ms: Vec<f64>,
    step_us: Vec<f64>,
    /// Specs whose local run failed (their served runs count as failed).
    broken: Vec<String>,
}

impl Reference {
    /// Runs every spec locally with its actions.
    #[must_use]
    pub fn compute(inputs: &Inputs) -> Reference {
        let mut r = Reference {
            replies: Vec::new(),
            create_ms: Vec::new(),
            step_us: Vec::new(),
            broken: Vec::new(),
        };
        for (spec, actions) in inputs.specs.iter().zip(&inputs.actions) {
            let t0 = Instant::now();
            let episode = Episode::new(spec);
            r.create_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            let mut replies = Vec::with_capacity(actions.len());
            match episode {
                Ok(mut ep) => {
                    for body in actions {
                        let action: Action =
                            serde_json::from_slice(body).expect("own actions parse");
                        let t0 = Instant::now();
                        let step = ep.step(&action);
                        r.step_us.push(t0.elapsed().as_secs_f64() * 1e6);
                        match step {
                            Ok(s) => replies.push(serde_json::to_string(&s).unwrap_or_default()),
                            Err(e) => r.broken.push(format!("local step: {e}")),
                        }
                    }
                }
                Err(e) => r.broken.push(format!("local Episode::new: {e}")),
            }
            r.replies.push(replies);
        }
        r
    }
}

/// A keep-alive client connection.
#[derive(Debug)]
struct Conn(TcpStream);

impl Conn {
    fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let s = TcpStream::connect(addr)?;
        s.set_read_timeout(Some(CLIENT_TIMEOUT))?;
        s.set_write_timeout(Some(CLIENT_TIMEOUT))?;
        s.set_nodelay(true)?;
        Ok(Conn(s))
    }

    fn request(&mut self, method: &str, target: &str, body: &[u8]) -> std::io::Result<Response> {
        let headers: Vec<(String, String)> = if body.is_empty() {
            Vec::new()
        } else {
            vec![("content-type".to_string(), "application/json".to_string())]
        };
        self.0
            .write_all(&encode_request(method, target, &headers, body))?;
        read_response(&mut self.0)
    }
}

/// The running daemon and the benchmark's two connections to it.
#[derive(Debug)]
pub struct Daemon {
    thread: JoinHandle<std::io::Result<()>>,
    addr: SocketAddr,
    driver: Conn,
    prober: Conn,
    /// The next timed spec to create.
    next: usize,
}

/// Outcome of one episode run through the daemon.
struct Served {
    create_span: (Instant, Instant),
    created: bool,
    steps: Vec<Duration>,
    steps_ok: u64,
    shed: u64,
}

impl Daemon {
    /// Binds a daemon (one event loop, in-memory backend), starts it,
    /// connects both clients, and warms it up with one full episode.
    ///
    /// # Errors
    ///
    /// Bind and connect failures.
    pub fn start(
        inputs: &Inputs,
        reference: &Reference,
        report: &mut Report,
    ) -> Result<Daemon, String> {
        let cfg = ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            event_loops: 1,
            job_threads: 1,
            read_timeout: IDLE_TIMEOUT,
            ..ServeConfig::default()
        };
        let server =
            Arc::new(Server::bind(cfg, Telemetry::discard()).map_err(|e| format!("bind: {e}"))?);
        let addr = server
            .local_addr()
            .map_err(|e| format!("local addr: {e}"))?;
        let thread = std::thread::spawn(move || server.run());
        let driver = Conn::connect(addr).map_err(|e| format!("connect: {e}"))?;
        let prober = Conn::connect(addr).map_err(|e| format!("connect: {e}"))?;
        let mut d = Daemon {
            thread,
            addr,
            driver,
            prober,
            next: 0,
        };
        let ok = d
            .prober
            .request("GET", "/healthz", &[])
            .is_ok_and(|r| r.status == 200);
        report.check(ok, || "warm-up /healthz failed".to_string());
        run_episode(&mut d.driver, inputs, reference, SPECS, report);
        Ok(d)
    }

    /// Drains the daemon (`POST /shutdown`, on a fresh connection if the
    /// driver's has failed) and joins its thread. A daemon that has not
    /// exited within `STOP_TIMEOUT` is reported and left running, so that
    /// the run still ends.
    pub fn stop(mut d: Daemon, report: &mut Report) {
        let shutdown = |conn: &mut Conn| {
            conn.request("POST", "/shutdown", &[])
                .is_ok_and(|r| r.status == 200)
        };
        let ok = shutdown(&mut d.driver)
            || Conn::connect(d.addr).is_ok_and(|mut conn| shutdown(&mut conn));
        report.check(ok, || "POST /shutdown failed".to_string());
        drop(d.driver);
        drop(d.prober);
        let deadline = Instant::now() + STOP_TIMEOUT;
        while !d.thread.is_finished() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        if !d.thread.is_finished() {
            report.error(format!(
                "daemon did not exit within {STOP_TIMEOUT:?} of POST /shutdown"
            ));
            return;
        }
        match d.thread.join() {
            Ok(Ok(())) => {}
            Ok(Err(e)) => report.error(format!("daemon exited with {e}")),
            Err(_) => report.error("daemon thread panicked".to_string()),
        }
    }
}

/// Creates spec `k`'s episode on `driver` and steps it to done, checking
/// every reply against the reference.
fn run_episode(
    driver: &mut Conn,
    inputs: &Inputs,
    reference: &Reference,
    k: usize,
    report: &mut Report,
) -> Served {
    let t0 = Instant::now();
    let created = driver.request("POST", "/episodes", &inputs.bodies[k]);
    let mut served = Served {
        create_span: (t0, Instant::now()),
        created: false,
        steps: Vec::with_capacity(inputs.actions[k].len()),
        steps_ok: 0,
        shed: 0,
    };
    let status = created.as_ref().map_or(0, |r| r.status);
    served.shed += u64::from(status == 503);
    served.created = status == 201;
    report.check(served.created, || {
        format!("create of spec {k}: status {status} (want 201)")
    });
    if !served.created {
        return served;
    }
    let target = format!("/episodes/{}/step", inputs.specs[k].digest());
    let expected = &reference.replies[k];
    for (i, action) in inputs.actions[k].iter().enumerate() {
        let t0 = Instant::now();
        let resp = driver.request("POST", &target, action);
        served.steps.push(t0.elapsed());
        let (status, same) = match &resp {
            Ok(r) => (
                r.status,
                expected
                    .get(i)
                    .is_some_and(|want| want.as_bytes() == r.body),
            ),
            Err(_) => (0, false),
        };
        served.shed += u64::from(status == 503);
        let ok = status == 200 && same;
        served.steps_ok += u64::from(ok);
        report.check(ok, || {
            format!("step {i} of spec {k}: status {status}, identical to local: {same}")
        });
        if status != 200 {
            break;
        }
    }
    served
}

/// One `/healthz` probe, timed from when it was due.
#[derive(Clone, Copy, Debug)]
struct Probe {
    due: Instant,
    sent: Instant,
    done: Instant,
    status: u16,
}

/// Sends probes on a fixed schedule until `stop` is set.
fn probe_loop(conn: &mut Conn, stop: &AtomicBool) -> Vec<Probe> {
    let start = Instant::now();
    let mut probes = Vec::new();
    for i in 0u32.. {
        let due = start + PROBE_PERIOD * i;
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        if stop.load(Ordering::Relaxed) {
            break;
        }
        let sent = Instant::now();
        let status = conn.request("GET", "/healthz", &[]).map_or(0, |r| r.status);
        probes.push(Probe {
            due,
            sent,
            done: Instant::now(),
            status,
        });
    }
    probes
}

/// The phase's state across cycles.
#[derive(Debug)]
pub struct Phase {
    inputs: Inputs,
    traced: bool,
    wall: Duration,
    step_us: Vec<f64>,
    create_ms: Vec<f64>,
    creates_sent: u64,
    creates_ok: u64,
    steps_sent: u64,
    steps_ok: u64,
    shed: u64,
    probe_us: Vec<f64>,
    lag_us: Vec<f64>,
    probes_sent: u64,
    probes_ok: u64,
    probes_overlapping: u64,
}

impl Phase {
    /// A phase over `inputs`.
    #[must_use]
    pub fn new(inputs: Inputs, traced: bool) -> Self {
        Phase {
            inputs,
            traced,
            wall: Duration::ZERO,
            step_us: Vec::new(),
            create_ms: Vec::new(),
            creates_sent: 0,
            creates_ok: 0,
            steps_sent: 0,
            steps_ok: 0,
            shed: 0,
            probe_us: Vec::new(),
            lag_us: Vec::new(),
            probes_sent: 0,
            probes_ok: 0,
            probes_overlapping: 0,
        }
    }

    /// Whole episodes for about `budget` (at least one), with the prober
    /// running alongside.
    pub fn slice(
        &mut self,
        daemon: &mut Daemon,
        reference: &Reference,
        budget: Duration,
        report: &mut Report,
    ) {
        let stop = AtomicBool::new(false);
        let mut creates: Vec<(Instant, Instant)> = Vec::new();
        let Daemon {
            driver,
            prober,
            next,
            ..
        } = daemon;
        let probes = std::thread::scope(|s| {
            let handle = s.spawn(|| probe_loop(prober, &stop));
            let start = Instant::now();
            loop {
                let k = *next % SPECS;
                *next += 1;
                let served = run_episode(driver, &self.inputs, reference, k, report);
                self.creates_sent += 1;
                self.creates_ok += u64::from(served.created);
                let (t0, t1) = served.create_span;
                self.create_ms.push((t1 - t0).as_secs_f64() * 1e3);
                creates.push(served.create_span);
                self.steps_sent += served.steps.len() as u64;
                self.steps_ok += served.steps_ok;
                self.step_us
                    .extend(served.steps.iter().map(|d| d.as_secs_f64() * 1e6));
                self.shed += served.shed;
                if start.elapsed() >= budget {
                    break;
                }
            }
            self.wall += start.elapsed();
            stop.store(true, Ordering::Relaxed);
            handle.join().expect("prober thread panicked")
        });
        for p in &probes {
            self.probes_sent += 1;
            let ok = p.status == 200;
            self.probes_ok += u64::from(ok);
            self.shed += u64::from(p.status == 503);
            report.check(ok, || format!("/healthz probe: status {}", p.status));
            self.probe_us.push((p.done - p.due).as_secs_f64() * 1e6);
            self.lag_us.push((p.sent - p.due).as_secs_f64() * 1e6);
            let overlaps = creates.iter().any(|&(a, b)| p.sent < b && a < p.done);
            self.probes_overlapping += u64::from(overlaps);
        }
    }

    /// Reports the phase's metrics; the traced run scrapes `/metrics` for
    /// the daemon's own step latency.
    pub fn finish(&mut self, daemon: &mut Daemon, reference: &Reference, report: &mut Report) {
        for b in &reference.broken {
            report.error(format!("reference episode: {b}"));
        }
        report.line(format!(
            "serve requests: creates {} sent / {} ok / {} failed; steps {} sent / {} ok / {} failed; \
             probes {} sent / {} ok / {} failed; 503s {}",
            self.creates_sent,
            self.creates_ok,
            self.creates_sent - self.creates_ok,
            self.steps_sent,
            self.steps_ok,
            self.steps_sent - self.steps_ok,
            self.probes_sent,
            self.probes_ok,
            self.probes_sent - self.probes_ok,
            self.shed
        ));
        let steps = Summary::of(&self.step_us);
        let creates = Summary::of(&self.create_ms);
        let probes = Summary::of(&self.probe_us);
        let lag = Summary::of(&self.lag_us);
        let step_per_s = self.steps_sent as f64 / self.wall.as_secs_f64();
        report.end_to_end_timed(
            "step_p10_us",
            low_decile(&self.step_us),
            "us",
            Timing::Duration,
            Stat::LowDecile,
            format!("n = {}; p50 = {:.3} us", steps.n, steps.p50),
        );
        report.end_to_end_timed(
            "create_p10_ms",
            low_decile(&self.create_ms),
            "ms",
            Timing::Duration,
            Stat::LowDecile,
            format!(
                "n = {}; p50 = {:.3} ms; p{} = {:.3} ms",
                creates.n, creates.p50, creates.tail_q, creates.tail
            ),
        );
        // Printed but not BENCHMARK.json metrics: they follow the shared
        // host's contention more than the code. Over ten runs of identical
        // code their spreads reached 0.21 (step_per_s), 0.32
        // (healthz_p50_us: probes are timed from when due, so the host's
        // late wake-ups of the prober count) and 0.46 (healthz_tail_us),
        // and the step p99 ranged 180-1470 us, against a largest allowed
        // bound of 0.25. The traced run records them.
        report.info(
            "step_per_s",
            step_per_s,
            "1/s",
            format!(
                "{} served steps in {:.2} s of closed-loop driving, creates included",
                self.steps_sent,
                self.wall.as_secs_f64()
            ),
        );
        report.info(
            "healthz_p50_us",
            probes.p50,
            "us",
            format!("n = {}, timed from when due", probes.n),
        );
        report.info(
            "step_tail_us",
            steps.tail,
            "us",
            format!("p{} of n = {}", steps.tail_q, steps.n),
        );
        report.info(
            "healthz_tail_us",
            probes.tail,
            "us",
            format!(
                "p{} of n = {}, timed from when due",
                probes.tail_q, probes.n
            ),
        );
        report.line(format!(
            "probe generator lateness: p50 {:.1} us, p{} {:.1} us (n = {})",
            lag.p50, lag.tail_q, lag.tail, lag.n
        ));
        if !self.traced {
            return;
        }
        let local_step = median(&reference.step_us);
        report.layer("sim.episode_new_ms", median(&reference.create_ms), "ms");
        report.layer("sim.episode_step_us", local_step, "us");
        report.layer("serve.step_overhead_us", steps.p50 - local_step, "us");
        report.layer(
            "serve.healthz_overlap_create_share",
            self.probes_overlapping as f64 / self.probes_sent.max(1) as f64,
            "ratio",
        );
        let scraped = daemon.driver.request("GET", "/metrics", &[]);
        let server_step = scraped.ok().filter(|r| r.status == 200).and_then(|r| {
            mean_latency_us(&String::from_utf8_lossy(&r.body), "/episodes/{id}/step")
        });
        report.check(server_step.is_some(), || {
            "/metrics has no step latency histogram".to_string()
        });
        report.layer(
            "serve.server_step_latency_us",
            server_step.unwrap_or(f64::NAN),
            "us",
        );
        report.layer("client.step_per_s", step_per_s, "1/s");
        report.layer("client.step_p50_us", steps.p50, "us");
        report.layer("client.create_p50_ms", creates.p50, "ms");
        report.layer("client.step_tail_us", steps.tail, "us");
        report.layer("client.healthz_p50_us", probes.p50, "us");
        report.layer("client.healthz_tail_us", probes.tail, "us");
        report.layer("client.probe_lag_us", lag.tail, "us");
        report.layer("serve.shed_503", self.shed as f64, "count");
    }
}

/// Mean of the daemon's request-latency histogram for one endpoint
/// class, from the Prometheus text, in µs.
fn mean_latency_us(text: &str, endpoint: &str) -> Option<f64> {
    let value = |series: &str| -> Option<f64> {
        let key = format!("serve_request_seconds_{series}{{endpoint=\"{endpoint}\"}} ");
        text.lines()
            .find_map(|l| l.strip_prefix(key.as_str()))
            .and_then(|v| v.trim().parse().ok())
    };
    let (sum, count) = (value("sum")?, value("count")?);
    (count > 0.0).then(|| sum / count * 1e6)
}
