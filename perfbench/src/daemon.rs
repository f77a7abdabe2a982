//! The `daemon-mix` workload: a `flowdroid serve` child process driven
//! open loop at fixed rates by at most `nproc` connections, with a mix
//! of repeat jobs (the 180-app suite) and new `.rpk` apps, over all
//! three priority lanes.

use crate::gen::{mix, seed_self_test, Expect, Input, MarketGen};
use crate::inproc::{counters_repeat, trace_inputs, ROUNDS};
use crate::ladder::{Ladder, Search};
use crate::layers::{per_layer, InProc, Service};
use crate::pipeline::{Env, Tracer};
use crate::stats::{median, proc_status_mb, quantile, setup_figure, setup_support, EndToEnd};
use crate::Outcome;
use flowdroid_service::json::{self, Json};
use flowdroid_service::{AnalyzeRequest, Priority, Request};
use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The two reported arrival rates (jobs/s).
const RATE_LO: f64 = 30.0;
const RATE_HI: f64 = 60.0;
/// The ladder `max_rate_under_slo` is searched on.
const LADDER: Ladder = Ladder {
    base: 60.0,
    step: 1.04,
    rungs: 48,
    slo_ms: 150.0,
};

/// Percent of jobs that are new apps; the rest repeat suite apps.
const NEW_PERCENT: u64 = 15;
/// Daemons spawned for the set-up figure in an untraced run, per batch:
/// one batch before the run and one after each block of every round,
/// so the samples span the run.
const SETUP_BATCH: usize = 4;
/// The run reports the lower quintile of its set-up samples. The fastest
/// daemon spawns are rare lucky ones, whose level varied more between
/// runs than the lower quintile did (`RECORD.json`).
const SETUP_QUANTILE: f64 = 0.2;
/// Jobs in one step of the ladder search, whatever its rate: the run's
/// job list, and with it the daemon's summary store and memory, is then
/// the same for a seed however the search goes.
const LADDER_STEP_JOBS: u64 = 110;
/// A reply slower than this counts as a failed (timed-out) job.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// The paper's FlowDroid column of Table 1 (plus the supplementary and
/// extended apps): leaks *reported* per DroidBench app, planned false
/// positives and misses included.
const DROIDBENCH_REPORTED: &[(&str, usize)] = &[
    ("ArrayAccess1", 1),
    ("ArrayAccess2", 1),
    ("ListAccess1", 1),
    ("AnonymousClass1", 2),
    ("Button1", 1),
    ("Button2", 2),
    ("LocationLeak1", 2),
    ("LocationLeak2", 2),
    ("MethodOverride1", 1),
    ("FieldSensitivity1", 0),
    ("FieldSensitivity2", 0),
    ("FieldSensitivity3", 1),
    ("FieldSensitivity4", 1),
    ("InheritedObjects1", 1),
    ("ObjectSensitivity1", 0),
    ("ObjectSensitivity2", 0),
    ("IntentSink1", 0),
    ("IntentSink2", 1),
    ("ActivityCommunication1", 1),
    ("BroadcastReceiverLifecycle1", 1),
    ("ActivityLifecycle1", 1),
    ("ActivityLifecycle2", 1),
    ("ActivityLifecycle3", 1),
    ("ActivityLifecycle4", 1),
    ("ServiceLifecycle1", 1),
    ("Loop1", 1),
    ("Loop2", 1),
    ("SourceCodeSpecific1", 1),
    ("StaticInitialization1", 0),
    ("UnreachableCode", 0),
    ("PrivateDataLeak1", 1),
    ("PrivateDataLeak2", 1),
    ("DirectLeak1", 1),
    ("InactiveActivity", 0),
    ("LogNoLeak", 0),
    ("ImplicitFlow1", 0),
    ("Reflection1", 0),
    ("Casting1", 1),
    ("Exceptions1", 1),
    ("CallbackChain1", 1),
    ("IntentSource1", 1),
    ("ServiceBound1", 1),
    ("ProviderQuery1", 1),
    ("PrivateDataLeak3", 1),
    ("UnregisteredComponent", 0),
];

/// The suite the daemon serves by name, with the leaks each must report:
/// DroidBench per the table above, InsecureBank's seven, and each
/// SecuriBench Micro case's planned count.
fn suite() -> Vec<(String, usize)> {
    let mut apps = Vec::new();
    for app in flowdroid_droidbench::all_apps() {
        let expect = DROIDBENCH_REPORTED
            .iter()
            .find(|(n, _)| *n == app.name)
            .unwrap_or_else(|| crate::die(&format!("no expected count for {}", app.name)))
            .1;
        apps.push((
            format!("droidbench/{:?}/{}", app.category, app.name),
            expect,
        ));
    }
    apps.push(("insecurebank".to_string(), 7));
    for group in flowdroid_securibench::Group::all() {
        for case in flowdroid_securibench::cases_in(group) {
            apps.push((
                format!("securibench/{group}/{}", case.name),
                case.expected_reported(),
            ));
        }
    }
    apps
}

/// One line-delimited JSON connection to the daemon's Unix socket.
struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Conn {
    fn connect(path: &Path) -> io::Result<Conn> {
        let s = UnixStream::connect(path)?;
        s.set_read_timeout(Some(REPLY_TIMEOUT))?;
        Ok(Conn {
            reader: BufReader::new(s.try_clone()?),
            writer: s,
        })
    }

    fn send(&mut self, req: &Request) -> io::Result<()> {
        let mut line = req.to_line();
        line.push('\n');
        self.writer.write_all(line.as_bytes())
    }

    /// One reply and its size in bytes.
    fn recv(&mut self) -> io::Result<(Json, usize)> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        let v = json::parse(line.trim())
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        Ok((v, line.len()))
    }
}

/// A running `flowdroid serve` child; dropping it kills a child that
/// did not shut down, so no error path leaves a daemon behind.
struct Daemon {
    child: Child,
    socket: PathBuf,
    drain: Option<std::thread::JoinHandle<()>>,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Errors are moot here: the child has exited or is being killed.
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

impl Daemon {
    /// Spawns the daemon on `dir` (which holds `platform.fdps` and
    /// `apps/`), with a fresh summary cache `<name>/` and listening on
    /// `<name>.sock` there. `dir` is relative to the working directory
    /// the daemon inherits, so the socket path stays short; no working
    /// directory is set for the child, which lets it be spawned without
    /// a fork of this process. Returns it with the seconds from spawn to
    /// its first answered `stats` request.
    fn spawn(flowdroid: &Path, dir: &Path, name: &str) -> io::Result<(Daemon, f64)> {
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
        let socket = dir.join(format!("{name}.sock"));
        let _ = std::fs::remove_file(&socket);
        let start = Instant::now();
        let mut child = Command::new(flowdroid)
            .arg("serve")
            .args(["--listen", &format!("unix:{}", socket.display())])
            .args(["--workers", &workers.to_string()])
            .arg("--summary-cache")
            .arg(dir.join(name))
            .arg("--platform-snapshot")
            .arg(dir.join("platform.fdps"))
            .arg("--allow-apps")
            .arg(dir.join("apps"))
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(std::fs::File::create(dir.join(format!("{name}.log")))?)
            .spawn()?;
        let mut out = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let ready = (|| {
            let mut first = String::new();
            out.read_line(&mut first)?;
            if !first.starts_with("listening on ") {
                return Err(io::Error::other(format!(
                    "daemon did not start: `{}`",
                    first.trim()
                )));
            }
            let mut c = Conn::connect(&socket)?;
            c.send(&Request::Stats)?;
            let (reply, _) = c.recv()?;
            if reply.str_field("type") != Some("stats") {
                return Err(io::Error::other("first stats request was not answered"));
            }
            Ok(())
        })();
        let secs = start.elapsed().as_secs_f64();
        if let Err(e) = ready {
            let _ = child.kill();
            let _ = child.wait();
            return Err(e);
        }
        // Keep the pipe drained so the daemon never blocks on stdout.
        let drain = std::thread::spawn(move || {
            let _ = io::copy(&mut out, &mut io::sink());
        });
        Ok((
            Daemon {
                child,
                socket,
                drain: Some(drain),
            },
            secs,
        ))
    }

    /// Asks for a clean `shutdown` and waits for the process to exit; a
    /// daemon still running afterwards is killed and reported.
    fn shutdown(mut self) -> Result<(), String> {
        // `Drop` reaps the child and joins the drain thread afterwards.
        let reply = Conn::connect(&self.socket).and_then(|mut c| {
            c.send(&Request::Shutdown)?;
            c.recv()
        });
        let clean = matches!(&reply, Ok((v, _)) if v.str_field("op") == Some("shutdown"));
        let deadline = Instant::now() + Duration::from_secs(20);
        let status = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break Some(status),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => break None,
            }
        };
        match status {
            Some(s) if clean && s.success() => Ok(()),
            Some(s) => Err(format!(
                "daemon shutdown was not clean (reply {:?}, exit {s})",
                reply.map(|r| r.0.to_line())
            )),
            None => Err("daemon still running after shutdown; killed it".to_string()),
        }
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Repeat,
    New,
}

struct Job {
    app: String,
    expect: usize,
    kind: Kind,
    priority: Priority,
}

/// The client-side record of one job; times in ms since the run began.
#[derive(Clone)]
struct Record {
    kind: Kind,
    due: f64,
    sent: f64,
    queued: f64,
    done: f64,
    /// Server time, `setup_us + dataflow_us`.
    server: f64,
    /// Wake-up lag behind the due time, when the connection was idle.
    lag: Option<f64>,
    ok: bool,
    /// `rejected`, `denied` or `error` reply, or no reply.
    refused: bool,
}

impl Record {
    /// Latency from the due time; a failed job misses any limit.
    fn latency(&self) -> f64 {
        if self.ok {
            self.done - self.due
        } else {
            f64::INFINITY
        }
    }
}

/// Runs one job on `conn`; `Err` means the connection is unusable.
fn run_job(conn: &mut Conn, job: &Job, origin: Instant, rec: &mut Record) -> io::Result<()> {
    let req = AnalyzeRequest {
        app: job.app.clone(),
        priority: job.priority,
        ..AnalyzeRequest::default()
    };
    rec.sent = ms_since(origin);
    conn.send(&Request::Analyze(req))?;
    let (first, _) = conn.recv()?;
    rec.queued = ms_since(origin);
    if first.str_field("type") != Some("queued") {
        rec.refused = true;
        eprintln!("job {} refused: {}", job.app, first.to_line());
        return Ok(());
    }
    let (result, _) = conn.recv()?;
    rec.done = ms_since(origin);
    let leaks = result.u64_field("leaks");
    rec.server = (result.u64_field("setup_us").unwrap_or(0)
        + result.u64_field("dataflow_us").unwrap_or(0)) as f64
        / 1e3;
    rec.ok = result.str_field("type") == Some("result")
        && result.bool_field("aborted") == Some(false)
        && leaks == Some(job.expect as u64);
    if !rec.ok {
        eprintln!(
            "wrong verdict on {}: {}",
            job.app,
            result.to_line().chars().take(300).collect::<String>()
        );
    }
    Ok(())
}

fn ms_since(origin: Instant) -> f64 {
    origin.elapsed().as_secs_f64() * 1e3
}

/// Sends `jobs` over `conns` connections: open loop at `rate` (job `j`
/// due `j / rate` after the start), or closed loop when `rate` is None.
/// Record times are ms since `epoch`, shared by all phases of a run.
fn run_phase(
    socket: &Path,
    jobs: &[Job],
    rate: Option<f64>,
    conns: usize,
    epoch: Instant,
) -> (Vec<Record>, f64) {
    let origin = Instant::now() + Duration::from_millis(5);
    let next = AtomicUsize::new(0);
    let records = Mutex::new(Vec::with_capacity(jobs.len()));
    std::thread::scope(|s| {
        for _ in 0..conns {
            s.spawn(|| {
                let mut conn = Conn::connect(socket).ok();
                loop {
                    let j = next.fetch_add(1, Ordering::Relaxed);
                    let Some(job) = jobs.get(j) else { break };
                    let due_at = origin
                        + rate.map_or(Duration::ZERO, |r| Duration::from_secs_f64(j as f64 / r));
                    let now = Instant::now();
                    let mut lag = None;
                    if now < due_at {
                        // Sleep most of the wait, spin the last stretch:
                        // wake-ups on a busy host can be milliseconds late.
                        let spin = Duration::from_millis(2);
                        if due_at - now > spin {
                            std::thread::sleep(due_at - now - spin);
                        }
                        while Instant::now() < due_at {
                            std::hint::spin_loop();
                        }
                        lag = Some(
                            Instant::now()
                                .saturating_duration_since(due_at)
                                .as_secs_f64()
                                * 1e3,
                        );
                    }
                    let due = due_at.saturating_duration_since(epoch).as_secs_f64() * 1e3;
                    let mut rec = Record {
                        kind: job.kind,
                        due,
                        sent: 0.0,
                        queued: 0.0,
                        done: 0.0,
                        server: 0.0,
                        lag,
                        ok: false,
                        refused: false,
                    };
                    let fine = match conn.as_mut() {
                        Some(c) => run_job(c, job, epoch, &mut rec),
                        None => Err(io::Error::other("not connected")),
                    };
                    if let Err(e) = fine {
                        eprintln!("job {} failed: {e}", job.app);
                        rec.refused = true;
                        conn = Conn::connect(socket).ok();
                    }
                    records
                        .lock()
                        .expect("no thread panics holding the lock")
                        .push(rec);
                }
            });
        }
    });
    let wall = origin.elapsed().as_secs_f64();
    (records.into_inner().expect("threads joined"), wall)
}

/// Builds the job list of one phase, writing its new apps to disk.
struct Mix {
    seed: u64,
    suite: Vec<(String, usize)>,
    apps_dir: PathBuf,
    market: MarketGen,
    jobs_made: u64,
    new_made: u64,
    /// Every new app written so far, for the traced in-process pass.
    new_inputs: Vec<Input>,
}

impl Mix {
    fn jobs(&mut self, n: u64) -> io::Result<Vec<Job>> {
        let mut out = Vec::new();
        for _ in 0..n {
            let r = mix(self.seed, 5_000_000 + self.jobs_made);
            self.jobs_made += 1;
            let priority = match (r >> 8) % 10 {
                0 | 1 => Priority::High,
                2..=6 => Priority::Normal,
                _ => Priority::Batch,
            };
            if r % 100 < NEW_PERCENT {
                let input = self.market.input(self.new_made);
                let path = self.apps_dir.join(format!("app{}.rpk", self.new_made));
                self.new_made += 1;
                std::fs::write(&path, &input.bytes)?;
                let Expect::Count(expect) = input.expect else {
                    unreachable!("market apps expect counts")
                };
                out.push(Job {
                    app: path.to_string_lossy().into_owned(),
                    expect,
                    kind: Kind::New,
                    priority,
                });
                self.new_inputs.push(input);
            } else {
                let (name, expect) = &self.suite[((r >> 16) % self.suite.len() as u64) as usize];
                out.push(Job {
                    app: name.clone(),
                    expect: *expect,
                    kind: Kind::Repeat,
                    priority,
                });
            }
        }
        Ok(out)
    }
}

/// Runs the workload in a fresh directory under `workdir`, removing it
/// afterwards.
pub fn run(
    flowdroid: &Path,
    workdir: &Path,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_path: &Path,
) -> Outcome {
    seed_self_test("daemon-mix", seed).unwrap_or_else(|e| crate::die(&e));
    // Relative, so the socket path stays short wherever the checkout is.
    let root = workdir.join(format!("daemon-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let result = run_in(flowdroid, &root, seed, seconds, trace, trace_path);
    let _ = std::fs::remove_dir_all(&root);
    result.unwrap_or_else(|e| crate::die(&e))
}

fn run_in(
    flowdroid: &Path,
    root: &Path,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_path: &Path,
) -> Result<Outcome, String> {
    let io = |e: io::Error| e.to_string();
    std::fs::create_dir_all(root.join("apps")).map_err(io)?;
    let status = Command::new(flowdroid)
        .arg("snapshot")
        .arg(root.join("platform.fdps"))
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("{}: {e}", flowdroid.display()))?;
    if !status.success() {
        return Err(format!("`flowdroid snapshot` failed: {status}"));
    }
    let conns = std::thread::available_parallelism().map_or(1, |n| n.get());

    // Set-up: spawn to first answered `stats`, each daemon with fresh
    // directories. The serving daemon is one sample; untraced runs add
    // batches of daemons that are shut down again at once.
    let mut setup = Vec::new();
    let mut spawned = 0usize;
    let batch = if trace { 0 } else { SETUP_BATCH };
    let mut sample_setup = |setup: &mut Vec<f64>| -> Result<(), String> {
        for _ in 0..batch {
            let (d, secs) =
                Daemon::spawn(flowdroid, root, &format!("setup{spawned}")).map_err(io)?;
            spawned += 1;
            setup.push(secs);
            d.shutdown()?;
        }
        Ok(())
    };
    sample_setup(&mut setup)?;
    let (daemon, secs) = Daemon::spawn(flowdroid, root, "serve").map_err(io)?;
    setup.push(secs);
    let pid = daemon.child.id();
    let socket = daemon.socket.clone();

    let mut mix = Mix {
        seed,
        suite: suite(),
        apps_dir: root.canonicalize().map_err(io)?.join("apps"),
        market: MarketGen::new(mix(seed, 77)),
        jobs_made: 0,
        new_made: 0,
        new_inputs: Vec::new(),
    };
    let mut all: Vec<Record> = Vec::new();
    let epoch = Instant::now();

    // Warm-up: every suite app once, so repeat jobs meet a warm prepared
    // registry and callgraph cache; checks the suite verdicts too.
    let warm: Vec<Job> = mix
        .suite
        .iter()
        .map(|(name, expect)| Job {
            app: name.clone(),
            expect: *expect,
            kind: Kind::Repeat,
            priority: Priority::Normal,
        })
        .collect();
    let (records, _) = run_phase(&socket, &warm, None, conns, epoch);
    all.extend(records);
    let rss_base = proc_status_mb(Some(pid), "VmRSS").unwrap_or(0.0);

    // Rounds, as in the in-process workloads: a closed-loop block, the
    // two fixed rates, two ladder steps; each metric is the median over
    // rounds. The daemon's summary store grows with every new app, so
    // every run keeps this same order.
    let round_s = seconds / ROUNDS as f64;
    let mut e2e = EndToEnd::default();
    let mut timed: Vec<Record> = Vec::new();
    let mut search = Search::new(&LADDER);
    for _ in 0..ROUNDS {
        let start = all.len();
        let jobs = mix.jobs((round_s * 0.1 * 150.0) as u64).map_err(io)?;
        let (closed, _) = run_phase(&socket, &jobs, None, conns, epoch);
        all.extend(closed);
        sample_setup(&mut setup)?;
        for (rate, pool) in [(RATE_LO, &mut e2e.lo_ms), (RATE_HI, &mut e2e.hi_ms)] {
            let jobs = mix
                .jobs((rate * round_s * 0.35).ceil() as u64)
                .map_err(io)?;
            let (records, _) = run_phase(&socket, &jobs, Some(rate), conns, epoch);
            all.extend(records.iter().cloned());
            pool.extend(records.iter().map(Record::latency));
            timed.extend(records);
            sample_setup(&mut setup)?;
        }
        for _ in 0..2 {
            let Some(rung) = search.next() else { break };
            let rate = LADDER.rate(rung);
            let jobs = mix.jobs(LADDER_STEP_JOBS).map_err(io)?;
            let (records, wall) = run_phase(&socket, &jobs, Some(rate), conns, epoch);
            all.extend(records.iter().cloned());
            let achieved = jobs.len() as f64 / wall;
            let lat: Vec<f64> = records.iter().map(Record::latency).collect();
            search.record(rung, LADDER.meets(rate, &lat, achieved), achieved);
        }
        // The analysis itself, as the workers saw it: time per job, and
        // jobs per second of worker time. Client-side figures above also
        // carry the per-job summary-store flush, whose file writes make
        // them vary far more between runs.
        let ok: Vec<f64> = all[start..]
            .iter()
            .filter(|r| r.ok)
            .map(|r| r.server)
            .collect();
        e2e.apps_per_s
            .push(1e3 * ok.len() as f64 / ok.iter().sum::<f64>());
        e2e.verdict_ms.extend(ok);
        sample_setup(&mut setup)?;
    }
    eprintln!("daemon-mix: {}", setup_support(&setup));
    let max_rate = match search.best {
        Some(rate) => rate,
        None => {
            let jobs = mix.jobs(LADDER_STEP_JOBS).map_err(io)?;
            let (records, wall) = run_phase(&socket, &jobs, Some(LADDER.base), conns, epoch);
            all.extend(records);
            eprintln!("daemon-mix: no rung met the limit; reporting the lowest rung's rate");
            jobs.len() as f64 / wall
        }
    };

    // Final stats snapshot, memory, then a verified clean shutdown.
    let (stats, stats_bytes) = Conn::connect(&socket)
        .and_then(|mut c| {
            c.send(&Request::Stats)?;
            c.recv()
        })
        .map_err(io)?;
    let peak_rss_mb = proc_status_mb(Some(pid), "VmHWM").unwrap_or(0.0);
    let rss_end = proc_status_mb(Some(pid), "VmRSS").unwrap_or(0.0);
    daemon.shutdown()?;

    let attempted = all.len() as u64;
    let failed = all.iter().filter(|r| !r.ok).count() as u64;
    let lags: Vec<f64> = all.iter().filter_map(|r| r.lag).collect();
    let lag_p99 = quantile(&lags, 0.99);
    eprintln!(
        "daemon-mix: {attempted} jobs in {ROUNDS} rounds; {}; highest passing rung {} ({:.1}/s); generator lag p99 {lag_p99:.3} ms",
        e2e.support(),
        search.highest(),
        LADDER.rate(search.highest()),
    );
    // The generator must keep its schedule, or the run is invalid.
    const MAX_LAG_MS: f64 = 10.0;
    if lag_p99 > MAX_LAG_MS {
        return Err(format!("load generator fell behind schedule (lag p99 {lag_p99:.2} ms > {MAX_LAG_MS} ms); run is invalid"));
    }

    if !trace {
        return Ok(Outcome {
            metrics: EndToEnd::metrics(peak_rss_mb, setup_figure(&setup, SETUP_QUANTILE)),
            also: e2e.load_metrics(max_rate),
            attempted,
            failed,
            correct: failed == 0,
        });
    }

    // Traced run: client spans, the server's own split, the stats
    // snapshot, and the in-process layers of this mix's new apps.
    write_spans(trace_path, &all).map_err(io)?;
    // Service figures come from the fixed-rate blocks only: the ladder's
    // failing steps are overloaded on purpose.
    let timed: Vec<&Record> = timed.iter().filter(|r| r.ok).collect();
    let lat = |k: Kind| -> Vec<f64> {
        timed
            .iter()
            .filter(|r| r.kind == k)
            .map(|r| r.latency())
            .collect()
    };
    let submit: Vec<f64> = timed.iter().map(|r| r.queued - r.sent).collect();
    let server: Vec<f64> = timed.iter().map(|r| r.server).collect();
    let wait: Vec<f64> = timed
        .iter()
        .map(|r| r.latency() - r.server - (r.queued - r.sent))
        .collect();
    let f = |k: &str| stats.u64_field(k).unwrap_or(0) as f64;
    let tier = |name: &str| -> f64 {
        stats
            .get("store_tiers")
            .and_then(Json::as_arr)
            .and_then(|ts| ts.iter().find(|t| t.str_field("tier") == Some(name)))
            .and_then(|t| t.u64_field("hits"))
            .unwrap_or(0) as f64
    };
    let svc = Service {
        submit_ms_p99: quantile(&submit, 0.99),
        server_ms_p50: median(&server),
        queue_wait_ms_p99: quantile(&wait, 0.99),
        latency_ms_p99_repeat: quantile(&lat(Kind::Repeat), 0.99),
        latency_ms_p99_new: quantile(&lat(Kind::New), 0.99),
        repeat_share: all.iter().filter(|r| r.kind == Kind::Repeat).count() as f64
            / attempted.max(1) as f64,
        rejected: f("rejected") + f("policy_denied"),
        errors: all.iter().filter(|r| r.refused).count() as f64,
        stats_reply_bytes: stats_bytes as f64,
        rss_growth_mb: rss_end - rss_base,
        summaries_hit_ratio: f("summary_hits") / (f("summary_hits") + f("summary_misses")).max(1.0),
        summaries_recorded: f("summary_recorded"),
        tier_memory: tier("memory"),
        tier_local: tier("local"),
        tier_chunk: tier("chunk"),
        cg_cache_hit_ratio: f("callgraph_cache_hits")
            / (f("callgraph_cache_hits") + f("callgraph_cache_misses")).max(1.0),
    };
    let env = Env::new();
    let sample: Vec<Input> = mix.new_inputs.iter().take(300).cloned().collect();
    let mut tracer = Tracer::new();
    let traced = trace_inputs(&env, &mut sample.iter().cloned(), &mut tracer);
    let repeat = counters_repeat(&env, &mut sample.iter().take(40).cloned(), &traced.counters);
    let layers = InProc {
        tracer: &tracer,
        counters: &traced.counters,
        untraced_s: traced.untraced_s,
    };
    let attempted = attempted + traced.attempted;
    let failed = failed + traced.failed;
    let mut m = e2e.load_metrics(max_rate);
    per_layer(&mut m, &layers, &svc, &lags, failed, attempted);
    Ok(Outcome {
        metrics: m,
        also: Default::default(),
        attempted,
        failed,
        correct: failed == 0 && repeat,
    })
}

/// Client spans, one line per job: submit (send → `queued`) and result
/// (`queued` → result line), plus the server's own time.
fn write_spans(path: &Path, records: &[Record]) -> io::Result<()> {
    let mut w = io::BufWriter::new(std::fs::File::create(path)?);
    for (i, r) in records.iter().enumerate() {
        let kind = if r.kind == Kind::New { "new" } else { "repeat" };
        writeln!(
            w,
            "{{\"job\":{i},\"kind\":\"{kind}\",\"ok\":{},\"due_ms\":{:.3},\"submit\":[{:.3},{:.3}],\"result\":[{:.3},{:.3}],\"server_ms\":{:.3}}}",
            r.ok, r.due, r.sent, r.queued, r.queued, r.done, r.server
        )?;
    }
    w.flush()
}
