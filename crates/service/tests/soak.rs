//! Daemon soak: about 2,000 corpus and external `.rpk` jobs through one
//! daemon with a summary cache. The `stats` reply and the job table it
//! lists must stay bounded however many jobs have been served, every
//! waiting connection must get its result, jobs whose submitter hung up
//! must still finish and retire instead of staying in the table, and a
//! retired job's id still answers `cancel` with `done`.

use flowdroid_service::{AnalyzeOptions, Client, Daemon, DaemonOptions, Listen, Submitted};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Client connections submitting one job at a time.
const CLIENTS: usize = 4;
/// Jobs each client submits and waits for.
const JOBS_PER_CLIENT: usize = 480;
/// Submitters that hang up right after their job is queued.
const ABANDONED: usize = 80;
/// Every `EXTERNAL_EVERY`-th job of a client is an external app.
const EXTERNAL_EVERY: usize = 6;
/// Upper bound on listed jobs: the recent finished ones (32) plus the
/// live ones (one per client, plus abandoned jobs not yet run).
const MAX_LISTED: usize = 32 + CLIENTS + ABANDONED;
/// Upper bound on the `stats` reply, in bytes.
const MAX_STATS_BYTES: usize = 24 * 1024;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("flowdroid-soak-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A listen address for a soak daemon: a Unix socket where there is
/// one (TCP replies to small requests can stall on delayed ACKs, which
/// would dominate a run of this many short jobs).
fn soak_listen(tag: &str) -> Listen {
    if cfg!(unix) {
        let sock = std::env::temp_dir().join(format!("fdsoak-{tag}-{}.sock", std::process::id()));
        Listen::parse(&format!("unix:{}", sock.display()))
    } else {
        Listen::parse("127.0.0.1:0")
    }
}

/// Size of the `stats` reply and the number of jobs it lists.
fn stats_size(c: &mut Client) -> (usize, usize) {
    let stats = c.stats().expect("stats");
    let listed = stats.get("jobs").and_then(|j| j.as_arr()).map_or(0, |j| j.len());
    (stats.to_line().len(), listed)
}

#[test]
fn long_soak_keeps_stats_and_job_table_bounded() {
    let cache = temp_dir("cache");
    let apps = temp_dir("apps");
    std::fs::create_dir_all(&apps).unwrap();
    let truth = flowdroid_truth::generate_corpus(11, 1);
    let mut external = Vec::new();
    for (i, app) in truth.iter().enumerate() {
        let path = apps.join(format!("app{i}.rpk"));
        std::fs::write(&path, app.rpk_bytes()).unwrap();
        external.push((path.to_str().unwrap().to_string(), app.expected_reported as u64));
    }
    let corpus: Vec<String> =
        flowdroid_bench::full_corpus().into_iter().map(|j| j.name).collect();

    let daemon = Daemon::bind(DaemonOptions {
        listen: soak_listen("mix"),
        workers: 2,
        queue_cap: 0,
        summary_cache: Some(cache.clone()),
        platform_snapshot: None,
        allow_apps: vec![apps.clone()],
    })
    .expect("bind daemon");
    let addr = daemon.local_addr().to_string();
    let accept_loop = std::thread::spawn(move || daemon.run().expect("daemon run"));

    let answered = Arc::new(AtomicU64::new(0));
    let clients: Vec<_> = (0..CLIENTS)
        .map(|k| {
            let (addr, corpus, external) = (addr.clone(), corpus.clone(), external.clone());
            let answered = Arc::clone(&answered);
            std::thread::spawn(move || {
                let mut c = Client::connect(&addr).expect("connect");
                for i in 0..JOBS_PER_CLIENT {
                    let n = k * JOBS_PER_CLIENT + i;
                    let (app, expected) = if i % EXTERNAL_EVERY == 0 {
                        let (path, leaks) = &external[n % external.len()];
                        (path.as_str(), Some(*leaks))
                    } else {
                        (corpus[n % corpus.len()].as_str(), None)
                    };
                    let (_, result) = c.analyze(app, None, None).expect("job result");
                    assert!(!result.aborted, "{app} aborted");
                    if let Some(leaks) = expected {
                        assert_eq!(result.leaks, leaks, "{app}");
                    }
                    answered.fetch_add(1, Ordering::Relaxed);
                }
            })
        })
        .collect();

    // Hang up on some jobs right after they are queued; their results
    // have nobody to go to.
    for i in 0..ABANDONED {
        let mut c = Client::connect(&addr).expect("connect");
        let submitted =
            c.submit(&corpus[i * 7 % corpus.len()], &AnalyzeOptions::default()).expect("submit");
        assert!(matches!(submitted, Submitted::Queued(_)));
    }

    // Watch the stats reply while the soak runs.
    let mut watch = Client::connect(&addr).expect("stats connection");
    let mut largest = (0, 0);
    while clients.iter().any(|c| !c.is_finished()) {
        let (bytes, listed) = stats_size(&mut watch);
        largest = (largest.0.max(bytes), largest.1.max(listed));
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    for c in clients {
        c.join().expect("client thread");
    }
    let total = (CLIENTS * JOBS_PER_CLIENT) as u64;
    assert_eq!(answered.load(Ordering::Relaxed), total, "every waiter gets its result");

    let ack = watch.shutdown().expect("shutdown");
    let served = total + ABANDONED as u64;
    assert_eq!(ack.u64_field("jobs_completed"), Some(served));
    accept_loop.join().expect("accept loop exits cleanly");

    eprintln!("soak: largest stats reply {} bytes, {} jobs listed", largest.0, largest.1);
    assert!(largest.1 <= MAX_LISTED, "stats listed {} jobs", largest.1);
    assert!(largest.0 <= MAX_STATS_BYTES, "stats reply reached {} bytes", largest.0);
    let _ = std::fs::remove_dir_all(&cache);
    let _ = std::fs::remove_dir_all(&apps);
}

/// After the daemon drains, `stats` lists only the recent finished jobs,
/// and a second batch of jobs leaves the reply no larger than the first.
/// Cancelling a retired job is an acknowledged no-op answering `done`;
/// ids never handed out stay errors.
#[test]
fn retired_jobs_leave_stats_flat_and_cancel_as_done() {
    let daemon = Daemon::bind(DaemonOptions {
        listen: soak_listen("stats"),
        workers: 1,
        queue_cap: 0,
        summary_cache: None,
        platform_snapshot: None,
        allow_apps: Vec::new(),
    })
    .expect("bind daemon");
    let addr = daemon.local_addr().to_string();
    let accept_loop = std::thread::spawn(move || daemon.run().expect("daemon run"));
    let mut c = Client::connect(&addr).expect("connect");
    let mut sizes = Vec::new();
    for _ in 0..2 {
        for _ in 0..100 {
            c.analyze("stress/20", None, None).expect("job");
        }
        sizes.push(stats_size(&mut c));
    }
    assert_eq!(sizes[0].1, 32, "only the recent finished jobs are listed");
    assert_eq!(sizes[1].1, sizes[0].1);
    // Ids and counters gain a digit here and there; the listing does not.
    assert!(sizes[1].0 <= sizes[0].0 + sizes[0].0 / 10, "reply grew: {sizes:?}");

    let stats = c.stats().expect("stats");
    let listed = stats.get("jobs").and_then(|j| j.as_arr()).expect("job list");
    assert!(listed.iter().all(|j| j.u64_field("job") != Some(1)), "job 1 is retired");
    let ack = c.cancel(1).expect("cancel a retired job");
    assert_eq!(ack.str_field("state"), Some("done"));
    let stats = c.stats().expect("stats");
    assert_eq!(stats.u64_field("completed"), Some(200));
    assert_eq!(stats.u64_field("cancel_requests"), Some(0), "a no-op cancel is not counted");
    assert!(c.cancel(0).is_err(), "job 0 never exists");
    assert!(c.cancel(10_000).is_err(), "an id never handed out is unknown");
    c.shutdown().expect("shutdown");
    accept_loop.join().expect("accept loop exits cleanly");
}
