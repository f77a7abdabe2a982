//! Cold-vs-warm determinism for the persistent summary cache: replaying
//! stored end summaries must change *how fast* the fixpoint is reached,
//! never *what* it is. A cold pass (which populates the store but is
//! forbidden from consuming its own discoveries) and a warm pass (which
//! replays the flushed store) must both produce the exact bytes of an
//! uncached run.

use flowdroid_bench::driver::{corpus_report, droidbench_corpus, run_corpus, run_corpus_cold_warm};
use flowdroid_core::InfoflowConfig;

/// Cold-then-warm runs over the DroidBench corpus produce leak reports
/// byte-identical to an uncached run, and the warm pass actually
/// replays summaries (nonzero hits).
#[test]
fn summary_cache_cold_and_warm_reports_identical() {
    let jobs = droidbench_corpus();
    let uncached = corpus_report(&run_corpus(&jobs, &InfoflowConfig::default(), 1));
    assert!(uncached.contains("leak(s)"));
    let dir = std::env::temp_dir().join(format!("flowdroid-cache-det-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (cold, warm) = run_corpus_cold_warm(&jobs, &InfoflowConfig::default(), 1, &dir);
    assert_eq!(corpus_report(&cold), uncached, "cold cached report diverged");
    assert_eq!(corpus_report(&warm), uncached, "warm cached report diverged");
    let cold_stats = cold.summary_cache_totals().expect("cold pass ran with a cache");
    assert_eq!(cold_stats.hits, 0, "cold pass must not consume its own store");
    assert!(cold_stats.recorded > 0, "cold pass should stage summaries");
    let warm_stats = warm.summary_cache_totals().expect("warm pass ran with a cache");
    assert!(warm_stats.hits > 0, "warm pass should replay stored summaries");
    assert!(warm_stats.store_methods > 0, "store should hold flushed methods");
    let (cold_fw, cold_bw) = cold.total_propagations();
    let (warm_fw, warm_bw) = warm.total_propagations();
    assert!(
        warm_fw + warm_bw < cold_fw + cold_bw,
        "warm pass should save path edges (cold {}, warm {})",
        cold_fw + cold_bw,
        warm_fw + warm_bw
    );
    let _ = std::fs::remove_dir_all(&dir);
}
