//! The fixed rate ladder `max_rate_under_slo` is searched on.

/// `rungs` arrival rates from `base`, each `step` times the one before,
/// and the p99 latency limit a rung must meet.
pub struct Ladder {
    pub base: f64,
    pub step: f64,
    pub rungs: u32,
    pub slo_ms: f64,
}

impl Ladder {
    pub fn rate(&self, rung: u32) -> f64 {
        self.base * self.step.powi(rung as i32)
    }

    /// Whether an open-loop step at `rate` met the limit: every job
    /// succeeded (failed jobs carry an infinite latency), the p99 is
    /// within the limit, and completions kept pace with arrivals — no
    /// growing backlog.
    pub fn meets(&self, rate: f64, latency_ms: &[f64], achieved: f64) -> bool {
        crate::stats::quantile(latency_ms, 0.99) <= self.slo_ms && achieved >= 0.93 * rate
    }
}

/// Bisection for the highest rung that meets the limit. The lowest rung
/// is assumed to. A rung that misses is tried once more in a later
/// step before it counts, so one transient stall of the host cannot
/// pull the answer down.
pub struct Search {
    pass: u32,
    fail: u32,
    retry: Option<u32>,
    /// Achieved rate at the highest rung seen to meet the limit.
    pub best: Option<f64>,
}

impl Search {
    pub fn new(ladder: &Ladder) -> Search {
        Search {
            pass: 0,
            fail: ladder.rungs,
            retry: None,
            best: None,
        }
    }

    /// The rung to try next, or `None` when the search is done.
    pub fn next(&self) -> Option<u32> {
        self.retry
            .or_else(|| (self.fail - self.pass > 1).then(|| (self.pass + self.fail) / 2))
    }

    pub fn record(&mut self, rung: u32, met: bool, achieved: f64) {
        if met {
            self.pass = rung;
            self.best = Some(achieved);
            self.retry = None;
        } else if self.retry == Some(rung) {
            self.fail = rung;
            self.retry = None;
        } else {
            self.retry = Some(rung);
        }
    }

    /// The highest rung known to meet the limit.
    pub fn highest(&self) -> u32 {
        self.pass
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bisection_retries_a_miss_once() {
        let ladder = Ladder {
            base: 1.0,
            step: 2.0,
            rungs: 8,
            slo_ms: 1.0,
        };
        let mut s = Search::new(&ladder);
        assert_eq!(s.next(), Some(4));
        s.record(4, false, 0.0);
        assert_eq!(s.next(), Some(4));
        s.record(4, true, 16.0);
        assert_eq!(s.next(), Some(6));
        s.record(6, false, 0.0);
        s.record(6, false, 0.0);
        assert_eq!(s.next(), Some(5));
        s.record(5, true, 32.0);
        assert_eq!(s.next(), None);
        assert_eq!((s.highest(), s.best), (5, Some(32.0)));
    }
}
