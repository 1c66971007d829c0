//! The deadline guard: a run that overruns prints its partial result and
//! exits non-zero instead of hanging.
//!
//! A watchdog thread sleeps on a channel until the deadline. If the run
//! has not disarmed it by then, every operation attempted but not yet
//! completed counts as failed, the partial result line is printed, and
//! the process exits with [`DEADLINE_EXIT`]. The guard changes nothing
//! about how the program runs (no deque capacity or worker overrides), so
//! a hang in the program shows as a failed run rather than being avoided.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::Duration;

/// Exit code of a run stopped by its deadline.
pub const DEADLINE_EXIT: i32 = 3;

/// Operation counters the workload updates as it goes.
#[derive(Debug, Default)]
pub struct Progress {
    attempted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
}

impl Progress {
    /// One operation was issued.
    pub fn attempt(&self) {
        // Relaxed: plain statistics, read only by the watchdog's snapshot.
        self.attempted.fetch_add(1, Ordering::Relaxed);
    }

    /// One issued operation finished, successfully or not.
    pub fn complete(&self, ok: bool) {
        let counter = if ok { &self.completed } else { &self.failed };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// `(attempted, failed)` counting every outstanding operation as failed.
    pub fn settle(&self) -> (u64, u64) {
        let attempted = self.attempted.load(Ordering::Relaxed);
        let completed = self.completed.load(Ordering::Relaxed);
        (attempted, attempted.saturating_sub(completed))
    }
}

/// An armed watchdog; [`Guard::disarm`] before printing the final result.
#[derive(Debug)]
pub struct Guard {
    disarm: mpsc::Sender<()>,
    watchdog: std::thread::JoinHandle<()>,
}

impl Guard {
    /// Arm a watchdog that fires `deadline` from now.
    pub fn arm(deadline: Duration, progress: Arc<Progress>) -> Guard {
        let (tx, rx) = mpsc::channel::<()>();
        let watchdog = std::thread::spawn(move || match rx.recv_timeout(deadline) {
            Ok(()) | Err(RecvTimeoutError::Disconnected) => {}
            Err(RecvTimeoutError::Timeout) => {
                let (attempted, failed) = progress.settle();
                let frac = if attempted == 0 { 1.0 } else { failed as f64 / attempted as f64 };
                eprintln!(
                    "deadline of {:.0}s exceeded: {failed} of {attempted} operations \
                     counted as failed",
                    deadline.as_secs_f64()
                );
                println!(
                    "{{\"correct\": false, \"attempted\": {attempted}, \"failed\": {failed}, \
                     \"metrics\": {{\"failed_frac\": {{\"value\": {frac:?}, \"unit\": \"1\"}}}}}}"
                );
                std::process::exit(DEADLINE_EXIT);
            }
        });
        Guard { disarm: tx, watchdog }
    }

    /// Stop the watchdog and wait for it to end.
    pub fn disarm(self) {
        // The watchdog may already have ended on its own; either way the
        // join below is what matters.
        let _ = self.disarm.send(());
        self.watchdog.join().expect("watchdog thread panicked");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outstanding_operations_settle_as_failed() {
        let p = Progress::default();
        for _ in 0..5 {
            p.attempt();
        }
        p.complete(true);
        p.complete(true);
        p.complete(false);
        // Two still outstanding plus one failed: three of five.
        assert_eq!(p.settle(), (5, 3));
    }
}
