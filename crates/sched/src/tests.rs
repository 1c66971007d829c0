//! Scheduler-level tests: the two stress tests that guarded the old
//! `SharedPlanQueue` (shutdown-while-waiting, exact-tree-drain) re-stated
//! over the work-stealing scheduler, plus empty-steal and spill
//! regressions.

use super::*;
use std::sync::atomic::{AtomicUsize, Ordering as O};

/// Eight workers, one seed, no children: seven workers park with nothing
/// to do while the eighth holds the seed. When the claim is retired the
/// outstanding count hits zero and every sleeper must wake and exit via
/// `next() == None` — the shutdown-while-waiting path. The brief hold
/// gives the other workers time to actually reach the park.
#[test]
fn drain_termination_wakes_all_waiting_workers() {
    let sched: Scheduler<u32> = Scheduler::with_capacity(8, 64);
    sched.inject(7);
    let processed = AtomicUsize::new(0);
    sched.run_scoped(|mut w| {
        while let Some(_item) = w.next() {
            processed.fetch_add(1, O::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
    });
    assert_eq!(processed.load(O::SeqCst), 1);
    assert_eq!(sched.outstanding(), 0);
}

/// Deterministic synthetic workload mirroring the old
/// `shared_queue_drains_exact_tree_under_contention`: each item is a
/// remaining depth; depth > 0 spawns `fanout` children at depth − 1.
/// Whatever the steal schedule, batching, or deque capacity, 8 workers
/// must process exactly `Σ fanout^k for k in 0..=depth` items — dropping a
/// wakeup would hang the drain, and double-claiming or losing a spawn
/// would skew the count. Capacity 2 forces the spill + steal paths hard.
#[test]
fn drains_exact_tree_under_contention() {
    for (fanout, depth) in [(2u64, 10u32), (3, 7), (5, 4)] {
        let expected: u64 = (0..=depth).map(|k| fanout.pow(k)).sum();
        for capacity in [2usize, 64] {
            let sched: Scheduler<u32> = Scheduler::with_capacity(8, capacity);
            sched.inject(depth);
            let processed = AtomicUsize::new(0);
            sched.run_scoped(|mut w| {
                let mut batch = Vec::new();
                loop {
                    let claimed = w.next_batch(&mut batch, 4);
                    if claimed == 0 {
                        return;
                    }
                    processed.fetch_add(claimed, O::SeqCst);
                    for d in batch.drain(..) {
                        if d > 0 {
                            for _ in 0..fanout {
                                w.spawn(d - 1);
                            }
                        }
                    }
                }
            });
            assert_eq!(
                processed.load(O::SeqCst) as u64,
                expected,
                "fanout {fanout} depth {depth} capacity {capacity}"
            );
            let stats = sched.stats();
            assert_eq!(stats.spawned + stats.injected, expected, "every item entered once");
            assert_eq!(stats.completed, expected, "every item retired once");
        }
    }
}

/// Service mode: with nothing queued, every worker's scan comes up empty
/// (the empty-steal path), they park, and `shutdown()` must wake them all
/// into `Step::Shutdown` — no worker may sleep through it.
#[test]
fn shutdown_wakes_parked_service_workers() {
    let sched: Scheduler<u32> = Scheduler::with_capacity(8, 8);
    let exited = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for i in 0..8 {
            let sched = &sched;
            let exited = &exited;
            scope.spawn(move || {
                let mut w = sched.worker(i);
                loop {
                    match w.next_step() {
                        Step::Task(_) => panic!("no work was ever published"),
                        Step::Idle(token) => w.park(token),
                        Step::Shutdown => {
                            exited.fetch_add(1, O::SeqCst);
                            return;
                        }
                    }
                }
            });
        }
        // Let workers reach the park before pulling the plug.
        std::thread::sleep(std::time::Duration::from_millis(30));
        sched.shutdown();
    });
    assert_eq!(exited.load(O::SeqCst), 8);
    assert!(sched.stats().empty_scans >= 8, "each worker scanned empty at least once");
}

/// Work published between a failed scan and the park must not be lost:
/// the IdleToken generation check turns the park into a no-op.
#[test]
fn service_mode_processes_injected_work_then_drains_on_shutdown() {
    let sched: Scheduler<u64> = Scheduler::with_capacity(4, 4);
    let sum = std::sync::atomic::AtomicU64::new(0);
    let seen = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for i in 0..4 {
            let sched = &sched;
            let sum = &sum;
            let seen = &seen;
            scope.spawn(move || {
                let mut w = sched.worker(i);
                loop {
                    match w.next_step() {
                        Step::Task(v) => {
                            sum.fetch_add(v, O::SeqCst);
                            seen.fetch_add(1, O::SeqCst);
                        }
                        Step::Idle(token) => w.park(token),
                        Step::Shutdown => return,
                    }
                }
            });
        }
        for v in 1..=100u64 {
            sched.inject(v);
        }
        while seen.load(O::SeqCst) < 100 {
            std::thread::yield_now();
        }
        sched.shutdown();
    });
    assert_eq!(sum.load(O::SeqCst), 5050);
}

/// A capacity-2 scheduler spawning wide fan-out must spill to the
/// injector and still drain exactly; spills are visible in the stats.
#[test]
fn tiny_deques_spill_to_injector_and_still_drain_exactly() {
    let sched: Scheduler<u32> = Scheduler::with_capacity(2, 2);
    sched.inject(1);
    let processed = AtomicUsize::new(0);
    sched.run_scoped(|mut w| {
        while let Some(d) = w.next() {
            processed.fetch_add(1, O::SeqCst);
            if d > 0 {
                for _ in 0..64 {
                    w.spawn(d - 1);
                }
            }
        }
    });
    assert_eq!(processed.load(O::SeqCst), 65, "root + 64 leaves");
    assert!(sched.stats().spills > 0, "64 children cannot fit a capacity-2 ring");
}

#[test]
fn run_with_driver_shuts_down_even_when_driver_panics() {
    let sched: Scheduler<u32> = Scheduler::with_capacity(2, 8);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        sched.run_with_driver(
            || panic!("driver died"),
            |mut w| loop {
                match w.next_step() {
                    Step::Task(_) => {}
                    Step::Idle(token) => w.park(token),
                    Step::Shutdown => return,
                }
            },
        )
    }));
    // The panic propagates, but only after the workers were woken and
    // joined — reaching this line at all is the regression being tested.
    assert!(result.is_err());
    assert!(sched.is_shutdown());
}

#[test]
#[should_panic(expected = "already claimed")]
fn worker_slot_is_exclusive() {
    let sched: Scheduler<u32> = Scheduler::with_capacity(2, 8);
    let _first = sched.worker(0);
    let _second = sched.worker(0);
}

#[test]
fn dropping_a_worker_releases_its_slot() {
    let sched: Scheduler<u32> = Scheduler::with_capacity(1, 8);
    drop(sched.worker(0));
    let _again = sched.worker(0);
}

#[test]
fn inject_batch_counts_and_drains() {
    let sched: Scheduler<u32> = Scheduler::with_capacity(2, 8);
    assert_eq!(sched.inject_batch(0..10), 10);
    assert_eq!(sched.inject_batch(std::iter::empty()), 0);
    let processed = AtomicUsize::new(0);
    sched.run_scoped(|mut w| {
        while w.next().is_some() {
            processed.fetch_add(1, O::SeqCst);
        }
    });
    assert_eq!(processed.load(O::SeqCst), 10);
    assert_eq!(sched.stats().injected, 10);
}

/// Batch steals against the owner's CAS-free pop path: the owner pushes
/// and pops in bursts while a thief claims up to 8 items per
/// `steal_into`, at capacities where a batch can hold more than one item.
/// Every item must be taken exactly once. A batch claim that overlaps an
/// owner pop would count one item twice and leave another stranded.
#[test]
fn batch_steals_take_every_item_exactly_once() {
    use crate::deque::Deque;
    use std::sync::atomic::{AtomicBool, AtomicU8};
    const N: usize = 100_000;
    for capacity in [8usize, 16, 64] {
        let d: Deque<usize> = Deque::new(capacity);
        let taken: Vec<AtomicU8> = (0..N).map(|_| AtomicU8::new(0)).collect();
        let done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let mut out = Vec::new();
                loop {
                    out.clear();
                    let n = d.steal_into(&mut out, 8);
                    for &i in &out {
                        taken[i].fetch_add(1, O::SeqCst);
                    }
                    // The owner raises `done` only after draining the deque
                    // empty, and only the owner pushes: nothing reappears.
                    if n == 0 && done.load(O::SeqCst) {
                        return;
                    }
                }
            });
            // Owner: fill a burst, then pop part of it back, so the pops
            // keep landing inside the window a concurrent thief just read.
            let mut rng = 0x9E37_79B9_7F4A_7C15u64;
            let mut next = 0usize;
            while next < N {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                let burst = 1 + (rng % capacity as u64) as usize;
                for _ in 0..burst.min(N - next) {
                    if d.push(next).is_err() {
                        break;
                    }
                    next += 1;
                }
                for _ in 0..(rng >> 32) as usize % (burst + 1) {
                    if let Some(i) = d.pop() {
                        taken[i].fetch_add(1, O::SeqCst);
                    }
                }
            }
            while let Some(i) = d.pop() {
                taken[i].fetch_add(1, O::SeqCst);
            }
            done.store(true, O::SeqCst);
        });
        for (i, count) in taken.iter().enumerate() {
            let count = count.load(O::SeqCst);
            assert_eq!(count, 1, "capacity {capacity}: item {i} taken {count} times");
        }
    }
}
