//! Concurrency stress tests for the scoped executor (mirrors
//! `crates/obs/tests/concurrency.rs`): concurrent and skewed batches must
//! never deadlock and must always reduce in submission order.

use h2o_exec::Executor;

const PRODUCERS: usize = 8;

/// Worker count for stress runs; honours the CI matrix's `H2O_WORKERS`.
fn workers() -> usize {
    h2o_exec::resolve_workers(0, 4)
}

#[test]
fn scoped_executor_is_deterministic_under_contention() {
    // Many concurrent *scoped* executors hammering the same process must
    // not interfere: each returns its own batch in submission order.
    std::thread::scope(|s| {
        for round in 0..PRODUCERS {
            s.spawn(move || {
                let exec = Executor::new(4);
                let expect: Vec<u64> = (0..100u64).map(|x| x * 31 + round as u64).collect();
                for _ in 0..10 {
                    let got = exec.map((0..100u64).collect(), |_, x| x * 31 + round as u64);
                    assert_eq!(got, expect);
                }
            });
        }
    });
}

#[test]
fn tiny_batches_never_deadlock_the_steal_path() {
    // Regression: workers used to hold their own queue lock while locking a
    // victim's queue to steal (a guard-lifetime bug), so several workers
    // going empty simultaneously formed a hold-and-wait cycle and the pool
    // hung. Trivial jobs drain the queues almost instantly, making every
    // worker a would-be thief — thousands of rounds reliably tripped the
    // old cycle, while the fixed lock discipline must run them all.
    let exec = Executor::new(4);
    for round in 0..4_000u64 {
        let got = exec.map((0..8u64).collect(), |_, x| x ^ round);
        assert_eq!(got.len(), 8);
    }
}

#[test]
fn mixed_cost_jobs_still_reduce_in_order() {
    let exec = Executor::new(workers().max(2));
    // Heavily skewed job costs force steals; results must stay ordered.
    let out = exec.map((0..256usize).collect(), |i, _| {
        let spin = if i % 16 == 0 { 200_000 } else { 10 };
        let mut acc = i as u64;
        for _ in 0..spin {
            acc = acc
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
        }
        std::hint::black_box(acc);
        i
    });
    assert_eq!(out, (0..256).collect::<Vec<_>>());
}
