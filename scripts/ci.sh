#!/usr/bin/env bash
# Local CI: format, lint, build, test — offline-friendly (no network,
# vendored deps only). Run from anywhere inside the repository.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== cargo build --release =="
cargo build --workspace --release --offline

echo "== cargo test =="
cargo test --workspace --offline -q

echo "== parallel-planner equivalence suite (HYPPO_PLANNER_THREADS=4) =="
HYPPO_PLANNER_THREADS=4 cargo test --offline -q --test planner_parallel_equivalence

echo "== sched == steal-heavy scheduler determinism suite (HYPPO_PLANNER_THREADS=4)"
# Scheduler gate (crates/sched, DESIGN.md §16): all three consumers —
# parallel plan search, wavefront execution, tenant serving — must stay
# bit-identical to serial under the nastiest steal schedule the suite can
# force (HYPPO_SCHED_CAPACITY=2 inside the tests shrinks every deque to
# two slots, so nearly every spawn spills to the injector and nearly every
# claim crosses workers). The scheduler's own shutdown/empty-steal
# regression pair runs with `cargo test -p hyppo-sched` above; the bench
# artifact BENCH_sched.json (spawn/drain throughput + contention counters)
# is committed at the repo root and refreshed by `cargo bench --bench
# sched -- --bench` — contention numbers are reported, never asserted,
# because the container pins a single core.
HYPPO_PLANNER_THREADS=4 cargo test --offline -q --test sched_determinism
test -f BENCH_sched.json || { echo "BENCH_sched.json missing" >&2; exit 1; }

echo "== sweep == batch-planning equivalence suite (HYPPO_PLANNER_THREADS=4)"
# Batch-vs-sequential bit-identity (tests/batch_planning_props.rs): jointly
# planned sweeps must emit exactly the plans sequential submission would,
# while amortizing bound computation — checked with the env-default planner
# forced to 4 workers on top of the suite's own {1, 4} thread matrix.
HYPPO_PLANNER_THREADS=4 cargo test --offline -q --test batch_planning_props

echo "== serve == multi-tenant serving suite (HYPPO_PLANNER_THREADS=4)"
# Serving gate (crates/serve, DESIGN.md §14): actor-mailbox FIFO order,
# bounded-admission execute-once properties under rejection/cancel races,
# and per-tenant bit-identity to isolated replay across 50+ seeds — all
# re-run with the env-default planner forced to 4 workers so the parallel
# search interleaves with the serving layer's own worker pool. The
# cross-driver gate (tests/driver_equivalence.rs) checks that the serial
# `Hyppo` and the concurrent `SharedHyppo` leave bit-identical reports,
# durable event streams and catalogs on one operation stream.
HYPPO_PLANNER_THREADS=4 cargo test --offline -q -p hyppo-serve
HYPPO_PLANNER_THREADS=4 cargo test --offline -q --test group_commit_crash
HYPPO_PLANNER_THREADS=4 cargo test --offline -q --test driver_equivalence

echo "== persist: crash-recovery property suite =="
# Durability gate (crates/persist, DESIGN.md §12): recovery must be
# bit-identical across 100+ seeded sessions, at every WAL record boundary,
# and after mid-record torn tails. (The persist bench itself runs its
# quick smoke pass under the `cargo bench --no-run`-compiled binaries and
# rewrites BENCH_persist.json only when invoked as a dedicated target.)
cargo test --offline -q -p hyppo-persist
cargo test --offline -q --test persist_recovery_props

echo "== hyppo-lint =="
# Determinism & concurrency static analysis (crates/lint): per-file rules
# (nondeterministic hash iteration, wall-clock in plan decisions,
# unjustified relaxed atomics, undocumented unsafe, nested lock
# acquisition, the removed pre-Planner API, raw filesystem writes in
# durability-critical crates) plus the interprocedural passes over the
# workspace call graph: lock-order cycles and blocking calls reachable
# inside critical sections (DESIGN.md §15). The enriched JSON artifact
# (findings + summary block) is archived so failures print structured
# findings and dashboards can diff suppression counts across commits.
mkdir -p target
if ! cargo run -q -p hyppo-lint --offline -- --json > target/hyppo-lint.json; then
    echo "hyppo-lint found violations:" >&2
    cat target/hyppo-lint.json >&2
    cargo run -q -p hyppo-lint --offline >&2 || true
    exit 1
fi
# Suppression hygiene: a clean run must also carry zero unused
# suppressions — every `hyppo-lint: allow(...)` in the tree still matches
# a live finding, or it gets deleted.
if ! grep -q '"unused":0' target/hyppo-lint.json; then
    echo "hyppo-lint: stale suppressions (unused != 0):" >&2
    cat target/hyppo-lint.json >&2
    exit 1
fi
# Negative self-test: the lint must still *find* things. The violating
# fixture workspace seeds a cross-crate lock-order cycle and an
# fsync-under-guard; a zero exit here means the analysis went blind.
if cargo run -q -p hyppo-lint --offline -- \
        --root crates/lint/tests/fixtures/lock_cycle_ws > /dev/null 2>&1; then
    echo "hyppo-lint: negative self-test failed — violating fixture workspace passed" >&2
    exit 1
fi

echo "== cargo doc (deny rustdoc warnings) =="
# Missing or broken docs fail the build: hypergraph, core, persist,
# runtime, serve, and sched all carry #![deny(missing_docs)], and
# -D warnings promotes broken intra-doc links and the rest of rustdoc's
# lints everywhere else (the --workspace sweep includes the sched crate
# and its compiling spawn/drain doctest).
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== cargo bench --no-run (benches must compile) =="
cargo bench --workspace --no-run --offline

echo "CI OK"
