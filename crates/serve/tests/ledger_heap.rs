//! Heap the job ledger keeps per finished job, counted by a global
//! allocator: a plain `sim` job that ran to completion may retain at most
//! three heap blocks (its name, its query and its degree vector). Job
//! names are not copied into the name index, zero retry counters are not
//! stored, and jobs with the same operators share one name list.
//!
//! A test binary of its own, because the counting allocator is global.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};
use streamtune_ged::Parallelism;
use streamtune_serve::{BackendSpec, JobSpec, Request, Response, Server, ServerConfig};
use streamtune_sim::SimCluster;
use streamtune_workloads::history::HistoryGenerator;
use streamtune_workloads::named_workloads;
use streamtune_workloads::rates::Engine;

/// Live heap blocks: allocations minus deallocations.
static LIVE_BLOCKS: AtomicIsize = AtomicIsize::new(0);

struct Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE_BLOCKS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE_BLOCKS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BLOCKS.fetch_sub(1, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Submit and recommend one `sim` job per named workload, named
/// `{prefix}-{query}`.
fn run_pass(server: &mut Server, prefix: &str, multiplier: f64) {
    for (i, workload) in named_workloads(Engine::Flink).iter().enumerate() {
        let name = format!("{prefix}-{}", workload.name);
        let spec = JobSpec {
            name: name.clone(),
            query: workload.name.clone(),
            multiplier,
            seed: 500 + i as u64,
            engine: Engine::Flink,
            backend: BackendSpec::Sim,
        };
        let (response, _) = server.handle(&Request::Submit(spec));
        assert!(
            matches!(response, Response::Submitted { .. }),
            "{response:?}"
        );
        let (response, _) = server.handle(&Request::Recommend { job: name });
        assert!(
            matches!(response, Response::Recommendation(_)),
            "{response:?}"
        );
    }
}

fn live_blocks() -> isize {
    LIVE_BLOCKS.load(Ordering::Relaxed)
}

#[test]
fn finished_sim_jobs_retain_at_most_three_heap_blocks_each() {
    // Spans and events go to bounded rings, not the ledger; keep them out
    // of the count.
    streamtune_telemetry::set_enabled(false);
    let config = ServerConfig {
        // The decision trail is trimmed to this many records after every
        // drain; a small cap reaches its steady state within the warm-up.
        ledger_cap: 8,
        ..ServerConfig::fast().with_parallelism(Parallelism::Serial)
    };
    let (mut server, _) = Server::bootstrap(None, config, || {
        let cluster = SimCluster::flink_defaults(71);
        HistoryGenerator::new(71).with_jobs(12).generate(&cluster)
    })
    .expect("bootstrap succeeds");

    // Warm-up: every operator list, cluster fit and lookup table exists.
    // The measured passes end on the warm-up's multiplier, so the trimmed
    // decision trail holds records of the same shape at both readings.
    run_pass(&mut server, "warm", 9.0);
    let before = live_blocks();
    let multipliers = [3.0, 6.0, 9.0];
    for (pass, multiplier) in multipliers.into_iter().enumerate() {
        run_pass(&mut server, &format!("p{pass}"), multiplier);
    }
    let jobs = multipliers.len() * named_workloads(Engine::Flink).len();
    let per_job = (live_blocks() - before) as f64 / jobs as f64;
    assert!(per_job > 0.0, "the counter sees the ledger grow");
    assert!(
        per_job <= 3.0,
        "each finished job retains {per_job:.2} heap blocks"
    );
}
