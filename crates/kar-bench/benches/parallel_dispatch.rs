//! Criterion bench for the sharded parallel dispatcher: one full multi-actor
//! throughput measurement per dispatch worker count, tracking the scaling of
//! the hot path over time (the tier-1 test
//! `four_workers_at_least_double_single_worker_throughput` gates it).

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use kar_bench::throughput::{measure_throughput, ThroughputConfig};

fn bench_dispatch_scaling(c: &mut Criterion) {
    let config = ThroughputConfig {
        actors: 16,
        calls_per_actor: 10,
        service_time_us: 1_000,
    };
    let mut group = c.benchmark_group("parallel_dispatch");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(10));
    for workers in [1usize, 4] {
        group.bench_function(format!("{workers}_workers_160_calls"), |b| {
            b.iter(|| measure_throughput(workers, &config).calls.total_calls)
        });
    }
    group.finish();
}

criterion_group!(benches, bench_dispatch_scaling);
criterion_main!(benches);
