//! Microbenchmarks for the CSMP timing model: cycles simulated per second
//! for the single-threaded baseline and a 16-unit speculative run.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use specmt_sim::{SimConfig, Simulator};
use specmt_spawn::{profile_pairs, ProfileConfig};
use specmt_trace::Trace;
use specmt_workloads::{self as workloads, Scale};

fn bench_simulator(c: &mut Criterion) {
    let w = workloads::ijpeg(Scale::Small);
    let trace = Trace::generate(w.program.clone(), w.step_budget).expect("traces");
    let table = profile_pairs(&trace, &ProfileConfig::default()).table;

    let mut g = c.benchmark_group("simulator");
    g.throughput(Throughput::Elements(trace.len() as u64));
    g.bench_function("single_threaded", |b| {
        b.iter(|| Simulator::new(&trace, SimConfig::single_threaded()).run())
    });
    g.bench_function("speculative_16tu", |b| {
        b.iter(|| Simulator::with_table(&trace, SimConfig::paper(16), &table).run())
    });
    g.bench_function("speculative_16tu_stride", |b| {
        b.iter(|| {
            Simulator::with_table(
                &trace,
                SimConfig::paper(16)
                    .with_value_predictor(specmt_predict::ValuePredictorKind::Stride),
                &table,
            )
            .run()
        })
    });
    g.finish();
}

criterion_group!(benches, bench_simulator);
criterion_main!(benches);
