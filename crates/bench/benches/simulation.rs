//! Criterion bench: bit-parallel simulation throughput — the substrate
//! every phase (profiling, MERO, coverage evaluation) stands on.
//!
//! Two variants per circuit:
//!
//! * `scalar` — the reference gate-at-a-time interpreter
//!   ([`htforge_bench::scalar`]), the pre-kernel baseline;
//! * `compiled` — the [`SimProgram`] instruction tape.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use htforge_sim::{PatternSet, SimProgram};

fn bench_simulation(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulation");
    for name in ["c2670", "c6288", "s13207"] {
        let nl = htforge_circuits::load(name).expect("known circuit");
        let comb = if nl.dffs().is_empty() {
            nl.clone()
        } else {
            nl.scan_cut()
        };
        let prog = SimProgram::compile(&comb).expect("combinational");
        let vectors = 16_384usize;
        let patterns = PatternSet::random(comb.inputs().len(), vectors, 9);
        group.throughput(Throughput::Elements((vectors * comb.gate_count()) as u64));
        group.bench_with_input(BenchmarkId::new("scalar", name), &comb, |b, comb| {
            b.iter(|| htforge_bench::scalar::simulate(comb, &patterns).len());
        });
        group.bench_with_input(BenchmarkId::new("compiled", name), &prog, |b, prog| {
            b.iter(|| prog.run(&patterns).len());
        });
    }
    group.finish();
}

criterion_group!(benches, bench_simulation);
criterion_main!(benches);
