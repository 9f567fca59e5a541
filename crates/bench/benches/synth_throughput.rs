//! Criterion benchmark for the buffer-insertion pillar of `rlc-synth` /
//! `rlc-engine`: nets/second through `Engine::run_synth` at 1, 2, 4, and
//! 8 workers, the bottom-up DP's cost against candidate-site count, and
//! the sizing pass's incremental-probe primitive against a from-scratch
//! re-analysis.
//!
//! As with `batch_throughput` and `couple_throughput`, the `rlc-synth/1`
//! report bytes are identical at every worker count; only wall-clock
//! changes. The `probe_guard` function re-measures the incremental
//! advantage on every run — including the CI bench smoke (`-- --test`) —
//! and *asserts* the ≥5× floor, so a probe-path regression fails the
//! build instead of drifting a JSON number.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rlc_bench::section;
use rlc_engine::{Engine, SynthBatch};
use rlc_moments::FlatIncrementalSums;
use rlc_synth::{plan_buffers, BufferSpec};
use rlc_tree::flat::FlatTree;
use rlc_tree::topology;

const NETS: usize = 32;
/// Sections per line net of the worker-scaling corpus.
const SECTIONS: usize = 48;

/// One resistive line deck with library and constraint cards, with
/// per-net parameter jitter so jobs are not byte-identical.
fn synth_deck(index: usize) -> String {
    use std::fmt::Write as _;

    let mut deck = String::new();
    let r = 600.0 + 20.0 * index as f64;
    for s in 0..SECTIONS {
        let parent = if s == 0 {
            "in".to_owned()
        } else {
            format!("n{}", s - 1)
        };
        let _ = writeln!(deck, "R{s} {parent} n{s} {r}");
        let _ = writeln!(deck, "C{s} n{s} 0 0.35p");
    }
    let _ = writeln!(deck, ".lib bufx r=120 cin=5f tin=15p");
    let _ = writeln!(deck, ".driver 100");
    deck.push_str(".end\n");
    deck
}

fn corpus() -> SynthBatch {
    let mut batch = SynthBatch::new();
    for i in 0..NETS {
        batch.push_deck(format!("net{i:02}"), synth_deck(i));
    }
    batch
}

fn bench_worker_scaling(c: &mut Criterion) {
    let batch = corpus();
    let mut group = c.benchmark_group("synth_throughput");
    group.throughput(Throughput::Elements(NETS as u64));
    for workers in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("workers", workers),
            &workers,
            |b, &workers| {
                let engine = Engine::with_workers(workers);
                b.iter(|| std::hint::black_box(engine.run_synth(&batch)))
            },
        );
    }
    group.finish();
}

/// The DP's closed-form cost against candidate-site count: every section
/// is a site, so a line of `n` sections enumerates `n` sites.
fn bench_dp_sites(c: &mut Criterion) {
    let buffer = BufferSpec {
        resistance: 120.0,
        input_capacitance: 5e-15,
        intrinsic_delay: 15e-12,
    };
    let mut group = c.benchmark_group("synth_dp_sites");
    for sites in [16usize, 64, 256] {
        let (tree, _) = topology::single_line(sites, section(700.0, 0.0, 0.35));
        group.bench_with_input(BenchmarkId::new("line", sites), &tree, |b, tree| {
            b.iter(|| std::hint::black_box(plan_buffers(tree, 100.0, &buffer)))
        });
    }
    group.finish();
}

/// The sizing pass's probe primitive: one section rewritten at a new
/// width, re-read through `FlatIncrementalSums::apply_edit` (O(depth))
/// versus a from-scratch `tree_sums` pass (O(n)).
fn bench_sizing_probe(c: &mut Criterion) {
    let tree = topology::balanced_tree(10, 2, section(20.0, 2.0, 0.3));
    let sink = tree.leaves().next().expect("balanced tree has leaves");
    let base = section(20.0, 2.0, 0.3);
    let wide = section(10.0, 2.0, 0.6); // base at width factor 2

    let mut group = c.benchmark_group("synth_sizing_probe");

    group.bench_with_input(
        BenchmarkId::new("full_reanalysis", tree.len()),
        &tree,
        |b, tree| {
            let mut tree = tree.clone();
            let mut flip = false;
            b.iter(|| {
                flip = !flip;
                *tree.section_mut(sink) = if flip { wide } else { base };
                let sums = rlc_moments::tree_sums(std::hint::black_box(&tree));
                std::hint::black_box((sums.rc(sink), sums.lc(sink)))
            })
        },
    );

    group.bench_with_input(
        BenchmarkId::new("incremental_probe", tree.len()),
        &tree,
        |b, tree| {
            let mut flat = FlatTree::from_tree(tree);
            let mut sums = FlatIncrementalSums::new(&flat);
            let mut flip = false;
            b.iter(|| {
                flip = !flip;
                flat.set_section(sink.index(), if flip { &wide } else { &base });
                sums.apply_edit(std::hint::black_box(&flat), sink.index());
                std::hint::black_box(sums.rc_lc(&flat, sink.index()))
            })
        },
    );

    group.finish();
}

/// The executable acceptance gate: the sizing pass's per-section width
/// probe through `FlatIncrementalSums` must be ≥5× faster than a full
/// re-analysis of the stage tree. Measured as the median of
/// five paired rounds so one scheduler hiccup cannot flake the build;
/// runs (and asserts) under both `cargo bench` and the CI smoke's
/// `-- --test` mode.
fn probe_guard(_c: &mut Criterion) {
    use std::time::Instant;

    const ITERS: u32 = 256;
    const ROUNDS: usize = 5;

    let tree = topology::balanced_tree(10, 2, section(20.0, 2.0, 0.3));
    let sink = tree.leaves().next().expect("balanced tree has leaves");
    let base = section(20.0, 2.0, 0.3);
    let wide = section(10.0, 2.0, 0.6);

    let mut full_tree = tree.clone();
    let mut probe_flat = FlatTree::from_tree(&tree);
    let mut sums = FlatIncrementalSums::new(&probe_flat);
    let mut flip = false;
    let mut ratios = Vec::with_capacity(ROUNDS);

    for _ in 0..ROUNDS {
        let t0 = Instant::now();
        for _ in 0..ITERS {
            flip = !flip;
            *full_tree.section_mut(sink) = if flip { wide } else { base };
            let full = rlc_moments::tree_sums(std::hint::black_box(&full_tree));
            std::hint::black_box((full.rc(sink), full.lc(sink)));
        }
        let full_ns = t0.elapsed().as_nanos().max(1);

        let t0 = Instant::now();
        for _ in 0..ITERS {
            flip = !flip;
            probe_flat.set_section(sink.index(), if flip { &wide } else { &base });
            sums.apply_edit(std::hint::black_box(&probe_flat), sink.index());
            std::hint::black_box(sums.rc_lc(&probe_flat, sink.index()));
        }
        let probe_ns = t0.elapsed().as_nanos().max(1);

        ratios.push(full_ns as f64 / probe_ns as f64);
    }

    ratios.sort_by(|a, b| a.partial_cmp(b).expect("finite ratios"));
    let median = ratios[ROUNDS / 2];
    assert!(
        median >= 5.0,
        "the sizing probe must be >=5x faster than full re-analysis \
         on a 1023-node tree; measured median {median:.1}x ({ratios:?})"
    );
    println!("probe_guard: median {median:.1}x (rounds {ratios:?})");
}

criterion_group!(
    benches,
    bench_worker_scaling,
    bench_dp_sites,
    bench_sizing_probe,
    probe_guard
);
criterion_main!(benches);
