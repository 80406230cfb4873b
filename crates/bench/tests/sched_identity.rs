//! Property test: the worker count is invisible in the output.
//!
//! For random subsets of the figures with cells, rendering on the suite
//! executor at `--threads 2` or `4` must produce byte-identical TSVs to
//! the serial reference `--threads 1`. Every run gets a fresh cache, so
//! each one computes all of its cells on its own pool instead of reading
//! what an earlier run left in a cache.

use jumanji::telemetry::NoopSink;
use jumanji_bench::cell_cache::CellCache;
use jumanji_bench::suite::run_suite;
use jumanji_bench::{ExperimentSpec, FigureKind};
use proptest::prelude::*;

/// Figures with a non-empty plan (the ones the scheduler runs cells
/// for) — analytic matrices plus the two detailed-simulator studies.
const PLANNABLE: [FigureKind; 13] = [
    FigureKind::Fig02,
    FigureKind::Fig04,
    FigureKind::Fig05,
    FigureKind::Fig09,
    FigureKind::Fig13,
    FigureKind::Fig14,
    FigureKind::Fig15,
    FigureKind::Fig16,
    FigureKind::Fig17,
    FigureKind::Fig18,
    FigureKind::Ablation,
    FigureKind::Sensitivity,
    FigureKind::Validate,
];

fn render_all(specs: &[ExperimentSpec], threads: usize) -> Vec<Vec<u8>> {
    let mut outputs = Vec::new();
    run_suite(specs, threads, &CellCache::new(), &NoopSink, &mut |fig| {
        outputs.push(fig.bytes);
        Ok(())
    })
    .expect("suite runs");
    outputs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    #[test]
    fn scheduled_output_is_byte_identical_to_sequential(
        mask in 1u32..(1 << PLANNABLE.len()),
        threads_pick in 0usize..2,
        seed in 1u64..1_000,
    ) {
        let threads = [2, 4][threads_pick];
        let kinds: Vec<FigureKind> = PLANNABLE
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, &k)| k)
            .take(3) // bound per-case cost; the mask still varies which
            .collect();
        let specs: Vec<ExperimentSpec> = kinds
            .iter()
            .map(|&k| {
                ExperimentSpec::new(k)
                    .mixes(1)
                    .seed(seed)
                    .accesses(4_000)
            })
            .collect();
        let sequential = render_all(&specs, 1);
        let scheduled = render_all(&specs, threads);
        prop_assert_eq!(scheduled.len(), sequential.len());
        for (i, (s, q)) in scheduled.iter().zip(&sequential).enumerate() {
            prop_assert!(
                s == q,
                "figure {} differs between --threads {} and --threads 1",
                kinds[i].name(),
                threads
            );
        }
    }
}
