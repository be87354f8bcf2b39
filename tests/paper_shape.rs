//! Regression guards for the paper-shape invariants of EXPERIMENTS.md.
//!
//! These tests pin the *orderings and bands* the reproduction targets —
//! if a codec or the workload generator changes in a way that breaks the
//! published shape, CI fails here rather than in a human reading the
//! figures.  Run at a reduced scale for speed; the bands are wide enough
//! to be scale-stable (every size includes model/dictionary overheads,
//! which weigh more at small scale, hence the upper slack).

use cce_core::isa::Isa;
use cce_core::workload::spec95_suite;
use cce_core::{measure, Algorithm};

// Half scale keeps the run fast while the programs stay large enough to
// amortize the fixed model/dictionary tables the ratios include.
const SCALE: f64 = 0.5;

/// The paper's five evaluated schemes, in legend order — the whole
/// registry; the figure-shape pins cover what §5 published.
const PAPER_ALGOS: [Algorithm; 5] = [
    Algorithm::UnixCompress,
    Algorithm::Gzip,
    Algorithm::ByteHuffman,
    Algorithm::Samc,
    Algorithm::Sadc,
];

fn suite_means(isa: Isa) -> [f64; 5] {
    // Every third benchmark: spans small (swim) to large (gcc/vortex).
    let programs: Vec<_> = spec95_suite(isa, SCALE).into_iter().step_by(3).collect();
    let mut sums = [0.0f64; 5];
    for program in &programs {
        for (i, &algorithm) in PAPER_ALGOS.iter().enumerate() {
            sums[i] += measure(algorithm, isa, &program.text, 32)
                .unwrap_or_else(|e| panic!("{algorithm}/{}: {e}", program.name))
                .ratio();
        }
    }
    sums.map(|s| s / programs.len() as f64)
}

#[test]
fn mips_figure7_shape_holds() {
    let [compress, gzip, huffman, samc, sadc] = suite_means(Isa::Mips);

    // Orderings the paper reports (Fig. 7 / Fig. 9 / prose).
    assert!(gzip < sadc, "gzip {gzip:.3} must beat SADC {sadc:.3}");
    assert!(sadc < samc, "SADC {sadc:.3} must beat SAMC {samc:.3}");
    assert!(samc < huffman, "SAMC {samc:.3} must beat byte-Huffman {huffman:.3}");
    assert!(sadc < compress, "SADC {sadc:.3} must beat compress {compress:.3}");
    // SAMC ≈ compress: within 20% of each other.
    assert!(
        (samc - compress).abs() / compress < 0.20,
        "SAMC {samc:.3} should be comparable to compress {compress:.3}"
    );

    // Bands (generous ±0.12 around the full-scale measured values).
    for (name, value, center) in [
        ("compress", compress, 0.56),
        ("gzip", gzip, 0.42),
        ("huffman", huffman, 0.72),
        ("samc", samc, 0.60),
        ("sadc", sadc, 0.51),
    ] {
        assert!(
            (value - center).abs() < 0.12,
            "{name} mean {value:.3} left its band around {center}"
        );
    }
}

#[test]
fn x86_figure8_shape_holds() {
    let [compress, gzip, huffman, samc, sadc] = suite_means(Isa::X86);

    // File compressors gain ground on the CISC: the SAMC-to-compress gap
    // must be wider on x86 than the paper-shape MIPS gap (~0.04).
    assert!(
        samc - compress > 0.10,
        "x86 SAMC {samc:.3} vs compress {compress:.3}: CISC gap missing"
    );
    // SAMC (byte stream) is the weakest instruction scheme but still at
    // or slightly better than Huffman.
    assert!(samc < huffman + 0.02, "SAMC {samc:.3} vs huffman {huffman:.3}");
    // SADC stays between gzip and SAMC.
    assert!(gzip < sadc && sadc < samc, "gzip {gzip:.3} < SADC {sadc:.3} < SAMC {samc:.3}");
}

#[test]
fn block_size_has_minimal_impact() {
    // §5's claim, pinned: 16-byte vs 128-byte blocks change SAMC's mean
    // by less than 0.04 absolute.
    let programs = spec95_suite(Isa::Mips, SCALE);
    let mean_for = |block: usize| {
        programs
            .iter()
            .step_by(4)
            .map(|p| measure(Algorithm::Samc, Isa::Mips, &p.text, block).expect("measures").ratio())
            .sum::<f64>()
            / programs.iter().step_by(4).count() as f64
    };
    let small = mean_for(16);
    let large = mean_for(128);
    assert!(
        (small - large).abs() < 0.04,
        "block-size sensitivity too high: {small:.3} vs {large:.3}"
    );
}
